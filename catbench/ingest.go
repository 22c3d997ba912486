package main

import (
	"fmt"
	"math/rand"

	"mcs"
	"mcs/internal/bench"
	"mcs/internal/core"
)

// The ingest workload is ESG/POOL-style bulk publication: the catalog
// owner publishes datasets over JSON as batchWrite calls of ingestBatch
// files with ten attributes each, into a growing catalog. After each batch
// it reads back a few of the new files and searches for the dataset.
const (
	ingestBase       = 1000
	ingestBatch      = 100
	ingestLookups    = 5
	ingestRoundsPerS = 10.0
	ingestWarmRounds = 10
	publisherDN      = "/O=Grid/OU=ESG/CN=publisher"
)

type ingest struct {
	seed  int64
	base  int
	batch int
	rng   *rand.Rand
	acked []core.FileSpec

	f *fabric
	r *runner
}

func newIngest(seed int64, base, batch int) *ingest {
	return &ingest{seed: seed, base: base, batch: batch, rng: rand.New(rand.NewSource(seed))}
}

func (w *ingest) catalogOptions() core.Options {
	return core.Options{Owner: publisherDN, EnforceAuthz: true}
}

// ingestAttrs are nine attributes of internal/bench value group g, of
// mixed types, plus the dataset a file was published in.
func ingestAttrs(g int, dataset string) []core.Attribute {
	return append(bench.FileAttributes(g, 9), core.Attribute{Name: "dataset", Value: core.String(dataset)})
}

func dataset(k int) string { return fmt.Sprintf("ds-%06d", k) }

func (w *ingest) load(f *fabric) error {
	cat := f.cat
	for _, a := range ingestAttrs(0, "") {
		if _, err := cat.DefineAttribute(publisherDN, a.Name, a.Value.Type, "ESG "+a.Name); err != nil {
			return err
		}
	}
	colls := []core.CollectionSpec{{Name: "esg"}, {Name: "esg/base", Parent: "esg"}}
	for m := 0; m < 4; m++ {
		colls = append(colls, core.CollectionSpec{Name: fmt.Sprintf("esg/m%d", m), Parent: "esg"})
	}
	for _, c := range colls {
		if _, err := cat.CreateCollection(publisherDN, c); err != nil {
			return err
		}
	}
	specs := make([]core.FileSpec, w.base)
	for i := range specs {
		name := fmt.Sprintf("esg-base-%06d.nc", i)
		specs[i] = core.FileSpec{Name: name, DataType: "netcdf", Collection: "esg/base", Attributes: ingestAttrs(i%benchGroups, "base")}
		f.lrc.Add(name, f.pfn(name))
	}
	_, err := cat.BatchWrite(publisherDN, batchOps(specs))
	return err
}

func (w *ingest) attach(f *fabric, tr *tracer) []*runner {
	w.f = f
	c := mcs.NewClient(f.mcsURL, publisherDN, mcs.WithTransport(mcs.TransportJSON), mcs.WithHTTPClient(httpClient(tr)))
	w.r = &runner{dn: publisherDN, be: clientBackend{c}, tr: tr, rec: &recorder{}}
	return []*runner{w.r}
}

func (w *ingest) rounds(seconds int) (int, int) {
	return ingestWarmRounds, roundsFor(seconds, ingestRoundsPerS)
}

// run publishes one dataset per round: a batchWrite, ingestLookups
// getAttributes of new files, and a search that must return the batch.
func (w *ingest) run(from, to int) {
	r := w.r
	for k := from; k < to; k++ {
		specs := make([]core.FileSpec, w.batch)
		names := make([]string, w.batch)
		for j := range specs {
			names[j] = fmt.Sprintf("esg-b%06d-f%03d.nc", k, j)
			specs[j] = core.FileSpec{
				Name: names[j], DataType: "netcdf", Collection: fmt.Sprintf("esg/m%d", k%4),
				Attributes: ingestAttrs(w.rng.Intn(benchGroups), dataset(k)),
			}
		}
		if res, ok := r.do(0, op{kind: opBatch, files: specs}); ok {
			r.expect(res.acks == len(specs), "ingest batchWrite %d: %d acks, want %d", k, res.acks, len(specs))
			w.acked = append(w.acked, specs...)
		}
		for l := 0; l < ingestLookups; l++ {
			s := specs[w.rng.Intn(len(specs))]
			if res, ok := r.do(0, op{kind: opGetAttrs, name: s.Name}); ok {
				r.expect(sameAttrs(res.attrs, s.Attributes), "ingest getAttributes %s: %v", s.Name, res.attrs)
			}
		}
		q := core.Query{Predicates: []core.Predicate{{Attribute: "dataset", Op: core.OpEq, Value: core.String(dataset(k))}}}
		if res, ok := r.do(0, op{kind: opSearch, query: q}); ok {
			r.expect(sameNames(res.names, names), "ingest search of %s: %d names, want %d", dataset(k), len(res.names), len(names))
		}
	}
}

// verify checks that the catalog counts exactly the loaded and the
// registered files.
func (w *ingest) verify(f *fabric, rec *recorder) {
	rec.attempted++
	st, err := f.cat.Stats()
	if want := w.base + len(w.acked); err != nil || st.Files != want {
		rec.failf("ingest stats: %d files (err %v), want %d", st.Files, err, want)
	}
}

func (w *ingest) registered() []core.FileSpec { return w.acked }

func (w *ingest) probeNames() []string {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("esg-base-%06d.nc", (i*37)%w.base)
	}
	return names
}
