package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"mcs"
	"mcs/internal/core"
	"mcs/internal/gridftp"
	"mcs/internal/rls"
)

// The discover workload is the paper's Fig. 2 chain as LIGO ran it: one
// analyst searches the catalog by attribute, reads the metadata of the
// first results, locates them through the RLS and fetches one over
// GridFTP, and now and then registers derived products. It runs over SOAP
// with authorization enforced through the collection hierarchy.
const (
	// discoverFiles is three times the 8192 entries of each epoch cache
	// in internal/core, so the Zipf tail cannot stay cached.
	discoverFiles = 3 * 8192
	// discoverGroups value groups select discoverFiles/discoverGroups
	// (48) files each.
	discoverGroups = 512
	// discoverZipfS skews which groups sessions search.
	discoverZipfS = 1.1
	// Each round is discoverSessions sessions. Every session looks up its
	// first discoverLookups results; every discoverFetchEvery-th fetches
	// one; the last registers discoverBurst derived products, whose
	// commits end the caches' epoch.
	discoverSessions    = 32
	discoverLookups     = 3
	discoverFetchEvery  = 4
	discoverBurst       = 8
	discoverRoundsPerS  = 7.0
	discoverWarmRounds  = 4
	analystDN           = "/O=Grid/OU=LIGO/CN=analyst"
	ligoAdminDN         = "/O=Grid/OU=LIGO/CN=catalog-admin"
	derivedCollection   = "ligo/derived"
	discoverLoadBatch   = 512
	discoverGPSBase     = 700000000
	discoverDerivedBase = 900000000
)

var ifos = [3]string{"H1", "H2", "L1"}

type discover struct {
	seed   int64
	files  int
	groups int
	zipf   *rand.Zipf
	perm   []int // Zipf rank -> value group

	base    map[int][]string            // value group -> base names, sorted
	derived map[int][]string            // value group -> derived names, sorted
	attrsOf map[string][]core.Attribute // derived product attributes

	f    *fabric
	r    *runner
	rlsc *rls.Client
	ftpc *gridftp.Client
}

func newDiscover(seed int64, files, groups int) *discover {
	rng := rand.New(rand.NewSource(seed))
	return &discover{
		seed: seed, files: files, groups: groups,
		perm:    rng.Perm(groups),
		zipf:    rand.NewZipf(rng, discoverZipfS, 1, uint64(groups-1)),
		base:    make(map[int][]string),
		derived: make(map[int][]string),
		attrsOf: make(map[string][]core.Attribute),
	}
}

func (d *discover) catalogOptions() core.Options {
	return core.Options{Owner: ligoAdminDN, EnforceAuthz: true}
}

// Base file i is a frame of science run i%4+1 from interferometer
// ifos[(i/4)%3], in collection ligo/S<run>/<ifo>; it belongs to value
// group i%groups.
func (d *discover) name(i int) string {
	return fmt.Sprintf("%s-R-S%d-%08d.gwf", ifos[(i/4)%3], i%4+1, i)
}

func (d *discover) collection(i int) string {
	return fmt.Sprintf("ligo/S%d/%s", i%4+1, ifos[(i/4)%3])
}

// groupAttrs are the two searched attributes of value group g.
func groupAttrs(g int) []core.Attribute {
	return []core.Attribute{
		{Name: "channel", Value: core.String(fmt.Sprintf("H1:LSC-DARM_ERR-%02d", g%64))},
		{Name: "frameType", Value: core.String(fmt.Sprintf("RDS_R_L%d", g/64))},
	}
}

func fileAttrs(g int, gps int64, snr float64) []core.Attribute {
	return append(groupAttrs(g),
		core.Attribute{Name: "gpsStart", Value: core.Int(gps)},
		core.Attribute{Name: "snr", Value: core.Float(snr)})
}

func (d *discover) baseAttrs(i int) []core.Attribute {
	return fileAttrs(i%d.groups, discoverGPSBase+16*int64(i), float64(i%997)/8)
}

func (d *discover) query(g int) core.Query {
	var q core.Query
	for _, a := range groupAttrs(g) {
		q.Predicates = append(q.Predicates, core.Predicate{Attribute: a.Name, Op: core.OpEq, Value: a.Value})
	}
	return q
}

// expected is what a search of group g must return: the group's base
// files and the derived products registered into it so far, sorted.
func (d *discover) expected(g int) []string {
	b, ok := d.base[g]
	if !ok {
		for i := g; i < d.files; i += d.groups {
			b = append(b, d.name(i))
		}
		sort.Strings(b)
		d.base[g] = b
	}
	out := append(append([]string(nil), b...), d.derived[g]...)
	sort.Strings(out)
	return out
}

func (d *discover) attrs(name string) []core.Attribute {
	if a, ok := d.attrsOf[name]; ok {
		return a
	}
	// Base names end in the file's index: "...-%08d.gwf".
	i, err := strconv.Atoi(name[len(name)-12 : len(name)-4])
	if err != nil {
		return nil
	}
	return d.baseAttrs(i)
}

func (d *discover) load(f *fabric) error {
	cat := f.cat
	for _, a := range fileAttrs(0, 0, 0) {
		if _, err := cat.DefineAttribute(ligoAdminDN, a.Name, a.Value.Type, "LIGO "+a.Name); err != nil {
			return err
		}
	}
	colls := []core.CollectionSpec{{Name: "ligo"}, {Name: derivedCollection, Parent: "ligo"}}
	for run := 1; run <= 4; run++ {
		parent := fmt.Sprintf("ligo/S%d", run)
		colls = append(colls, core.CollectionSpec{Name: parent, Parent: "ligo"})
		for _, ifo := range ifos {
			colls = append(colls, core.CollectionSpec{Name: parent + "/" + ifo, Parent: parent})
		}
	}
	for _, c := range colls {
		if _, err := cat.CreateCollection(ligoAdminDN, c); err != nil {
			return err
		}
	}
	// The analyst reads everything through the root collection's grant
	// (authorization walks the hierarchy) and may add derived products.
	grants := []struct {
		typ  core.ObjectType
		obj  string
		perm core.Permission
	}{
		{core.ObjectCollection, "ligo", core.PermRead},
		{core.ObjectService, "", core.PermCreate},
		{core.ObjectCollection, derivedCollection, core.PermWrite},
	}
	for _, g := range grants {
		if err := cat.Grant(ligoAdminDN, g.typ, g.obj, analystDN, g.perm); err != nil {
			return err
		}
	}
	specs := make([]core.FileSpec, 0, discoverLoadBatch)
	for i := 0; i < d.files; i++ {
		specs = append(specs, core.FileSpec{
			Name: d.name(i), DataType: "binary", Collection: d.collection(i),
			Attributes: d.baseAttrs(i),
		})
		f.lrc.Add(d.name(i), f.pfn(d.name(i)))
		if len(specs) == discoverLoadBatch || i == d.files-1 {
			if _, err := cat.BatchWrite(ligoAdminDN, batchOps(specs)); err != nil {
				return err
			}
			specs = specs[:0]
		}
	}
	return nil
}

func (d *discover) attach(f *fabric, tr *tracer) []*runner {
	d.f = f
	c := mcs.NewClient(f.mcsURL, analystDN, mcs.WithHTTPClient(httpClient(tr)))
	d.r = &runner{dn: analystDN, be: clientBackend{c}, tr: tr, rec: &recorder{}}
	d.rlsc = rls.NewClient(f.rlsURL)
	d.ftpc = gridftp.NewClient(f.ftpAddr, 1)
	return []*runner{d.r}
}

func (d *discover) rounds(seconds int) (int, int) {
	return discoverWarmRounds, roundsFor(seconds, discoverRoundsPerS)
}

func (d *discover) run(from, to int) {
	for k := from * discoverSessions; k < to*discoverSessions; k++ {
		d.session(k)
	}
}

// session k: search, look up and locate the first results, maybe fetch
// one, and at the end of a round register derived products.
func (d *discover) session(k int) {
	r := d.r
	g := d.perm[d.zipf.Uint64()]
	var parent int64
	if r.tr != nil {
		_, s := r.tr.begin(context.Background(), "session", "", 0)
		parent = s.ID
		defer r.tr.finish(s)
	}
	want := d.expected(g)
	if res, ok := r.do(parent, op{kind: opSearch, query: d.query(g)}); ok {
		r.expect(sameNames(res.names, want), "discover search of group %d: %d names, want %d", g, len(res.names), len(want))
	}
	for _, name := range want[:min(discoverLookups, len(want))] {
		if res, ok := r.do(parent, op{kind: opGetAttrs, name: name}); ok {
			r.expect(sameAttrs(res.attrs, d.attrs(name)), "discover getAttributes %s: %v", name, res.attrs)
		}
		locate(r, d.f, d.rlsc, parent, name)
	}
	if k%discoverFetchEvery == 0 {
		fetch(r, d.ftpc, parent, want[0], d.seed)
	}
	if k%discoverSessions == discoverSessions-1 {
		d.registerDerived(parent, k/discoverSessions, g)
	}
}

// registerDerived adds round's derived products to group g: each is a
// createFile plus an LRC mapping, and one RLI update follows the burst.
func (d *discover) registerDerived(parent int64, round, g int) {
	r := d.r
	for j := 0; j < discoverBurst; j++ {
		n := round*discoverBurst + j
		spec := core.FileSpec{
			Name: fmt.Sprintf("derived-%07d.xml", n), DataType: "xml", Collection: derivedCollection,
			Attributes: fileAttrs(g, discoverDerivedBase+int64(n), float64(n%1000)/4),
		}
		res, ok := r.do(parent, op{kind: opCreate, files: []core.FileSpec{spec}})
		if !ok {
			continue
		}
		r.expect(res.file.Name == spec.Name && res.file.Version == 1, "discover createFile %s: got %s v%d", spec.Name, res.file.Name, res.file.Version)
		d.attrsOf[spec.Name] = spec.Attributes
		d.derived[g] = append(d.derived[g], spec.Name)
		r.aux(parent, "rls.add", func() error { return d.rlsc.AddMapping(spec.Name, d.f.pfn(spec.Name)) })
	}
	r.aux(parent, "rls.update", func() error { return d.f.pushRLI(d.rlsc) })
}

func (d *discover) verify(*fabric, *recorder)   {}
func (d *discover) registered() []core.FileSpec { return nil }
func (d *discover) probeNames() []string        { return nil }
