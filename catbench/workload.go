package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"

	"mcs/internal/core"
	"mcs/internal/gridftp"
	"mcs/internal/rls"
)

// benchGroups is the value-group count of internal/bench's generator:
// bench.FileAttributes(i, n) binds the values of group i%benchGroups.
const benchGroups = 50

// workload is one seeded traffic mix. Its sequence of operations is a
// function of the seed alone: round k is the same whatever ran before it.
type workload interface {
	// catalogOptions is the catalog's authorization set-up.
	catalogOptions() core.Options
	// load fills a fresh fabric's catalog and LRC with the base data set.
	load(f *fabric) error
	// attach makes the workload's closed-loop clients for f.
	attach(f *fabric, tr *tracer) []*runner
	// rounds returns the warm-up and timed round counts for a run whose
	// measured phase should take about seconds on the reference host.
	rounds(seconds int) (warm, timed int)
	// run executes rounds [from, to) on the attached clients.
	run(from, to int)
	// verify runs the end-of-run checks on the live fabric.
	verify(f *fabric, rec *recorder)
	// registered returns every acknowledged registration, which must
	// survive a replay of the write-ahead log; nil skips that check.
	registered() []core.FileSpec
	// probeNames returns base files whose RLS and GridFTP path the traced
	// run exercises when the workload's own sessions do not.
	probeNames() []string
}

// newWorkload returns the named workload; tiny shrinks it for tests.
func newWorkload(name string, seed int64, tiny bool) (workload, error) {
	switch name {
	case "discover":
		if tiny {
			return newDiscover(seed, 512, 16), nil
		}
		return newDiscover(seed, discoverFiles, discoverGroups), nil
	case "ingest":
		if tiny {
			return newIngest(seed, 200, 10), nil
		}
		return newIngest(seed, ingestBase, ingestBatch), nil
	case "mixed":
		if tiny {
			return newMixed(seed, 300), nil
		}
		return newMixed(seed, mixedBase), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want discover, ingest or mixed)", name)
}

// roundsFor scales a workload's round rate to a run length, with at least
// one timed round.
func roundsFor(seconds int, perSecond float64) int {
	return max(1, int(math.Round(float64(seconds)*perSecond)))
}

// locate resolves name through the RLS as a client does: the RLI names
// the LRC, and the LRC gives the physical file name.
func locate(r *runner, f *fabric, c *rls.Client, parent int64, name string) {
	var s span
	if r.tr != nil {
		_, s = r.tr.begin(context.Background(), "locate", "", parent)
		parent = s.ID
	}
	var lrcs, pfns []string
	if r.aux(parent, "rls.query", func() (err error) { lrcs, err = c.QueryRLI(name); return err }) {
		r.expect(len(lrcs) == 1 && lrcs[0] == lrcName, "rli query %s: %v", name, lrcs)
	}
	if r.aux(parent, "rls.lookup", func() (err error) { pfns, err = c.Lookup(name); return err }) {
		r.expect(len(pfns) == 1 && pfns[0] == f.pfn(name), "lrc lookup %s: %v", name, pfns)
	}
	if r.tr != nil {
		r.tr.finish(s)
	}
}

// fetch retrieves name over GridFTP and checks its bytes.
func fetch(r *runner, c *gridftp.Client, parent int64, name string, seed int64) {
	var data []byte
	if r.aux(parent, "gridftp.fetch", func() (err error) { data, err = c.Retrieve(name); return err }) {
		r.expect(bytes.Equal(data, content(seed, name)), "gridftp fetch %s: %d bytes differ from the generator's", name, len(data))
	}
}

// walCheck stops f, replays its write-ahead log into a fresh catalog and
// checks that every acknowledged registration is there with the
// generator's attributes. Each registration checked is one operation.
func walCheck(w workload, f *fabric, rec *recorder) error {
	if err := f.closeServers(); err != nil {
		return fmt.Errorf("closing wal: %w", err)
	}
	// Let the live catalog go before building its replica.
	f.cat, f.srv = nil, nil
	runtime.GC()
	opts := w.catalogOptions()
	cat, err := core.Open(opts)
	if err != nil {
		return err
	}
	wal, _, err := cat.OpenWAL(f.walPath, walOptions)
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	defer wal.Close()
	for _, s := range w.registered() {
		rec.attempted++
		attrs, err := cat.GetAttributes(opts.Owner, core.ObjectFile, s.Name)
		if err != nil {
			rec.failf("wal replay: acknowledged %s: %v", s.Name, err)
		} else if !sameAttrs(attrs, s.Attributes) {
			rec.failf("wal replay: acknowledged %s has attributes %v, want %v", s.Name, attrs, s.Attributes)
		}
	}
	return nil
}
