package main

import (
	"fmt"
	"testing"

	"mcs/internal/core"
)

// TestTinyWorkloads runs every workload, untraced and traced, at tiny
// size: each must finish with no failed operation and report every metric
// of its kind above zero.
func TestTinyWorkloads(t *testing.T) {
	endToEnd := []string{"setup_s", "ops_s", "files_registered_s", "lookup_p50_ms", "lookup_p90_ms",
		"search_p50_ms", "search_p90_ms", "register_p50_ms", "register_p90_ms", "live_heap_mb", "wal_bytes_per_file"}
	perLayer := []string{"sqldb.register_commits", "wal.appends_per_register", "wal.fsyncs_per_append",
		"rls.locate_us", "gridftp.fetch_us", "runtime.alloc_kb_per_op", "runtime.gc_cycles_per_kop", "trace.ops_s"}
	for c := class(0); c < nClasses; c++ {
		for _, f := range []string{"client.%s_self_us", "wire.%s_req_bytes", "wire.%s_resp_bytes", "http.%s_self_us",
			"server.%s_us", "server.%s_dispatch_us", "catalog.%s_us", "sqldb.%s_stmts"} {
			perLayer = append(perLayer, fmt.Sprintf(f, c))
		}
	}
	for _, name := range []string{"discover", "ingest", "mixed"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				out, err := run(config{workload: name, seed: 7, seconds: 1, trace: trace, dir: t.TempDir(), tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d, correct %v", out.Attempted, out.Failed, out.Correct)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for _, k := range want {
					// A tiny run may finish without a GC cycle.
					if m, ok := out.Metrics[k]; !ok || !(m.Value > 0) && k != "runtime.gc_cycles_per_kop" {
						t.Errorf("metric %s = %+v, want > 0", k, m)
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(want))
				}
			})
		}
	}
}

// TestCheckerFlagsWrongSearch feeds the discover checker a search result
// with one name missing and one wrong name.
func TestCheckerFlagsWrongSearch(t *testing.T) {
	d := newDiscover(1, 64, 4)
	want := d.expected(2)
	if !sameNames(append([]string(nil), want...), want) {
		t.Fatal("the exact result was rejected")
	}
	if sameNames(want[1:], want) {
		t.Error("a result missing a file was accepted")
	}
	wrong := append([]string{d.name(3)}, want[1:]...)
	if sameNames(wrong, want) {
		t.Error("a result with a file of another group was accepted")
	}
	r := &runner{rec: &recorder{}}
	r.expect(sameNames(wrong, want), "wrong search")
	if r.rec.failed != 1 {
		t.Errorf("failed = %d after a wrong answer, want 1", r.rec.failed)
	}
}

// TestCheckerFlagsMissingRegistration replays a write-ahead log that lacks
// an acknowledged registration: the check must count it as failed.
func TestCheckerFlagsMissingRegistration(t *testing.T) {
	w := newIngest(1, 20, 5)
	f, err := newFabric(w, t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	w.attach(f, nil)
	w.run(0, 2)
	if w.r.rec.failed != 0 {
		t.Fatalf("%d failures before the check", w.r.rec.failed)
	}
	// Claim one more acknowledged file than the catalog ever received.
	w.acked = append(w.acked, core.FileSpec{
		Name: "esg-never-registered.nc", Attributes: ingestAttrs(3, dataset(99)),
	})
	rec := &recorder{}
	w.verify(f, rec)
	if err := walCheck(w, f, rec); err != nil {
		t.Fatal(err)
	}
	// One failure from the file count, one from the replayed log.
	if rec.failed != 2 {
		t.Errorf("failed = %d, want 2", rec.failed)
	}
	if want := int64(1 + len(w.acked)); rec.attempted != want {
		t.Errorf("attempted = %d, want %d", rec.attempted, want)
	}
}

// TestSelfTimes checks self-time arithmetic on a hand-built span tree:
// a client span holding an http span, which holds a server span that
// overhangs its end, next to a session with two overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client", Class: "search", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "http", ReqID: "r1", Start: 15, End: 55},
		{ID: 4, Name: "server", ReqID: "r1", Start: 20, End: 58},
		{ID: 5, Parent: 1, Name: "locate", Start: 50, End: 80},
		{ID: 6, Parent: 1, Name: "gridftp.fetch", Start: 90, End: 95},
	}
	linkServers(spans)
	if spans[3].Parent != 3 {
		t.Fatalf("server span parent = %d, want 3", spans[3].Parent)
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (80 - 10) - 5, // children cover [10,80) and [90,95)
		2: 50 - 40,
		3: 40 - 35, // the server child is clipped to [20,55)
		4: 38,
		5: 30,
		6: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	ls := analyse(spans)
	if got := ls.clientSelf[search]; len(got) != 1 || got[0] != 0.010 {
		t.Errorf("client search self = %v µs, want [0.010]", got)
	}
	if got := ls.server[search]; len(got) != 1 || got[0] != 0.038 {
		t.Errorf("server search = %v µs, want [0.038]", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.9); p != 5 {
		t.Errorf("p90 = %v, want 5", p)
	}
}
