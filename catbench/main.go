// Command catbench is the catalog's benchmark: it starts the real servers
// (the metadata catalog, the RLS and GridFTP) on loopback in one process,
// drives one seeded workload through their public clients in a closed
// loop, checks every answer against the workload generator, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run). The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's sources. See
// README.md for the workloads, the metrics and the reference figures.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mcs/internal/core"
	"mcs/internal/gridftp"
	"mcs/internal/rls"
)

// setups is how many times an untraced run builds the fabric; setup_s is
// their median.
const setups = 3

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch space: write-ahead logs and span files
	tiny     bool   // shrink the workload (tests)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header identifies a run: host, code and inputs. It is printed before
// the result and heads every span file.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GitRev     string `json:"git_rev"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "discover", "workload: discover, ingest or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the measured phase; sets the number of rounds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "catbench"), "scratch directory")
	flag.Parse()
	if flag.Arg(0) == "steady" {
		os.Exit(steady(cfg.dir, flag.Args()[1:]))
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "catbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func fingerprint(cfg config) header {
	h := header{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GitRev: "unknown", CPU: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitRev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.GitRev += "+modified"
				}
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// run performs one benchmark run: set-up, warm-up, the measured phase and
// the end checks.
func run(cfg config) (outcome, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return outcome{}, err
	}
	hdr := fingerprint(cfg)
	if line, err := json.Marshal(map[string]header{"run": hdr}); err == nil {
		fmt.Println(string(line))
	}
	var tr *tracer
	n := setups
	if cfg.trace {
		tr, n = newTracer(), 1
	}
	var f *fabric
	var setupS []float64
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
			f = nil
			runtime.GC()
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d-%d", os.Getpid(), i))
		t0 := time.Now()
		if f, err = newFabric(w, dir, cfg.seed, tr); err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer f.close()

	runners := w.attach(f, tr)
	warm, timed := w.rounds(cfg.seconds)
	if cfg.tiny {
		warm, timed = 1, 2
	}
	total := &recorder{}
	w.run(0, warm)
	for _, r := range runners {
		total.attempted += r.rec.attempted
		total.failed += r.rec.failed
		r.rec, r.ops = &recorder{}, nil
	}
	if tr != nil {
		tr.reset()
	}
	runtime.GC()

	walBefore, sizeBefore := f.wal.Stats(), fileSize(f.walPath)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	disp0 := dispatch(f)
	t0 := time.Now()
	w.run(warm, warm+timed)
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&mem1)
	walAfter, sizeAfter := f.wal.Stats(), fileSize(f.walPath)
	disp1 := dispatch(f)

	phase := &recorder{}
	for _, r := range runners {
		phase.add(r.rec)
	}
	total.attempted += phase.attempted
	total.failed += phase.failed
	calls := float64(phase.calls)
	m := map[string]metric{}

	if !cfg.trace {
		runtime.GC()
		var heap runtime.MemStats
		runtime.ReadMemStats(&heap)
		m["setup_s"] = metric{median(setupS), "s"}
		m["ops_s"] = metric{calls / elapsed, "1/s"}
		m["files_registered_s"] = metric{float64(phase.files) / elapsed, "1/s"}
		for c := class(0); c < nClasses; c++ {
			lat := ms(phase.lat[c])
			m[c.String()+"_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
			m[c.String()+"_p90_ms"] = metric{percentile(lat, 0.9), "ms"}
		}
		m["live_heap_mb"] = metric{float64(heap.HeapAlloc) / 1e6, "MB"}
		m["wal_bytes_per_file"] = metric{float64(sizeAfter-sizeBefore) / float64(max(phase.files, 1)), "B"}
		w.verify(f, total)
	} else {
		ls := analyse(tr.snapshot())
		w.verify(f, total)
		probe(w, f, runners[0], cfg.seed, total, &ls)
		direct := replay(f, runners, total)
		for c := class(0); c < nClasses; c++ {
			p := c.String()
			m["client."+p+"_self_us"] = metric{median(ls.clientSelf[c]), "us"}
			m["wire."+p+"_req_bytes"] = metric{mean(ls.reqBytes[c]), "B"}
			m["wire."+p+"_resp_bytes"] = metric{mean(ls.respBytes[c]), "B"}
			m["http."+p+"_self_us"] = metric{median(ls.httpSelf[c]), "us"}
			m["server."+p+"_us"] = metric{median(ls.server[c]), "us"}
			m["server."+p+"_dispatch_us"] = metric{disp1[c].since(disp0[c]), "us"}
			m["catalog."+p+"_us"] = metric{median(direct.us[c]), "us"}
			m["sqldb."+p+"_stmts"] = metric{mean(direct.stmts[c]), "count"}
		}
		m["sqldb.register_commits"] = metric{mean(direct.commits), "count"}
		registers := float64(len(phase.lat[register]))
		appends := float64(walAfter.Appends - walBefore.Appends)
		m["wal.appends_per_register"] = metric{appends / max(registers, 1), "count"}
		m["wal.fsyncs_per_append"] = metric{float64(walAfter.Fsyncs-walBefore.Fsyncs) / max(appends, 1), "count"}
		m["rls.locate_us"] = metric{median(ls.locate), "us"}
		m["gridftp.fetch_us"] = metric{median(ls.fetch), "us"}
		m["runtime.alloc_kb_per_op"] = metric{float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / calls, "KB"}
		m["runtime.gc_cycles_per_kop"] = metric{float64(mem1.NumGC-mem0.NumGC) * 1000 / calls, "count"}
		m["trace.ops_s"] = metric{calls / elapsed, "1/s"}
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		spans := tr.snapshot()
		linkServers(spans)
		if err := writeSpans(path, map[string]header{"run": hdr}, spans); err != nil {
			return outcome{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "catbench: %d spans written to %s\n", len(spans), path)
	}
	if w.registered() != nil {
		if err := walCheck(w, f, total); err != nil {
			return outcome{}, err
		}
	}
	return outcome{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// dispatchTotals sums the server's own latency histograms over the ops of
// each class, whichever wire served them.
type dispatchTotals struct {
	sum   time.Duration
	count int64
}

// since is the mean dispatch time, in µs, of the calls between o and d.
func (d dispatchTotals) since(o dispatchTotals) float64 {
	if d.count == o.count {
		return 0
	}
	return float64(d.sum-o.sum) / 1e3 / float64(d.count-o.count)
}

var opClass = map[string]class{
	"getFile": lookup, "getAttributes": lookup, "query": search,
	"createFile": register, "batchWrite": register,
}

func dispatch(f *fabric) [nClasses]dispatchTotals {
	var out [nClasses]dispatchTotals
	for _, om := range f.srv.Metrics().Ops() {
		if c, ok := opClass[om.Name()]; ok {
			out[c].sum += om.Latency().Sum()
			out[c].count += om.Latency().Count()
		}
	}
	return out
}

// probe locates and fetches a few base files when the workload's own
// sessions do not use the RLS and GridFTP, so their per-layer figures are
// measured on every workload.
func probe(w workload, f *fabric, r *runner, seed int64, total *recorder, ls *layerStats) {
	names := w.probeNames()
	if len(names) == 0 {
		return
	}
	r.rec = &recorder{}
	n0 := len(r.tr.snapshot())
	rlsc := rls.NewClient(f.rlsURL)
	ftpc := gridftp.NewClient(f.ftpAddr, 1)
	for i, name := range names {
		locate(r, f, rlsc, 0, name)
		if i%discoverFetchEvery == 0 {
			fetch(r, ftpc, 0, name, seed)
		}
	}
	total.attempted += r.rec.attempted
	total.failed += r.rec.failed
	p := analyse(r.tr.snapshot()[n0:])
	ls.locate, ls.fetch = p.locate, p.fetch
}

// directStats are the catalog engine's figures from the direct replay.
type directStats struct {
	us, stmts [nClasses][]float64
	commits   []float64
}

// Replay limits: enough calls for steady medians, few enough registrations
// that the replay does not grow the catalog much.
const (
	replayMaxOps       = 2000
	replayMaxRegisters = 32
)

// replay runs the traced phase's calls again, in the order they were
// issued and as the same identities, straight on *core.Catalog: no wire,
// no HTTP. It counts the SQL statements of each call through the
// engine's statement hook and the commits through its epoch. Replayed
// registrations carry renamed files.
func replay(f *fabric, runners []*runner, total *recorder) directStats {
	var ops []recordedOp
	for _, r := range runners {
		ops = append(ops, r.ops...)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	db := f.cat.DB()
	var stmts atomic.Int64
	db.SetFaultHook(func(string) error { stmts.Add(1); return nil })
	defer db.SetFaultHook(nil)
	var ds directStats
	registers := 0
	for i, o := range ops {
		if i == replayMaxOps {
			break
		}
		c := o.kind.class()
		if c == register {
			if registers == replayMaxRegisters {
				continue
			}
			registers++
			o.files = renamed(o.files)
		}
		be := catalogBackend{cat: f.cat, dn: o.dn}
		s0, e0 := stmts.Load(), db.Epoch()
		t0 := time.Now()
		_, err := be.do(context.Background(), o.op)
		d := time.Since(t0)
		total.attempted++
		if err != nil {
			total.failf("direct replay %v %s: %v", c, o.name, err)
			continue
		}
		ds.us[c] = append(ds.us[c], float64(d)/1e3)
		ds.stmts[c] = append(ds.stmts[c], float64(stmts.Load()-s0))
		if c == register {
			ds.commits = append(ds.commits, float64(db.Epoch()-e0))
		}
	}
	return ds
}

// renamed copies specs under new names. A "dataset" attribute is renamed
// too, so replayed searches of a dataset match what the traced ones did.
func renamed(specs []core.FileSpec) []core.FileSpec {
	out := make([]core.FileSpec, len(specs))
	for i, s := range specs {
		s.Name += ".direct"
		s.Attributes = append([]core.Attribute(nil), s.Attributes...)
		for j, a := range s.Attributes {
			if a.Name == "dataset" {
				s.Attributes[j].Value = core.String(a.Value.S + ".direct")
			}
		}
		out[i] = s
	}
	return out
}
