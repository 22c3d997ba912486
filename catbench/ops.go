package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"mcs"
	"mcs/internal/core"
)

// class groups catalog calls for latency reporting.
type class int

const (
	lookup class = iota
	search
	register
	nClasses
)

var classNames = [nClasses]string{"lookup", "search", "register"}

func (c class) String() string { return classNames[c] }

// opKind is one catalog call.
type opKind int

const (
	opGetFile opKind = iota
	opGetAttrs
	opSearch
	opCreate
	opBatch
)

func (k opKind) class() class {
	switch k {
	case opSearch:
		return search
	case opCreate, opBatch:
		return register
	}
	return lookup
}

// op is the input of one catalog call. The same op runs through the
// client (the measured path) or straight on *core.Catalog (the traced
// run's direct replay).
type op struct {
	kind  opKind
	name  string          // getFile, getAttributes
	query core.Query      // query
	files []core.FileSpec // createFile (one) or batchWrite (many)
}

// result is the output of one catalog call; which field is set depends on
// the op kind.
type result struct {
	file  core.File
	attrs []core.Attribute
	names []string
	acks  int
}

// backend executes ops as one identity.
type backend interface {
	do(ctx context.Context, o op) (result, error)
}

// clientBackend runs ops through the public mcs.Client over a wire.
type clientBackend struct{ c *mcs.Client }

func (b clientBackend) do(ctx context.Context, o op) (result, error) {
	var r result
	var err error
	switch o.kind {
	case opGetFile:
		r.file, err = b.c.GetFileCtx(ctx, o.name, 0)
	case opGetAttrs:
		r.attrs, err = b.c.GetAttributesCtx(ctx, mcs.ObjectFile, o.name)
	case opSearch:
		r.names, err = b.c.RunQueryCtx(ctx, o.query)
	case opCreate:
		r.file, err = b.c.CreateFileCtx(ctx, o.files[0])
	case opBatch:
		var res []core.BatchResult
		res, err = b.c.BatchWriteCtx(ctx, batchOps(o.files))
		r.acks = len(res)
	}
	return r, err
}

// catalogBackend runs ops directly on the catalog engine, with no wire.
type catalogBackend struct {
	cat *core.Catalog
	dn  string
}

func (b catalogBackend) do(_ context.Context, o op) (result, error) {
	var r result
	var err error
	switch o.kind {
	case opGetFile:
		r.file, err = b.cat.GetFile(b.dn, o.name, 0)
	case opGetAttrs:
		r.attrs, err = b.cat.GetAttributes(b.dn, core.ObjectFile, o.name)
	case opSearch:
		r.names, err = b.cat.RunQuery(b.dn, o.query)
	case opCreate:
		r.file, err = b.cat.CreateFile(b.dn, o.files[0])
	case opBatch:
		var res []core.BatchResult
		res, err = b.cat.BatchWrite(b.dn, batchOps(o.files))
		r.acks = len(res)
	}
	return r, err
}

func batchOps(files []core.FileSpec) []core.BatchOp {
	ops := make([]core.BatchOp, len(files))
	for i := range files {
		ops[i] = core.BatchOp{CreateFile: &files[i]}
	}
	return ops
}

// recorder accumulates one client's measurements for one phase.
type recorder struct {
	lat       [nClasses][]time.Duration
	calls     int64 // catalog calls completed
	files     int64 // files registered
	attempted int64 // every operation tried: catalog, RLS, GridFTP, checks
	failed    int64
}

func (r *recorder) add(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.calls += o.calls
	r.files += o.files
	r.attempted += o.attempted
	r.failed += o.failed
}

// maxLoggedFailures bounds the failure lines one run prints.
const maxLoggedFailures = 20

var loggedFailures atomic.Int64

// failf counts a failed operation and prints its first occurrences.
func (r *recorder) failf(format string, args ...any) {
	r.failed++
	if loggedFailures.Add(1) <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "catbench: FAILED: "+format+"\n", args...)
	}
}

// recordedOp is a catalog call kept by a traced run for the direct replay.
type recordedOp struct {
	op
	dn    string
	start int64
}

// runner is one closed-loop client: it issues one call at a time, times
// it, traces it when a tracer is set, and counts failures.
type runner struct {
	dn  string
	be  backend
	tr  *tracer // nil in untraced runs
	rec *recorder
	ops []recordedOp // calls of the traced phase, for the direct replay
}

// do runs one catalog call; ok is false when it returned an error, which
// is counted as a failure.
func (r *runner) do(parent int64, o op) (res result, ok bool) {
	ctx := context.Background()
	var s span
	if r.tr != nil {
		ctx, s = r.tr.begin(ctx, "client", o.kind.class().String(), parent)
	}
	t0 := time.Now()
	res, err := r.be.do(ctx, o)
	d := time.Since(t0)
	if r.tr != nil {
		r.tr.finish(s)
		r.ops = append(r.ops, recordedOp{op: o, dn: r.dn, start: s.Start})
	}
	r.rec.attempted++
	if err != nil {
		r.rec.failf("%v %s: %v", o.kind.class(), o.name, err)
		return res, false
	}
	r.rec.calls++
	r.rec.lat[o.kind.class()] = append(r.rec.lat[o.kind.class()], d)
	if o.kind == opCreate || o.kind == opBatch {
		r.rec.files += int64(len(o.files))
	}
	return res, true
}

// aux runs one non-catalog operation (an RLS or GridFTP call) as a span
// named name.
func (r *runner) aux(parent int64, name string, fn func() error) bool {
	var s span
	if r.tr != nil {
		_, s = r.tr.begin(context.Background(), name, "", parent)
	}
	err := fn()
	if r.tr != nil {
		r.tr.finish(s)
	}
	r.rec.attempted++
	if err != nil {
		r.rec.failf("%s: %v", name, err)
		return false
	}
	return true
}

// expect counts a wrong answer as a failed operation.
func (r *runner) expect(ok bool, format string, args ...any) {
	if !ok {
		r.rec.failf(format, args...)
	}
}

// sameNames reports whether got holds exactly the names of want (sorted).
func sameNames(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]string(nil), got...)
	sort.Strings(g)
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// sameAttrs reports whether got binds exactly the attributes of want, in
// any order.
func sameAttrs(got, want []core.Attribute) bool {
	if len(got) != len(want) {
		return false
	}
	m := make(map[string]core.AttrValue, len(want))
	for _, a := range want {
		m[a.Name] = a.Value
	}
	for _, a := range got {
		w, ok := m[a.Name]
		if !ok || w.Type != a.Value.Type || w.Render() != a.Value.Render() {
			return false
		}
	}
	return true
}
