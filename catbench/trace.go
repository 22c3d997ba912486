package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcs/internal/obs"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`            // session, client, http, server, locate, rls.*, gridftp.fetch
	Class  string `json:"class,omitempty"` // lookup, search or register, on client spans
	ReqID  string `json:"req_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Request and response body bytes, on http spans.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

// tracer keeps finished spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

type spanKey struct{}

// begin opens a span and returns a context that makes it the parent of
// spans opened further down the call (the http round trip).
func (t *tracer) begin(ctx context.Context, name, class string, parent int64) (context.Context, span) {
	s := span{ID: t.next.Add(1), Parent: parent, Name: name, Class: class, Start: t.now()}
	return context.WithValue(ctx, spanKey{}, s.ID), s
}

func (t *tracer) finish(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (those of the warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracingTransport records one http span per round trip, from sending the
// request until the response body is closed. It is the client's
// http.RoundTripper, installed with mcs.WithHTTPClient.
type tracingTransport struct {
	tr   *tracer
	base http.RoundTripper
}

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(int64)
	s := span{
		ID: t.tr.next.Add(1), Parent: parent, Name: "http",
		ReqID: req.Header.Get(obs.RequestIDHeader), Start: t.tr.now(),
		ReqBytes: req.ContentLength,
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.finish(s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

// tracedBody counts response bytes and ends the http span on close.
type tracedBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.RespBytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(func() { b.tr.finish(b.s) })
	return b.ReadCloser.Close()
}

// tracingHandler records one server span per request around the
// *mcs.Server handler. It is joined to its http span by request ID.
type tracingHandler struct {
	tr   *tracer
	next http.Handler
}

func (h tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := span{ID: h.tr.next.Add(1), Name: "server", ReqID: r.Header.Get(obs.RequestIDHeader), Start: h.tr.now()}
	h.next.ServeHTTP(w, r)
	h.tr.finish(s)
}

// linkServers makes each server span a child of the http span that
// carried the same request ID.
func linkServers(spans []span) {
	byReq := make(map[string]int64)
	for _, s := range spans {
		if s.Name == "http" && s.ReqID != "" {
			byReq[s.ReqID] = s.ID
		}
	}
	for i := range spans {
		if spans[i].Name == "server" {
			spans[i].Parent = byReq[spans[i].ReqID]
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, reach int64 = 0, s.Start
		for _, c := range ivs {
			a, b := max(c.a, reach), min(c.b, s.End)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerStats are the per-layer figures computed from one traced phase.
type layerStats struct {
	clientSelf, httpSelf, server [nClasses][]float64 // µs
	reqBytes, respBytes          [nClasses][]float64
	locate, fetch                []float64 // µs
}

// analyse joins client, http and server spans and computes self times per
// call class.
func analyse(spans []span) layerStats {
	linkServers(spans)
	self := selfTimes(spans)
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	classOf := func(s *span) (class, bool) {
		for ; s != nil; s = byID[s.Parent] {
			if s.Name == "client" {
				for c := class(0); c < nClasses; c++ {
					if classNames[c] == s.Class {
						return c, true
					}
				}
			}
			if s.Parent == 0 {
				break
			}
		}
		return 0, false
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var ls layerStats
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "client", "http", "server":
			c, ok := classOf(s)
			if !ok {
				continue
			}
			switch s.Name {
			case "client":
				ls.clientSelf[c] = append(ls.clientSelf[c], us(self[s.ID]))
			case "http":
				ls.httpSelf[c] = append(ls.httpSelf[c], us(self[s.ID]))
				ls.reqBytes[c] = append(ls.reqBytes[c], float64(s.ReqBytes))
				ls.respBytes[c] = append(ls.respBytes[c], float64(s.RespBytes))
			case "server":
				ls.server[c] = append(ls.server[c], us(s.End-s.Start))
			}
		case "locate":
			ls.locate = append(ls.locate, us(s.End-s.Start))
		case "gridftp.fetch":
			ls.fetch = append(ls.fetch, us(s.End-s.Start))
		}
	}
	return ls
}

// writeSpans writes the report header and then one span per line.
func writeSpans(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
