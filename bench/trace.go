package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gprofile"
	"repro/leakprof"
)

// Tracing records spans from the benchmark's own code, around its calls
// into leakprof's public API: a Source wrapper around SweepEnv.Emit, an
// http.RoundTripper timing each fetch and the body reads the scanner
// makes, Sink wrappers, the OnSweep hook, and http.Handler wrappers
// around IngestServer and ShardInbox. Spans stay in memory and are
// written to trace.jsonl when the process exits.

// span is one timed interval. Spans of one sweep or window share its ID,
// the sweep's At in Unix nanoseconds; a span is a child of the span named
// Parent with the same ID whose interval contains it.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Wait is time inside the span spent blocked reading a body; Bytes is
	// what those reads returned.
	Wait  int64 `json:"wait,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func nowNS() int64 { return time.Now().UnixNano() }

// tracer collects spans while on. A nil tracer records nothing, which is
// how an untraced run skips the wrappers' bookkeeping.
type tracer struct {
	on     atomic.Bool
	window time.Duration // ingest window length; zero for pull sweeps
	cur    atomic.Int64  // ID of the pull sweep in flight

	mu    sync.Mutex
	spans []span
	// Close-phase markers per sweep ID: when collection ended, and the
	// first start and last end of the sinks' SweepDone calls.
	closeAt   map[int64]int64
	firstSink map[int64]int64
	lastSink  map[int64]int64
}

func newTracer(window time.Duration) *tracer {
	return &tracer{window: window, closeAt: map[int64]int64{}, firstSink: map[int64]int64{}, lastSink: map[int64]int64{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// collected marks the end of a sweep's collection: its close phase
// starts here.
func (t *tracer) collected(id, at int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.closeAt[id] = at
	t.mu.Unlock()
}

// sinkStarted records close.findings (collection end to the first sink
// call: the aggregator's findings and the hand-off) on the first sink,
// and on every later one the time it waited in its queue behind the
// first, so the close phase's children tile it.
func (t *tracer) sinkStarted(sw *leakprof.Sweep, at int64) {
	if !t.enabled() {
		return
	}
	id := sw.At.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	if first, ok := t.firstSink[id]; ok {
		t.spans = append(t.spans, span{ID: id, Name: "sink.queue", Parent: t.closeParent(), Start: first, End: at})
		return
	}
	t.firstSink[id] = at
	start, ok := t.closeAt[id]
	if !ok {
		start = t.deadline(id, at)
	}
	t.spans = append(t.spans, span{ID: id, Name: "close.findings", Parent: t.closeParent(), Start: start, End: at})
}

func (t *tracer) sinkDone(sw *leakprof.Sweep, name string, start, end int64) {
	if !t.enabled() {
		return
	}
	id := sw.At.UnixNano()
	t.mu.Lock()
	if end > t.lastSink[id] {
		t.lastSink[id] = end
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: t.closeParent(), Start: start, End: end})
	t.mu.Unlock()
}

// swept records state.record (last sink done to OnSweep: the journal
// append and fsync) and, for an ingest window, the window.close span the
// close-phase children tile.
func (t *tracer) swept(sw *leakprof.Sweep, at int64) {
	if !t.enabled() {
		return
	}
	id := sw.At.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	if last, ok := t.lastSink[id]; ok {
		t.spans = append(t.spans, span{ID: id, Name: "state.record", Parent: t.closeParent(), Start: last, End: at})
	}
	// A window whose sinks all ran before tracing began gets no span: none
	// of its close phase was recorded.
	if first, ok := t.firstSink[id]; ok && t.window > 0 {
		// A shutdown drain can close a window just before its deadline and
		// still be closing it when the deadline passes: the close then
		// began at its first sink's start, which close.findings ends at.
		start := min(t.deadline(id, at), first)
		t.spans = append(t.spans, span{ID: id, Name: "window.close", Start: start, End: at})
	}
}

// deadline is when the ingest window starting at id closes: at its
// deadline, or earlier when the shutdown drain closes it at 'at'.
func (t *tracer) deadline(id, at int64) int64 {
	return min(id+int64(t.window), at)
}

func (t *tracer) closeParent() string {
	if t.window > 0 {
		return "window.close"
	}
	return "sweep"
}

// write stores the tracer's spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeSpans(path, t.spans)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
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

// readSpans loads a trace.jsonl file.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// timedSource wraps a Source: it always notes when collection ended (the
// start of the sweep's close phase, which alert latency is measured
// from), and when tracing records the collection as a span named name
// with a fold (Emit) or merge (MergeReport) child per snapshot or report.
type timedSource struct {
	leakprof.Source
	tr   *tracer
	id   int64
	name string
	end  int64
}

func (s *timedSource) Sweep(ctx context.Context, env *leakprof.SweepEnv) error {
	start := nowNS()
	e := *env
	if s.tr.enabled() {
		e.Emit = func(snap *gprofile.Snapshot) {
			t := nowNS()
			env.Emit(snap)
			s.tr.add(span{ID: s.id, Name: "fold", Parent: s.name, Start: t, End: nowNS()})
		}
		if env.MergeReport != nil {
			e.MergeReport = func(rep *leakprof.ShardReport) {
				t := nowNS()
				env.MergeReport(rep)
				s.tr.add(span{ID: s.id, Name: "merge", Parent: s.name, Start: t, End: nowNS()})
			}
		}
	}
	err := s.Source.Sweep(ctx, &e)
	s.end = nowNS()
	if s.name == "source" {
		s.tr.collected(s.id, s.end)
	}
	s.tr.add(span{ID: s.id, Name: s.name, Parent: "sweep", Start: start, End: s.end})
	return err
}

// tracedSink times a sink's SweepDone.
type tracedSink struct {
	leakprof.Sink
	name string
	tr   *tracer
}

func (s tracedSink) SweepDone(sw *leakprof.Sweep) error {
	start := nowNS()
	s.tr.sinkStarted(sw, start)
	err := s.Sink.SweepDone(sw)
	s.tr.sinkDone(sw, s.name, start, nowNS())
	return err
}

// tracedTransport records each fetch's round trip to response headers
// (fetch) and, from headers until the scanner closes the body, the scan
// with the time its reads waited on the socket.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent string
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.enabled() {
		return t.base.RoundTrip(req)
	}
	id := t.tr.cur.Load()
	start := nowNS()
	resp, err := t.base.RoundTrip(req)
	end := nowNS()
	t.tr.add(span{ID: id, Name: "fetch", Parent: t.parent, Start: start, End: end})
	if err == nil {
		resp.Body = &timedBody{ReadCloser: resp.Body, tr: t.tr, sp: span{ID: id, Name: "scan", Parent: t.parent, Start: end}}
	}
	return resp, err
}

// timedBody accumulates the time and bytes of a body's reads; with a
// span name it records the span when the body is closed.
type timedBody struct {
	io.ReadCloser
	tr   *tracer
	sp   span
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	t := nowNS()
	n, err := b.ReadCloser.Read(p)
	b.sp.Wait += nowNS() - t
	b.sp.Bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done && b.sp.Name != "" {
		b.done = true
		b.sp.End = nowNS()
		b.tr.add(b.sp)
	}
	return err
}

// tracedHandler times an http.Handler and the body reads it makes.
type tracedHandler struct {
	h    http.Handler
	tr   *tracer
	name string
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.tr.enabled() {
		t.h.ServeHTTP(w, r)
		return
	}
	b := &timedBody{ReadCloser: r.Body}
	r.Body = b
	start := nowNS()
	t.h.ServeHTTP(w, r)
	t.tr.add(span{Name: t.name, Start: start, End: nowNS(), Wait: b.sp.Wait, Bytes: b.sp.Bytes})
}
