package leakprof

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/goleak"
	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/internal/stack"
)

// ingestClock is a mutex-guarded fake pipeline clock: POST handlers and
// the window loop read it concurrently while tests advance it.
type ingestClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *ingestClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *ingestClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// renderDump renders snap as the debug=2 text body its instance would
// POST to the ingest endpoint.
func renderDump(t testing.TB, snap *gprofile.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gprofile.WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func gzipBytes(t testing.TB, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatalf("gzip: %v", err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	return buf.Bytes()
}

// postDump POSTs one dump body straight at the handler (no network) and
// returns the recorded response.
func postDump(srv http.Handler, service, instance string, body []byte, gz bool) *httptest.ResponseRecorder {
	target := "/?service=" + url.QueryEscape(service)
	if instance != "" {
		target += "&instance=" + url.QueryEscape(instance)
	}
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// waitIngest polls cond until it holds or the deadline passes.
func waitIngest(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// onePager is a minimal single-location snapshot for handler-level tests.
func onePager(service, instance string, count int) *gprofile.Snapshot {
	return &gprofile.Snapshot{
		Service:  service,
		Instance: instance,
		PreAggregated: map[stack.BlockedOp]int{
			{Op: "send", Location: "/" + service + "/f.go:10", Function: service + ".fn"}: count,
		},
	}
}

// TestIngestWindowParityWithBatchSweep is the acceptance parity check:
// the same fleet of dump bodies, pushed through a windowed ingest run
// (some gzipped), must produce the same findings, moments, and bug-DB
// verdicts as one batch sweep over the identical bodies.
func TestIngestWindowParityWithBatchSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	snaps := randomSweep(rng)
	t0 := time.Unix(1_700_000_000, 0)

	type rendered struct {
		service, instance string
		body              []byte
	}
	var dumps []rendered
	for _, s := range snaps {
		dumps = append(dumps, rendered{s.Service, s.Instance, renderDump(t, s)})
	}

	// Batch side: one pull-style sweep over the raw bodies.
	batchDB := report.NewDB()
	batchSink := &ReportSink{Reporter: &Reporter{DB: batchDB, Now: func() time.Time { return t0 }}}
	batch := New(WithThreshold(40), WithClock(func() time.Time { return t0 }))
	batch.AddSinks(batchSink)
	var batchDumps []Dump
	for _, d := range dumps {
		batchDumps = append(batchDumps, Dump{Service: d.service, Instance: d.instance, Body: bytes.NewReader(d.body)})
	}
	batchSweep, err := batch.Sweep(context.Background(), Dumps(batchDumps...))
	if err != nil {
		t.Fatalf("batch sweep: %v", err)
	}

	// Ingest side: the same bodies POSTed, folded into one window.
	clock := &ingestClock{t: t0}
	ingestDB := report.NewDB()
	ingestSink := &ReportSink{Reporter: &Reporter{DB: ingestDB, Now: func() time.Time { return t0 }}}
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithThreshold(40),
		WithClock(clock.Now),
		WithWindow(time.Minute),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	pipe.AddSinks(ingestSink)
	ticks := make(chan time.Time)
	srv := NewIngestServer(pipe, IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	for i, d := range dumps {
		body, gz := d.body, false
		if i%3 == 0 {
			body, gz = gzipBytes(t, d.body), true
		}
		if rec := postDump(srv, d.service, d.instance, body, gz); rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s/%s: got %d, want 202: %s", d.service, d.instance, rec.Code, rec.Body)
		}
	}
	waitIngest(t, "all dumps folded", func() bool { return srv.Stats().Folded == uint64(len(dumps)) })
	clock.Advance(2 * time.Minute)
	ticks <- time.Time{}
	var winSweep *Sweep
	select {
	case winSweep = <-sweeps:
	case <-time.After(10 * time.Second):
		t.Fatal("window never closed")
	}
	cancel()
	<-runDone

	if winSweep.Profiles != batchSweep.Profiles {
		t.Fatalf("profiles: ingest %d, batch %d", winSweep.Profiles, batchSweep.Profiles)
	}
	if winSweep.Errors != 0 || batchSweep.Errors != 0 {
		t.Fatalf("unexpected errors: ingest %d, batch %d", winSweep.Errors, batchSweep.Errors)
	}
	if !reflect.DeepEqual(winSweep.Findings, batchSweep.Findings) {
		t.Errorf("findings diverge:\ningest: %+v\nbatch:  %+v", winSweep.Findings, batchSweep.Findings)
	}
	if !reflect.DeepEqual(winSweep.Moments(), batchSweep.Moments()) {
		t.Errorf("moments diverge:\ningest: %+v\nbatch:  %+v", winSweep.Moments(), batchSweep.Moments())
	}
	ingestBugs, batchBugs := ingestDB.All(), batchDB.All()
	sort.Slice(ingestBugs, func(i, j int) bool { return ingestBugs[i].Key < ingestBugs[j].Key })
	sort.Slice(batchBugs, func(i, j int) bool { return batchBugs[i].Key < batchBugs[j].Key })
	if !reflect.DeepEqual(ingestBugs, batchBugs) {
		t.Errorf("bug DB verdicts diverge:\ningest: %+v\nbatch:  %+v", ingestBugs, batchBugs)
	}
	if len(batchBugs) == 0 {
		t.Fatal("parity vacuous: batch sweep filed no bugs")
	}
}

// TestIngestServiceQuota checks per-service admission quotas: a service
// at its quota is shed with 429 while other services (and the shared
// queue) stay open, the rejection is charged as ErrIngestQuota in the
// closing window, and folding releases the quota.
func TestIngestServiceQuota(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	clock := &ingestClock{t: t0}
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithThreshold(1000),
		WithClock(clock.Now),
		WithWindow(time.Minute),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	ticks := make(chan time.Time)
	srv := NewIngestServer(pipe, IngestQueue(8), IngestServiceQuota(2), IngestTicks(ticks))
	body := renderDump(t, onePager("pay", "i0", 120))

	// Run is not started: admitted dumps hold their slots and quota.
	for i := 0; i < 2; i++ {
		if rec := postDump(srv, "pay", "i"+strconv.Itoa(i), body, false); rec.Code != http.StatusAccepted {
			t.Fatalf("POST %d: got %d, want 202", i, rec.Code)
		}
	}
	rec := postDump(srv, "pay", "i2", body, false)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota POST: got %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "30" {
		t.Fatalf("quota Retry-After = %q, want \"30\"", got)
	}
	// The queue has six free slots: another service is unaffected.
	if rec := postDump(srv, "web", "i0", body, false); rec.Code != http.StatusAccepted {
		t.Fatalf("other-service POST: got %d, want 202", rec.Code)
	}
	if st := srv.Stats(); st.QuotaRejected != 1 || st.Rejected != 0 || st.Admitted != 3 {
		t.Fatalf("stats after quota shed: %+v", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()
	waitIngest(t, "admitted dumps folded", func() bool { return srv.Stats().Folded == 3 })
	// Folding released pay's quota: the service admits again.
	if rec := postDump(srv, "pay", "i3", body, false); rec.Code != http.StatusAccepted {
		t.Fatalf("post-fold POST: got %d, want 202 (quota released on fold)", rec.Code)
	}
	waitIngest(t, "fourth dump folded", func() bool { return srv.Stats().Folded == 4 })
	clock.Advance(2 * time.Minute)
	ticks <- time.Time{}
	var sweep *Sweep
	select {
	case sweep = <-sweeps:
	case <-time.After(10 * time.Second):
		t.Fatal("window never closed")
	}
	cancel()
	<-runDone

	if sweep.Profiles != 4 {
		t.Errorf("Profiles = %d, want 4", sweep.Profiles)
	}
	if sweep.Errors != 1 || sweep.FailedByService["pay"] != 1 {
		t.Errorf("Errors = %d, FailedByService = %v, want the one quota rejection against pay",
			sweep.Errors, sweep.FailedByService)
	}
	quotaFails := 0
	for _, f := range sweep.Failures {
		if errors.Is(f.Err, ErrIngestQuota) {
			quotaFails++
		}
	}
	if quotaFails != 1 {
		t.Errorf("ErrIngestQuota failures = %d, want 1", quotaFails)
	}
}

// TestIngestSalvagePastCapSparesBudget pins the salvage exemption past
// the failure-detail cap: after a window's first maxSweepFailures
// failures fill Failures, a salvaged dump still counts in Errors only,
// so its service starts the next sweep with its whole error budget.
func TestIngestSalvagePastCapSparesBudget(t *testing.T) {
	sweeps := make(chan *Sweep, 4)
	pipe := New(WithOnSweep(func(s *Sweep) { sweeps <- s }))
	srv := NewIngestServer(pipe, IngestTicks(make(chan time.Time)))
	for i := 0; i < maxSweepFailures; i++ {
		if rec := postDump(srv, "bad", "i"+strconv.Itoa(i), []byte("not gzip"), true); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad-gzip POST %d: got %d, want 400", i, rec.Code)
		}
	}
	torn := "goroutine 1 [chan send]:\npay.leak()\n\t/pay/l.go:5 +0x2b\n" +
		"goroutine 99 [chan send:\ntorn.member()\n"
	if rec := postDump(srv, "pay", "i0", []byte(torn), false); rec.Code != http.StatusAccepted {
		t.Fatalf("salvaged POST: got %d, want 202", rec.Code)
	}
	// A cancelled Run drains everything into one window, synchronously.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Run(ctx)
	sweep := <-sweeps
	if sweep.Errors != maxSweepFailures+1 || len(sweep.Failures) != maxSweepFailures {
		t.Errorf("Errors = %d with %d failures kept, want %d with %d",
			sweep.Errors, len(sweep.Failures), maxSweepFailures+1, maxSweepFailures)
	}
	if n := sweep.FailedByService["pay"]; n != 0 {
		t.Errorf("FailedByService[pay] = %d, want 0: salvage must not seed the error budget", n)
	}
	if n := sweep.FailedByService["bad"]; n != maxSweepFailures {
		t.Errorf("FailedByService[bad] = %d, want %d", n, maxSweepFailures)
	}
}

// TestIngestBackpressure fills the admission queue and checks that
// overflow is shed with 429 + Retry-After while every admitted dump
// still folds, and that the rejections are charged to their services in
// the closing window's accounting.
func TestIngestBackpressure(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	clock := &ingestClock{t: t0}
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithThreshold(1000),
		WithClock(clock.Now),
		WithWindow(time.Minute),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	ticks := make(chan time.Time)
	srv := NewIngestServer(pipe, IngestQueue(2), IngestTicks(ticks))
	body := renderDump(t, onePager("pay", "i0", 120))

	// Run is not started yet, so the two admitted dumps pin the queue.
	for i := 0; i < 2; i++ {
		if rec := postDump(srv, "pay", "i"+strconv.Itoa(i), body, false); rec.Code != http.StatusAccepted {
			t.Fatalf("POST %d: got %d, want 202", i, rec.Code)
		}
	}
	rec := postDump(srv, "pay", "i2", body, false)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: got %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want \"30\" (half a 1m window)", got)
	}
	if rec := postDump(srv, "web", "i0", body, false); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second overflow POST: got %d, want 429", rec.Code)
	}
	if st := srv.Stats(); st.Rejected != 2 || st.Admitted != 2 {
		t.Fatalf("stats after overflow: %+v", st)
	}

	// Starting the window loop folds the admitted dumps: overflow must
	// not have stalled them.
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()
	waitIngest(t, "admitted dumps folded", func() bool { return srv.Stats().Folded == 2 })
	clock.Advance(2 * time.Minute)
	ticks <- time.Time{}
	var sweep *Sweep
	select {
	case sweep = <-sweeps:
	case <-time.After(10 * time.Second):
		t.Fatal("window never closed")
	}
	cancel()
	<-runDone

	if sweep.Profiles != 2 {
		t.Errorf("Profiles = %d, want 2", sweep.Profiles)
	}
	if sweep.Errors != 2 {
		t.Errorf("Errors = %d, want 2 rejections", sweep.Errors)
	}
	if sweep.FailedByService["pay"] != 1 || sweep.FailedByService["web"] != 1 {
		t.Errorf("FailedByService = %v, want pay:1 web:1", sweep.FailedByService)
	}
	for _, f := range sweep.Failures {
		if !errors.Is(f.Err, ErrIngestOverflow) {
			t.Errorf("failure %s/%s: %v, want ErrIngestOverflow", f.Service, f.Instance, f.Err)
		}
	}
	if len(sweep.Failures) != 2 {
		t.Errorf("Failures = %d entries, want 2", len(sweep.Failures))
	}
}

// TestIngestRequestValidation covers the handler's rejection paths —
// and that each rejection releases its admission slot (the queue is one
// deep, so a leaked slot would turn the final POST into a 429).
func TestIngestRequestValidation(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	pipe := New(WithClock(func() time.Time { return t0 }), WithMaxProfileBytes(128))
	srv := NewIngestServer(pipe, IngestQueue(1), IngestTicks(make(chan time.Time)))
	small := renderDump(t, onePager("pay", "i0", 7))
	if len(small) >= 128 {
		t.Fatalf("small body is %d bytes, want < 128", len(small))
	}

	req := httptest.NewRequest(http.MethodGet, "/?service=pay", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: got %d, want 405", rec.Code)
	}
	if rec := postDump(srv, "", "i0", small, false); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing service: got %d, want 400", rec.Code)
	}
	if rec := postDump(srv, "pay", "i0", []byte("definitely not gzip"), true); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad gzip: got %d, want 400", rec.Code)
	}
	big := &gprofile.Snapshot{Service: "pay", Instance: "i1", PreAggregated: map[stack.BlockedOp]int{}}
	for i := 0; i < 5; i++ {
		big.PreAggregated[stack.BlockedOp{
			Op: "send", Location: "/pay/file" + strconv.Itoa(i) + ".go:10", Function: "pay.fn" + strconv.Itoa(i),
		}] = 100
	}
	if rec := postDump(srv, "pay", "i1", renderDump(t, big), false); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: got %d, want 413", rec.Code)
	}
	if st := srv.Stats(); st.ScanErrors != 2 {
		t.Fatalf("ScanErrors = %d, want 2 (bad gzip + over-limit)", st.ScanErrors)
	}
	// Every failed admission above released its slot: this fills the
	// one-deep queue, and only the next POST overflows.
	if rec := postDump(srv, "pay", "i2", small, false); rec.Code != http.StatusAccepted {
		t.Fatalf("valid POST after failures: got %d, want 202: %s", rec.Code, rec.Body)
	}
	if rec := postDump(srv, "pay", "i3", small, false); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST: got %d, want 429", rec.Code)
	}
}

// TestIngestLateArrivalNextWindow checks tumbling-window semantics: a
// dump arriving after a window closed is credited to the next window's
// sweep, not lost and not folded retroactively.
func TestIngestLateArrivalNextWindow(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	clock := &ingestClock{t: t0}
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithThreshold(1000),
		WithClock(clock.Now),
		WithWindow(time.Minute),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	ticks := make(chan time.Time)
	srv := NewIngestServer(pipe, IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	body := renderDump(t, onePager("pay", "i0", 50))
	if rec := postDump(srv, "pay", "i0", body, false); rec.Code != http.StatusAccepted {
		t.Fatalf("first POST: got %d", rec.Code)
	}
	waitIngest(t, "first dump folded", func() bool { return srv.Stats().Folded == 1 })
	clock.Advance(2 * time.Minute)
	ticks <- time.Time{}
	first := <-sweeps
	if first.Profiles != 1 {
		t.Fatalf("window 1 Profiles = %d, want 1", first.Profiles)
	}

	// The late arrival: window 1 is closed, window 2 is open.
	waitIngest(t, "window 2 open", func() bool { return srv.Stats().Windows == 1 })
	if rec := postDump(srv, "pay", "i1", body, false); rec.Code != http.StatusAccepted {
		t.Fatalf("late POST: got %d", rec.Code)
	}
	waitIngest(t, "late dump folded", func() bool { return srv.Stats().Folded == 2 })
	clock.Advance(2 * time.Minute)
	ticks <- time.Time{}
	second := <-sweeps
	if second.Profiles != 1 {
		t.Fatalf("window 2 Profiles = %d, want 1 (the late arrival)", second.Profiles)
	}
	cancel()
	<-runDone
	if st := srv.Stats(); st.WindowPause <= 0 {
		t.Errorf("WindowPause = %v, want > 0 after two closes", st.WindowPause)
	}
}

// TestIngestDrainOnClose checks the shutdown barrier: cancelling Run
// folds everything already admitted into one final partial-window sweep
// before returning, and the handler refuses new work afterwards.
func TestIngestDrainOnClose(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithThreshold(1000),
		WithClock(func() time.Time { return t0 }),
		WithWindow(time.Minute),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	srv := NewIngestServer(pipe, IngestTicks(make(chan time.Time)))
	body := renderDump(t, onePager("pay", "i0", 50))
	for i := 0; i < 3; i++ {
		if rec := postDump(srv, "pay", "i"+strconv.Itoa(i), body, false); rec.Code != http.StatusAccepted {
			t.Fatalf("POST %d: got %d", i, rec.Code)
		}
	}
	// Run with a cancelled context is pure drain: the three queued dumps
	// fold into one final sweep, synchronously.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: %v, want context.Canceled", err)
	}
	sweep := <-sweeps
	if sweep.Profiles != 3 {
		t.Fatalf("final sweep Profiles = %d, want 3", sweep.Profiles)
	}
	if st := srv.Stats(); st.Folded != 3 || st.Windows != 1 {
		t.Fatalf("stats after drain: %+v", st)
	}
	if rec := postDump(srv, "pay", "late", body, false); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST after close: got %d, want 503", rec.Code)
	}
}

// TestIngestCleanStopKeepsLastWindow pins the empty-sweep rule across a
// clean stop: a window closes with one corrupt-gzip POST failed, then
// Run is cancelled with nothing sent since. The shutdown drain sweeps
// nothing, so the reopened journal's LastSweep and error-budget seed
// must still be that window's.
func TestIngestCleanStopKeepsLastWindow(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	clock := &ingestClock{t: t0}
	dir := t.TempDir()
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithClock(clock.Now),
		WithWindow(time.Minute),
		WithStateDir(dir),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	ticks := make(chan time.Time)
	srv := NewIngestServer(pipe, IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	if rec := postDump(srv, "svc", "i0", []byte("not gzip"), true); rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt-gzip POST: got %d, want 400", rec.Code)
	}
	// The first tick finds the window open on the unmoved clock; the
	// second, past its deadline, closes it.
	ticks <- time.Time{}
	clock.Advance(2 * time.Minute)
	ticks <- time.Time{}
	first := <-sweeps
	if want := map[string]int{"svc": 1}; !reflect.DeepEqual(first.FailedByService, want) {
		t.Fatalf("window 1 FailedByService = %v, want %v", first.FailedByService, want)
	}
	// A tick proves window 2 is open, so the cancel below drains it
	// rather than landing between windows.
	ticks <- time.Time{}
	store, err := pipe.State()
	if err != nil {
		t.Fatal(err)
	}
	syncs, appended := store.journalSyncs(), store.journalBytesAppended()
	cancel()
	<-runDone
	if drain := <-sweeps; drain.Profiles != 0 || drain.Errors != 0 {
		t.Fatalf("shutdown drain = %d profiles, %d errors; want an empty sweep", drain.Profiles, drain.Errors)
	}
	if s, a := store.journalSyncs()-syncs, store.journalBytesAppended()-appended; s != 0 || a != 0 {
		t.Errorf("the empty drain journaled %d bytes with %d fsyncs, want none", a, s)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.LastFailureCounts(), map[string]int{"svc": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("LastFailureCounts after a clean stop = %v, want window 1's %v", got, want)
	}
	if last := re.LastSweep(); last == nil || !last.At.Equal(first.At) || last.Errors != 1 {
		t.Errorf("LastSweep after a clean stop = %+v, want window 1's (at %v, 1 error)", last, first.At)
	}
}

// heldSink holds the first window's SweepDone until release is closed,
// closing held once it holds it.
type heldSink struct {
	held, release chan struct{}
	once          sync.Once
}

func (h *heldSink) Snapshot(*gprofile.Snapshot) {}

func (h *heldSink) SweepDone(*Sweep) error {
	h.once.Do(func() {
		close(h.held)
		<-h.release
	})
	return nil
}

// TestIngestCancelBetweenWindowsKeepsFailure cancels Run between two
// windows: a POST fails while window 1's sinks still run, after that
// window's accounting closed, and the cancel lands before window 2
// opens. The shutdown drain must still run and carry the failure, or it
// never reaches a sweep, the journal or the next error budget.
func TestIngestCancelBetweenWindowsKeepsFailure(t *testing.T) {
	clock := &ingestClock{t: time.Unix(1_700_000_000, 0)}
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithClock(clock.Now),
		WithWindow(time.Minute),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	sink := &heldSink{held: make(chan struct{}), release: make(chan struct{})}
	pipe.AddSinks(sink)
	ticks := make(chan time.Time)
	srv := NewIngestServer(pipe, IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	// The first tick finds window 1 open on the unmoved clock; the
	// second, past its deadline, closes it.
	ticks <- time.Time{}
	clock.Advance(2 * time.Minute)
	ticks <- time.Time{}
	select {
	case <-sink.held:
	case <-time.After(10 * time.Second):
		t.Fatal("window 1 never reached its sink")
	}
	if rec := postDump(srv, "svc", "i0", []byte("not gzip"), true); rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt-gzip POST: got %d, want 400", rec.Code)
	}
	cancel()
	close(sink.release)
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the cancel")
	}
	if first := <-sweeps; first.Errors != 0 {
		t.Fatalf("window 1 counted %d errors, want the failure left for the next sweep", first.Errors)
	}
	select {
	case drain := <-sweeps:
		if want := map[string]int{"svc": 1}; drain.Errors != 1 || !reflect.DeepEqual(drain.FailedByService, want) {
			t.Errorf("drain sweep = %d errors, failed %v; want 1 error, %v", drain.Errors, drain.FailedByService, want)
		}
	default:
		t.Fatal("no drain sweep after the cancel: the admission failure was lost")
	}
}

// failingSink fails the SweepDone of the windows fails names, counted
// from 1. Sweeps run one after another, so the count needs no lock.
type failingSink struct {
	n     int
	fails map[int]error
}

func (f *failingSink) Snapshot(*gprofile.Snapshot) {}

func (f *failingSink) SweepDone(*Sweep) error {
	f.n++
	return f.fails[f.n]
}

// TestIngestRunReportsFailedWindows checks that a window whose sweep
// fails (here a sink's SweepDone; a journal append fails the same way)
// is reported: Run keeps closing windows, and after the cancel its
// error is still context.Canceled, wrapping the first failed window's
// error and naming how many windows failed.
func TestIngestRunReportsFailedWindows(t *testing.T) {
	clock := &ingestClock{t: time.Unix(1_700_000_000, 0)}
	errFirst, errSecond := errors.New("sink: first window"), errors.New("sink: second window")
	sweeps := make(chan *Sweep, 4)
	pipe := New(
		WithClock(clock.Now),
		WithWindow(time.Minute),
		WithOnSweep(func(s *Sweep) { sweeps <- s }),
	)
	pipe.AddSinks(&failingSink{fails: map[int]error{1: errFirst, 2: errSecond}})
	ticks := make(chan time.Time)
	srv := NewIngestServer(pipe, IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()
	for w := 1; w <= 2; w++ {
		// The first tick finds window w open on the unmoved clock; the
		// second, past its deadline, closes it.
		ticks <- time.Time{}
		clock.Advance(2 * time.Minute)
		ticks <- time.Time{}
		select {
		case <-sweeps:
		case <-time.After(10 * time.Second):
			t.Fatalf("window %d never closed", w)
		}
	}
	// A tick proves window 3 is open, so the cancel drains it rather than
	// landing between windows.
	ticks <- time.Time{}
	cancel()
	err := <-runDone
	<-sweeps // window 3, the shutdown drain, whose sink succeeds
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want it to wrap context.Canceled", err)
	}
	if !errors.Is(err, errFirst) || errors.Is(err, errSecond) {
		t.Errorf("Run = %v, want it to wrap the first failed window's error only", err)
	}
	if err == nil || !strings.Contains(err.Error(), "2 of 3 ingest windows failed") {
		t.Errorf("Run = %v, want it to count 2 of 3 windows failed", err)
	}
}

// TestIngestRunLeavesNoGoroutine pins that the window loop owns every
// goroutine a window starts: once Run returns, a durable server whose
// sinks are wired to its journal has left none behind.
func TestIngestRunLeavesNoGoroutine(t *testing.T) {
	opts := goleak.IgnoreCurrent()
	var swept atomic.Int64
	pipe := New(
		WithThreshold(10),
		WithWindow(20*time.Millisecond),
		WithStateDir(t.TempDir()),
		WithOnSweep(func(s *Sweep) { swept.Add(int64(s.Profiles)) }),
	)
	store, err := pipe.State()
	if err != nil {
		t.Fatal(err)
	}
	pipe.AddSinks(
		&ReportSink{Reporter: &Reporter{DB: store.BugDB()}},
		&TrendSink{Tracker: store.Tracker()},
	)
	srv := NewIngestServer(pipe)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()
	body := renderDump(t, onePager("pay", "i0", 50))
	if rec := postDump(srv, "pay", "i0", body, false); rec.Code != http.StatusAccepted {
		t.Fatalf("POST: got %d, want 202", rec.Code)
	}
	waitIngest(t, "a window closed over the dump", func() bool { return swept.Load() == 1 })
	// A second dump, posted just before the cancel, is folded by the
	// shutdown drain or the window before it.
	if rec := postDump(srv, "pay", "i1", body, false); rec.Code != http.StatusAccepted {
		t.Fatalf("POST: got %d, want 202", rec.Code)
	}
	cancel()
	if err := <-runDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: %v, want context.Canceled", err)
	}
	if n := swept.Load(); n != 2 {
		t.Fatalf("windows swept %d profiles by the drain's end, want 2", n)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	goleak.VerifyNone(t, opts)
}

// TestIngestLoad hammers a real HTTP listener with concurrent posters —
// the race-job shape of the fleetsim load generator. Every request must
// be accounted (admitted, rejected, or scan-failed), and after the
// shutdown drain every admitted dump must have folded into some window.
// INGEST_LOAD_POSTERS scales the poster count up in CI.
func TestIngestLoad(t *testing.T) {
	posters := 32
	if s := os.Getenv("INGEST_LOAD_POSTERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad INGEST_LOAD_POSTERS=%q", s)
		}
		posters = n
	}
	const perPoster = 8

	var foldedProfiles atomic.Int64
	pipe := New(
		WithThreshold(100),
		WithWindow(20*time.Millisecond),
		WithOnSweep(func(s *Sweep) { foldedProfiles.Add(int64(s.Profiles)) }),
	)
	srv := NewIngestServer(pipe, IngestQueue(64))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	var bodies [][]byte
	for i := 0; i < 8; i++ {
		bodies = append(bodies, renderDump(t, onePager("svc"+strconv.Itoa(i%4), "seed", 60+i)))
	}
	var accepted, rejected, other atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			client := hs.Client()
			for k := 0; k < perPoster; k++ {
				body := bodies[(p+k)%len(bodies)]
				req, err := http.NewRequest(http.MethodPost, hs.URL, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Leakprof-Service", "svc"+strconv.Itoa(p%4))
				req.Header.Set("X-Leakprof-Instance", "p"+strconv.Itoa(p)+"-"+strconv.Itoa(k))
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					other.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	cancel()
	<-runDone

	total := int64(posters * perPoster)
	st := srv.Stats()
	if other.Load() != 0 {
		t.Fatalf("%d requests got unexpected statuses", other.Load())
	}
	if got := accepted.Load() + rejected.Load(); got != total {
		t.Fatalf("accounted %d of %d requests", got, total)
	}
	if st.Admitted != uint64(accepted.Load()) || st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("server stats %+v disagree with client counts (202=%d 429=%d)", st, accepted.Load(), rejected.Load())
	}
	if st.Folded != st.Admitted {
		t.Fatalf("Folded = %d, Admitted = %d: drain lost dumps", st.Folded, st.Admitted)
	}
	if got := foldedProfiles.Load(); got != int64(st.Folded) {
		t.Fatalf("sweeps delivered %d profiles, server folded %d", got, st.Folded)
	}
}
