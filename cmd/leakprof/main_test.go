package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/stack"
	"repro/leakprof"
)

// TestIngestPrintsAlertsAsWindowsClose drives -ingest mode's sweep
// observer through an IngestServer: the window holding a leak above the
// threshold must print its alert, in the exit summary's Render text,
// while Run is still serving — not after it returns.
func TestIngestPrintsAlertsAsWindowsClose(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	// Each Fprint of an alert arrives as one write; the buffer holds
	// more writes than the test provokes, so the observer never blocks.
	writes := make(chanWriter, 16)
	live := &alertLog{out: writes}
	pipe := leakprof.New(
		leakprof.WithThreshold(10),
		leakprof.WithClock(clock),
		leakprof.WithWindow(time.Minute),
		leakprof.WithOnSweep(live.observe),
	)
	live.sink = &leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: report.NewDB(), Now: clock}}
	pipe.AddSinks(live.sink)
	ticks := make(chan time.Time)
	srv := leakprof.NewIngestServer(pipe, leakprof.IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	var gs []*stack.Goroutine
	for i := 0; i < 20; i++ {
		gs = append(gs, &stack.Goroutine{
			ID: int64(i + 1), State: "chan send",
			Frames: []stack.Frame{{Function: "pay.leak", File: "/pay/leak.go", Line: 12}},
		})
	}
	req := httptest.NewRequest(http.MethodPost, "/?service=pay&instance=i1", strings.NewReader(stack.Format(gs)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST: got %d, want 202: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Folded != 1 {
		if time.Now().After(deadline) {
			t.Fatal("dump never folded")
		}
		time.Sleep(time.Millisecond)
	}
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	ticks <- time.Time{}

	var got string
	select {
	case got = <-writes:
	case err := <-runDone:
		t.Fatalf("Run returned (%v) before the window's alert printed", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no alert printed after the window closed")
	}
	alerts := live.sink.Alerts()
	if len(alerts) != 1 || got != alerts[0].Render() {
		t.Fatalf("printed %q, want the Render text of the one filed alert %v", got, alerts)
	}
	if !strings.Contains(got, "/pay/leak.go:12") {
		t.Errorf("alert does not name the leak site: %q", got)
	}
	cancel()
	<-runDone
}

// chanWriter hands each Write to the test as one string.
type chanWriter chan string

func (w chanWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}
