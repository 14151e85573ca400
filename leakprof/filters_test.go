package leakprof

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/astcheck"
	"repro/internal/gprofile"
	"repro/internal/stack"
)

func TestFilterLocations(t *testing.T) {
	f := FilterLocations(map[string]bool{"/svc/t.go:7": true})
	if !f(stack.BlockedOp{Location: "/svc/t.go:7"}) {
		t.Error("listed location not filtered")
	}
	if f(stack.BlockedOp{Location: "/svc/t.go:8"}) {
		t.Error("unlisted location filtered")
	}
}

func TestFilterTransientSelectsEndToEnd(t *testing.T) {
	// Service source with one transient select (timer heartbeat) and
	// one genuinely blocking select.
	src := `package svc
import ("time"; "context")
func heartbeat(ctx context.Context) {
	for {
		select {
		case <-time.Tick(time.Second):
		case <-ctx.Done():
			return
		}
	}
}
func handler(ctx context.Context, ch chan int) {
	select {
	case <-ch:
	case <-ctx.Done():
	}
}
`
	file, err := astcheck.ParseSource("svc/worker.go", src)
	if err != nil {
		t.Fatal(err)
	}
	filter := FilterTransientSelects([]*astcheck.File{file})

	// Profiles show big clusters at both selects; only the ordinary
	// one must survive.
	mk := func(fn, loc string, n int) *gprofile.Snapshot {
		op := stack.BlockedOp{Op: "select", Function: fn, Location: loc}
		return &gprofile.Snapshot{Service: "svc", Instance: "i1",
			PreAggregated: map[stack.BlockedOp]int{op: n}, TotalGoroutines: n}
	}
	snapTransient := mk("svc.heartbeat", "svc/worker.go:5", 500)
	snapBlocking := mk("svc.handler", "svc/worker.go:13", 500)

	findings := analyze(t, []*gprofile.Snapshot{snapTransient, snapBlocking}, WithThreshold(100), WithFilters(filter))
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1 (transient select suppressed): %+v", len(findings), findings)
	}
	if findings[0].Function != "svc.handler" {
		t.Errorf("surviving finding = %+v", findings[0])
	}
}

func TestFilterMinWait(t *testing.T) {
	longBlocked := &stack.Goroutine{
		ID: 1, State: "chan send", WaitTime: 30 * time.Minute,
		Frames: []stack.Frame{{Function: "svc.leak", File: "/svc/l.go", Line: 5}},
	}
	justBlocked := &stack.Goroutine{
		ID: 2, State: "chan send", WaitTime: 2 * time.Second,
		Frames: []stack.Frame{{Function: "svc.busy", File: "/svc/b.go", Line: 9}},
	}
	noWaitInfo := &stack.Goroutine{
		ID: 3, State: "chan send",
		Frames: []stack.Frame{{Function: "svc.opaque", File: "/svc/o.go", Line: 2}},
	}
	body := stack.Format([]*stack.Goroutine{longBlocked, justBlocked, noWaitInfo})

	// The dump goes through the scanner, which must keep each wait
	// duration for the filter to see.
	pipe := New(WithThreshold(1), WithFilters(FilterMinWait(time.Minute)))
	sweep, err := pipe.Sweep(context.Background(), Dumps(Dump{Service: "svc", Instance: "i1", Body: strings.NewReader(body)}))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range sweep.Findings {
		got[f.Function] = true
	}
	if !got["svc.leak"] {
		t.Error("long-blocked goroutine dropped")
	}
	if got["svc.busy"] {
		t.Error("freshly blocked goroutine not filtered")
	}
	if !got["svc.opaque"] {
		t.Error("goroutine without wait info must be kept")
	}
}

func TestFilterTransientSource(t *testing.T) {
	if _, err := FilterTransientSource("/nonexistent/path"); err == nil {
		t.Error("missing source tree should error")
	}
}
