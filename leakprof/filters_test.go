package leakprof

import (
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
	mk := func(fn, loc string, line, n int) *gprofile.Snapshot {
		s := &gprofile.Snapshot{Service: "svc", Instance: "i1"}
		for i := 0; i < n; i++ {
			s.Goroutines = append(s.Goroutines, &stack.Goroutine{
				ID: int64(i), State: "select",
				Frames: []stack.Frame{{Function: fn, File: "svc/worker.go", Line: line}},
			})
		}
		return s
	}
	snapTransient := mk("svc.heartbeat", "svc/worker.go:5", 5, 500)
	snapBlocking := mk("svc.handler", "svc/worker.go:13", 13, 500)

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
	snap := &gprofile.Snapshot{Service: "svc", Instance: "i1",
		Goroutines: []*stack.Goroutine{longBlocked, justBlocked, noWaitInfo}}

	findings := analyze(t, []*gprofile.Snapshot{snap}, WithThreshold(1), WithFilters(FilterMinWait(time.Minute)))
	got := map[string]bool{}
	for _, f := range findings {
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
