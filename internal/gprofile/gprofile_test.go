package gprofile

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stack"
)

func mkGoroutine(id int64, state string, fn, file string, line int) *stack.Goroutine {
	return &stack.Goroutine{
		ID:    id,
		State: state,
		Frames: []stack.Frame{
			{Function: fn, File: file, Line: line, Offset: 0x10},
		},
	}
}

func TestSnapshotCountByLocation(t *testing.T) {
	body := `goroutine 1 [chan send]:
svc.producer()
	/svc/p.go:10 +0x1

goroutine 2 [chan send]:
svc.producer()
	/svc/p.go:10 +0x1

goroutine 3 [chan receive]:
svc.consumer()
	/svc/c.go:20 +0x1

goroutine 4 [running]:
svc.handler()
	/svc/h.go:1 +0x1
`
	snap, err := ScanSnapshot("svc", "inst-1", time.Unix(100, 0), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	counts := snap.CountByLocation()
	if len(counts) != 2 {
		t.Fatalf("got %d locations, want 2: %v", len(counts), counts)
	}
	send := stack.BlockedOp{Op: "send", Location: "/svc/p.go:10", Function: "svc.producer"}
	if counts[send] != 2 {
		t.Errorf("send count = %d, want 2", counts[send])
	}
	recv := stack.BlockedOp{Op: "receive", Location: "/svc/c.go:20", Function: "svc.consumer"}
	if counts[recv] != 1 {
		t.Errorf("recv count = %d, want 1", counts[recv])
	}
}

func TestHandlerDebug2ServesParseableDump(t *testing.T) {
	synthetic := []*stack.Goroutine{
		mkGoroutine(11, "chan send", "svc.leak", "/svc/l.go", 7),
	}
	srv := httptest.NewServer(Handler{Stacks: func() []*stack.Goroutine { return synthetic }})
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?debug=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	gs, err := stack.Parse(string(body))
	if err != nil {
		t.Fatalf("unparseable body: %v\n%s", err, body)
	}
	if len(gs) != 1 || gs[0].ID != 11 || gs[0].State != "chan send" {
		t.Errorf("round-tripped goroutines = %+v", gs)
	}
}

// TestHandlerDebug1ServesAggregated pins that the handler serves only
// the debug=2 dump: debug=1, the aggregated form it once served, any
// other value and a missing one get 400 with a message naming debug=2,
// and the stack source is never captured for them.
func TestHandlerDebug1ServesAggregated(t *testing.T) {
	var captured atomic.Bool
	srv := httptest.NewServer(Handler{Stacks: func() []*stack.Goroutine {
		captured.Store(true)
		return nil
	}})
	defer srv.Close()

	for _, query := range []string{"?debug=1", "?debug=0", "?debug=x", ""} {
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "debug=2") {
			t.Errorf("GET %q: %d %q, want 400 naming debug=2", query, resp.StatusCode, body)
		}
	}
	if captured.Load() {
		t.Error("a refused request captured stacks")
	}
}

func TestHandlerLiveProcess(t *testing.T) {
	// With no stack source the handler profiles the real process; the
	// response must parse and contain this test's goroutine.
	srv := httptest.NewServer(Handler{})
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?debug=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	gs, err := stack.Parse(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) == 0 {
		t.Fatal("live profile is empty")
	}
	var sawServer bool
	for _, g := range gs {
		for _, f := range g.Frames {
			if strings.Contains(f.Function, "net/http") {
				sawServer = true
			}
		}
	}
	if !sawServer {
		t.Error("live profile does not show the HTTP server goroutines")
	}
}
