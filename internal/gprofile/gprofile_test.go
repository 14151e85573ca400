package gprofile

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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

func TestAggregateGroupsIdenticalStacks(t *testing.T) {
	gs := []*stack.Goroutine{
		mkGoroutine(1, "chan send", "a.f", "/s/a.go", 5),
		mkGoroutine(2, "chan send", "a.f", "/s/a.go", 5),
		mkGoroutine(3, "chan send", "a.f", "/s/a.go", 5),
		mkGoroutine(4, "select", "b.g", "/s/b.go", 9),
	}
	p := Aggregate(gs)
	if p.Total != 4 {
		t.Errorf("total = %d", p.Total)
	}
	if len(p.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(p.Records))
	}
	if p.Records[0].Count != 3 || p.Records[0].Frames[0].Function != "a.f" {
		t.Errorf("first record = %+v", p.Records[0])
	}
	if p.Records[1].Count != 1 {
		t.Errorf("second record = %+v", p.Records[1])
	}
}

func TestAggregateDeterministicOrder(t *testing.T) {
	// Equal-count records sort by leaf function name.
	gs := []*stack.Goroutine{
		mkGoroutine(1, "select", "z.f", "/s/z.go", 1),
		mkGoroutine(2, "select", "a.f", "/s/a.go", 1),
	}
	p := Aggregate(gs)
	if p.Records[0].Frames[0].Function != "a.f" {
		t.Errorf("order = %q then %q", p.Records[0].Frames[0].Function, p.Records[1].Frames[0].Function)
	}
}

func TestProfile1FormatParseRoundTrip(t *testing.T) {
	fns := []string{"main.main", "a/b.f", "x.(*T).m"}
	files := []string{"/s/a.go", "/s/b.go"}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var gs []*stack.Goroutine
		for i := 0; i < int(n)%20+1; i++ {
			g := &stack.Goroutine{ID: int64(i), State: "select"}
			depth := 1 + r.Intn(4)
			for d := 0; d < depth; d++ {
				g.Frames = append(g.Frames, stack.Frame{
					Function: fns[r.Intn(len(fns))],
					File:     files[r.Intn(len(files))],
					Line:     1 + r.Intn(200),
					Offset:   uint64(1 + r.Intn(255)),
				})
			}
			gs = append(gs, g)
		}
		in := Aggregate(gs)
		out, err := ParseProfile1(in.Format())
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		if out.Total != in.Total || len(out.Records) != len(in.Records) {
			return false
		}
		for i := range in.Records {
			if out.Records[i].Count != in.Records[i].Count {
				return false
			}
			if !reflect.DeepEqual(out.Records[i].Frames, in.Records[i].Frames) {
				t.Logf("record %d frames:\n in %+v\nout %+v", i, in.Records[i].Frames, out.Records[i].Frames)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseProfile1RejectsBadInput(t *testing.T) {
	if _, err := ParseProfile1("goroutine profile: total x\n"); err == nil {
		t.Error("bad total accepted")
	}
	if _, err := ParseProfile1("#\t0x1\tf+0x0\t/a.go:1\n"); err == nil {
		t.Error("orphan frame line accepted")
	}
	if _, err := ParseProfile1("zz @ 0x1\n"); err == nil {
		t.Error("bad count accepted")
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
	snap, err := ScanSnapshot("svc", "inst-1", time.Unix(100, 0), strings.NewReader(body), nil)
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

func TestHandlerDebug1ServesAggregated(t *testing.T) {
	synthetic := []*stack.Goroutine{
		mkGoroutine(1, "select", "svc.w", "/svc/w.go", 3),
		mkGoroutine(2, "select", "svc.w", "/svc/w.go", 3),
	}
	srv := httptest.NewServer(Handler{Stacks: func() []*stack.Goroutine { return synthetic }})
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	p, err := ParseProfile1(string(body))
	if err != nil {
		t.Fatalf("unparseable: %v\n%s", err, body)
	}
	if p.Total != 2 || len(p.Records) != 1 || p.Records[0].Count != 2 {
		t.Errorf("profile = %+v", p)
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
