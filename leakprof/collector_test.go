package leakprof

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/stack"
)

func profileServer(gs []*stack.Goroutine) *httptest.Server {
	return httptest.NewServer(gprofile.Handler{Stacks: func() []*stack.Goroutine { return gs }})
}

// snapshotSink keeps every snapshot a sweep streams past it. A sink
// runs on one worker goroutine and Sweep drains it before returning, so
// reading snaps after Sweep needs no lock.
type snapshotSink struct{ snaps []*gprofile.Snapshot }

func (s *snapshotSink) Snapshot(snap *gprofile.Snapshot) { s.snaps = append(s.snaps, snap) }
func (s *snapshotSink) SweepDone(*Sweep) error           { return nil }

// collect sweeps eps through a Pipeline built from opts and returns the
// sweep with the snapshots it collected.
func collect(t *testing.T, ctx context.Context, eps []Endpoint, opts ...Option) (*Sweep, []*gprofile.Snapshot) {
	t.Helper()
	sink := &snapshotSink{}
	sweep, _ := New(opts...).AddSinks(sink).Sweep(ctx, StaticEndpoints(eps...))
	return sweep, sink.snaps
}

func TestCollectFetchesAndScans(t *testing.T) {
	gs := []*stack.Goroutine{
		{ID: 1, State: "chan send", Frames: []stack.Frame{{Function: "svc.leak", File: "/svc/l.go", Line: 5}}},
		{ID: 2, State: "IO wait", Frames: []stack.Frame{{Function: "svc.read", File: "/svc/r.go", Line: 9}}},
	}
	srv := profileServer(gs)
	defer srv.Close()

	sweep, snaps := collect(t, context.Background(), []Endpoint{
		{Service: "svc", Instance: "i1", URL: srv.URL + "?debug=2"},
	}, WithClock(func() time.Time { return time.Unix(42, 0) }))
	if sweep.Errors != 0 {
		t.Fatal(sweep.Failures)
	}
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	snap := snaps[0]
	if snap.Service != "svc" || snap.Instance != "i1" {
		t.Errorf("snapshot meta = %+v", snap)
	}
	if !snap.TakenAt.Equal(time.Unix(42, 0)) {
		t.Errorf("timestamp = %v", snap.TakenAt)
	}
	// The body streamed through the scanner into counts.
	if snap.TotalGoroutines != 2 {
		t.Errorf("total goroutines = %d, want 2", snap.TotalGoroutines)
	}
	want := stack.BlockedOp{Op: "send", Location: "/svc/l.go:5", Function: "svc.leak"}
	if n := snap.PreAggregated[want]; n != 1 {
		t.Errorf("aggregates = %+v, want %+v -> 1", snap.PreAggregated, want)
	}
}

func TestCollectIntoStreamsAggregates(t *testing.T) {
	gs := make([]*stack.Goroutine, 300)
	for i := range gs {
		gs[i] = &stack.Goroutine{
			ID: int64(i + 1), State: "chan send",
			Frames: []stack.Frame{{Function: "svc.leak", File: "/svc/l.go", Line: 5}},
		}
	}
	srv := profileServer(gs)
	defer srv.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()

	sweep, err := New(WithThreshold(100)).Sweep(context.Background(), StaticEndpoints(
		Endpoint{Service: "svc", Instance: "i1", URL: srv.URL + "?debug=2"},
		Endpoint{Service: "svc", Instance: "i2", URL: srv.URL + "?debug=2"},
		Endpoint{Service: "svc", Instance: "down", URL: bad.URL},
	))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Errors != 1 || len(sweep.Failures) != 1 || sweep.Failures[0].Instance != "down" {
		t.Fatalf("failures = %+v, want only the failing endpoint", sweep.Failures)
	}
	if sweep.Profiles != 2 {
		t.Errorf("profiles = %d, want 2", sweep.Profiles)
	}
	if len(sweep.Findings) != 1 {
		t.Fatalf("findings = %+v", sweep.Findings)
	}
	f := sweep.Findings[0]
	if f.Location != "/svc/l.go:5" || f.TotalBlocked != 600 || f.Instances != 2 || f.SuspiciousInstances != 2 {
		t.Errorf("finding = %+v", f)
	}
}

func TestCollectToleratesFailures(t *testing.T) {
	good := profileServer(nil)
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()

	sweep, snaps := collect(t, context.Background(), []Endpoint{
		{Service: "a", Instance: "a1", URL: good.URL + "?debug=2"},
		{Service: "b", Instance: "b1", URL: bad.URL},
		{Service: "c", Instance: "c1", URL: "http://127.0.0.1:1/unreachable"},
	})
	if sweep.Errors != 2 || sweep.FailedByService["b"] != 1 || sweep.FailedByService["c"] != 1 {
		t.Errorf("failures = %+v, want b1 and c1", sweep.Failures)
	}
	if len(snaps) != 1 || snaps[0].Service != "a" {
		t.Errorf("snapshots = %+v", snaps)
	}
}

func TestCollectBoundedParallelism(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := maxInFlight.Load()
			if cur <= old || maxInFlight.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		_, _ = w.Write([]byte("goroutine 1 [running]:\nmain.main()\n\t/a.go:1 +0x1\n"))
	}))
	defer srv.Close()

	endpoints := make([]Endpoint, 12)
	for i := range endpoints {
		endpoints[i] = Endpoint{Service: "s", Instance: string(rune('a' + i)), URL: srv.URL}
	}
	sweep, _ := collect(t, context.Background(), endpoints, WithParallelism(3))
	if sweep.Errors != 0 {
		t.Fatal(sweep.Failures)
	}
	if got := maxInFlight.Load(); got > 3 {
		t.Errorf("max in-flight = %d, want <= 3", got)
	}
}

func TestCollectRejectsOversizedProfile(t *testing.T) {
	gs := make([]*stack.Goroutine, 50)
	for i := range gs {
		gs[i] = &stack.Goroutine{
			ID: int64(i + 1), State: "chan send",
			Frames: []stack.Frame{{Function: "svc.leak", File: "/svc/l.go", Line: 5}},
		}
	}
	body := stack.Format(gs)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()
	eps := []Endpoint{{Service: "s", Instance: "i", URL: srv.URL}}

	// A body over the cap must fail the fetch — truncating would
	// silently undercount the leakiest instances.
	sweep, _ := collect(t, context.Background(), eps, WithMaxProfileBytes(int64(len(body)-1)))
	if len(sweep.Failures) != 1 {
		t.Fatal("oversized profile did not error")
	}
	if err := sweep.Failures[0].Err; !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("error = %v, want size-limit error", err)
	}

	// At exactly the cap the profile is complete and must succeed.
	sweep, snaps := collect(t, context.Background(), eps, WithMaxProfileBytes(int64(len(body))))
	if sweep.Errors != 0 {
		t.Fatalf("at-limit profile errored: %v", sweep.Failures)
	}
	if snaps[0].TotalGoroutines != 50 {
		t.Errorf("goroutines = %d, want 50", snaps[0].TotalGoroutines)
	}
}

func TestCollectHonoursContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	sweep, _ := collect(t, ctx, []Endpoint{{Service: "s", Instance: "i", URL: srv.URL}})
	if sweep.Errors != 1 {
		t.Error("cancelled fetch should error")
	}
}

// TestEveryDoorRefusesBodyWithoutGoroutines sends one body through each
// live door: a pull sweep, a Dumps sweep and an ingest POST. A non-empty
// body in which the scan finds no goroutine member is not a profile, so
// each door counts it as a failed instance of its service, as archive
// replay does; an empty body is a profile of zero goroutines in each.
func TestEveryDoorRefusesBodyWithoutGoroutines(t *testing.T) {
	for _, tc := range []struct {
		body             string
		profiles, failed int
		code             int
	}{
		{"\x00\x01\x02binary", 0, 1, http.StatusBadRequest},
		{"", 1, 0, http.StatusAccepted},
	} {
		check := func(door string, sweep *Sweep) {
			t.Helper()
			if sweep.Profiles != tc.profiles || sweep.Errors != tc.failed || sweep.FailedByService["svc"] != tc.failed {
				t.Errorf("%s of %q: Profiles %d, Errors %d, FailedByService %v; want %d, %d and svc:%d",
					door, tc.body, sweep.Profiles, sweep.Errors, sweep.FailedByService, tc.profiles, tc.failed, tc.failed)
			}
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, tc.body)
		}))
		pull, err := New().Sweep(context.Background(), StaticEndpoints(Endpoint{Service: "svc", Instance: "i1", URL: srv.URL}))
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		check("pull", pull)

		dumps, err := New().Sweep(context.Background(), Dumps(Dump{Service: "svc", Instance: "i1", Body: strings.NewReader(tc.body)}))
		if err != nil {
			t.Fatal(err)
		}
		check("Dumps", dumps)

		sweeps := make(chan *Sweep, 1)
		ingest := NewIngestServer(New(WithOnSweep(func(s *Sweep) { sweeps <- s })), IngestTicks(make(chan time.Time)))
		if rec := postDump(ingest, "svc", "i1", []byte(tc.body), false); rec.Code != tc.code {
			t.Errorf("ingest POST of %q: got %d, want %d", tc.body, rec.Code, tc.code)
		}
		if st := ingest.Stats(); st.ScanErrors != uint64(tc.failed) {
			t.Errorf("ingest of %q: ScanErrors = %d, want %d", tc.body, st.ScanErrors, tc.failed)
		}
		// A cancelled Run drains everything into one window, synchronously.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ingest.Run(ctx)
		check("ingest", <-sweeps)
	}
}
