package chaos

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/patterns"
	"repro/internal/stack"
	"repro/leakprof"
)

// TestIngestSalvageAccounting drives randomised body corruption through
// the full ingest path and checks the damage lands in the books: every
// POSTed body is independently mutilated (malformed headers, a
// truncation at a seeded mid-frame offset, or a corrupt gzip stream),
// and the test pre-computes — by scanning the exact mutated bytes
// directly — whether ingest must reject it at the door (400 +
// ScanErrors), fold it with a salvage failure in the closing window
// (202 + ErrSalvaged), or fold it clean. The window close must then
// report exactly the predicted accounting.
func TestIngestSalvageAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	renderBody := func(members int) []byte {
		var gs []*stack.Goroutine
		for i := 0; i < members; i++ {
			gs = append(gs, patterns.TimeoutLeak.Stacks(int64(1+i*10), 1)...)
		}
		return []byte(stack.Format(gs))
	}

	type post struct {
		ingestPost
		wantCode    int
		wantSalvage bool
	}
	var posts []post
	wantScanErr, wantSalvage := 0, 0
	for i := 0; i < 16; i++ {
		p := post{ingestPost: ingestPost{
			service:  "svc-a",
			instance: string(rune('a'+i)) + "-inst",
			body:     renderBody(4 + rng.Intn(5)),
		}}
		switch i % 4 {
		case 0: // clean
		case 1: // corrupt headers: scanner resyncs, window records salvage
			p.body, _ = MalformHeaders(p.body, 2)
		case 2: // torn mid-frame at a seeded offset
			cut := len(p.body)/4 + rng.Intn(len(p.body)/2)
			p.body = p.body[:cut]
		case 3: // corrupt gzip: inflation dies mid-body
			p.body, p.gz = CorruptGzip(gzipBody(p.body)), true
		}

		// Oracle: scan the exact bytes ingest will see. ScanSnapshot is
		// the same scanner the server runs at admission, so its verdict
		// predicts the HTTP code and the window accounting.
		switch {
		case p.gz:
			p.wantCode = http.StatusBadRequest
			wantScanErr++
		default:
			snap, err := gprofile.ScanSnapshot("svc-a", p.instance, time.Time{}, bytes.NewReader(p.body), nil)
			switch {
			case err != nil:
				p.wantCode = http.StatusBadRequest
				wantScanErr++
			case snap.Malformed > 0:
				p.wantCode = http.StatusAccepted
				p.wantSalvage = true
				wantSalvage++
			default:
				p.wantCode = http.StatusAccepted
			}
		}
		posts = append(posts, p)
	}
	if wantSalvage == 0 {
		t.Fatal("seed produced no salvage cases; the test would assert nothing")
	}
	if wantScanErr == 0 {
		t.Fatal("seed produced no hard scan errors; the test would assert nothing")
	}

	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	ticks := make(chan time.Time, 1)
	sweeps := make(chan *leakprof.Sweep, 2)
	pipe := leakprof.New(
		leakprof.WithThreshold(1<<30), // accounting is under test, not detection
		leakprof.WithWindow(time.Minute),
		leakprof.WithClock(clock.Now),
		leakprof.WithOnSweep(func(s *leakprof.Sweep) { sweeps <- s }),
	)
	defer pipe.Close()
	srv := leakprof.NewIngestServer(pipe, leakprof.IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Run(ctx) }()
	defer func() { cancel(); <-done }()

	admitted := uint64(0)
	for _, p := range posts {
		code := postIngest(srv, p.ingestPost, "")
		if code != p.wantCode {
			t.Fatalf("%s: POST returned %d, want %d", p.instance, code, p.wantCode)
		}
		if code == http.StatusAccepted {
			admitted++
		}
	}
	if err := waitStats(srv, func(st leakprof.IngestStats) bool {
		return st.Folded == admitted
	}); err != nil {
		t.Fatal(err)
	}

	clock.Advance(time.Minute + time.Second)
	ticks <- time.Time{}
	var sweep *leakprof.Sweep
	select {
	case sweep = <-sweeps:
	case <-time.After(10 * time.Second):
		t.Fatal("window never closed")
	}

	gotSalvage, gotHard := 0, 0
	for _, f := range sweep.Failures {
		if errors.Is(f.Err, gprofile.ErrSalvaged) {
			gotSalvage++
		} else {
			gotHard++
		}
	}
	if gotSalvage != wantSalvage {
		t.Errorf("closing window recorded %d salvage failures, want %d", gotSalvage, wantSalvage)
	}
	if gotHard != wantScanErr {
		t.Errorf("closing window recorded %d hard failures, want %d", gotHard, wantScanErr)
	}
	if st := srv.Stats(); st.ScanErrors != uint64(wantScanErr) {
		t.Errorf("IngestStats.ScanErrors = %d, want %d", st.ScanErrors, wantScanErr)
	}
	// Salvage is a diagnostic, not downness: only hard scan errors may
	// seed the per-service failure accounting.
	if n := sweep.FailedByService["svc-a"]; n != wantScanErr {
		t.Errorf("FailedByService[svc-a] = %d, want %d", n, wantScanErr)
	}
}
