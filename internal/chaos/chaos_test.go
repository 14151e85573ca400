package chaos

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/patterns"
	"repro/internal/stack"
)

func TestHash01Deterministic(t *testing.T) {
	a := Hash01(7, "torn", "svc-0003", 4)
	b := Hash01(7, "torn", "svc-0003", 4)
	if a != b {
		t.Fatalf("same inputs, different draws: %v vs %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Fatalf("draw %v outside [0, 1)", a)
	}
	// Each dimension must perturb the draw: seed, kind, key, attempt.
	for name, other := range map[string]float64{
		"seed":    Hash01(8, "torn", "svc-0003", 4),
		"kind":    Hash01(7, "slow", "svc-0003", 4),
		"key":     Hash01(7, "torn", "svc-0004", 4),
		"attempt": Hash01(7, "torn", "svc-0003", 5),
	} {
		if other == a {
			t.Errorf("changing %s did not change the draw", name)
		}
	}
}

func TestHash01Uniform(t *testing.T) {
	// Coarse sanity: the mean of many draws sits near 1/2.
	var sum float64
	const n = 4096
	for i := uint64(0); i < n; i++ {
		sum += Hash01(1, "u", "k", i)
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean of %d draws = %v, want ~0.5", n, mean)
	}
}

func TestTorn(t *testing.T) {
	body := []byte("0123456789")
	if got := Torn(body, 0.5); len(got) != 5 {
		t.Fatalf("Torn(10 bytes, 0.5) kept %d bytes, want 5", len(got))
	}
	if got := Torn(body, 0); got != nil {
		t.Fatalf("Torn(_, 0) = %q, want nil", got)
	}
	if got := Torn(body, 1); !bytes.Equal(got, body) {
		t.Fatalf("Torn(_, 1) mutated the body")
	}
	if got := Torn(body, 0.999); len(got) >= len(body) {
		t.Fatalf("Torn(_, 0.999) kept the whole body")
	}
}

func TestMalformHeadersScannerSalvage(t *testing.T) {
	// Render a six-member dump, corrupt every second header, and check
	// the scanner's salvage accounting sees exactly the mutated members.
	var gs []*stack.Goroutine
	for i := 0; i < 6; i++ {
		gs = append(gs, patterns.TimeoutLeak.Stacks(int64(1+i*10), 1)...)
	}
	body := []byte(stack.Format(gs))

	mutated, count := MalformHeaders(body, 2)
	if count != 3 {
		t.Fatalf("MalformHeaders corrupted %d members, want 3", count)
	}
	if !strings.Contains(string(mutated), "[chan") || bytes.Count(mutated, []byte("]:\n")) >= bytes.Count(body, []byte("]:\n")) {
		t.Fatalf("mutated body lacks the malformed-header shape:\n%s", mutated)
	}

	scanned, err := gprofile.ScanSnapshot("svc", "i-0", time.Time{}, bytes.NewReader(mutated))
	if scanned == nil || !errors.Is(err, gprofile.ErrSalvaged) {
		t.Fatalf("scan of malformed body: err = %v, want a salvage", err)
	}
	if scanned.Malformed != count {
		t.Fatalf("scanner salvaged %d malformed members, want %d", scanned.Malformed, count)
	}
	if scanned.TotalGoroutines != len(gs)-count {
		t.Fatalf("scanner kept %d members, want %d", scanned.TotalGoroutines, len(gs)-count)
	}
}

func TestCorruptGzipFailsInflation(t *testing.T) {
	snap := &gprofile.Snapshot{
		Service:  "svc",
		Instance: "i-0",
		PreAggregated: map[stack.BlockedOp]int{
			{Op: "send", Location: "svc/x.go:10", Function: "svc.leak"}: 500,
		},
	}
	gz := gzipBody(renderSnapshot(snap))
	bad := CorruptGzip(gz)
	if bytes.Equal(bad, gz) {
		t.Fatal("CorruptGzip returned the stream unchanged")
	}
	zr, err := gzip.NewReader(bytes.NewReader(bad))
	if err == nil {
		_, err = io.Copy(io.Discard, zr)
	}
	if err == nil {
		t.Fatal("corrupted gzip stream inflated cleanly")
	}
}

func TestInjectorWrapFaults(t *testing.T) {
	honest := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "goroutine 1 [chan send]:\nmain.leak()\n\tmain.go:10 +0x1\n\n")
	})

	t.Run("flap", func(t *testing.T) {
		inj := &Injector{Seed: 1, Faults: Faults{FlapProb: 1}}
		rec := httptest.NewRecorder()
		inj.Wrap("i-0", honest).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("flap returned %d, want 503", rec.Code)
		}
		if st := inj.Stats(); st.Flapped != 1 || st.Fired() != 1 {
			t.Fatalf("stats = %+v, want one flap", st)
		}
	})

	t.Run("torn", func(t *testing.T) {
		inj := &Injector{Seed: 1, Faults: Faults{TornProb: 1, TornFrac: 0.5}}
		rec := httptest.NewRecorder()
		inj.Wrap("i-0", honest).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("torn response code %d, want 200", rec.Code)
		}
		full := httptest.NewRecorder()
		honest.ServeHTTP(full, httptest.NewRequest("GET", "/", nil))
		if got, want := rec.Body.Len(), full.Body.Len()/2; got != want {
			t.Fatalf("torn body %d bytes, want %d", got, want)
		}
	})

	t.Run("deploy-exactly-once", func(t *testing.T) {
		fired := 0
		inj := &Injector{Seed: 1, Faults: Faults{DeployAfter: 3}, OnDeploy: func() { fired++ }}
		h := inj.Wrap("i-0", honest)
		for i := 0; i < 6; i++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		}
		if fired != 1 {
			t.Fatalf("OnDeploy fired %d times over 6 requests, want exactly 1", fired)
		}
	})

	t.Run("composed", func(t *testing.T) {
		// Everything at once: the request must still terminate and the
		// body corruptions stack on the rendered output.
		inj := &Injector{Seed: 1, Faults: Faults{
			SlowProb: 1, SlowFor: time.Millisecond,
			TornProb: 1, TornFrac: 0.9,
			MalformProb: 1, MalformEvery: 1,
		}}
		rec := httptest.NewRecorder()
		inj.Wrap("i-0", honest).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		st := inj.Stats()
		if st.Slowed != 1 || st.Torn != 1 || st.Malformed != 1 {
			t.Fatalf("composed faults did not all fire: %+v", st)
		}
	})
}

func TestSimulatable(t *testing.T) {
	sims := patterns.Simulatable()
	if len(sims) < 5 {
		t.Fatalf("Simulatable returned %d patterns, want at least 5", len(sims))
	}
	in := map[string]bool{}
	for _, p := range sims {
		in[p.Name] = true
		rep := p.Stacks(1, 1)
		if len(rep) == 0 {
			t.Errorf("%s: Stacks(1, 1) produced nothing", p.Name)
			continue
		}
		if _, ok := rep[0].BlockedChannelOp(); !ok {
			t.Errorf("%s: representative record has no blocked channel op", p.Name)
		}
	}
	// Everything Simulatable left out must genuinely fail the criterion:
	// no synthesised stacks, or no channel-blocked representative.
	for _, p := range patterns.All() {
		if in[p.Name] || p.Stacks == nil {
			continue
		}
		rep := p.Stacks(1, 1)
		if len(rep) == 0 {
			continue
		}
		if _, ok := rep[0].BlockedChannelOp(); ok {
			t.Errorf("%s excluded from Simulatable despite a channel-blocked representative", p.Name)
		}
	}
}
