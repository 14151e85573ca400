package leakprof

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/stack"
)

// flakyServer fails the first failures requests with 503, then serves a
// one-goroutine profile.
func flakyServer(failures int) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	body := stack.Format([]*stack.Goroutine{{
		ID: 1, State: "chan send",
		Frames: []stack.Frame{{Function: "svc.leak", File: "/svc/l.go", Line: 5}},
	}})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(failures) {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(body))
	}))
	return srv, &hits
}

// recordingSleeper captures backoff delays instead of sleeping.
func recordingSleeper(mu *sync.Mutex, delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		mu.Lock()
		*delays = append(*delays, d)
		mu.Unlock()
		return nil
	}
}

func TestRetrySucceedsAfterFlakes(t *testing.T) {
	srv, hits := flakyServer(2)
	defer srv.Close()

	var mu sync.Mutex
	var delays []time.Duration
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 15 * time.Millisecond}
	p := New(WithThreshold(1), WithRetry(policy))
	p.cfg.sleep = recordingSleeper(&mu, &delays)
	p.cfg.randFloat = func() float64 { return 0.999 } // worst-case jitter

	sweep, err := p.Sweep(context.Background(), StaticEndpoints(
		Endpoint{Service: "svc", Instance: "i1", URL: srv.URL},
	))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Profiles != 1 || sweep.Errors != 0 {
		t.Fatalf("profiles=%d errors=%d, want 1/0", sweep.Profiles, sweep.Errors)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (2 failures + success)", got)
	}
	if len(delays) != 2 {
		t.Fatalf("backoff slept %d times, want 2: %v", len(delays), delays)
	}
	// Jitter ceiling: even at worst-case jitter no delay passes MaxDelay,
	// and every delay is at least the base.
	for _, d := range delays {
		if d > policy.MaxDelay {
			t.Errorf("delay %v exceeds MaxDelay %v", d, policy.MaxDelay)
		}
		if d < policy.BaseDelay {
			t.Errorf("delay %v below BaseDelay %v", d, policy.BaseDelay)
		}
	}
}

func TestRetryBoundedAttempts(t *testing.T) {
	srv, hits := flakyServer(1 << 30) // never succeeds
	defer srv.Close()

	var mu sync.Mutex
	var delays []time.Duration
	p := New(WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}))
	p.cfg.sleep = recordingSleeper(&mu, &delays)

	sweep, err := p.Sweep(context.Background(), StaticEndpoints(
		Endpoint{Service: "svc", Instance: "i1", URL: srv.URL},
	))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Errors != 1 || sweep.Profiles != 0 {
		t.Fatalf("errors=%d profiles=%d, want 1/0", sweep.Errors, sweep.Profiles)
	}
	if got := hits.Load(); got != 4 {
		t.Errorf("server saw %d requests, want exactly MaxAttempts=4", got)
	}
	if len(delays) != 3 {
		t.Errorf("backoff slept %d times, want 3", len(delays))
	}
	if len(sweep.Failures) != 1 || !strings.Contains(sweep.Failures[0].Err.Error(), "after 4 attempts") {
		t.Errorf("failure detail = %+v", sweep.Failures)
	}
}

func TestErrorBudgetShortCircuitsService(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer down.Close()
	up, _ := flakyServer(0)
	defer up.Close()

	// A fleet where every "broken" instance fails and "healthy" serves;
	// serial collection makes the short-circuit deterministic.
	const brokenInstances = 6
	eps := []Endpoint{{Service: "healthy", Instance: "h1", URL: up.URL}}
	for i := 0; i < brokenInstances; i++ {
		eps = append(eps, Endpoint{Service: "broken", Instance: "b" + string(rune('0'+i)), URL: down.URL})
	}
	p := New(WithParallelism(1), WithErrorBudget(2))
	sweep, err := p.Sweep(context.Background(), StaticEndpoints(eps...))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Profiles != 1 {
		t.Errorf("healthy service profiles = %d, want 1", sweep.Profiles)
	}
	if sweep.Errors != brokenInstances {
		t.Errorf("errors = %d, want %d (budget skips still count)", sweep.Errors, brokenInstances)
	}
	var fetched, skipped int
	for _, f := range sweep.Failures {
		if f.Service != "broken" {
			t.Errorf("unexpected failure for %s/%s: %v", f.Service, f.Instance, f.Err)
			continue
		}
		if errors.Is(f.Err, ErrBudgetExhausted) {
			skipped++
		} else {
			fetched++
		}
	}
	if fetched != 2 || skipped != brokenInstances-2 {
		t.Errorf("fetched=%d skipped=%d, want 2/%d", fetched, skipped, brokenInstances-2)
	}
}

func TestRetryPolicyDelayCeilingAndGrowth(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 10, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	maxRnd := func() float64 { return 0.999999 }
	prev := time.Duration(0)
	for attempt := 1; attempt < 12; attempt++ {
		d := policy.delay(attempt, maxRnd)
		if d > policy.MaxDelay {
			t.Fatalf("attempt %d: delay %v exceeds ceiling %v", attempt, d, policy.MaxDelay)
		}
		if d < prev {
			t.Fatalf("attempt %d: delay %v shrank below %v", attempt, d, prev)
		}
		prev = d
	}
	// Without jitter the schedule is plain doubling capped at the max.
	noRnd := func() float64 { return 0 }
	if d := policy.delay(1, noRnd); d != 100*time.Millisecond {
		t.Errorf("first delay = %v", d)
	}
	if d := policy.delay(2, noRnd); d != 200*time.Millisecond {
		t.Errorf("second delay = %v", d)
	}
	if d := policy.delay(9, noRnd); d != time.Second {
		t.Errorf("late delay = %v, want capped at 1s", d)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	srv, hits := flakyServer(1 << 30)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	p := New(WithRetry(RetryPolicy{MaxAttempts: 100, BaseDelay: time.Millisecond}))
	p.cfg.sleep = func(ctx context.Context, _ time.Duration) error {
		cancel() // first backoff: the operator hits Ctrl-C
		return ctx.Err()
	}
	sweep, _ := p.Sweep(ctx, StaticEndpoints(
		Endpoint{Service: "svc", Instance: "i1", URL: srv.URL},
	))
	if sweep.Errors != 1 {
		t.Fatalf("errors = %d", sweep.Errors)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests after cancel, want 1", got)
	}
}

// TestSalvagedFetchIsOneSuccess pins that a salvaged profile (malformed
// members skipped) is a successful fetch: it is not retried and spends
// none of its service's error budget, so under a budget of one every
// instance of the service is still fetched, once, and each counts as a
// profile with a salvage failure.
func TestSalvagedFetchIsOneSuccess(t *testing.T) {
	malformed := "goroutine 1 [chan send]:\npay.leak()\n\t/pay/l.go:5 +0x2b\n" +
		"goroutine 99 [chan send:\ntorn.member()\n"
	var mu sync.Mutex
	hits := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.URL.Path]++
		mu.Unlock()
		_, _ = io.WriteString(w, malformed)
	}))
	defer srv.Close()
	var eps []Endpoint
	for _, inst := range []string{"i1", "i2", "i3"} {
		eps = append(eps, Endpoint{Service: "pay", Instance: inst, URL: srv.URL + "/" + inst})
	}
	p := New(WithRetry(RetryPolicy{MaxAttempts: 3}), WithErrorBudget(1), WithParallelism(1))
	sweep, err := p.Sweep(context.Background(), StaticEndpoints(eps...))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"/i1": 1, "/i2": 1, "/i3": 1}; !reflect.DeepEqual(hits, want) {
		t.Errorf("requests per instance = %v, want %v", hits, want)
	}
	if sweep.Profiles != 3 || len(sweep.Failures) != 3 {
		t.Fatalf("Profiles %d, Failures %+v; want 3 and three salvages", sweep.Profiles, sweep.Failures)
	}
	for _, f := range sweep.Failures {
		if !errors.Is(f.Err, gprofile.ErrSalvaged) || errors.Is(f.Err, ErrBudgetExhausted) {
			t.Errorf("%s/%s: %v, want a salvage, not a budget skip", f.Service, f.Instance, f.Err)
		}
	}
}
