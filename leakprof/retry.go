package leakprof

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/gprofile"
)

// RetryPolicy bounds how collection retries a failing endpoint. A fleet
// sweep historically gave each instance one shot; production collection
// wants a bounded number of attempts with jittered exponential backoff so
// a deploying instance gets a second chance without a retry storm
// hammering a struggling one.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per endpoint, including
	// the first; values below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt, doubling per
	// subsequent attempt. Zero means 100ms.
	BaseDelay time.Duration
	// MaxDelay is the backoff ceiling, applied after jitter — no sleep
	// ever exceeds it. Zero means 5s.
	MaxDelay time.Duration
}

// retryJitter is the random fraction added to each backoff: a delay d
// becomes d * (1 + retryJitter*u) for uniform u in [0, 1).
const retryJitter = 0.5

// DefaultRetryPolicy is the production collection default: three tries
// with 100ms/200ms backoff, half-width jitter, capped at 5s.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// delay computes the jittered backoff before attempt (1-based count of
// failures so far); rnd supplies uniform [0, 1) randomness.
func (p RetryPolicy) delay(attempt int, rnd func() float64) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << (attempt - 1)
	if d <= 0 || d > max { // shift overflow or past the ceiling
		d = max
	}
	d += time.Duration(float64(d) * retryJitter * rnd())
	if d > max {
		d = max
	}
	return d
}

// ErrBudgetExhausted marks instances skipped because their service
// already burned its per-sweep error budget.
var ErrBudgetExhausted = errors.New("leakprof: service error budget exhausted")

// errorBudget tracks post-retry fetch failures per service during one
// sweep. Once a service accumulates `budget` failed instances, its
// remaining instances short-circuit: a service that is down fleet-wide
// (or mid-deploy) should cost the sweep `budget` timeouts, not one
// timeout per instance times retries.
type errorBudget struct {
	budget int
	mu     sync.Mutex
	failed map[string]int
}

// newErrorBudget builds the sweep's budget, optionally seeded with the
// previous sweep's per-service failure counts (the state journal's
// FailedByService): a service that burned budget yesterday starts today
// already partially spent — a reduced probe budget — but always keeps at
// least one probe, so a recovered service re-enters the sweep instead of
// being short-circuited forever.
func newErrorBudget(budget int, prevFailures map[string]int) *errorBudget {
	if budget <= 0 {
		return nil // unlimited
	}
	b := &errorBudget{budget: budget, failed: make(map[string]int)}
	for service, failed := range prevFailures {
		if failed <= 0 {
			continue
		}
		seed := failed
		if seed > budget-1 {
			seed = budget - 1
		}
		if seed > 0 {
			b.failed[service] = seed
		}
	}
	return b
}

// exhausted reports whether the service's budget is spent.
func (b *errorBudget) exhausted(service string) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failed[service] >= b.budget
}

// spend records one failed instance against the service.
func (b *errorBudget) spend(service string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.failed[service]++
	b.mu.Unlock()
}

// fetchFleet is the StaticEndpoints source's HTTP collection loop: bounded
// parallelism, bounded retry with jittered backoff, per-service error
// budgets (optionally pre-seeded with prevFailures, the previous sweep's
// journaled per-service failure counts), and each response body streaming
// straight through the stack scanner. deliver is called exactly once per
// endpoint, concurrently.
func fetchFleet(ctx context.Context, cfg *Config, prevFailures map[string]int, endpoints []Endpoint, deliver func(i int, snap *gprofile.Snapshot, err error)) {
	client := cfg.httpClient()
	budget := newErrorBudget(cfg.ErrorBudget, prevFailures)
	sem := make(chan struct{}, cfg.parallelism())
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if budget.exhausted(ep.Service) {
				deliver(i, nil, fmt.Errorf("leakprof: skipping %s/%s: %w", ep.Service, ep.Instance, ErrBudgetExhausted))
				return
			}
			snap, err := fetchWithRetry(ctx, cfg, client, ep)
			if err != nil {
				budget.spend(ep.Service)
			}
			deliver(i, snap, err)
		}(i, ep)
	}
	wg.Wait()
}

// fetchWithRetry runs one endpoint's fetch under the retry policy,
// giving up when attempts are exhausted or the context dies.
func fetchWithRetry(ctx context.Context, cfg *Config, client *http.Client, ep Endpoint) (*gprofile.Snapshot, error) {
	policy := cfg.Retry
	for attempts := 1; ; attempts++ {
		snap, err := fetchOne(ctx, cfg, client, ep)
		if err == nil {
			return snap, nil
		}
		stop := attempts >= policy.attempts() || ctx.Err() != nil
		if !stop {
			stop = cfg.sleepFn()(ctx, policy.delay(attempts, cfg.randFn())) != nil
		}
		if stop {
			if attempts > 1 {
				err = fmt.Errorf("%w (after %d attempts)", err, attempts)
			}
			return nil, err
		}
	}
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
