package leakprof

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/gprofile"
)

// Endpoint identifies one profiled service instance.
type Endpoint struct {
	// Service is the owning service name.
	Service string
	// Instance is a unique instance identifier (host/task id).
	Instance string
	// URL is the full goroutine-profile URL, e.g.
	// "http://host:port/debug/pprof/goroutine?debug=2".
	URL string
}

// DefaultMaxProfileBytes bounds one profile body. The limit exists to cap
// a misbehaving endpoint, not memory: bodies stream through the scanner
// and are never buffered. A body exceeding the limit fails the fetch —
// a truncated profile would silently undercount exactly the instances
// LEAKPROF most needs to see.
const DefaultMaxProfileBytes = 256 << 20

// fetchOne streams one instance's profile body straight into the scanner
// and returns scanBounded's verdict; the body is never materialised.
func fetchOne(ctx context.Context, cfg *Config, client *http.Client, ep Endpoint) (*gprofile.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.URL, nil)
	if err != nil {
		return nil, fmt.Errorf("leakprof: building request for %s/%s: %w", ep.Service, ep.Instance, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("leakprof: fetching %s/%s: %w", ep.Service, ep.Instance, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("leakprof: %s/%s returned %s", ep.Service, ep.Instance, resp.Status)
	}
	return scanBounded(cfg, ep.Service, ep.Instance, resp.Body)
}

// errOverLimit marks a profile body longer than MaxProfileBytes.
var errOverLimit = errors.New("profile exceeds the byte limit")

// scanBounded returns gprofile.ScanSnapshot's verdict on one profile
// body, reading one byte past the pipeline's MaxProfileBytes: if that
// byte arrives, the profile is over budget and fails with errOverLimit
// alone, whatever the scan made of the truncated body, rather than
// passing truncated counts downstream.
func scanBounded(cfg *Config, service, instance string, body io.Reader) (*gprofile.Snapshot, error) {
	limit := cfg.MaxProfileBytes
	if limit <= 0 {
		limit = DefaultMaxProfileBytes
	}
	lr := &io.LimitedReader{R: body, N: limit + 1}
	snap, err := gprofile.ScanSnapshot(service, instance, cfg.now(), lr)
	if lr.N <= 0 {
		return nil, fmt.Errorf("leakprof: %s/%s: %w (%d bytes)", service, instance, errOverLimit, limit)
	}
	return snap, err
}
