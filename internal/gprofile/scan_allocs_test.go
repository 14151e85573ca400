//go:build !race

// The race detector makes sync.Pool drop a random quarter of its Puts,
// so under -race whether a scan reuses the pooled scanner — and with it
// the allocation count — is a coin flip; the pin holds only without it.

package gprofile

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stack"
	"repro/internal/synth"
)

// TestScanSnapshotAllocs pins the counting scan's allocation profile:
// once a scan has warmed the pooled scanner and the shared intern pool,
// ScanSnapshot allocates per distinct string and per dump, never per
// member, so a 10K-goroutine clustered dump costs what a 1K one does.
func TestScanSnapshotAllocs(t *testing.T) {
	pool := stack.NewInternPool(0)
	allocs := func(clusterSize int) float64 {
		cfg := synth.DumpConfig{Benign: 200, LeakClusters: 4, ClusterSize: clusterSize, Seed: 1}
		dump := synth.PullDump(cfg)
		return testing.AllocsPerRun(5, func() {
			snap, err := ScanSnapshot("svc", "i1", time.Time{}, strings.NewReader(dump), pool)
			if err != nil {
				t.Fatal(err)
			}
			if snap.TotalGoroutines != cfg.Goroutines() {
				t.Fatalf("scanned %d goroutines, want %d", snap.TotalGoroutines, cfg.Goroutines())
			}
		})
	}
	small, large := allocs(200), allocs(2450)
	t.Logf("allocs per scan: %.0f for 1K goroutines, %.0f for 10K", small, large)
	if large > small+4 {
		t.Errorf("10K-goroutine scan allocates %.0f objects, 1K %.0f: allocation grows with members", large, small)
	}
}
