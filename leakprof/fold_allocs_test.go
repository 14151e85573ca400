//go:build !race

// The race detector instruments every map access and slice copy of the
// fold: this test runs about ten times slower under it, and the counts
// shift by a few. The pin is a property of the uninstrumented build.

package leakprof

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/report"
)

// TestSnapshotFoldAllocs pins the fold's allocation profile: a Save
// encodes the whole state into one snapshot frame through buffers sized
// from the state's counts (the string dictionary, the body, the bug
// capture, the trend export), so a fold of 20K keys must allocate far
// fewer objects than it has keys.
func TestSnapshotFoldAllocs(t *testing.T) {
	at := time.Unix(1700000000, 0).UTC()
	allocs := func(keys int) float64 {
		store, err := OpenStateStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		findings := make([]*Finding, keys)
		for i := range findings {
			svc := fmt.Sprintf("svc%02d", i%64)
			f := &Finding{Service: svc, Op: "send", Location: fmt.Sprintf("/%s/f%05d.go:1", svc, i), TotalBlocked: 1000 + i}
			findings[i] = f
			store.BugDB().File(report.Bug{
				Key: f.Key(), Service: svc, Op: f.Op, Location: f.Location,
				Function: fmt.Sprintf("%s.leak%05d", svc, i), FiledAt: at, BlockedGoroutines: f.TotalBlocked,
			})
		}
		for day := 0; day < 3; day++ {
			store.Tracker().Observe(at.Add(time.Duration(day)*24*time.Hour), findings)
		}
		return testing.AllocsPerRun(3, func() {
			if err := store.Save(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2_000), allocs(20_000)
	t.Logf("allocs per fold: %.0f at 2K keys, %.0f at 20K", small, large)
	if large >= 1000 {
		t.Errorf("a fold of 20K keys allocates %.0f objects, want fewer than 1,000", large)
	}
}
