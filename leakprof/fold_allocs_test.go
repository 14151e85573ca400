//go:build !race

// The race detector instruments every map access and slice copy: the
// fold runs about ten times slower under it, and the counts shift by a
// few. The pins are properties of the uninstrumented build.

package leakprof

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/stack"
)

// TestSnapshotFoldAllocs pins the fold's allocation profile: a Save
// encodes the whole state into one snapshot frame through buffers sized
// from the state's counts (the string dictionary, the body, the bug
// capture, the trend export), so a fold of 20K keys must allocate far
// fewer objects than it has keys. Its drain of the dirty set keeps only
// the keys, so a fold holding 20K dirty bugs must allocate about what
// one holding none does, not a copy of every dirty bug.
func TestSnapshotFoldAllocs(t *testing.T) {
	at := time.Unix(1700000000, 0).UTC()
	build := func(keys int) (*StateStore, []string) {
		store, err := OpenStateStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		findings := make([]*Finding, keys)
		bugKeys := make([]string, keys)
		for i := range findings {
			svc := fmt.Sprintf("svc%02d", i%64)
			f := &Finding{Service: svc, Op: "send", Location: fmt.Sprintf("/%s/f%05d.go:1", svc, i), TotalBlocked: 1000 + i}
			findings[i], bugKeys[i] = f, f.Key()
			store.BugDB().File(report.Bug{
				Key: f.Key(), Service: svc, Op: f.Op, Location: f.Location,
				Function: fmt.Sprintf("%s.leak%05d", svc, i), FiledAt: at, BlockedGoroutines: f.TotalBlocked,
			})
		}
		for day := 0; day < 3; day++ {
			store.Tracker().ObserveMoments(at.Add(time.Duration(day)*24*time.Hour), momentsOf(findings))
		}
		return store, bugKeys
	}
	save := func(store *StateStore) {
		if err := store.Save(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(keys int) float64 {
		store, _ := build(keys)
		return testing.AllocsPerRun(3, func() { save(store) })
	}
	small, large := allocs(2_000), allocs(20_000)
	t.Logf("allocs per fold: %.0f at 2K keys, %.0f at 20K", small, large)
	if large >= 1000 {
		t.Errorf("a fold of 20K keys allocates %.0f objects, want fewer than 1,000", large)
	}

	store, keys := build(20_000)
	save(store) // drains the filings and the new observations
	bytesOf := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		save(store)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	clean := bytesOf()
	store.BugDB().MarkDirty(keys...)
	dirty := bytesOf()
	t.Logf("bytes per fold of 20K keys: %d with none dirty, %d with all dirty", clean, dirty)
	if dirty > clean+1<<20 {
		t.Errorf("a fold holding 20K dirty bugs allocates %d bytes, %d more than one holding none; want at most 1 MiB more",
			dirty, dirty-clean)
	}
}

// TestTrendExportSharesHistory pins what an export costs: Export hands
// out the tracker's live history, so exporting 10K keys allocates the
// same bytes whether each key holds 3 observations or 30.
func TestTrendExportSharesHistory(t *testing.T) {
	bytesOf := func(perKey int) uint64 {
		moments := make([]Moment, 10_000)
		for i := range moments {
			moments[i] = Moment{Service: "s", Op: stack.BlockedOp{Op: "send", Location: fmt.Sprintf("/f%05d.go:1", i)}, Total: 100 + i}
		}
		tr := &TrendTracker{}
		for day := 0; day < perKey; day++ {
			tr.ObserveMoments(time.Unix(int64(day)*86400, 0), moments)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 3; i++ {
			tr.Export()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 3
	}
	few, many := bytesOf(3), bytesOf(30)
	t.Logf("bytes per export of 10K keys: %d at 3 observations a key, %d at 30", few, many)
	if diff := float64(many) - float64(few); diff > 0.1*float64(few) || diff < -0.1*float64(few) {
		t.Errorf("an export of 10K keys allocates %d bytes at 30 observations a key and %d at 3; want them within 10%%", many, few)
	}
}

// TestTrendRestoreAdoptsHistory pins what replaying a snapshot's trend
// history costs: the tracker adopts the slices the decoder built, so
// restoring 1,000 keys allocates fewer objects than there are keys.
func TestTrendRestoreAdoptsHistory(t *testing.T) {
	history := make(map[string][]TrendObservation, 1000)
	for i := 0; i < 1000; i++ {
		history[fmt.Sprintf("k%04d", i)] = []TrendObservation{{At: time.Unix(0, 0), Total: i}, {At: time.Unix(86400, 0), Total: 2 * i}}
	}
	tr := &TrendTracker{}
	if allocs := testing.AllocsPerRun(3, func() { tr.restore(history) }); allocs >= 1000 {
		t.Errorf("restoring 1,000 keys allocates %.0f objects, want fewer than 1,000", allocs)
	}
}
