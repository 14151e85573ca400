package leakprof

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/report"
)

// BenchmarkStateJournal contrasts the two durability models at a
// 100K-key steady state — the scale ROADMAP flags as the v1 journal's
// wall. Each iteration persists one sweep that touched 10 keys out of
// 100K tracked:
//
//   - delta-append is the segmented journal's RecordSweep: one frame
//     carrying the 10 dirty bugs and 10 new observations. Bytes and
//     allocations per op scale with the sweep's delta.
//   - full-rewrite rewrites the whole state every sweep, expressed as a
//     forced snapshot: bytes and allocations per op scale with the 100K
//     tracked keys.
//
// The journal-KB/op metric is the store's own append accounting, so the
// two models are directly comparable in one bench run.
func BenchmarkStateJournal(b *testing.B) {
	const (
		trackedKeys = 100_000
		deltaKeys   = 10
	)
	baseTime := time.Unix(0, 0)

	seed := func(b *testing.B) *StateStore {
		b.Helper()
		store, err := OpenStateStore(b.TempDir(), WithTrendRetention(30))
		if err != nil {
			b.Fatal(err)
		}
		findings := make([]*Finding, trackedKeys)
		for i := range findings {
			findings[i] = &Finding{
				Service: "svc", Op: "send",
				Location:     fmt.Sprintf("/svc/f%05d.go:1", i),
				TotalBlocked: 1000,
			}
			store.BugDB().File(report.Bug{
				Key: findings[i].Key(), Service: "svc", Op: "send",
				Location: findings[i].Location, FiledAt: baseTime,
				BlockedGoroutines: 1000,
			})
		}
		store.Tracker().Observe(baseTime, findings)
		// Fold the seed into one snapshot segment: the steady state a
		// long-running daily sweep sits at.
		if err := store.Save(); err != nil {
			b.Fatal(err)
		}
		return store
	}

	// sweepDelta touches deltaKeys existing keys — re-sightings plus new
	// observations, the shape of a quiet production day.
	sweepDelta := func(store *StateStore, day int) {
		at := baseTime.Add(time.Duration(day) * 24 * time.Hour)
		findings := make([]*Finding, deltaKeys)
		for k := range findings {
			findings[k] = &Finding{
				Service: "svc", Op: "send",
				Location:     fmt.Sprintf("/svc/f%05d.go:1", k),
				TotalBlocked: 1000 + day,
			}
			store.BugDB().File(report.Bug{
				Key: findings[k].Key(), Service: "svc", Op: "send",
				Location: findings[k].Location, FiledAt: at,
				BlockedGoroutines: 1000 + day,
			})
		}
		store.Tracker().Observe(at, findings)
	}

	b.Run("delta-append", func(b *testing.B) {
		store := seed(b)
		defer store.Close()
		start := store.journalBytesAppended()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweepDelta(store, i+1)
			if err := store.RecordSweep(&Sweep{At: baseTime.Add(time.Duration(i+1) * 24 * time.Hour), Source: "bench", Profiles: 100}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(store.journalBytesAppended()-start)/float64(b.N)/1024, "journal-KB/op")
	})

	b.Run("full-rewrite", func(b *testing.B) {
		store := seed(b)
		defer store.Close()
		start := store.journalBytesAppended()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweepDelta(store, i+1)
			// Every sweep rewrites the whole journal.
			if err := store.Save(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(store.journalBytesAppended()-start)/float64(b.N)/1024, "journal-KB/op")
	})
}
