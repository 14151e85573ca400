package leakprof

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/internal/stack"
)

// BenchmarkSweepCriticalPath measures what this package ultimately sells:
// the wall-clock cost of one Pipeline.Sweep at a 100K-key steady state
// with the production sink set attached — report (bug filing against the
// durable DB), trend, and a write-through archive — and the state journal
// recording every sweep.
//
// Two configurations bracket the durability critical path; both block
// the sweep at the sink drain barrier until the slowest sink (the
// archive disk) finishes:
//
//   - attached-sync-every-sweep is the strict default: one fsync inside
//     every RecordSweep.
//   - fold-pause runs under SyncOnClose with the journal rolling and
//     folding on every sweep (1-byte segment budget, 1-segment cap), so
//     each sweep's ns/op includes the synchronous fold of the 100K-key
//     state and the fsync of the sweep's delta that precedes it.
//
// The fsyncs/op metric counts segment-file fsyncs only: under
// fold-pause each sweep also issues three directory fsyncs (its new
// segment, the snapshot segment, the manifest swing) and one of
// journal.json that the metric leaves out. journal-KB/op tracks the
// codec's frame size on the same run, and archive-KB/sweep the
// write-through archive's on-disk cost per sweep — with pre-aggregated
// clusters written as count-annotated records (one record per cluster
// instead of thousands of expanded blocks), both this metric and the
// sweep's allocs/op fall by orders of magnitude at bench fleet scale.
func BenchmarkSweepCriticalPath(b *testing.B) {
	const (
		trackedKeys = 100_000
		sweepKeys   = 10
		instances   = 8
	)
	baseTime := time.Unix(0, 0)

	// seedState builds the steady state: a journal already tracking 100K
	// keys, compacted to one snapshot segment.
	seedState := func(b *testing.B, dir string) {
		b.Helper()
		store, err := OpenStateStore(dir)
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
		store.Tracker().ObserveMoments(baseTime, momentsOf(findings))
		if err := store.Save(); err != nil {
			b.Fatal(err)
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}

	// The sweep's input: a small fleet whose instances all report the
	// same ten hot locations — the delta a quiet production day writes.
	snaps := make([]*gprofile.Snapshot, instances)
	for i := range snaps {
		pre := make(map[stack.BlockedOp]int, sweepKeys)
		for k := 0; k < sweepKeys; k++ {
			pre[stack.BlockedOp{Op: "send", Function: "svc.leak", Location: fmt.Sprintf("/svc/f%05d.go:1", k)}] = 2000
		}
		snaps[i] = &gprofile.Snapshot{Service: "svc", Instance: fmt.Sprintf("i%02d", i), PreAggregated: pre}
	}

	run := func(b *testing.B, opts ...Option) {
		stateDir, archiveDir := b.TempDir(), b.TempDir()
		seedState(b, stateDir)
		day := 0
		opts = append(opts,
			WithThreshold(1000),
			WithStateDir(stateDir),
			WithClock(func() time.Time { return baseTime.Add(time.Duration(day) * 24 * time.Hour) }),
		)
		pipe := New(opts...)
		store, err := pipe.State()
		if err != nil {
			b.Fatal(err)
		}
		archive, err := NewSweepArchiveSink(archiveDir, KeepSweeps(4))
		if err != nil {
			b.Fatal(err)
		}
		pipe.AddSinks(
			&ReportSink{Reporter: &Reporter{DB: store.BugDB(), TopN: 10}},
			&TrendSink{Tracker: store.Tracker()},
			archive,
		)
		src := FromSnapshots(snaps)
		startBytes, startSyncs := store.journalBytesAppended(), store.journalSyncs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Sweeps cycle through Horizon-1 days after the seed's, so the
			// seed never leaves the trend horizon: whatever b.N is, every
			// sweep runs against 100K keys.
			day = i%(Horizon-1) + 1
			if _, err := pipe.Sweep(context.Background(), src); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := pipe.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(store.journalSyncs()-startSyncs)/float64(b.N), "fsyncs/op")
		b.ReportMetric(float64(store.journalBytesAppended()-startBytes)/float64(b.N)/1024, "journal-KB/op")
		// The archive keeps the last KeepSweeps sweep directories; the
		// per-sweep metric averages over whatever is retained.
		var archiveBytes int64
		sweepDirs := 0
		if entries, err := os.ReadDir(archiveDir); err == nil {
			for _, e := range entries {
				if !e.IsDir() {
					continue
				}
				sweepDirs++
				members, err := os.ReadDir(filepath.Join(archiveDir, e.Name()))
				if err != nil {
					continue
				}
				for _, m := range members {
					if info, err := m.Info(); err == nil {
						archiveBytes += info.Size()
					}
				}
			}
		}
		if sweepDirs > 0 {
			b.ReportMetric(float64(archiveBytes)/float64(sweepDirs)/1024, "archive-KB/sweep")
		}
	}

	b.Run("attached-sync-every-sweep", func(b *testing.B) {
		run(b, WithStateSync(SyncEverySweep))
	})
	b.Run("fold-pause", func(b *testing.B) {
		run(b, WithStateSync(SyncOnClose), WithStateCompaction(1, 1))
	})
}
