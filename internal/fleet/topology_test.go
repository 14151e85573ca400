package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/patterns"
	"repro/leakprof"
)

// topoConfigs builds a deterministic multi-service fleet: services
// spread across shards by name hash, a few carrying leaks hot enough to
// cross the default threshold.
func topoConfigs(services, instances int) []ServiceConfig {
	cfgs := make([]ServiceConfig, services)
	for i := range cfgs {
		cfgs[i] = ServiceConfig{
			Name:             fmt.Sprintf("svc-%02d", i),
			Instances:        instances,
			BenignGoroutines: 30,
			Seed:             int64(100 + i),
		}
		if i%3 == 0 {
			cfgs[i].Pattern = patterns.TimeoutLeak
			cfgs[i].LeakFile = fmt.Sprintf("services/svc-%02d/worker.go", i)
			cfgs[i].LeakLine = 40 + i
			cfgs[i].LeakPerDay = 500 * (1 + i%4)
			cfgs[i].HotInstances = 1
			cfgs[i].HotLeakPerDay = 12000
			cfgs[i].LeakStartDay = 1
			cfgs[i].FixDay = -1
		}
	}
	return cfgs
}

// workerFetch is one shard worker sweeping its partition inside the
// coordinator's merge, its error budget seeded from the coordinator's
// journaled failure counts.
func workerFetch(name string, worker *leakprof.Pipeline, src leakprof.Source) leakprof.ShardFetch {
	return leakprof.ShardFetch{Name: name, Fetch: func(ctx context.Context, env *leakprof.SweepEnv) (*leakprof.ShardReport, error) {
		return worker.ShardSweep(ctx, src, name, env.PrevFailures())
	}}
}

// TestTopologyGlobalErrorBudget checks the coordinator's journaled
// failure history reaches shard workers: FailedByService summed across
// shard reports lands in the journal, and the next sweep's workers see
// it through SweepEnv.PrevFailures.
func TestTopologyGlobalErrorBudget(t *testing.T) {
	origin := time.Unix(0, 0).UTC()
	clock := leakprof.WithClock(func() time.Time { return origin })
	f := New(origin, topoConfigs(8, 4))
	f.AdvanceDay()

	dir := t.TempDir()
	coord := leakprof.New(clock, leakprof.WithStateDir(dir))
	workers := []*leakprof.Pipeline{leakprof.New(clock), leakprof.New(clock)}
	crashed := leakprof.ShardFetch{Name: "shard-0", Fetch: func(context.Context, *leakprof.SweepEnv) (*leakprof.ShardReport, error) {
		return nil, errors.New("shard 0 crashed before reporting")
	}}
	first := leakprof.MergedReports(crashed, workerFetch("shard-1", workers[1], f.ShardSource(1, 2)))
	if _, err := coord.Sweep(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	store, err := coord.State()
	if err != nil {
		t.Fatal(err)
	}
	if got := store.LastFailureCounts(); got["shard-0"] != 1 {
		t.Fatalf("journaled failure counts = %v, want shard-0:1", got)
	}
	// The next sweep's workers all receive the journaled counts.
	seen := make(chan map[string]int, len(workers))
	fetches := make([]leakprof.ShardFetch, len(workers))
	for i := range workers {
		name := fmt.Sprintf("probe-%d", i)
		worker := workers[i]
		src := f.ShardSource(i, len(workers))
		fetches[i] = leakprof.ShardFetch{Name: name, Fetch: func(ctx context.Context, env *leakprof.SweepEnv) (*leakprof.ShardReport, error) {
			seen <- env.PrevFailures()
			return worker.ShardSweep(ctx, src, name, env.PrevFailures())
		}}
	}
	if _, err := coord.Sweep(context.Background(), leakprof.MergedReports(fetches...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(workers); i++ {
		if prev := <-seen; prev["shard-0"] != 1 {
			t.Fatalf("worker %d saw prevFailures %v, want shard-0:1", i, prev)
		}
	}
}

// BenchmarkShardedSweep measures one distributed sweep's wall-clock
// against shard count at a fixed fleet size: the shards sweep their
// partitions concurrently, so wall-clock should fall as shards grow
// until coordinator merge overhead (and whatever CPU work the host
// serialises) dominates. FetchLatency models the per-endpoint round
// trip a real collection pays — the cost sharding actually
// parallelises — so the scaling curve holds even on a single-core
// host, where pure CPU folding could never speed up. Workers run in
// process and hand the coordinator their reports directly; the wire
// round trip is left out.
func BenchmarkShardedSweep(b *testing.B) {
	origin := time.Unix(0, 0).UTC()
	cfgs := topoConfigs(64, 32)
	for i := range cfgs {
		// Production-shaped instances: a few hundred benign goroutines
		// each, so per-shard collection work dominates merge overhead.
		cfgs[i].BenignGoroutines = 300
	}
	f := New(origin, cfgs)
	f.FetchLatency = 50 * time.Microsecond
	f.AdvanceDay()
	clock := leakprof.WithClock(func() time.Time { return origin })
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			coord := leakprof.New(clock)
			fetches := make([]leakprof.ShardFetch, shards)
			for i := range fetches {
				fetches[i] = workerFetch(fmt.Sprintf("shard-%d", i), leakprof.New(clock), f.ShardSource(i, shards))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Sweep(context.Background(), leakprof.MergedReports(fetches...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNestedTopologyParity is the two-level tree: four leaf workers
// sweep their fleet partitions, two regional coordinators each fold a
// pair of leaf reports through their own SweepEnv.MergeReport
// (ShardSweep over MergedReports) into a regional report, and the root
// merges the two regional reports. Every report — leaf and regional —
// rides the wire codec, and the result must match the flat
// single-process fold byte for byte, because moment merging is
// associative: merge(merge(a,b), merge(c,d)) = fold(a ∪ b ∪ c ∪ d).
func TestNestedTopologyParity(t *testing.T) {
	origin := time.Unix(0, 0).UTC()
	clock := leakprof.WithClock(func() time.Time { return origin })
	f := New(origin, topoConfigs(12, 6))
	for d := 0; d < 2; d++ {
		f.AdvanceDay()
	}
	const leaves = 4

	// roundTripReport pushes a report through the wire codec both ways.
	roundTripReport := func(rep *leakprof.ShardReport) (*leakprof.ShardReport, error) {
		var buf bytes.Buffer
		if err := leakprof.WriteShardReport(&buf, rep); err != nil {
			return nil, err
		}
		return leakprof.ReadShardReport(&buf)
	}
	leaf := func(i int) leakprof.ShardFetch {
		name := fmt.Sprintf("worker-%d", i)
		worker := leakprof.New(clock)
		src := f.ShardSource(i, leaves)
		return leakprof.ShardFetch{Name: name, Fetch: func(ctx context.Context, env *leakprof.SweepEnv) (*leakprof.ShardReport, error) {
			rep, err := worker.ShardSweep(ctx, src, name, env.PrevFailures())
			if err != nil {
				return rep, err
			}
			return roundTripReport(rep)
		}}
	}
	regional := func(name string, pair ...leakprof.ShardFetch) leakprof.ShardFetch {
		mid := leakprof.New(clock)
		return leakprof.ShardFetch{Name: name, Fetch: func(ctx context.Context, env *leakprof.SweepEnv) (*leakprof.ShardReport, error) {
			rep, err := mid.ShardSweep(ctx, leakprof.MergedReports(pair...), name, env.PrevFailures())
			if err != nil {
				return rep, err
			}
			return roundTripReport(rep)
		}}
	}

	root := leakprof.New(clock)
	nested, err := root.Sweep(context.Background(), leakprof.MergedReports(
		regional("region-a", leaf(0), leaf(1)),
		regional("region-b", leaf(2), leaf(3)),
	))
	if err != nil {
		t.Fatal(err)
	}

	flat := leakprof.New(clock)
	want, err := flat.Sweep(context.Background(), f.Source())
	if err != nil {
		t.Fatal(err)
	}

	if nested.Profiles != want.Profiles || nested.Errors != want.Errors {
		t.Fatalf("nested profiles/errors = %d/%d, want %d/%d",
			nested.Profiles, nested.Errors, want.Profiles, want.Errors)
	}
	if !reflect.DeepEqual(nested.Moments(), want.Moments()) {
		t.Fatal("nested merge's moments diverge from the flat fold")
	}
	if !reflect.DeepEqual(nested.Findings, want.Findings) {
		t.Fatalf("nested findings diverge\ngot  %+v\nwant %+v", nested.Findings, want.Findings)
	}
	if len(want.Findings) == 0 {
		t.Fatal("parity vacuous: flat sweep found nothing")
	}
}
