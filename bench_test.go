// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`).
// Each benchmark both times the underlying pipeline and reports the
// headline quantity of its table/figure as a custom metric, so
// bench_output.txt doubles as the reproduction record. EXPERIMENTS.md
// maps each benchmark to the paper's numbers.
package repro

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/goleak"
	"repro/internal/astcheck"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/gprofile"
	"repro/internal/metrics"
	"repro/internal/monorepo"
	"repro/internal/patterns"
	"repro/internal/stack"
	"repro/internal/staticbase"
	"repro/internal/synth"
	"repro/leakprof"
)

// corpusForBench builds the standard labelled corpus once per benchmark.
func corpusForBench(packages int) *synth.Corpus {
	cfg := synth.DefaultConfig()
	cfg.Packages = packages
	cfg.FracMP, cfg.FracSM, cfg.FracBoth = 0.20, 0.10, 0.10
	return synth.Generate(cfg)
}

func corpusFiles(c *synth.Corpus) []features.SourceFile {
	var out []features.SourceFile
	for _, f := range c.Files() {
		out = append(out, features.SourceFile{Path: f.Path, Content: f.Content, Test: f.Test})
	}
	return out
}

// BenchmarkTable1PackageSplit regenerates Table I: the paradigm split of
// packages in the (synthetic) monorepo.
func BenchmarkTable1PackageSplit(b *testing.B) {
	corpus := corpusForBench(300)
	files := corpusFiles(corpus)
	sc := &features.Scanner{Wrappers: []string{"asyncRun"}}
	var t1 *features.TableI
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, t1, _ = sc.Scan(files)
	}
	b.ReportMetric(float64(t1.RowMP().Packages), "mp-packages")
	b.ReportMetric(float64(t1.RowBoth().Packages), "both-packages")
	b.ReportMetric(float64(t1.RowAll().Packages), "total-packages")
}

// BenchmarkTable2Features regenerates Table II: per-construct counts and
// select-arm percentiles.
func BenchmarkTable2Features(b *testing.B) {
	corpus := corpusForBench(300)
	files := corpusFiles(corpus)
	sc := &features.Scanner{Wrappers: []string{"asyncRun"}}
	var t2 *features.TableII
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2, _, _ = sc.Scan(files)
	}
	s := t2.Source
	b.ReportMetric(float64(s.TotalGoroutineCreation()), "goroutine-creations")
	b.ReportMetric(100*float64(s.ChanUnbuffered)/float64(s.TotalChanAllocs()), "unbuffered-pct")
	b.ReportMetric(float64(s.ArmPercentile(50)), "select-p50-arms")
	b.ReportMetric(float64(s.ArmMax()), "select-max-arms")
}

// BenchmarkTable3ToolComparison regenerates Table III: the three static
// baselines against the labelled corpus (precision band ~1/3..1/2),
// GOLEAK's row coming from the monorepo simulation at 100% by
// construction of its detection criterion.
func BenchmarkTable3ToolComparison(b *testing.B) {
	corpus := corpusForBench(300)
	var outcomes []staticbase.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes = staticbase.EvaluateAll(corpus)
	}
	for _, o := range outcomes {
		b.ReportMetric(100*o.Precision(), o.Tool+"-precision-pct")
		b.ReportMetric(float64(o.Reports), o.Tool+"-reports")
	}
}

// BenchmarkTable4BlockingTypes regenerates Table IV: the census of
// lingering goroutines after the full test-suite run, classified through
// the real parse/classify pipeline.
func BenchmarkTable4BlockingTypes(b *testing.B) {
	var census *monorepo.Census
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		census, err = monorepo.RunCensus(10, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	total := float64(census.Total)
	b.ReportMetric(100*float64(census.Counts[stack.KindSelect])/total, "select-pct")
	b.ReportMetric(100*float64(census.Counts[stack.KindChanReceive])/total, "recv-pct")
	b.ReportMetric(100*float64(census.Counts[stack.KindChanSend])/total, "send-pct")
	b.ReportMetric(100*census.MessagePassingShare(), "message-passing-pct")
}

// BenchmarkFig1RSSReduction regenerates Fig 1: the RSS collapse after the
// fix (paper: ≈9.2×).
func BenchmarkFig1RSSReduction(b *testing.B) {
	origin := time.Unix(0, 0).UTC()
	var reduction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before, after := metrics.Fig1Series(origin)
		reduction = before.Max() / after[len(after)-1].V
	}
	b.ReportMetric(reduction, "rss-reduction-x")
}

// BenchmarkFig2CPUReduction regenerates Fig 2: max/mean CPU cuts after
// the fix (paper: −34% max, −16.5% mean).
func BenchmarkFig2CPUReduction(b *testing.B) {
	origin := time.Unix(0, 0).UTC()
	var maxCut, meanCut float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxB, maxA, meanB, meanA := metrics.Fig2Impact(origin)
		maxCut = 100 * (maxB - maxA) / maxB
		meanCut = 100 * (meanB - meanA) / meanB
	}
	b.ReportMetric(maxCut, "max-cpu-cut-pct")
	b.ReportMetric(meanCut, "mean-cpu-cut-pct")
}

// BenchmarkFig5WeeklyInflow regenerates Fig 5: the weekly leak inflow
// before/after GOLEAK's CI deployment, detection running through the real
// goleak path for every PR.
func BenchmarkFig5WeeklyInflow(b *testing.B) {
	var res *monorepo.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = monorepo.Run(monorepo.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	var preMerged, postMerged int
	for _, w := range res.Weeks {
		if w.Week < monorepo.DefaultConfig().DeployWeek {
			preMerged += w.Merged
		} else {
			postMerged += w.Merged
		}
	}
	b.ReportMetric(float64(preMerged), "pre-deploy-leaks")
	b.ReportMetric(float64(postMerged), "post-deploy-leaks")
	b.ReportMetric(float64(res.PreventedEstimate), "prevented-per-year")
}

// BenchmarkFig6LeakFootprint regenerates Fig 6: the blocked-goroutine
// ramp (representative instance toward 16K; fleet toward ~3M) with daily
// LEAKPROF sweeps over the 800-instance service.
func BenchmarkFig6LeakFootprint(b *testing.B) {
	var series []fleet.Fig6Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = fleet.RunFig6(6)
	}
	last := series[len(series)-1]
	b.ReportMetric(float64(last.Representative), "representative-blocked")
	b.ReportMetric(float64(last.FleetTotal), "fleet-blocked")
	detected := 0.0
	for _, p := range series {
		if p.Detected {
			detected = float64(p.Day)
			break
		}
	}
	b.ReportMetric(detected, "detected-on-day")
}

// BenchmarkTable5ServiceImpact regenerates Table V: per-service memory
// savings re-derived through the resource model.
func BenchmarkTable5ServiceImpact(b *testing.B) {
	var rows []metrics.ServiceImpact
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = metrics.SimulateTableV(72 * time.Hour)
	}
	for _, r := range rows[:3] {
		b.ReportMetric(r.SavedPct(), r.Name+"-saved-pct")
	}
}

// BenchmarkSectionVIIYear regenerates the §VII headline: 33 reports, 24
// acknowledged (72.7% precision), 21 fixed over a simulated year.
func BenchmarkSectionVIIYear(b *testing.B) {
	var y fleet.YearOutcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y = fleet.RunYear(1)
	}
	b.ReportMetric(float64(y.Reports), "reports")
	b.ReportMetric(float64(y.Acknowledged), "acknowledged")
	b.ReportMetric(float64(y.Fixed), "fixed")
	b.ReportMetric(100*y.Precision(), "precision-pct")
}

// ---- §IV-B: GOLEAK overhead ----

// BenchmarkGoleakFindClean measures one detection sweep on a healthy
// process: the common case every CI test pays.
func BenchmarkGoleakFindClean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		leaks, err := goleak.Find(goleak.MaxRetries(0))
		if err != nil {
			b.Fatal(err)
		}
		if len(leaks) != 0 {
			b.Fatalf("unexpected leaks in benchmark process: %v", leaks)
		}
	}
}

// BenchmarkGoleakFindPathological reproduces the paper's worst case: a
// test that leaks a large number of goroutines and does nothing else.
// The paper measures 4.6–7.4× slowdown (overhead grows with the leak
// count, so this sweeps it) and 200–400µs per additional leaked stack.
func BenchmarkGoleakFindPathological(b *testing.B) {
	for _, leaked := range []int{32, 64, 128, 512} {
		leaked := leaked
		b.Run(fmt.Sprintf("leaked-%d", leaked), func(b *testing.B) {
			baseline := measureFind(b, 10) // healthy-process cost, before the leaks
			inst := patterns.ContractDone.Trigger(leaked)
			defer inst.Release()
			if err := patterns.AwaitKind(stack.KindSelect, leaked, 10*time.Second); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leaks, err := goleak.Find(goleak.MaxRetries(0))
				if err != nil {
					b.Fatal(err)
				}
				if len(leaks) < leaked {
					b.Fatalf("found %d leaks, want >= %d", len(leaks), leaked)
				}
			}
			b.StopTimer()
			perOp := b.Elapsed() / time.Duration(b.N)
			if baseline > 0 {
				b.ReportMetric(float64(perOp)/float64(baseline), "x-overhead")
			}
			b.ReportMetric(float64(perOp.Microseconds())/float64(leaked), "us-per-leaked-stack")
		})
	}
}

// measureFind times a handful of Find sweeps (used to compute the
// pathological overhead ratio against the current process state).
func measureFind(b *testing.B, n int) time.Duration {
	b.Helper()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := goleak.Find(goleak.MaxRetries(0)); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(n)
}

// ---- §V-B: LEAKPROF analysis throughput ----

// BenchmarkLeakprofAnalysisThroughput measures the detection stage over a
// platform sweep (the paper analyzes ~200K profiles in under a minute;
// this scales 1:40 and reports profiles/second).
func BenchmarkLeakprofAnalysisThroughput(b *testing.B) {
	configs := []fleet.ServiceConfig{}
	for s := 0; s < 50; s++ {
		cfg := fleet.ServiceConfig{
			Name:             fmt.Sprintf("svc%02d", s),
			Instances:        100,
			BenignGoroutines: 30,
			Seed:             int64(s),
		}
		if s%5 == 0 {
			cfg.Pattern = patterns.TimeoutLeak
			cfg.LeakFile = fmt.Sprintf("services/svc%02d/h.go", s)
			cfg.LeakLine = 10
			cfg.LeakPerDay = 15000
			cfg.LeakStartDay = 1
			cfg.FixDay = -1
		}
		configs = append(configs, cfg)
	}
	f := fleet.New(time.Unix(0, 0).UTC(), configs)
	f.AdvanceDay()
	snaps := f.SnapshotsAggregated()
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		found = len(analyze(snaps))
	}
	b.StopTimer()
	if found != 10 {
		b.Fatalf("findings = %d, want 10", found)
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(len(snaps))/perOp.Seconds(), "profiles/sec")
	}
}

// ---- Micro-benchmarks of the substrate hot paths ----

// BenchmarkStackParse measures dump parsing, the cost LEAKPROF pays per
// collected profile.
func BenchmarkStackParse(b *testing.B) {
	gs := patterns.ContractDone.Stacks(1, 200)
	dump := stack.Format(gs)
	b.SetBytes(int64(len(dump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parsed, err := stack.Parse(dump)
		if err != nil || len(parsed) != 200 {
			b.Fatalf("parse: %v (%d)", err, len(parsed))
		}
	}
}

// BenchmarkScanDump measures the streaming scanner against the
// materialize-then-parse baseline (the old collector flow: buffer the
// body, Parse, walk the slice) on a production-shaped synthetic dump of
// >=10K goroutines. The headline is allocs/op: streaming must stay
// strictly below the Parse baseline (the PR-1 acceptance bound). The
// snapshot sub-benchmark times the collection path itself —
// gprofile.ScanSnapshot's counting scan on its pooled scanner — over
// leak members in the shape a live service's dump carries (two runtime
// frames above the leaf, two handler frames below), and reports
// ns/goroutine.
func BenchmarkScanDump(b *testing.B) {
	cfg := synth.DumpConfig{Benign: 250, LeakClusters: 4, ClusterSize: 2500, Seed: 1}
	dump := synth.Dump(cfg)
	want := cfg.Goroutines()
	countBlocked := func(gs ...*stack.Goroutine) int {
		n := 0
		for _, g := range gs {
			if _, ok := g.BlockedChannelOp(); ok {
				n++
			}
		}
		return n
	}
	b.Run("scanner-stream", func(b *testing.B) {
		b.SetBytes(int64(len(dump)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := stack.NewScanner(strings.NewReader(dump))
			total, blocked := 0, 0
			for sc.Scan() {
				total++
				blocked += countBlocked(sc.Goroutine())
			}
			if sc.Err() != nil || total != want || blocked != 4*2500 {
				b.Fatalf("scan: %v (%d/%d)", sc.Err(), total, blocked)
			}
		}
	})
	b.Run("parse-baseline", func(b *testing.B) {
		b.SetBytes(int64(len(dump)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := io.ReadAll(strings.NewReader(dump)) // the old fetch path buffers the body
			if err != nil {
				b.Fatal(err)
			}
			gs, err := stack.Parse(string(body))
			if err != nil || len(gs) != want {
				b.Fatalf("parse: %v (%d)", err, len(gs))
			}
			if blocked := countBlocked(gs...); blocked != 4*2500 {
				b.Fatalf("blocked = %d", blocked)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		deep := synth.PullDump(cfg)
		b.SetBytes(int64(len(deep)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, err := gprofile.ScanSnapshot("svc", "i1", time.Time{}, strings.NewReader(deep))
			if err != nil {
				b.Fatal(err)
			}
			blocked := 0
			for _, n := range snap.PreAggregated {
				blocked += n
			}
			if snap.TotalGoroutines != want || blocked != 4*2500 {
				b.Fatalf("snapshot: %d goroutines, %d blocked", snap.TotalGoroutines, blocked)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*want), "ns/goroutine")
	})
}

// BenchmarkAggregateFleet measures the sharded streaming aggregation over
// a platform-scale sweep: 5K instances folded one at a time, findings
// ranked at the end, peak state O(locations) instead of O(fleet).
func BenchmarkAggregateFleet(b *testing.B) {
	configs := []fleet.ServiceConfig{}
	for s := 0; s < 50; s++ {
		cfg := fleet.ServiceConfig{
			Name:             fmt.Sprintf("svc%02d", s),
			Instances:        100,
			BenignGoroutines: 30,
			Seed:             int64(s),
		}
		if s%5 == 0 {
			cfg.Pattern = patterns.TimeoutLeak
			cfg.LeakFile = fmt.Sprintf("services/svc%02d/h.go", s)
			cfg.LeakLine = 10
			cfg.LeakPerDay = 15000
			cfg.LeakStartDay = 1
			cfg.FixDay = -1
		}
		configs = append(configs, cfg)
	}
	f := fleet.New(time.Unix(0, 0).UTC(), configs)
	f.AdvanceDay()
	pipe := leakprof.New()
	b.ReportAllocs()
	b.ResetTimer()
	var swept, found int
	for i := 0; i < b.N; i++ {
		sweep, _ := pipe.Sweep(context.Background(), f.Source())
		swept, found = sweep.Profiles, len(sweep.Findings)
	}
	b.StopTimer()
	if swept != 5000 || found != 10 {
		b.Fatalf("swept %d instances, %d findings; want 5000, 10", swept, found)
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(swept)/perOp.Seconds(), "profiles/sec")
	}
}

// BenchmarkClassify measures blocking-kind classification per goroutine.
func BenchmarkClassify(b *testing.B) {
	gs := patterns.TimeoutLeak.Stacks(1, 1)
	g := gs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Kind() != stack.KindChanSend {
			b.Fatal("misclassified")
		}
	}
}

// ---- Ablations (design choices DESIGN.md calls out) ----

// BenchmarkAblationThresholdSweep sweeps the LEAKPROF concentration
// threshold, reporting findings at each setting: the precision/recall
// trade the paper tuned to 10K.
func BenchmarkAblationThresholdSweep(b *testing.B) {
	f := fleet.New(time.Unix(0, 0).UTC(), []fleet.ServiceConfig{fleet.Fig6Config()})
	for d := 0; d < 4; d++ {
		f.AdvanceDay()
	}
	snaps := f.SnapshotsAggregated()
	for _, threshold := range []int{100, 1000, 10000, 100000} {
		threshold := threshold
		b.Run(fmt.Sprintf("threshold-%d", threshold), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				n = len(analyze(snaps, leakprof.WithThreshold(threshold)))
			}
			b.ReportMetric(float64(n), "findings")
		})
	}
}

// BenchmarkAblationRanking compares the fleet-wide impact statistics
// (paper: RMS chosen for concentration sensitivity).
func BenchmarkAblationRanking(b *testing.B) {
	f := fleet.New(time.Unix(0, 0).UTC(), []fleet.ServiceConfig{fleet.Fig6Config()})
	for d := 0; d < 4; d++ {
		f.AdvanceDay()
	}
	snaps := f.SnapshotsAggregated()
	for _, r := range []leakprof.Ranking{leakprof.RankRMS, leakprof.RankMean, leakprof.RankMax, leakprof.RankTotal} {
		r := r
		b.Run(r.String(), func(b *testing.B) {
			var impact float64
			for i := 0; i < b.N; i++ {
				if fs := analyze(snaps, leakprof.WithRanking(r)); len(fs) > 0 {
					impact = fs[0].Impact
				}
			}
			b.ReportMetric(impact, "top-impact")
		})
	}
}

// BenchmarkAblationASTFilter measures the criterion-2 AST filter's
// effect: a fleet where half the big clusters sit at a provably transient
// select (timer heartbeat). Without the filter they are reported; with it
// only the true leak survives.
func BenchmarkAblationASTFilter(b *testing.B) {
	heartbeatSrc := `package svc
import ("time"; "context")
func heartbeat(ctx context.Context) {
	select {
	case <-time.After(time.Minute):
	case <-ctx.Done():
	}
}
`
	file, err := astcheck.ParseSource("services/svc/heartbeat.go", heartbeatSrc)
	if err != nil {
		b.Fatal(err)
	}
	// Build snapshots by hand: a transient cluster and a leak cluster.
	mkSnap := func(fn, loc string, line, n int) *gprofile.Snapshot {
		s := &gprofile.Snapshot{Service: "svc", Instance: "i1"}
		op := stack.BlockedOp{Op: "select", Function: fn, Location: loc}
		s.PreAggregated = map[stack.BlockedOp]int{op: n}
		return s
	}
	snaps := []*gprofile.Snapshot{
		mkSnap("svc.heartbeat", "services/svc/heartbeat.go:4", 4, 20000),
		mkSnap("svc.worker", "services/svc/worker.go:9", 9, 20000),
	}
	for _, withFilter := range []bool{false, true} {
		withFilter := withFilter
		name := "filter-off"
		if withFilter {
			name = "filter-on"
		}
		b.Run(name, func(b *testing.B) {
			var opts []leakprof.Option
			if withFilter {
				opts = append(opts, leakprof.WithFilters(leakprof.FilterTransientSelects([]*astcheck.File{file})))
			}
			var n int
			for i := 0; i < b.N; i++ {
				n = len(analyze(snaps, opts...))
			}
			b.ReportMetric(float64(n), "findings")
		})
	}
}

// BenchmarkAblationMinWaitFilter measures the wait-duration extension: a
// profile mixing freshly blocked goroutines with long-stuck ones.
func BenchmarkAblationMinWaitFilter(b *testing.B) {
	snap := &gprofile.Snapshot{Service: "svc", Instance: "i1", TotalGoroutines: 20000,
		PreAggregated: map[stack.BlockedOp]int{
			// Transient blockers, then long-stuck ones, half each.
			{Op: "send", Function: "svc.busy", Location: "/svc/b.go:9", WaitTime: int64(2 * time.Second)}: 10000,
			{Op: "send", Function: "svc.leak", Location: "/svc/l.go:5", WaitTime: int64(time.Hour)}:       10000,
		}}
	for _, minWait := range []time.Duration{0, 10 * time.Minute} {
		minWait := minWait
		b.Run(fmt.Sprintf("minwait-%s", minWait), func(b *testing.B) {
			opts := []leakprof.Option{leakprof.WithThreshold(5000)}
			if minWait > 0 {
				opts = append(opts, leakprof.WithFilters(leakprof.FilterMinWait(minWait)))
			}
			var n int
			for i := 0; i < b.N; i++ {
				n = len(analyze([]*gprofile.Snapshot{snap}, opts...))
			}
			b.ReportMetric(float64(n), "findings")
		})
	}
}

// BenchmarkAblationTrendTracker measures the cross-sweep trend extension
// on a fleet with one genuine leak and one oscillating congestion source.
func BenchmarkAblationTrendTracker(b *testing.B) {
	configs := []fleet.ServiceConfig{
		{
			Name: "leaky", Instances: 10, Pattern: patterns.TimeoutLeak,
			LeakFile: "services/leaky/h.go", LeakLine: 3,
			LeakPerDay: 3000, LeakStartDay: 1, FixDay: -1,
			DeployEveryDays: 1000, BenignGoroutines: 10, Seed: 4,
		},
		{
			Name: "bursty", Instances: 10, Pattern: patterns.ContractOutsideLoop,
			LeakFile: "services/bursty/pool.go", LeakLine: 8,
			LeakPerDay: 6000, LeakStartDay: 1, FixDay: -1,
			DeployEveryDays: 2, BenignGoroutines: 10, Seed: 5,
		},
	}
	b.ResetTimer()
	var growing int
	for i := 0; i < b.N; i++ {
		f := fleet.New(time.Unix(0, 0).UTC(), configs)
		tr := &leakprof.TrendTracker{}
		at := time.Unix(0, 0)
		for day := 0; day < 6; day++ {
			f.AdvanceDay()
			tr.ObserveMoments(at, sweepOf(f.SnapshotsAggregated()).Moments())
			at = at.Add(24 * time.Hour)
		}
		growing = len(tr.Growing())
	}
	b.ReportMetric(float64(growing), "growing-locations")
}

// BenchmarkAblationGoleakRetry compares the detector with and without its
// retry loop on a process with a slow-exiting goroutine: without retries
// the sweep is fast but would flag healthy code.
func BenchmarkAblationGoleakRetry(b *testing.B) {
	for _, retries := range []int{0, 20} {
		retries := retries
		b.Run(fmt.Sprintf("retries-%d", retries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := goleak.Find(goleak.MaxRetries(retries)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
