package repro

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/goleak"
	"repro/internal/astcheck"
	"repro/internal/fleet"
	"repro/internal/gprofile"
	"repro/internal/patterns"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/leakprof"
)

// TestFig3WorkflowEndToEnd walks the paper's Fig-3 loop across both
// tools: a leaky change is caught by GOLEAK in CI; a second defect with
// no test coverage escapes to production, grows in the fleet, is caught
// by LEAKPROF over real HTTP, gets fixed, and the next sweep comes back
// clean.
func TestFig3WorkflowEndToEnd(t *testing.T) {
	// --- CI side: the PR's unit tests leak; GOLEAK blocks the merge.
	baseline := goleak.IgnoreCurrent()
	inst := patterns.DoubleSend.Trigger(2)
	if err := patterns.AwaitKind(stack.KindChanSend, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	leaks, err := goleak.Find(baseline, goleak.MaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	var caught int
	for _, l := range leaks {
		if strings.Contains(l.CodeContext().Function, "doubleSender") {
			caught++
		}
	}
	if caught != 2 {
		t.Fatalf("CI gate caught %d/2 leaks", caught)
	}
	inst.Release() // "the author fixes the leak before merging"

	// --- Production side: an uncovered timeout leak ships.
	cfg := fleet.ServiceConfig{
		Name: "orders", Instances: 3,
		Pattern:  patterns.TimeoutLeak,
		LeakFile: "services/orders/checkout.go", LeakLine: 77,
		LeakPerDay: 1500, LeakStartDay: 1, FixDay: -1,
		DeployEveryDays: 1000, BenignGoroutines: 20, Seed: 9,
	}
	prod := fleet.New(time.Unix(0, 0).UTC(), []fleet.ServiceConfig{cfg})
	prod.AdvanceDay()
	prod.AdvanceDay()

	endpoints, shutdown := prod.Serve()
	defer shutdown()

	// Criterion-2 filter from the service's (synthetic) source: a timer
	// heartbeat select that must never be reported.
	src := `package orders
import ("time"; "context")
func heartbeat(ctx context.Context) {
	select {
	case <-time.After(time.Minute):
	case <-ctx.Done():
	}
}
`
	file, err := astcheck.ParseSource("services/orders/heartbeat.go", src)
	if err != nil {
		t.Fatal(err)
	}
	pipe := leakprof.New(
		leakprof.WithParallelism(4),
		leakprof.WithThreshold(2000),
		leakprof.WithFilters(leakprof.FilterTransientSelects([]*astcheck.File{file})),
	)
	sweep, err := pipe.Sweep(context.Background(), leakprof.StaticEndpoints(endpoints...))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Profiles != 3 {
		t.Fatalf("collected %d/3 profiles", sweep.Profiles)
	}
	findings := sweep.Findings
	if len(findings) != 1 {
		t.Fatalf("production findings = %d, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Location != "services/orders/checkout.go:77" || f.Op != "send" {
		t.Fatalf("finding = %+v", f)
	}

	// --- Reporting: routed to the owning team, filed once.
	owners := report.NewOwnership(map[string]string{"services/orders/": "orders-team"})
	db := report.NewDB()
	reporter := &leakprof.Reporter{DB: db, Owners: owners, TopN: 5}
	alerts := reporter.Report(findings)
	if len(alerts) != 1 || alerts[0].Bug.Owner != "orders-team" {
		t.Fatalf("alerts = %+v", alerts)
	}

	// --- The fix deploys; the backlog clears; the next sweep is clean.
	prod.Services[0].Cfg.FixDay = prod.Day
	prod.Services[0].Cfg.DeployEveryDays = 1
	prod.AdvanceDay()
	sweep, err = pipe.Sweep(context.Background(), leakprof.StaticEndpoints(endpoints...))
	if err != nil {
		t.Fatal(err)
	}
	if post := sweep.Findings; sweep.Profiles != 3 || len(post) != 0 {
		t.Fatalf("post-fix sweep: %d profiles, findings %+v", sweep.Profiles, post)
	}
	db.SetStatus(alerts[0].Bug.Key, report.StatusFixed)
	if got := db.CountByStatus()[report.StatusFixed]; got != 1 {
		t.Fatalf("bug DB fixed count = %d", got)
	}
}

// TestGoleakCatchesEveryReleasablePattern verifies the CI detector
// against the full live pattern catalogue: each pattern's leak is found
// with the correct classification, and after release the detector comes
// back clean.
func TestGoleakCatchesEveryReleasablePattern(t *testing.T) {
	for _, p := range patterns.All() {
		if !p.Releasable {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			before := countOfKind(t, p.Kind)
			baseline := goleak.IgnoreCurrent()
			inst := p.Trigger(2)
			if err := patterns.AwaitKind(p.Kind, before+2, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			leaks, err := goleak.Find(baseline, goleak.MaxRetries(0))
			if err != nil {
				t.Fatal(err)
			}
			var matched int
			for _, l := range leaks {
				if l.Kind == p.Kind && strings.Contains(l.CodeContext().Function, "repro/internal/patterns") {
					matched++
				}
			}
			if matched < 2 {
				t.Errorf("goleak found %d/2 leaks of kind %v", matched, p.Kind)
			}
			inst.Release()
			leaks, err = goleak.Find(baseline)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range leaks {
				if strings.Contains(l.CodeContext().Function, "repro/internal/patterns") && l.Kind == p.Kind {
					t.Errorf("post-release leak remains: %s", l)
				}
			}
		})
	}
}

// TestTrendOnLeakyFleet replays a Fig-6-style incident through the trend
// tracker: the leak's location must classify as growing within a few
// sweeps, while the congested-but-healthy service's location oscillates.
func TestTrendOnLeakyFleet(t *testing.T) {
	configs := []fleet.ServiceConfig{
		{
			Name: "leaky", Instances: 10,
			Pattern:  patterns.TimeoutLeak,
			LeakFile: "services/leaky/h.go", LeakLine: 3,
			LeakPerDay: 2000, LeakStartDay: 1, FixDay: -1,
			DeployEveryDays: 1000, BenignGoroutines: 10, Seed: 4,
		},
		{
			Name: "bursty", Instances: 10,
			Pattern:  patterns.ContractOutsideLoop,
			LeakFile: "services/bursty/pool.go", LeakLine: 8,
			LeakPerDay: 4000, LeakStartDay: 1, FixDay: -1,
			DeployEveryDays:  2, // frequent deploys make the count sawtooth
			BenignGoroutines: 10, Seed: 5,
		},
	}
	f := fleet.New(time.Unix(0, 0).UTC(), configs)
	tr := &leakprof.TrendTracker{}
	at := time.Unix(0, 0)
	for day := 0; day < 6; day++ {
		f.AdvanceDay()
		tr.Observe(at, analyze(f.SnapshotsAggregated(), leakprof.WithThreshold(1000)))
		at = at.Add(24 * time.Hour)
	}
	growing := tr.Growing()
	if len(growing) != 1 || !strings.Contains(growing[0], "services/leaky/h.go:3") {
		t.Fatalf("growing keys = %v", growing)
	}
}

// analyze sweeps materialised snapshots through a sinkless Pipeline
// and returns its findings.
func analyze(snaps []*gprofile.Snapshot, opts ...leakprof.Option) []*leakprof.Finding {
	sweep, _ := leakprof.New(opts...).Sweep(context.Background(), leakprof.FromSnapshots(snaps))
	return sweep.Findings
}

// countOfKind counts live goroutines of one blocking kind.
func countOfKind(t *testing.T, k stack.Kind) int {
	t.Helper()
	gs, err := stack.Current()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, g := range gs {
		if g.Kind() == k {
			n++
		}
	}
	return n
}

// TestSuppressionListLifecycleAcrossTools mirrors the deployment
// workflow: a pre-existing leak rides the suppression list through CI
// while LEAKPROF still sees it in production profiles — the tools are
// complementary, not redundant.
func TestSuppressionListLifecycleAcrossTools(t *testing.T) {
	sup := goleak.NewSuppressionList(goleak.Suppression{
		Function: "repro/internal/patterns.orphanSender",
		Reason:   "legacy, JIRA-1",
	})

	baseline := goleak.IgnoreCurrent()
	inst := patterns.MissingReceiver.Trigger(2)
	defer inst.Release()
	if err := patterns.AwaitKind(stack.KindChanSend, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// CI: suppressed, PR passes.
	leaks, err := goleak.Find(baseline, goleak.MaxRetries(0), goleak.WithSuppressions(sup))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaks {
		if strings.Contains(l.CodeContext().Function, "orphanSender") {
			t.Fatalf("suppressed leak still reported in CI: %s", l)
		}
	}

	// Production: LEAKPROF has no suppression concept; the same code
	// path, grown to a cluster, is reported from the instance's dump.
	gs := patterns.MissingReceiver.Stacks(1, 12000)
	patterns.Relocate(gs, "services/legacy/send.go", 5)
	sweep, err := leakprof.New().Sweep(context.Background(), leakprof.Dumps(leakprof.Dump{
		Service: "legacy", Instance: "i1", Body: strings.NewReader(stack.Format(gs)),
	}))
	if err != nil {
		t.Fatal(err)
	}
	findings := sweep.Findings
	if len(findings) != 1 {
		t.Fatalf("production findings = %d, want 1", len(findings))
	}
	if findings[0].Location != "services/legacy/send.go:5" {
		t.Errorf("finding = %+v", findings[0])
	}
}

// TestPipelineDrivesAllSourceKinds is the unified-API acceptance check:
// one Pipeline configuration drives all three production source kinds —
// live HTTP endpoints, the write-through archive that sweep records, and
// the simulated fleet directly — through the same engine with two
// concurrent sinks (report + trend), and every origin agrees on the
// findings.
func TestPipelineDrivesAllSourceKinds(t *testing.T) {
	cfg := fleet.ServiceConfig{
		Name: "billing", Instances: 3,
		Pattern:  patterns.TimeoutLeak,
		LeakFile: "services/billing/worker.go", LeakLine: 33,
		LeakPerDay: 2000, LeakStartDay: 1, FixDay: -1,
		DeployEveryDays: 1000, BenignGoroutines: 15, Seed: 4,
	}
	f := fleet.New(time.Unix(0, 0).UTC(), []fleet.ServiceConfig{cfg})
	f.AdvanceDay()
	f.AdvanceDay()

	endpoints, shutdown := f.Serve()
	defer shutdown()
	archiveDir := t.TempDir()
	archiveSink, err := leakprof.NewSweepArchiveSink(archiveDir)
	if err != nil {
		t.Fatal(err)
	}

	sweepFindings := make(map[string][]*leakprof.Finding)
	for _, src := range []leakprof.Source{
		leakprof.StaticEndpoints(endpoints...),
		f.Source(),
	} {
		trend := &leakprof.TrendTracker{}
		reportSink := &leakprof.ReportSink{
			Reporter: &leakprof.Reporter{DB: report.NewDB(), TopN: 3},
		}
		pipe := leakprof.New(
			leakprof.WithThreshold(1000),
			leakprof.WithParallelism(4),
			leakprof.WithRetry(leakprof.DefaultRetryPolicy),
			leakprof.WithSharedIntern(0),
		).AddSinks(reportSink, &leakprof.TrendSink{Tracker: trend})
		if src.Name() == "endpoints" {
			pipe.AddSinks(archiveSink)
		}
		sweep, err := pipe.Sweep(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", src.Name(), err)
		}
		if sweep.Profiles != 3 || sweep.Errors != 0 {
			t.Fatalf("%s sweep = %+v", src.Name(), sweep)
		}
		if len(sweep.Findings) != 1 {
			t.Fatalf("%s findings = %+v", src.Name(), sweep.Findings)
		}
		if got := sweep.Findings[0].Location; got != "services/billing/worker.go:33" {
			t.Errorf("%s located leak at %q", src.Name(), got)
		}
		if alerts := reportSink.LastAlerts(); len(alerts) != 1 {
			t.Errorf("%s report sink alerts = %d", src.Name(), len(alerts))
		}
		sweepFindings[src.Name()] = sweep.Findings
	}

	// Third kind: the archive the endpoint sweep wrote through.
	sweep, err := leakprof.New(leakprof.WithThreshold(1000)).
		Sweep(context.Background(), leakprof.Archive(filepath.Join(archiveDir, "sweep-0001")))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Profiles != 3 || len(sweep.Findings) != 1 {
		t.Fatalf("archive sweep = %+v", sweep)
	}
	sweepFindings["archive"] = sweep.Findings

	want := sweepFindings["endpoints"][0]
	for origin, fs := range sweepFindings {
		got := fs[0]
		if got.TotalBlocked != want.TotalBlocked || got.Instances != want.Instances ||
			got.Location != want.Location || got.Op != want.Op || got.Impact != want.Impact {
			t.Errorf("%s finding %+v diverges from endpoints finding %+v", origin, got, want)
		}
	}
}
