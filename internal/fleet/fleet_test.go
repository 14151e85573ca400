package fleet

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/patterns"
	"repro/internal/stack"
	"repro/leakprof"
)

func leakyConfig(instances int) ServiceConfig {
	return ServiceConfig{
		Name:             "svc",
		Instances:        instances,
		Pattern:          patterns.PrematureReturn,
		LeakFile:         "services/svc/worker.go",
		LeakLine:         17,
		LeakPerDay:       100,
		LeakStartDay:     1,
		FixDay:           -1,
		DeployEveryDays:  100, // effectively never within the test window
		BenignGoroutines: 10,
		Seed:             1,
	}
}

func TestInstanceStacksCarryLeakSignature(t *testing.T) {
	f := New(time.Unix(0, 0), []ServiceConfig{leakyConfig(2)})
	f.AdvanceDay() // leak starts
	in := f.Instances()[0]
	if in.Blocked() != 100 {
		t.Fatalf("blocked = %d, want 100", in.Blocked())
	}
	stacks := in.Stacks()
	if len(stacks) != 110 { // 10 benign + 100 leaked
		t.Fatalf("stacks = %d, want 110", len(stacks))
	}
	var leaked int
	for _, g := range stacks {
		if op, ok := g.BlockedChannelOp(); ok {
			if op.Location != "services/svc/worker.go:17" {
				t.Fatalf("leak location = %q", op.Location)
			}
			leaked++
		}
	}
	if leaked != 100 {
		t.Errorf("channel-blocked stacks = %d, want 100", leaked)
	}
}

func TestDeployResetsAndFix(t *testing.T) {
	cfg := leakyConfig(1)
	cfg.DeployEveryDays = 3
	cfg.FixDay = 5
	f := New(time.Unix(0, 0), []ServiceConfig{cfg})
	counts := []int{}
	for d := 0; d < 8; d++ {
		f.AdvanceDay()
		counts = append(counts, f.Instances()[0].Blocked())
	}
	// Day 1: +100; day 2: +100; day 3: deploy reset then +100; day 4:
	// +100; day 5+: fixed (no growth); day 6: deploy reset to 0.
	want := []int{100, 200, 100, 200, 200, 0, 0, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("day %d: blocked = %d, want %d (full: %v)", i+1, counts[i], want[i], counts)
		}
	}
}

func TestHotInstanceConcentration(t *testing.T) {
	cfg := leakyConfig(10)
	cfg.HotInstances = 1
	cfg.HotLeakPerDay = 1000
	f := New(time.Unix(0, 0), []ServiceConfig{cfg})
	f.AdvanceDay()
	name, max := f.Services[0].MaxBlocked()
	if max != 1000 {
		t.Errorf("hot instance blocked = %d, want 1000", max)
	}
	if name != "svc-0000" {
		t.Errorf("hot instance = %s", name)
	}
	if total := f.Services[0].TotalBlocked(); total != 1000+9*100 {
		t.Errorf("total = %d", total)
	}
}

// TestInstanceViewsAgree checks that three views of one simulated
// instance count the same population: the snapshot the fleet emits, a
// scan of the dump the instance pushes (Dump), and a scan of the full
// dump its HTTP endpoint serves (stack.Format of Stacks).
func TestInstanceViewsAgree(t *testing.T) {
	leaky := leakyConfig(2)
	leaky.HotInstances, leaky.HotLeakPerDay = 1, 2500
	quiet := leakyConfig(1)
	quiet.Name, quiet.Pattern = "quiet", nil
	f := New(time.Unix(0, 0), []ServiceConfig{leaky, quiet})
	f.AdvanceDay()

	snaps := f.SnapshotsAggregated()
	var blocked []int
	for i, in := range f.Instances() {
		emitted := snaps[i]
		blocked = append(blocked, in.Blocked())
		views := map[string][]byte{
			"dump":     in.Dump(),
			"endpoint": []byte(stack.Format(in.Stacks())),
		}
		for view, body := range views {
			scanned, err := gprofile.ScanSnapshot(in.Service, in.Name, time.Time{}, bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", in.Name, view, err)
			}
			if scanned.TotalGoroutines != emitted.TotalGoroutines {
				t.Errorf("%s %s: %d goroutines, snapshot says %d",
					in.Name, view, scanned.TotalGoroutines, emitted.TotalGoroutines)
			}
			if got, want := scanned.CountByLocation(), emitted.CountByLocation(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: counts %v, snapshot says %v", in.Name, view, got, want)
			}
		}
	}
	// A hot instance, a leaking one and a quiet one.
	if want := []int{2500, 100, 0}; !reflect.DeepEqual(blocked, want) {
		t.Fatalf("blocked per instance = %v, want %v", blocked, want)
	}
}

func TestSnapshotsFeedAnalyzer(t *testing.T) {
	cfg := leakyConfig(3)
	cfg.LeakPerDay = 600
	f := New(time.Unix(0, 0), []ServiceConfig{cfg})
	pipe := leakprof.New(leakprof.WithThreshold(500))
	analyze := func() []*leakprof.Finding {
		sweep, err := pipe.Sweep(context.Background(), leakprof.FromSnapshots(f.SnapshotsAggregated()))
		if err != nil {
			t.Fatal(err)
		}
		return sweep.Findings
	}
	// Day 0: nothing.
	if findings := analyze(); len(findings) != 0 {
		t.Fatalf("pre-leak findings: %v", findings)
	}
	f.AdvanceDay()
	findings := analyze()
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(findings))
	}
	fd := findings[0]
	if fd.Service != "svc" || fd.Op != "send" || fd.Location != "services/svc/worker.go:17" {
		t.Errorf("finding = %+v", fd)
	}
	if fd.TotalBlocked != 1800 || fd.Instances != 3 {
		t.Errorf("total=%d instances=%d", fd.TotalBlocked, fd.Instances)
	}
}

func TestServeEndToEndOverHTTP(t *testing.T) {
	cfg := leakyConfig(2)
	cfg.LeakPerDay = 200
	f := New(time.Unix(0, 0), []ServiceConfig{cfg})
	f.AdvanceDay()
	endpoints, shutdown := f.Serve()
	defer shutdown()
	if len(endpoints) != 2 {
		t.Fatalf("endpoints = %d", len(endpoints))
	}
	sweep, err := leakprof.New(leakprof.WithThreshold(150)).
		Sweep(context.Background(), leakprof.StaticEndpoints(endpoints...))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Profiles != 2 {
		t.Fatalf("profiles = %d (failures: %v)", sweep.Profiles, sweep.Failures)
	}
	findings := sweep.Findings
	if len(findings) != 1 || findings[0].Location != "services/svc/worker.go:17" {
		t.Fatalf("findings over HTTP = %+v", findings)
	}
}

func TestRunFig6Shape(t *testing.T) {
	series := RunFig6(6)
	if len(series) != 6 {
		t.Fatalf("series length = %d", len(series))
	}
	last := series[len(series)-1]
	// Representative instance climbs into the five-figure range
	// (paper: 16K) and the fleet total into the millions (paper: ~3M).
	if last.Representative < 10000 || last.Representative > 25000 {
		t.Errorf("representative = %d, want ~16K", last.Representative)
	}
	if last.FleetTotal < 2_000_000 || last.FleetTotal > 4_500_000 {
		t.Errorf("fleet total = %d, want ~3M", last.FleetTotal)
	}
	// Detection happens once the threshold is crossed, before the end.
	var detectedAt int
	for _, p := range series {
		if p.Detected {
			detectedAt = p.Day
			break
		}
	}
	if detectedAt == 0 {
		t.Error("leak never detected")
	}
	if series[0].Detected {
		t.Error("detected on day one, before any cluster formed")
	}
	// Monotone growth until deploy day.
	for i := 1; i < len(series); i++ {
		if series[i].Day%7 != 0 && series[i].FleetTotal < series[i-1].FleetTotal {
			t.Errorf("fleet total regressed on day %d", series[i].Day)
		}
	}
}

func TestRunYearReproducesSectionVII(t *testing.T) {
	if testing.Short() {
		t.Skip("year simulation")
	}
	y := RunYear(1)
	if y.Reports != 33 {
		t.Errorf("reports = %d, want 33", y.Reports)
	}
	if y.Acknowledged != 24 {
		t.Errorf("acknowledged = %d, want 24", y.Acknowledged)
	}
	if y.Fixed != 21 {
		t.Errorf("fixed = %d, want 21", y.Fixed)
	}
	if y.Rejected != 9 {
		t.Errorf("rejected = %d, want 9", y.Rejected)
	}
	if p := y.Precision(); p < 0.70 || p > 0.75 {
		t.Errorf("precision = %.3f, want ~0.727", p)
	}
	// Pattern mix: timeout leads with 5 reports.
	if y.ByPattern["timeout-leak"] != 5 {
		t.Errorf("timeout reports = %d, want 5 (mix: %v)", y.ByPattern["timeout-leak"], y.ByPattern)
	}
	if y.ByPattern["premature-return"] != 4 || y.ByPattern["ncast-leak"] != 4 {
		t.Errorf("pattern mix = %v", y.ByPattern)
	}
}
