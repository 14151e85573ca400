package leakprof

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/internal/stack"
)

// leakFleet serves a two-service fleet over HTTP: "pay" leaks 300
// senders per instance at one location, "idle" is healthy.
func leakFleet(t *testing.T) ([]Endpoint, func()) {
	t.Helper()
	leaky := make([]*stack.Goroutine, 300)
	for i := range leaky {
		leaky[i] = &stack.Goroutine{
			ID: int64(i + 1), State: "chan send",
			Frames: []stack.Frame{{Function: "pay.leak", File: "/pay/l.go", Line: 5}},
		}
	}
	idle := []*stack.Goroutine{{
		ID: 1, State: "IO wait",
		Frames: []stack.Frame{{Function: "idle.read", File: "/idle/r.go", Line: 9}},
	}}
	s1 := profileServer(leaky)
	s2 := profileServer(leaky)
	s3 := profileServer(idle)
	eps := []Endpoint{
		{Service: "pay", Instance: "i1", URL: s1.URL + "?debug=2"},
		{Service: "pay", Instance: "i2", URL: s2.URL + "?debug=2"},
		{Service: "idle", Instance: "i1", URL: s3.URL + "?debug=2"},
	}
	return eps, func() { s1.Close(); s2.Close(); s3.Close() }
}

// TestPipelineUnifiesSources drives the same engine over three origins —
// live HTTP endpoints, the write-through archive that sweep recorded,
// and raw dump bodies — with two concurrent sinks attached, and requires
// identical findings from all of them.
func TestPipelineUnifiesSources(t *testing.T) {
	eps, shutdown := leakFleet(t)
	defer shutdown()

	dir := t.TempDir()
	archiveSink, err := NewSweepArchiveSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	trend := &TrendTracker{}
	reportSink := &ReportSink{Reporter: &Reporter{DB: report.NewDB(), TopN: 5}}
	pipe := New(
		WithThreshold(100),
		WithParallelism(4),
		WithSharedIntern(0),
		WithClock(func() time.Time { return time.Unix(1000, 0) }),
	).AddSinks(reportSink, &TrendSink{Tracker: trend}, archiveSink)

	httpSweep, err := pipe.Sweep(context.Background(), StaticEndpoints(eps...))
	if err != nil {
		t.Fatal(err)
	}
	if httpSweep.Source != "endpoints" || httpSweep.Profiles != 3 || httpSweep.Errors != 0 {
		t.Fatalf("http sweep = %+v", httpSweep)
	}
	if len(httpSweep.Findings) != 1 {
		t.Fatalf("findings = %+v", httpSweep.Findings)
	}
	f := httpSweep.Findings[0]
	if f.Service != "pay" || f.TotalBlocked != 600 || f.Instances != 2 {
		t.Errorf("finding = %+v", f)
	}
	// Both sinks observed the sweep concurrently with collection.
	if alerts := reportSink.LastAlerts(); len(alerts) != 1 {
		t.Errorf("report sink alerts = %d", len(alerts))
	}
	if archiveSink.Written() != 3 {
		t.Errorf("archive sink wrote %d snapshots", archiveSink.Written())
	}

	// Origin 2: the archive the first sweep wrote through, replayed by
	// a fresh pipeline with the same detection options.
	replayPipe := New(WithThreshold(100))
	archSweep, err := replayPipe.Sweep(context.Background(), Archive(filepath.Join(dir, "sweep-0001")))
	if err != nil {
		t.Fatal(err)
	}
	if archSweep.Source != "archive" || archSweep.Profiles != 3 {
		t.Fatalf("archive sweep = %+v", archSweep)
	}
	assertSameFindings(t, "archive", httpSweep.Findings, archSweep.Findings)

	// Origin 3: raw dump bodies through the Dumps source.
	var dumps []Dump
	for _, snap := range []struct {
		service, instance string
		blocked           int
	}{{"pay", "i1", 300}, {"pay", "i2", 300}, {"idle", "i1", 0}} {
		var b strings.Builder
		err := gprofile.WriteSnapshot(&b, &gprofile.Snapshot{
			Service: snap.service, Instance: snap.instance,
			PreAggregated: preAgg(snap.blocked),
		})
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, Dump{Service: snap.service, Instance: snap.instance, Body: strings.NewReader(b.String())})
	}
	dumpSweep, err := New(WithThreshold(100)).Sweep(context.Background(), Dumps(dumps...))
	if err != nil {
		t.Fatal(err)
	}
	if dumpSweep.Source != "dumps" || dumpSweep.Profiles != 3 {
		t.Fatalf("dump sweep = %+v", dumpSweep)
	}
	assertSameFindings(t, "dumps", httpSweep.Findings, dumpSweep.Findings)

	// The trend sink received the aggregator's moments, keyed like
	// findings.
	if v := trend.Verdict(f.Key()); v != TrendUnknown {
		t.Errorf("one-observation verdict = %v", v)
	}
	if len(trend.history[f.Key()]) != 1 {
		t.Errorf("trend history = %+v", trend.history)
	}
}

func preAgg(blocked int) map[stack.BlockedOp]int {
	if blocked == 0 {
		return nil
	}
	return map[stack.BlockedOp]int{
		{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: blocked,
	}
}

// assertSameFindings compares the detection-relevant fields (the
// representative instance may differ between origins with equal max
// counts).
func assertSameFindings(t *testing.T, origin string, want, got []*Finding) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d findings, want %d", origin, len(got), len(want))
	}
	for i := range want {
		w, g := *want[i], *got[i]
		w.MaxInstance, g.MaxInstance = "", ""
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s finding %d = %+v, want %+v", origin, i, g, w)
		}
	}
}

func TestAggregatorMoments(t *testing.T) {
	agg := NewAggregator(100)
	op := stack.BlockedOp{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}
	for i, n := range []int{200, 100, 0} { // third instance: no blocked ops
		snap := &gprofile.Snapshot{Service: "pay", Instance: string(rune('a' + i))}
		if n > 0 {
			snap.PreAggregated = map[stack.BlockedOp]int{op: n}
		}
		agg.Add(snap)
	}
	moments := agg.Moments()
	if len(moments) != 1 {
		t.Fatalf("moments = %+v", moments)
	}
	m := moments[0]
	if m.Total != 300 || m.Instances != 2 || m.ServiceProfiles != 3 || m.Suspicious != 2 {
		t.Errorf("moment = %+v", m)
	}
	if m.SumSquares != 200*200+100*100 {
		t.Errorf("sum of squares = %v", m.SumSquares)
	}
	if m.MaxCount != 200 {
		t.Errorf("max = %d@%s", m.MaxCount, m.MaxInstance)
	}
	if want := 100.0; m.Mean() != want {
		t.Errorf("mean = %v, want %v", m.Mean(), want)
	}
	// Variance across {200, 100, 0} is 2e4/3*... E[x^2]-mean^2 =
	// 50000/3*... compute: (40000+10000)/3 - 10000 = 6666.67.
	if v := m.Variance(); v < 6666 || v > 6667 {
		t.Errorf("variance = %v", v)
	}
	if m.Key() != (&Finding{Service: "pay", Op: "send", Location: "/pay/l.go:5"}).Key() {
		t.Errorf("moment key %q diverges from finding key", m.Key())
	}
}

// TestTrendVarianceAwareBand: the same relative step reads as growth for
// a uniform fleet but as noise for a fleet whose instances wildly
// disagree.
func TestTrendVarianceAwareBand(t *testing.T) {
	uniform := &TrendTracker{}
	noisy := &TrendTracker{}
	at := time.Unix(0, 0)
	for i, total := range []int{1000, 1300, 1690} { // +30% per sweep
		// Uniform: 10 instances at total/10 each.
		perInst := float64(total) / 10
		uniform.ObserveMoments(at, []Moment{{
			Service: "s", Op: stack.BlockedOp{Op: "send", Location: "l"},
			Total: total, Instances: 10, ServiceProfiles: 10,
			SumSquares: 10 * perInst * perInst,
		}})
		// Noisy: one instance carries everything, nine are idle — huge
		// cross-instance dispersion, so a 30% swing is within noise.
		noisy.ObserveMoments(at, []Moment{{
			Service: "s", Op: stack.BlockedOp{Op: "send", Location: "l"},
			Total: total, Instances: 1, ServiceProfiles: 10,
			SumSquares: float64(total) * float64(total),
		}})
		at = at.Add(24 * time.Hour)
		_ = i
	}
	key := Moment{Service: "s", Op: stack.BlockedOp{Op: "send", Location: "l"}}.Key()
	if v := uniform.Verdict(key); v != TrendGrowing {
		t.Errorf("uniform fleet verdict = %v, want growing", v)
	}
	if v := noisy.Verdict(key); v != TrendStable {
		t.Errorf("noisy fleet verdict = %v, want stable (within sampling noise)", v)
	}
}

// TestObserveMomentsMergesSameKey: aggregation groups by the full
// operation while trend keys fold Function/NilChannel away, so one sweep
// can yield several moments per key — they must merge into a single
// observation, not a bogus same-timestamp transition.
func TestObserveMomentsMergesSameKey(t *testing.T) {
	tr := &TrendTracker{}
	at := time.Unix(0, 0)
	tr.ObserveMoments(at, []Moment{
		{Service: "s", Op: stack.BlockedOp{Op: "receive", Location: "l", NilChannel: false},
			Total: 100, ServiceProfiles: 4, SumSquares: 100 * 100},
		{Service: "s", Op: stack.BlockedOp{Op: "receive", Location: "l", NilChannel: true},
			Total: 50, ServiceProfiles: 4, SumSquares: 50 * 50},
	})
	key := Moment{Service: "s", Op: stack.BlockedOp{Op: "receive", Location: "l"}}.Key()
	obs := tr.history[key]
	if len(obs) != 1 {
		t.Fatalf("one sweep produced %d observations", len(obs))
	}
	if obs[0].total != 150 || obs[0].profiles != 4 || obs[0].sumSquares != 100*100+50*50 {
		t.Errorf("merged observation = %+v", obs[0])
	}
}
