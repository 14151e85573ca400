package leakprof

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gprofile"
	"repro/internal/stack"
)

// snap builds a snapshot with n goroutines blocked at each given
// op/location plus two benign background goroutines.
func snap(service, instance string, blocked map[stack.BlockedOp]int) *gprofile.Snapshot {
	s := &gprofile.Snapshot{Service: service, Instance: instance, TakenAt: time.Unix(0, 0),
		PreAggregated: map[stack.BlockedOp]int{}, TotalGoroutines: 2}
	for op, n := range blocked {
		s.PreAggregated[op] += n
		s.TotalGoroutines += n
	}
	return s
}

// analyze sweeps materialised snapshots through a sinkless Pipeline
// and returns its findings.
func analyze(t testing.TB, snaps []*gprofile.Snapshot, opts ...Option) []*Finding {
	t.Helper()
	sweep, err := New(opts...).Sweep(context.Background(), FromSnapshots(snaps))
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Findings
}

func op(kind, fn, loc string) stack.BlockedOp {
	return stack.BlockedOp{Op: kind, Function: fn, Location: loc}
}

func TestAnalyzeThreshold(t *testing.T) {
	leaky := op("send", "svc.leak", "/svc/l.go:5")
	benign := op("receive", "svc.poll", "/svc/p.go:9")
	snaps := []*gprofile.Snapshot{
		snap("svc", "i1", map[stack.BlockedOp]int{leaky: 150, benign: 3}),
		snap("svc", "i2", map[stack.BlockedOp]int{leaky: 80, benign: 2}),
	}
	findings := analyze(t, snaps, WithThreshold(100))
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Location != "/svc/l.go:5" || f.Op != "send" {
		t.Errorf("finding = %+v", f)
	}
	if f.TotalBlocked != 230 {
		t.Errorf("total = %d, want 230", f.TotalBlocked)
	}
	if f.Instances != 2 || f.SuspiciousInstances != 1 {
		t.Errorf("instances = %d suspicious = %d", f.Instances, f.SuspiciousInstances)
	}
	if f.MaxInstance != "i1" || f.MaxCount != 150 {
		t.Errorf("representative = %s/%d", f.MaxInstance, f.MaxCount)
	}
	wantRMS := math.Sqrt((150.0*150 + 80*80) / 2)
	if math.Abs(f.Impact-wantRMS) > 1e-9 {
		t.Errorf("impact = %f, want %f", f.Impact, wantRMS)
	}
}

func TestAnalyzeBelowThresholdEverywhere(t *testing.T) {
	leaky := op("send", "svc.leak", "/svc/l.go:5")
	snaps := []*gprofile.Snapshot{
		snap("svc", "i1", map[stack.BlockedOp]int{leaky: 99}),
		snap("svc", "i2", map[stack.BlockedOp]int{leaky: 99}),
	}
	if findings := analyze(t, snaps, WithThreshold(100)); len(findings) != 0 {
		t.Errorf("sub-threshold location reported: %+v", findings)
	}
}

func TestAnalyzeDefaultThreshold(t *testing.T) {
	leaky := op("select", "svc.w", "/svc/w.go:3")
	snaps := []*gprofile.Snapshot{
		snap("svc", "i1", map[stack.BlockedOp]int{leaky: DefaultThreshold}),
	}
	if findings := analyze(t, snaps); len(findings) != 1 {
		t.Errorf("10K cluster not reported with default threshold")
	}
	snaps = []*gprofile.Snapshot{
		snap("svc", "i1", map[stack.BlockedOp]int{leaky: DefaultThreshold - 1}),
	}
	if findings := analyze(t, snaps); len(findings) != 0 {
		t.Errorf("9999 cluster reported with default threshold")
	}
}

func TestAnalyzeOpFilter(t *testing.T) {
	tick := op("select", "svc.ticker", "/svc/t.go:7")
	leak := op("send", "svc.leak", "/svc/l.go:5")
	snaps := []*gprofile.Snapshot{
		snap("svc", "i1", map[stack.BlockedOp]int{tick: 500, leak: 500}),
	}
	findings := analyze(t, snaps, WithThreshold(100), WithFilters(func(o stack.BlockedOp) bool {
		return o.Function == "svc.ticker" // criterion 2: provably transient
	}))
	if len(findings) != 1 || findings[0].Function != "svc.leak" {
		t.Errorf("findings = %+v", findings)
	}
}

func TestAnalyzeSeparatesServices(t *testing.T) {
	loc := op("send", "lib.leak", "/lib/l.go:5")
	snaps := []*gprofile.Snapshot{
		snap("svcA", "a1", map[stack.BlockedOp]int{loc: 200}),
		snap("svcB", "b1", map[stack.BlockedOp]int{loc: 300}),
	}
	findings := analyze(t, snaps, WithThreshold(100))
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (one per service)", len(findings))
	}
	// Ordered by impact: svcB's 300 outranks svcA's 200.
	if findings[0].Service != "svcB" || findings[1].Service != "svcA" {
		t.Errorf("order = %s, %s", findings[0].Service, findings[1].Service)
	}
}

func TestRMSHighlightsConcentration(t *testing.T) {
	// The paper's rationale for RMS: one instance with a huge cluster
	// must outrank many instances with small clusters, even when the
	// totals are equal.
	concentrated := op("send", "a.leak", "/a/l.go:1")
	diffuse := op("send", "b.leak", "/b/l.go:2")

	var snaps []*gprofile.Snapshot
	snaps = append(snaps, snap("svcA", "a1", map[stack.BlockedOp]int{concentrated: 16000}))
	for i := 0; i < 15; i++ {
		snaps = append(snaps, snap("svcA", fmt.Sprintf("a%d", i+2), nil))
	}
	for i := 0; i < 16; i++ {
		snaps = append(snaps, snap("svcB", fmt.Sprintf("b%d", i+1), map[stack.BlockedOp]int{diffuse: 1000}))
	}

	findings := analyze(t, snaps, WithThreshold(1000))
	if len(findings) != 2 {
		t.Fatalf("got %d findings: %+v", len(findings), findings)
	}
	if findings[0].Function != "a.leak" {
		t.Errorf("RMS should rank the concentrated cluster first; got %s", findings[0].Function)
	}
	if findings[0].TotalBlocked != findings[1].TotalBlocked {
		t.Fatalf("test setup broken: totals differ (%d vs %d)",
			findings[0].TotalBlocked, findings[1].TotalBlocked)
	}

	// Under RankTotal the two tie; under RankMax concentrated still wins.
	ft := analyze(t, snaps, WithThreshold(1000), WithRanking(RankTotal))
	if ft[0].Impact != ft[1].Impact {
		t.Errorf("totals should tie: %f vs %f", ft[0].Impact, ft[1].Impact)
	}
}

func TestImpactStatistics(t *testing.T) {
	perInst := map[string]int{"a": 3, "b": 4}
	if got := impact(RankMean, perInst, 2); got != 3.5 {
		t.Errorf("mean = %f", got)
	}
	if got := impact(RankMax, perInst, 2); got != 4 {
		t.Errorf("max = %f", got)
	}
	if got := impact(RankTotal, perInst, 2); got != 7 {
		t.Errorf("total = %f", got)
	}
	want := math.Sqrt((9.0 + 16.0) / 2.0)
	if got := impact(RankRMS, perInst, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("rms = %f, want %f", got, want)
	}
	// Zero-padded instances lower RMS and mean.
	if impact(RankRMS, perInst, 4) >= impact(RankRMS, perInst, 2) {
		t.Error("RMS should shrink with more profiled instances")
	}
}

func TestImpactProperties(t *testing.T) {
	// Properties: max >= rms >= mean for non-negative counts (by the
	// power-mean inequality), and all are non-negative.
	f := func(counts []uint16) bool {
		if len(counts) == 0 {
			return true
		}
		perInst := map[string]int{}
		for i, c := range counts {
			perInst[fmt.Sprintf("i%d", i)] = int(c)
		}
		n := len(perInst)
		mean := impact(RankMean, perInst, n)
		rms := impact(RankRMS, perInst, n)
		max := impact(RankMax, perInst, n)
		const eps = 1e-9
		return mean >= -eps && rms+eps >= mean && max+eps >= rms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankingString(t *testing.T) {
	for r, want := range map[Ranking]string{
		RankRMS: "rms", RankMean: "mean", RankMax: "max", RankTotal: "total",
		Ranking(99): "unknown",
	} {
		if got := r.String(); got != want {
			t.Errorf("Ranking(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestFindingKeyUniqueness(t *testing.T) {
	a := &Finding{Service: "s", Op: "send", Location: "/a.go:1"}
	b := &Finding{Service: "s", Op: "receive", Location: "/a.go:1"}
	c := &Finding{Service: "s2", Op: "send", Location: "/a.go:1"}
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Error("keys collide across distinct findings")
	}
}
