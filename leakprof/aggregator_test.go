package leakprof

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/stack"
)

// refAnalyze is the pre-streaming analyzer: per-instance count maps per
// group, statistics computed at the end. The aggregator must reproduce
// its output exactly.
func refAnalyze(threshold int, ranking Ranking, filters []OpFilter, snaps []*gprofile.Snapshot) []*Finding {
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	type group struct {
		op      stack.BlockedOp
		perInst map[string]int
	}
	serviceInstances := map[string]int{}
	groups := map[string]map[stack.BlockedOp]*group{}
	for _, snap := range snaps {
		serviceInstances[snap.Service]++
		svc := groups[snap.Service]
		if svc == nil {
			svc = map[stack.BlockedOp]*group{}
			groups[snap.Service] = svc
		}
		for op, n := range filteredCounts(filters, snap) {
			g := svc[op]
			if g == nil {
				g = &group{op: op, perInst: map[string]int{}}
				svc[op] = g
			}
			g.perInst[snap.Instance] += n
		}
	}
	var findings []*Finding
	for service, svc := range groups {
		for _, g := range svc {
			f := &Finding{
				Service: service, Op: g.op.Op, Location: g.op.Location,
				Function: g.op.Function, NilChannel: g.op.NilChannel,
			}
			for inst, n := range g.perInst {
				f.TotalBlocked += n
				f.Instances++
				if n >= threshold {
					f.SuspiciousInstances++
				}
				if n > f.MaxCount || (n == f.MaxCount && inst < f.MaxInstance) {
					f.MaxCount, f.MaxInstance = n, inst
				}
			}
			if f.SuspiciousInstances == 0 {
				continue
			}
			f.Impact = impact(ranking, g.perInst, serviceInstances[service])
			findings = append(findings, f)
		}
	}
	sortFindings(findings)
	return findings
}

// impact computes the ranking statistic over per-instance counts. The
// denominator for RMS and mean is the number of *profiled* instances of
// the service (instances with zero blocked goroutines at this location
// contribute zeros), which is what makes RMS highlight concentrated
// clusters: a single instance with 16K blocked goroutines outranks 800
// instances with 20 each.
func impact(r Ranking, perInst map[string]int, serviceInstances int) float64 {
	if serviceInstances <= 0 {
		serviceInstances = len(perInst)
	}
	switch r {
	case RankMean:
		var sum float64
		for _, n := range perInst {
			sum += float64(n)
		}
		return sum / float64(serviceInstances)
	case RankMax:
		var max float64
		for _, n := range perInst {
			if float64(n) > max {
				max = float64(n)
			}
		}
		return max
	case RankTotal:
		var sum float64
		for _, n := range perInst {
			sum += float64(n)
		}
		return sum
	default: // RankRMS
		var sumsq float64
		for _, n := range perInst {
			sumsq += float64(n) * float64(n)
		}
		return math.Sqrt(sumsq / float64(serviceInstances))
	}
}

func sortFindings(findings []*Finding) {
	for i := 1; i < len(findings); i++ {
		for j := i; j > 0; j-- {
			a, b := findings[j-1], findings[j]
			if a.Impact > b.Impact || (a.Impact == b.Impact && a.Key() < b.Key()) {
				break
			}
			findings[j-1], findings[j] = b, a
		}
	}
}

// randomSweep synthesises a fleet sweep: several services, per-instance
// pre-aggregated counts at a handful of locations, occasional zeros.
func randomSweep(rng *rand.Rand) []*gprofile.Snapshot {
	var snaps []*gprofile.Snapshot
	for s := 0; s < 1+rng.Intn(4); s++ {
		service := fmt.Sprintf("svc%d", s)
		locs := 1 + rng.Intn(3)
		for i := 0; i < 1+rng.Intn(6); i++ {
			snap := &gprofile.Snapshot{
				Service:  service,
				Instance: fmt.Sprintf("%s-i%d", service, i),
				TakenAt:  time.Unix(0, 0),
			}
			for l := 0; l < locs; l++ {
				if rng.Intn(4) == 0 {
					continue // this instance is clean at this location
				}
				op := stack.BlockedOp{
					Op:       []string{"send", "receive", "select"}[l%3],
					Location: fmt.Sprintf("/%s/f%d.go:%d", service, l, 10+l),
					Function: fmt.Sprintf("%s.fn%d", service, l),
					WaitTime: int64(rng.Intn(3)) * int64(time.Minute),
				}
				if snap.PreAggregated == nil {
					snap.PreAggregated = map[stack.BlockedOp]int{}
				}
				snap.PreAggregated[op] = rng.Intn(300)
			}
			snaps = append(snaps, snap)
		}
	}
	return snaps
}

// TestAggregatorMatchesReference drives random sweeps through both the
// streaming aggregator and the per-instance-map reference across every
// ranking, asserting identical findings.
func TestAggregatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		snaps := randomSweep(rng)
		threshold := 1 + rng.Intn(200)
		for _, ranking := range []Ranking{RankRMS, RankMean, RankMax, RankTotal} {
			got := analyze(t, snaps, WithThreshold(threshold), WithRanking(ranking))
			want := refAnalyze(threshold, ranking, nil, snaps)
			if len(got) != len(want) {
				t.Fatalf("trial %d ranking %s: %d findings, want %d", trial, ranking, len(got), len(want))
			}
			for i := range want {
				if !findingsEqual(got[i], want[i]) {
					t.Fatalf("trial %d ranking %s finding %d:\ngot  %+v\nwant %+v",
						trial, ranking, i, got[i], want[i])
				}
			}
		}
	}
}

func findingsEqual(a, b *Finding) bool {
	const eps = 1e-9
	if math.Abs(a.Impact-b.Impact) > eps*math.Max(1, math.Abs(b.Impact)) {
		return false
	}
	ac, bc := *a, *b
	ac.Impact, bc.Impact = 0, 0
	return reflect.DeepEqual(ac, bc)
}

// TestAggregatorConcurrentAdds folds a sweep from many goroutines at
// once — the collector's actual usage — and checks the result is
// identical to a serial fold.
func TestAggregatorConcurrentAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var snaps []*gprofile.Snapshot
	for i := 0; i < 8; i++ {
		snaps = append(snaps, randomSweep(rng)...)
	}
	// Deduplicate (service, instance): each instance is added once.
	seen := map[string]bool{}
	uniq := snaps[:0]
	for _, s := range snaps {
		k := s.Service + "/" + s.Instance
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, s)
		}
	}

	serial := NewAggregator(50)
	for _, s := range uniq {
		serial.Add(s)
	}

	concurrent := NewAggregator(50)
	var wg sync.WaitGroup
	for _, s := range uniq {
		wg.Add(1)
		go func(s *gprofile.Snapshot) {
			defer wg.Done()
			concurrent.Add(s)
		}(s)
	}
	wg.Wait()

	if concurrent.Profiles() != serial.Profiles() {
		t.Fatalf("profiles = %d, want %d", concurrent.Profiles(), serial.Profiles())
	}
	got, want := concurrent.Findings(RankRMS), serial.Findings(RankRMS)
	if len(got) != len(want) {
		t.Fatalf("%d findings, want %d", len(got), len(want))
	}
	for i := range want {
		if !findingsEqual(got[i], want[i]) {
			t.Fatalf("finding %d:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestAggregatorAppliesFilters checks criterion-2 filters run before wait
// durations are folded away.
func TestAggregatorAppliesFilters(t *testing.T) {
	fresh := stack.BlockedOp{Op: "send", Location: "/svc/l.go:5", Function: "svc.leak", WaitTime: int64(2 * time.Second)}
	stuck := stack.BlockedOp{Op: "send", Location: "/svc/l.go:5", Function: "svc.leak", WaitTime: int64(3 * time.Hour)}
	snap := &gprofile.Snapshot{
		Service: "svc", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{fresh: 500, stuck: 700},
	}
	agg := NewAggregator(100, FilterMinWait(10*time.Minute))
	agg.Add(snap)
	findings := agg.Findings(RankRMS)
	if len(findings) != 1 || findings[0].TotalBlocked != 700 {
		t.Fatalf("findings = %+v, want one with 700 blocked (fresh filtered)", findings)
	}
}

// TestAggregatorZeroInstancesCountTowardDenominator mirrors the paper's
// RMS rationale: profiled-but-clean instances lower the statistic.
func TestAggregatorZeroInstancesCountTowardDenominator(t *testing.T) {
	op := stack.BlockedOp{Op: "send", Location: "/svc/l.go:5", Function: "svc.leak"}
	mkSnap := func(inst string, n int) *gprofile.Snapshot {
		s := &gprofile.Snapshot{Service: "svc", Instance: inst}
		if n > 0 {
			s.PreAggregated = map[stack.BlockedOp]int{op: n}
		}
		return s
	}
	small := NewAggregator(100)
	small.Add(mkSnap("i1", 400))
	large := NewAggregator(100)
	large.Add(mkSnap("i1", 400))
	for i := 0; i < 3; i++ {
		large.Add(mkSnap(fmt.Sprintf("clean%d", i), 0))
	}
	si, li := small.Findings(RankRMS)[0].Impact, large.Findings(RankRMS)[0].Impact
	if li >= si {
		t.Errorf("RMS with clean instances = %f, want below %f", li, si)
	}
	// sqrt(400^2 / 4) = 200 with three zero-padded instances.
	if math.Abs(li-200) > 1e-9 {
		t.Errorf("RMS over 4 instances = %f, want 200", li)
	}
}

// TestRankingOrderMatchesKeys checks the window ranking on random
// aggregator inputs: every adjacent pair of Findings descends by impact
// and breaks ties by Key(), and every adjacent pair of Moments ascends by
// Key(). Counts come from a short list, so many groups tie on RMS impact,
// and service names carry NUL bytes, as an ingest request may send them:
// a compare that takes service, operation and location one field at a
// time, rather than as the joined key, orders "svc" before "svc\x00a"
// and fails.
func TestRankingOrderMatchesKeys(t *testing.T) {
	services := []string{"svc", "svc\x00", "svc\x00a", "svc\x00send", "svc\x01", "sv", ""}
	ops := []string{"send", "receive", "select", ""}
	locs := []string{"/a.go:1", "/a.go:10", "/b.go:1", "\x00", ""}
	counts := []int{3, 10, 20}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		agg := NewAggregator(10)
		for inst := rng.Intn(4); inst >= 0; inst-- {
			for _, svc := range services {
				pre := make(map[stack.BlockedOp]int)
				for k := rng.Intn(10); k > 0; k-- {
					op := stack.BlockedOp{
						Op:       ops[rng.Intn(len(ops))],
						Location: locs[rng.Intn(len(locs))],
						Function: []string{"f", "g"}[rng.Intn(2)],
					}
					pre[op] = counts[rng.Intn(len(counts))]
				}
				agg.Add(&gprofile.Snapshot{Service: svc, Instance: fmt.Sprintf("i%d", inst), PreAggregated: pre})
			}
		}
		findings := agg.Findings(RankRMS)
		for i := 1; i < len(findings); i++ {
			a, b := findings[i-1], findings[i]
			if a.Impact < b.Impact || (a.Impact == b.Impact && a.Key() > b.Key()) {
				t.Fatalf("seed %d: finding %d (impact %v, key %q) ranks before finding %d (impact %v, key %q)",
					seed, i-1, a.Impact, a.Key(), i, b.Impact, b.Key())
			}
		}
		moments := agg.Moments()
		for i := 1; i < len(moments); i++ {
			if a, b := moments[i-1].Key(), moments[i].Key(); a > b {
				t.Fatalf("seed %d: moment %d (key %q) sorts before moment %d (key %q)", seed, i-1, a, i, b)
			}
		}
	}
}
