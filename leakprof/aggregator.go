package leakprof

import (
	"cmp"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/gprofile"
	"repro/internal/stack"
)

// Aggregator folds per-instance blocked-operation counts into fleet-wide
// per-location statistics online, as profiles arrive. It is the streaming
// replacement for buffering a whole sweep as []*gprofile.Snapshot: peak
// state is O(services x suspicious locations), independent of fleet size
// and profile size, and Add is safe to call from every fetch goroutine
// concurrently.
//
// For each (service, operation, location) group it maintains exactly the
// moments the impact statistics need — total, instance count, count of
// instances at or above the threshold, sum of squared counts, and the
// max-count representative instance — so Findings produces the same
// ranked output as a per-instance-map computation over materialised
// snapshots (the reference TestAggregatorMatchesReference checks).
type Aggregator struct {
	threshold int
	filters   []OpFilter

	mu       sync.Mutex
	groups   map[locKey]*locStats
	services map[string]int // profiled instances per service (RMS/mean denominator)
	profiles int
}

// locKey identifies one fleet-wide aggregation group. The embedded op has
// its wait time folded away: grouping is by operation and location only.
type locKey struct {
	service string
	op      stack.BlockedOp
}

// locStats are the streaming moments for one group.
type locStats struct {
	total       int
	instances   int
	suspicious  int
	sumSquares  float64
	maxCount    int
	maxInstance string
}

// NewAggregator returns an empty aggregator. A non-positive threshold
// means DefaultThreshold. Filters are applied to each instance's
// operations — before wait times are folded away, so duration-sensitive
// filters see them — exactly as WithFilters configures a Pipeline.
func NewAggregator(threshold int, filters ...OpFilter) *Aggregator {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Aggregator{
		threshold: threshold,
		filters:   filters,
		groups:    make(map[locKey]*locStats),
		services:  make(map[string]int),
	}
}

// Add folds one instance's profile into the fleet statistics. Each
// profiled instance must be added exactly once per sweep (instances with
// no blocked goroutines still count toward their service's denominator).
// Add is safe for concurrent use: the collector's parallel fetchers fold
// snapshots in concurrently, each under one lock taken once per snapshot,
// and the result is independent of arrival order (reduction sorts
// deterministically at close).
func (a *Aggregator) Add(snap *gprofile.Snapshot) {
	counts := filteredCounts(a.filters, snap)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.services[snap.Service]++
	a.profiles++
	for op, n := range counts {
		g := a.group(locKey{service: snap.Service, op: op})
		g.total += n
		g.instances++
		if n >= a.threshold {
			g.suspicious++
		}
		g.sumSquares += float64(n) * float64(n)
		if n > g.maxCount || (n == g.maxCount && snap.Instance < g.maxInstance) {
			g.maxCount, g.maxInstance = n, snap.Instance
		}
	}
}

// group returns k's moments, creating them empty on first sight. The
// caller holds a.mu.
func (a *Aggregator) group(k locKey) *locStats {
	g := a.groups[k]
	if g == nil {
		g = &locStats{}
		a.groups[k] = g
	}
	return g
}

// Profiles returns the number of instance profiles folded in so far.
func (a *Aggregator) Profiles() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.profiles
}

// Findings materialises the detection result: every group with at least
// one instance at or above the threshold (criterion 1), ranked by the
// given impact statistic in descending order. It may be called while
// adds are still in flight (a monitoring peek), but the canonical sweep
// result is the call after collection completes.
func (a *Aggregator) Findings(r Ranking) []*Finding {
	var findings []*Finding
	a.mu.Lock()
	for k, g := range a.groups {
		if g.suspicious == 0 {
			continue // criterion 1: below threshold everywhere
		}
		findings = append(findings, &Finding{
			Service:             k.service,
			Op:                  k.op.Op,
			Location:            k.op.Location,
			Function:            k.op.Function,
			NilChannel:          k.op.NilChannel,
			TotalBlocked:        g.total,
			Instances:           g.instances,
			SuspiciousInstances: g.suspicious,
			MaxCount:            g.maxCount,
			MaxInstance:         g.maxInstance,
			Impact:              impactFromStats(r, g, a.services[k.service]),
		})
	}
	a.mu.Unlock()
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Impact != b.Impact {
			return a.Impact > b.Impact
		}
		return compareKeys(a.Service, a.Op, a.Location, b.Service, b.Op, b.Location) < 0
	})
	return findings
}

// compareKeys orders two groups as their dedup keys (Finding.Key,
// Moment.Key) compare, without building either key: it walks both as
// service, NUL, op, NUL, location. The parts cannot be compared one by
// one, because a service name taken from an ingest request may itself
// hold a NUL byte.
func compareKeys(svcA, opA, locA, svcB, opB, locB string) int {
	a := [...]string{svcA, "\x00", opA, "\x00", locA}
	b := [...]string{svcB, "\x00", opB, "\x00", locB}
	var x, y string // unread rest of the current part of each key
	for i, j := 0, 0; ; {
		for x == "" && i < len(a) {
			x, i = a[i], i+1
		}
		for y == "" && j < len(b) {
			y, j = b[j], j+1
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y)) // the shorter key is a prefix
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// Moment is the exported form of one group's streaming moments: the raw
// per-(service, operation, location) statistics the aggregator maintains
// online, for consumers that want pre-threshold signal — trend tracking
// feeds on these directly instead of on thresholded finding totals.
type Moment struct {
	// Service is the owning service.
	Service string
	// Op identifies the blocked operation and location (wait time folded
	// away, as in the grouping key).
	Op stack.BlockedOp
	// Total is the fleet-wide blocked-goroutine count for the group.
	Total int
	// Instances is the number of instances with at least one blocked
	// goroutine here; ServiceProfiles is the number of profiled
	// instances of the service (the RMS/mean denominator).
	Instances       int
	ServiceProfiles int
	// Suspicious is the number of instances at or above the threshold.
	Suspicious int
	// SumSquares is the sum of squared per-instance counts.
	SumSquares float64
	// MaxCount and MaxInstance identify the largest single-instance
	// cluster.
	MaxCount    int
	MaxInstance string
}

// Key returns the group's dedup key, identical to Finding.Key for the
// same group.
func (m Moment) Key() string {
	return m.Service + "\x00" + m.Op.Op + "\x00" + m.Op.Location
}

// Mean is the fleet-wide mean per-instance count (zeros included).
func (m Moment) Mean() float64 {
	if m.ServiceProfiles <= 0 {
		return 0
	}
	return float64(m.Total) / float64(m.ServiceProfiles)
}

// Variance is the per-instance count variance across all profiled
// instances of the service (zeros included): the dispersion a
// variance-aware trend verdict scales its noise band by.
func (m Moment) Variance() float64 {
	n := float64(m.ServiceProfiles)
	if n <= 0 {
		return 0
	}
	mean := float64(m.Total) / n
	v := m.SumSquares/n - mean*mean
	if v < 0 { // floating-point cancellation on near-constant counts
		return 0
	}
	return v
}

// Moments exports every group's raw streaming moments — suspicious or
// not — sorted by key for determinism. Like Findings it may be called
// mid-sweep, but the canonical result is the call after collection
// completes.
func (a *Aggregator) Moments() []Moment {
	var out []Moment
	a.mu.Lock()
	for k, g := range a.groups {
		out = append(out, Moment{
			Service:         k.service,
			Op:              k.op,
			Total:           g.total,
			Instances:       g.instances,
			ServiceProfiles: a.services[k.service],
			Suspicious:      g.suspicious,
			SumSquares:      g.sumSquares,
			MaxCount:        g.maxCount,
			MaxInstance:     g.maxInstance,
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		return compareKeys(a.Service, a.Op.Op, a.Op.Location, b.Service, b.Op.Op, b.Op.Location) < 0
	})
	return out
}

// Merge combines two independently folded moment sets for the same group
// key — two shards' statistics over disjoint instance populations — into
// the moments a single fold over the union would have produced: totals,
// instance counts, suspicious counts, sums of squares, and profiled-
// instance denominators add, and the max representative is re-decided
// under the single-fold tie-break (higher count wins; equal counts go to
// the lexicographically smaller instance). Both folds must have used the
// same suspicion threshold, or the merged Suspicious count is
// meaningless. Merging is groupwise: ServiceProfiles adds, which is only
// the union denominator when the group was observed in both folds — the
// Aggregator.MergeMoments path recomputes denominators from per-service
// profile counts instead, which is correct for any split.
func (m Moment) Merge(o Moment) Moment {
	m.Total += o.Total
	m.Instances += o.Instances
	m.ServiceProfiles += o.ServiceProfiles
	m.Suspicious += o.Suspicious
	m.SumSquares += o.SumSquares
	if o.MaxCount > m.MaxCount || (o.MaxCount == m.MaxCount && o.MaxInstance < m.MaxInstance) {
		m.MaxCount, m.MaxInstance = o.MaxCount, o.MaxInstance
	}
	return m
}

// ServiceProfiles returns the aggregator's per-service profiled-instance
// counts (the RMS/mean denominators) — the second half of a shard's
// mergeable state: a group's moments alone cannot say how many instances
// of its service were profiled but showed nothing at the location.
func (a *Aggregator) ServiceProfiles() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.services))
	for s, n := range a.services {
		out[s] = n
	}
	return out
}

// MergeMoments folds another aggregator's exported state — its per-group
// moments plus its per-service profiled-instance counts and total profile
// count — into this one, as if every instance the other aggregator folded
// had been added here directly: Findings and Moments on the merged
// aggregator reproduce a single-process fold over the union, including
// RMS/mean denominators (services' profile counts add, so an instance
// profiled by exactly one shard is counted exactly once). The moments'
// own ServiceProfiles fields are ignored; denominators come from
// services. Both aggregators must use the same threshold for the merged
// Suspicious counts to mean anything; filters do not apply (they already
// ran during the shard's fold). Safe for concurrent use.
func (a *Aggregator) MergeMoments(services map[string]int, profiles int, moments []Moment) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for svc, n := range services {
		a.services[svc] += n
	}
	a.profiles += profiles
	for i := range moments {
		m := &moments[i]
		g := a.group(locKey{service: m.Service, op: m.Op})
		g.total += m.Total
		g.instances += m.Instances
		g.suspicious += m.Suspicious
		g.sumSquares += m.SumSquares
		// Same tie-break as Add; a fresh group (maxCount 0) is taken over
		// because every observed moment has MaxCount >= 1.
		if m.MaxCount > g.maxCount || (m.MaxCount == g.maxCount && m.MaxInstance < g.maxInstance) {
			g.maxCount, g.maxInstance = m.MaxCount, m.MaxInstance
		}
	}
}

// impactFromStats computes the ranking statistic from streaming moments.
// The denominator for RMS and mean is the number of profiled instances of
// the service (instances with zero blocked goroutines at this location
// contribute zeros), which is what makes RMS highlight concentrated
// clusters: a single instance with 16K blocked goroutines outranks 800
// instances with 20 each.
func impactFromStats(r Ranking, g *locStats, serviceInstances int) float64 {
	if serviceInstances <= 0 {
		serviceInstances = g.instances
	}
	switch r {
	case RankMean:
		return float64(g.total) / float64(serviceInstances)
	case RankMax:
		return float64(g.maxCount)
	case RankTotal:
		return float64(g.total)
	default: // RankRMS
		return math.Sqrt(g.sumSquares / float64(serviceInstances))
	}
}

// filteredCounts groups one snapshot's channel-blocked goroutines by
// (operation, location), applying criterion-2 filters per operation —
// before aggregation folds wait durations away, so filters can see them.
func filteredCounts(filters []OpFilter, snap *gprofile.Snapshot) map[stack.BlockedOp]int {
	dropped := func(op stack.BlockedOp) bool {
		for _, f := range filters {
			if f(op) {
				return true
			}
		}
		return false
	}
	counts := make(map[stack.BlockedOp]int, len(snap.PreAggregated))
	for op, n := range snap.PreAggregated {
		if dropped(op) {
			continue
		}
		op.WaitTime = 0
		counts[op] += n
	}
	return counts
}
