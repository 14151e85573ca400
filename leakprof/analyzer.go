package leakprof

import "repro/internal/stack"

// DefaultThreshold is the per-instance blocked-goroutine concentration
// above which a location is marked suspicious. The paper arrived at 10K
// empirically by lowering from a larger value while precision stayed high.
const DefaultThreshold = 10000

// Ranking selects the fleet-wide impact statistic used to order findings.
type Ranking int

const (
	// RankRMS is the paper's choice: root mean square of per-instance
	// counts, highlighting single instances with large clusters.
	RankRMS Ranking = iota
	// RankMean orders by the fleet-wide mean count (ablation).
	RankMean
	// RankMax orders by the single largest instance count (ablation).
	RankMax
	// RankTotal orders by the fleet-wide total (ablation).
	RankTotal
)

// String names the ranking for reports and benchmarks.
func (r Ranking) String() string {
	switch r {
	case RankRMS:
		return "rms"
	case RankMean:
		return "mean"
	case RankMax:
		return "max"
	case RankTotal:
		return "total"
	}
	return "unknown"
}

// OpFilter inspects a blocked operation and reports whether it is known to
// be harmless (criterion 2 in Section V-A): e.g. a select arm listening on
// time.Tick or ctx.Done is transiently blocked by design. Filters are
// typically backed by the AST analyses in internal/astcheck.
type OpFilter func(op stack.BlockedOp) bool

// Finding is one suspicious blocked operation aggregated fleet-wide.
type Finding struct {
	// Service is the owning service.
	Service string
	// Op is the operation family: "send", "receive", or "select".
	Op string
	// Location is the source file:line of the blocking operation.
	Location string
	// Function is the function containing the operation.
	Function string
	// NilChannel marks guaranteed partial deadlocks on nil channels.
	NilChannel bool

	// TotalBlocked is the number of blocked goroutines across the fleet.
	TotalBlocked int
	// Instances is the number of instances with at least one blocked
	// goroutine at this location.
	Instances int
	// SuspiciousInstances is the number of instances at or above the
	// threshold.
	SuspiciousInstances int
	// MaxCount and MaxInstance identify the representative profile: the
	// instance with the most blocked goroutines (its profile accompanies
	// the alert per Section V-A).
	MaxCount    int
	MaxInstance string
	// Impact is the ranking statistic (RMS by default) over per-instance
	// counts of all profiled instances of the service.
	Impact float64
}

// Key returns the dedup key used by the bug DB: one defect per
// service+operation+location.
func (f *Finding) Key() string {
	return f.Service + "\x00" + f.Op + "\x00" + f.Location
}
