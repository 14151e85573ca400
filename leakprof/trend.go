package leakprof

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Trend analysis extends the single-sweep threshold heuristic of the
// paper with the cross-sweep signal visible in Fig 6: a true leak's
// blocked count grows monotonically between deploys, while benign
// congestion oscillates with load. The paper discusses this distinction
// qualitatively ("diurnal crests and troughs are common"); TrendTracker
// makes it a classifier, reducing the false positives the paper's
// 72.7%-precision reporting pays for.

// TrendVerdict classifies a location's cross-sweep behaviour.
type TrendVerdict int

const (
	// TrendUnknown means too few observations.
	TrendUnknown TrendVerdict = iota
	// TrendGrowing means the count grows sweep over sweep: a leak.
	TrendGrowing
	// TrendOscillating means the count rises and falls: congestion.
	TrendOscillating
	// TrendStable means the count is roughly flat: a steady-state pool.
	TrendStable
)

// String names the verdict.
func (v TrendVerdict) String() string {
	switch v {
	case TrendGrowing:
		return "growing"
	case TrendOscillating:
		return "oscillating"
	case TrendStable:
		return "stable"
	}
	return "unknown"
}

// observation is one sweep's fleet-wide count for a finding key, plus —
// when fed from aggregator moments — the per-instance dispersion that
// lets the verdict separate growth from sampling noise.
type observation struct {
	at    time.Time
	total int
	// profiles and sumSquares carry the service's profiled-instance
	// count and the sum of squared per-instance counts; zero for legacy
	// finding-total observations (no variance available).
	profiles   int
	sumSquares float64
}

// noise returns the expected relative fluctuation of the observation's
// total under per-instance dispersion: the standard deviation of a
// re-sampled total (sigma * sqrt(n) for n instances with per-instance
// std sigma) relative to the total itself. Zero when no variance
// information was recorded.
func (o observation) noise() float64 {
	if o.profiles <= 0 || o.total <= 0 {
		return 0
	}
	n := float64(o.profiles)
	mean := float64(o.total) / n
	variance := o.sumSquares/n - mean*mean
	if variance <= 0 {
		return 0
	}
	return math.Sqrt(variance*n) / float64(o.total)
}

// TrendTracker accumulates per-location counts across sweeps. Its
// observation, export, and verdict methods are safe for concurrent use,
// but the exported tuning fields (MinObservations, StableBand,
// Retention) must be set before the first observation.
type TrendTracker struct {
	// MinObservations before a verdict is issued; default 3.
	MinObservations int
	// StableBand is the relative fluctuation treated as flat; default
	// 0.15 (±15%).
	StableBand float64
	// Retention bounds the history kept per key: only the most recent
	// Retention observations survive an append, a restore, or a journal
	// compaction, so daily sweeps stop growing tracker state (and the
	// journal) without bound. Zero means unlimited. Verdicts, Export,
	// and TakeNew all operate on the retained window — set it before
	// the first observation or restore.
	Retention int

	mu      sync.Mutex
	history map[string][]observation
	// pending holds the observations recorded since the last TakeNew:
	// the per-sweep delta an append-only journal persists. Restored
	// history is never pending — it came from the journal. Tracking is
	// armed by the first TakeNew call (pendingArmed): a tracker no
	// journal ever drains must not accumulate an unbounded second copy
	// of every observation.
	pending      map[string][]observation
	pendingArmed bool
}

// retain trims obs to the tracker's retention window.
func (t *TrendTracker) retain(obs []observation) []observation {
	if t.Retention > 0 && len(obs) > t.Retention {
		// Copy the tail so the backing array does not pin trimmed
		// observations (and repeated appends do not grow it forever).
		trimmed := make([]observation, t.Retention)
		copy(trimmed, obs[len(obs)-t.Retention:])
		return trimmed
	}
	return obs
}

// record appends one observation to a key's history, honouring retention,
// and — once delta tracking is armed — tracks it as pending for the next
// TakeNew.
func (t *TrendTracker) record(key string, o observation) {
	if t.history == nil {
		t.history = map[string][]observation{}
	}
	t.history[key] = t.retain(append(t.history[key], o))
	if !t.pendingArmed {
		return
	}
	if t.pending == nil {
		t.pending = map[string][]observation{}
	}
	t.pending[key] = append(t.pending[key], o)
}

// Observe records one sweep's findings (typically the analyzer output
// before thresholding decisions are acted on). Findings carry only
// totals; prefer ObserveMoments, which records per-instance variance and
// pre-threshold groups as well.
func (t *TrendTracker) Observe(at time.Time, findings []*Finding) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range findings {
		t.record(f.Key(), observation{at: at, total: f.TotalBlocked})
	}
}

// ObserveMoments records one sweep's aggregator moments — the feed the
// pipeline's TrendSink uses. Compared to Observe it sees every observed
// group (not just above-threshold findings, so a leak's early growth is
// on record before it first crosses the threshold) and retains the
// per-instance dispersion, making verdicts variance-aware: a fleet whose
// instances disagree wildly about a location needs a bigger sweep-over-
// sweep change to be called growing.
func (t *TrendTracker) ObserveMoments(at time.Time, moments []Moment) {
	// Aggregation groups by the full operation (Function, NilChannel
	// included) while the trend key — like Finding.Key — folds those
	// away, so one sweep can hand us several moments per key. Merge
	// them first: appending two same-timestamp observations would read
	// as a bogus sweep-over-sweep transition.
	merged := make(map[string]observation, len(moments))
	for _, m := range moments {
		if m.Total <= 0 {
			continue
		}
		o := merged[m.Key()]
		o.at = at
		o.total += m.Total
		o.sumSquares += m.SumSquares
		if m.ServiceProfiles > o.profiles {
			o.profiles = m.ServiceProfiles
		}
		merged[m.Key()] = o
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, o := range merged {
		t.record(key, o)
	}
}

// TrendObservation is the exported form of one recorded sweep
// observation: what StateStore journals so trend history — including the
// per-instance moments behind variance-aware verdicts — survives a
// restart.
type TrendObservation struct {
	// At is the sweep timestamp the observation was recorded under.
	At time.Time `json:"at"`
	// Total is the fleet-wide blocked count for the key.
	Total int `json:"total"`
	// Profiles and SumSquares carry the per-instance dispersion; zero for
	// observations recorded without variance (legacy Observe feed).
	Profiles   int     `json:"profiles,omitempty"`
	SumSquares float64 `json:"sum_squares,omitempty"`
}

// Export returns the tracker's full cross-sweep history — already trimmed
// to the retention window — in journalable form, keyed by finding key.
// This is what a journal snapshot (compaction) persists; per-sweep deltas
// come from TakeNew.
func (t *TrendTracker) Export() map[string][]TrendObservation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exportLocked()
}

func (t *TrendTracker) exportLocked() map[string][]TrendObservation {
	if len(t.history) == 0 {
		return nil
	}
	out := make(map[string][]TrendObservation, len(t.history))
	for key, obs := range t.history {
		out[key] = exportObservations(obs)
	}
	return out
}

// TakeNew returns the observations recorded since the last TakeNew and
// clears the pending set: the per-sweep delta an append-only journal
// persists instead of re-writing every key's history. The first call
// arms delta tracking — observations recorded before it are never
// pending, so a tracker nothing drains (a non-durable pipeline's
// TrendSink) carries no second copy of its history. StateStore arms its
// tracker at open. Restored observations are never returned — they came
// from the journal in the first place.
func (t *TrendTracker) TakeNew() map[string][]TrendObservation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.takeNewLocked()
}

func (t *TrendTracker) takeNewLocked() map[string][]TrendObservation {
	t.pendingArmed = true
	if len(t.pending) == 0 {
		return nil
	}
	out := make(map[string][]TrendObservation, len(t.pending))
	for key, obs := range t.pending {
		out[key] = exportObservations(obs)
	}
	t.pending = nil
	return out
}

// exportTakeNew is Export and TakeNew in one critical section, the
// capture a journal fold takes: an observation recorded concurrently
// lands in both the export and the drained delta or in neither, so the
// snapshot and the deltas journaled after it never hold it twice and
// never lose it.
func (t *TrendTracker) exportTakeNew() (history, taken map[string][]TrendObservation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exportLocked(), t.takeNewLocked()
}

func exportObservations(obs []observation) []TrendObservation {
	exported := make([]TrendObservation, len(obs))
	for i, o := range obs {
		exported[i] = TrendObservation{At: o.at, Total: o.total, Profiles: o.profiles, SumSquares: o.sumSquares}
	}
	return exported
}

// Restore loads previously exported history, replacing any existing
// observations for the restored keys: the restart path StateStore uses
// so verdicts resume with yesterday's moments instead of starting blind.
// Histories longer than the retention window are trimmed to their most
// recent Retention observations. Restored observations are not pending
// for TakeNew.
func (t *TrendTracker) Restore(history map[string][]TrendObservation) {
	if len(history) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.history == nil {
		t.history = make(map[string][]observation, len(history))
	}
	for key, obs := range history {
		t.history[key] = t.retain(importObservations(obs))
	}
}

// requeueNew hands a TakeNew delta back to the pending set — the undo
// hook for a journal whose append failed after the drain. The returned
// observations precede anything recorded since, preserving export order.
func (t *TrendTracker) requeueNew(delta map[string][]TrendObservation) {
	if len(delta) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending == nil {
		t.pending = make(map[string][]observation, len(delta))
	}
	for key, obs := range delta {
		t.pending[key] = append(importObservations(obs), t.pending[key]...)
	}
}

// reset drops all history and pending observations while keeping the
// tracker's configuration — the journal-replay path uses it when a
// snapshot record replaces accumulated state.
func (t *TrendTracker) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.history = nil
	t.pending = nil
}

// hasPending reports whether observations await the next TakeNew — what
// a journal Flush checks before deciding a delta frame is needed.
func (t *TrendTracker) hasPending() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending) > 0
}

// restoreDelta appends previously exported observations to the existing
// history — the journal-replay path for delta records, where each frame
// carries only what one sweep added and replay must accumulate frames in
// order rather than replace.
func (t *TrendTracker) restoreDelta(history map[string][]TrendObservation) {
	if len(history) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.history == nil {
		t.history = make(map[string][]observation, len(history))
	}
	for key, obs := range history {
		t.history[key] = t.retain(append(t.history[key], importObservations(obs)...))
	}
}

func importObservations(obs []TrendObservation) []observation {
	restored := make([]observation, len(obs))
	for i, o := range obs {
		restored[i] = observation{at: o.At, total: o.Total, profiles: o.Profiles, sumSquares: o.SumSquares}
	}
	return restored
}

// Verdict classifies one finding key's history.
func (t *TrendTracker) Verdict(key string) TrendVerdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.verdictLocked(key)
}

func (t *TrendTracker) verdictLocked(key string) TrendVerdict {
	min := t.MinObservations
	if min == 0 {
		min = 3
	}
	obs := t.history[key]
	if len(obs) < min {
		return TrendUnknown
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].at.Before(obs[j].at) })

	band := t.StableBand
	if band == 0 {
		band = 0.15
	}
	grows, shrinks := 0, 0
	for i := 1; i < len(obs); i++ {
		prev, cur := obs[i-1].total, obs[i].total
		base := prev
		if base == 0 {
			base = 1
		}
		// Variance-aware band: a step must clear both the configured
		// stable band and twice the sampling noise implied by the
		// previous sweep's per-instance dispersion. Legacy observations
		// carry no variance, so their band is exactly StableBand.
		eff := band
		if noise := 2 * obs[i-1].noise(); noise > eff {
			eff = noise
		}
		switch rel := float64(cur-prev) / float64(base); {
		case rel > eff:
			grows++
		case rel < -eff:
			shrinks++
		}
	}
	switch {
	case grows > 0 && shrinks == 0:
		return TrendGrowing
	case shrinks > 0:
		return TrendOscillating
	default:
		return TrendStable
	}
}

// Growing returns the keys currently classified as growing, sorted.
func (t *TrendTracker) Growing() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for key := range t.history {
		if t.verdictLocked(key) == TrendGrowing {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
