package leakprof

import (
	"math"
	"slices"
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

// TrendObservation is one sweep's fleet-wide count for a finding key,
// plus — when fed from aggregator moments — the per-instance dispersion
// that lets the verdict separate growth from sampling noise. It is the
// form the tracker keeps its history in and the one StateStore journals,
// so trend history survives a restart. The slices Export hands out are
// that live history, shared read-only.
type TrendObservation struct {
	// At is the sweep timestamp the observation was recorded under.
	At time.Time `json:"at"`
	// Total is the fleet-wide blocked count for the key.
	Total int `json:"total"`
	// Profiles and SumSquares carry the service's profiled-instance
	// count and the sum of squared per-instance counts; zero when no
	// variance was recorded.
	Profiles   int     `json:"profiles,omitempty"`
	SumSquares float64 `json:"sum_squares,omitempty"`
}

// noise returns the expected relative fluctuation of the observation's
// total under per-instance dispersion: the standard deviation of a
// re-sampled total (sigma * sqrt(n) for n instances with per-instance
// std sigma) relative to the total itself. Zero when no variance
// information was recorded.
func (o TrendObservation) noise() float64 {
	if o.Profiles <= 0 || o.Total <= 0 {
		return 0
	}
	n := float64(o.Profiles)
	mean := float64(o.Total) / n
	variance := o.SumSquares/n - mean*mean
	if variance <= 0 {
		return 0
	}
	return math.Sqrt(variance*n) / float64(o.Total)
}

// stableBand is the relative fluctuation a trend verdict treats as flat
// (±15%).
const stableBand = 0.15

// Horizon is how far back trend history reaches: the latest Horizon
// distinct times at which a sweep observed something. Counting sweeps,
// not time, bounds daily pulls (a month) and minute windows (half an hour).
const Horizon = 30

// TrendTracker accumulates per-location counts across the last Horizon
// sweeps; older observations are out of its exports and verdicts. Its
// observation, export, and verdict methods are safe for concurrent use,
// but MinObservations must be set before the first observation.
type TrendTracker struct {
	// MinObservations before a verdict is issued; default 3.
	MinObservations int

	mu sync.Mutex
	// history holds each key's observations in record order. Export and
	// the journal share its slices, so nothing may write into one in
	// place: record only appends, and its trim copies.
	history map[string][]TrendObservation
	// unjournaled counts, per key, the observations at the tail of its
	// history recorded since the last takeNew: the per-sweep delta an
	// append-only journal persists. Restored history is never counted —
	// it came from the journal.
	unjournaled map[string]int
	// times holds the horizon's times, ascending, rebuilt on replay; start
	// is their oldest once there are Horizon of them, zero until then.
	times []time.Time
	start time.Time
}

// noteTime counts a time at which a sweep observed something.
func (t *TrendTracker) noteTime(at time.Time) {
	if i, found := slices.BinarySearchFunc(t.times, at, time.Time.Compare); !found {
		t.times = slices.Insert(t.times, i, at)
		if t.times = t.times[max(0, len(t.times)-Horizon):]; len(t.times) == Horizon {
			t.start = t.times[0]
		}
	}
}

// visible returns the observations of obs at or after start: a subslice
// when the older ones lead, as they do in time order, else a copy.
func visible(obs []TrendObservation, start time.Time) []TrendObservation {
	hidden := func(o TrendObservation) bool { return o.At.Before(start) }
	for len(obs) > 0 && hidden(obs[0]) {
		obs = obs[1:]
	}
	if slices.ContainsFunc(obs, hidden) {
		// Out of time order. The history is shared: filter a copy.
		return slices.DeleteFunc(slices.Clone(obs), hidden)
	}
	return obs
}

// record appends one observation to a key's history and counts it as
// unjournaled. At 2×Horizon observations the history is copied down to
// the horizon: one copy per Horizon appends, never a shift in place.
func (t *TrendTracker) record(key string, o TrendObservation) {
	if t.history == nil {
		t.history = map[string][]TrendObservation{}
	}
	if t.unjournaled == nil {
		t.unjournaled = map[string]int{}
	}
	obs := append(t.history[key], o)
	t.unjournaled[key]++
	if len(obs) >= 2*Horizon {
		if vis := visible(obs, t.start); len(vis) < len(obs) {
			for _, old := range obs[len(obs)-min(t.unjournaled[key], len(obs)):] {
				if old.At.Before(t.start) {
					t.unjournaled[key]--
				}
			}
			obs = append(make([]TrendObservation, 0, len(vis)+Horizon), vis...)
		}
	}
	t.history[key] = obs
}

// ObserveMoments records one sweep's aggregator moments — the feed the
// pipeline's TrendSink uses. It sees every observed group (not just
// above-threshold findings, so a leak's early growth is on record before
// it first crosses the threshold) and retains the per-instance
// dispersion, making verdicts variance-aware: a fleet whose instances
// disagree wildly about a location needs a bigger sweep-over-sweep
// change to be called growing.
func (t *TrendTracker) ObserveMoments(at time.Time, moments []Moment) {
	// Aggregation groups by the full operation (Function, NilChannel
	// included) while the trend key — like Finding.Key — folds those
	// away, so one sweep can hand us several moments per key. Merge
	// them first: appending two same-timestamp observations would read
	// as a bogus sweep-over-sweep transition.
	merged := make(map[string]TrendObservation, len(moments))
	for _, m := range moments {
		if m.Total <= 0 {
			continue
		}
		key := m.Key()
		o := merged[key]
		o.At = at
		o.Total += m.Total
		o.SumSquares += m.SumSquares
		if m.ServiceProfiles > o.Profiles {
			o.Profiles = m.ServiceProfiles
		}
		merged[key] = o
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(merged) > 0 {
		t.noteTime(at)
	}
	for key, o := range merged {
		t.record(key, o)
	}
}

// Export returns the tracker's cross-sweep history within the horizon,
// keyed by finding key, each key's observations in record order; a key
// with none leaves the tracker. The slices are its live history, capped
// at their length: read them, never write into them. This is what a
// journal snapshot (compaction) persists.
func (t *TrendTracker) Export() map[string][]TrendObservation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exportLocked()
}

func (t *TrendTracker) exportLocked() map[string][]TrendObservation {
	out := make(map[string][]TrendObservation, len(t.history))
	for key, obs := range t.history {
		if obs = visible(obs, t.start); len(obs) > 0 {
			out[key] = slices.Clip(obs)
		} else {
			delete(t.history, key)
			delete(t.unjournaled, key)
		}
	}
	return out
}

// takeNew returns the observations recorded since the last takeNew, as
// Export's live slices, and clears the unjournaled counts: the per-sweep
// delta an append-only journal persists instead of re-writing every
// key's history.
func (t *TrendTracker) takeNew() map[string][]TrendObservation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.takeNewLocked()
}

func (t *TrendTracker) takeNewLocked() map[string][]TrendObservation {
	if len(t.unjournaled) == 0 {
		return nil
	}
	out := make(map[string][]TrendObservation, len(t.unjournaled))
	for key, n := range t.unjournaled {
		// The horizon may have dropped unjournaled observations; the
		// journal's replay would drop them the same way.
		obs := t.history[key]
		out[key] = slices.Clip(obs[len(obs)-min(n, len(obs)):])
	}
	clear(t.unjournaled)
	return out
}

// exportTakeNew is Export and takeNew in one critical section, the
// capture a journal fold takes: an observation recorded concurrently
// lands in both the export and the drained delta or in neither, so the
// snapshot and the deltas journaled after it never hold it twice and
// never lose it. start is the horizon's oldest time, or zero.
func (t *TrendTracker) exportTakeNew() (history, taken map[string][]TrendObservation, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exportLocked(), t.takeNewLocked(), t.start
}

// restore replaces the whole history with a journal snapshot's, adopting
// its map and slices, and rebuilds the horizon from its observations:
// the restart path StateStore replays so verdicts resume with
// yesterday's moments instead of starting blind. Restored observations
// are never unjournaled.
func (t *TrendTracker) restore(history map[string][]TrendObservation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.history, t.times, t.start = history, t.times[:0], time.Time{}
	for _, obs := range history {
		for _, o := range obs {
			t.noteTime(o.At)
		}
	}
	clear(t.unjournaled)
}

// requeueNew counts a takeNew delta as unjournaled again — the undo hook
// for a journal whose append failed after the drain. Its observations
// are still in the history, ahead of anything recorded since.
func (t *TrendTracker) requeueNew(delta map[string][]TrendObservation) {
	if len(delta) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.unjournaled == nil {
		t.unjournaled = make(map[string]int, len(delta))
	}
	for key, obs := range delta {
		t.unjournaled[key] += len(obs)
	}
}

// hasPending reports whether observations await the next takeNew — what
// a journal Flush checks before deciding a delta frame is needed.
func (t *TrendTracker) hasPending() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.unjournaled) > 0
}

// restoreDelta appends a delta frame's observations to the history — the
// journal-replay path for delta records, where each frame carries only
// what one sweep added and replay must accumulate frames in order rather
// than replace. A key with no history yet adopts the frame's slice.
func (t *TrendTracker) restoreDelta(delta map[string][]TrendObservation) {
	if len(delta) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.history == nil {
		t.history = make(map[string][]TrendObservation, len(delta))
	}
	for key, obs := range delta {
		for _, o := range obs {
			t.noteTime(o.At)
		}
		if cur := t.history[key]; len(cur) > 0 {
			obs = append(cur, obs...)
		}
		t.history[key] = obs
	}
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
	obs := visible(t.history[key], t.start)
	if len(obs) < min {
		return TrendUnknown
	}
	// Record order is time order unless an out-of-order record (an old
	// archive replayed into a live state dir) landed; the history is
	// shared, so such a key is read from a sorted copy.
	byTime := func(a, b TrendObservation) int { return a.At.Compare(b.At) }
	if !slices.IsSortedFunc(obs, byTime) {
		obs = slices.Clone(obs)
		slices.SortStableFunc(obs, byTime)
	}

	grows, shrinks := 0, 0
	for i := 1; i < len(obs); i++ {
		prev, cur := obs[i-1].Total, obs[i].Total
		base := prev
		if base == 0 {
			base = 1
		}
		// Variance-aware band: a step must clear both the stable band
		// and twice the sampling noise implied by the previous sweep's
		// per-instance dispersion. An observation with no variance
		// recorded gets exactly stableBand.
		eff := stableBand
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
