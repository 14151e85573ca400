// Package report implements the reporting tail of the LEAKPROF pipeline
// (Fig 3 of the paper): deduplication of findings against a bug database,
// code-ownership routing, and rendering of the alert payload that reaches
// service owners.
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Status tracks the lifecycle of a filed defect; the paper reports 33
// filed, 24 acknowledged, 21 fixed over one year.
type Status int

const (
	// StatusFiled is a newly created report.
	StatusFiled Status = iota
	// StatusAcknowledged means the owners confirmed a real defect.
	StatusAcknowledged
	// StatusFixed means a fix was deployed.
	StatusFixed
	// StatusRejected means the owners triaged it as a false positive.
	StatusRejected
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusFiled:
		return "filed"
	case StatusAcknowledged:
		return "acknowledged"
	case StatusFixed:
		return "fixed"
	case StatusRejected:
		return "rejected"
	}
	return "unknown"
}

// Bug is one filed defect.
type Bug struct {
	// Key is the dedup key (service+operation+location).
	Key string
	// Service, Op, Location, Function describe the offending operation.
	Service  string
	Op       string
	Location string
	Function string
	// Owner is the routed code owner.
	Owner string
	// BlockedGoroutines is the fleet-wide count at filing time.
	BlockedGoroutines int
	// Impact is the ranking statistic at filing time.
	Impact float64
	// FiledAt is the filing timestamp.
	FiledAt time.Time
	// LastSeen is the timestamp of the most recent sweep that observed
	// the defect; it advances on every dedup re-sighting. Zero on bugs
	// restored from journals written before the field existed — age-out
	// falls back to FiledAt for those.
	LastSeen time.Time
	// Status is the current lifecycle state.
	Status Status
	// Sightings counts how many sweeps re-observed the defect.
	Sightings int
	// StaticAlarm is the static-analysis annotation for the bug's site,
	// when a findings index was linked at filing time: which detectors
	// flagged the location and why (e.g. "gcatch-like,goat-like: send on
	// chan with no reachable receiver"). Empty when no static index was
	// consulted or no detector flagged the site.
	StaticAlarm string `json:",omitempty"`
}

// closed reports whether the bug's lifecycle is over: fixed or triaged
// away. Only closed bugs are age-out candidates — an open bug must keep
// deduplicating forever, however old.
func (b *Bug) closed() bool {
	return b.Status == StatusFixed || b.Status == StatusRejected
}

// DB is an in-memory bug database with dedup semantics: filing an already
// known key updates the sighting count instead of creating a duplicate.
// It is safe for concurrent use.
//
// The database tracks which bugs changed since the last TakeDirty call —
// new filings, re-sightings, status transitions — so an incremental
// journal can persist exactly the sweep's delta instead of re-writing
// every bug ever filed.
type DB struct {
	mu    sync.Mutex
	bugs  map[string]*Bug
	dirty map[string]struct{}
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{bugs: make(map[string]*Bug), dirty: make(map[string]struct{})}
}

// File records a defect. It returns the stored bug and whether it was
// newly created (false means the finding deduplicated onto an existing
// report, whose counters are refreshed). Either way the key is marked
// dirty: a re-sighting changes counters the journal must capture.
func (db *DB) File(b Bug) (*Bug, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dirty[b.Key] = struct{}{}
	seen := b.LastSeen
	if seen.IsZero() {
		seen = b.FiledAt
	}
	if existing, ok := db.bugs[b.Key]; ok {
		existing.Sightings++
		if b.BlockedGoroutines > existing.BlockedGoroutines {
			existing.BlockedGoroutines = b.BlockedGoroutines
		}
		if b.Impact > existing.Impact {
			existing.Impact = b.Impact
		}
		if seen.After(existing.LastSeen) {
			existing.LastSeen = seen
		}
		if b.StaticAlarm != "" {
			// A re-sighting filed with a fresher static index wins: the
			// annotation tracks the current scan, not the first one.
			existing.StaticAlarm = b.StaticAlarm
		}
		return existing, false
	}
	stored := b
	stored.Sightings = 1
	stored.LastSeen = seen
	db.bugs[b.Key] = &stored
	return &stored, true
}

// Restore loads previously filed bugs — a persisted journal read back at
// startup — preserving their status, sighting counts, and filing times,
// so dedup survives a process restart. Restored keys overwrite any
// in-memory entry; filing the same key later deduplicates as usual.
// Restored bugs are not marked dirty: they came from the journal, so
// journalling them again would be redundant.
func (db *DB) Restore(bugs []Bug) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, b := range bugs {
		stored := b
		if stored.Sightings == 0 {
			stored.Sightings = 1
		}
		db.bugs[stored.Key] = &stored
	}
}

// SetStatus transitions a bug's lifecycle state and marks the key dirty.
func (db *DB) SetStatus(key string, s Status) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	b, ok := db.bugs[key]
	if !ok {
		return false
	}
	b.Status = s
	db.dirty[key] = struct{}{}
	return true
}

// TakeDirty returns copies of every bug changed since the last TakeDirty
// (or since the database was created) sorted by key, and clears the dirty
// set. It is the delta-export hook an append-only journal uses: the
// returned slice is exactly what one sweep changed, not the whole
// database. Keys marked dirty but since deleted are skipped.
func (db *DB) TakeDirty() []Bug {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.dirty) == 0 {
		return nil
	}
	out := make([]Bug, 0, len(db.dirty))
	for key := range db.dirty {
		if b, ok := db.bugs[key]; ok {
			out = append(out, *b)
		}
	}
	db.dirty = make(map[string]struct{})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// DropAged removes closed (fixed or rejected) bugs whose last sighting —
// FiledAt when no sighting was ever recorded — predates cutoff, and
// returns how many were dropped. Open bugs are never dropped, whatever
// their age: dedup against a still-open report must survive until the
// owners resolve it. Dirty bugs are never dropped either — a closing
// status transition that has not been journaled yet must reach the
// journal first, or replay would resurrect the bug as open; it ages out
// on the pass after the delta carrying its final status is taken.
func (db *DB) DropAged(cutoff time.Time) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	dropped := 0
	for key, b := range db.bugs {
		if !b.closed() {
			continue
		}
		if _, pending := db.dirty[key]; pending {
			continue
		}
		seen := b.LastSeen
		if seen.IsZero() {
			seen = b.FiledAt
		}
		if seen.Before(cutoff) {
			delete(db.bugs, key)
			dropped++
		}
	}
	return dropped
}

// MarkDirty re-marks keys for the next TakeDirty. It is the undo hook
// for a journal whose append failed after draining the dirty set: the
// delta was never persisted, so its keys must surface again.
func (db *DB) MarkDirty(keys ...string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, key := range keys {
		db.dirty[key] = struct{}{}
	}
}

// DirtyCount returns the number of keys changed since the last TakeDirty.
func (db *DB) DirtyCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.dirty)
}

// Get returns a copy of the bug for key.
func (db *DB) Get(key string) (Bug, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	b, ok := db.bugs[key]
	if !ok {
		return Bug{}, false
	}
	return *b, true
}

// All returns copies of all bugs sorted by filing time then key. It
// sorts pointers and copies each bug once, into its final place.
func (db *DB) All() []Bug {
	db.mu.Lock()
	defer db.mu.Unlock()
	ptrs := make([]*Bug, 0, len(db.bugs))
	for _, b := range db.bugs {
		ptrs = append(ptrs, b)
	}
	sort.Slice(ptrs, func(i, j int) bool {
		if !ptrs[i].FiledAt.Equal(ptrs[j].FiledAt) {
			return ptrs[i].FiledAt.Before(ptrs[j].FiledAt)
		}
		return ptrs[i].Key < ptrs[j].Key
	})
	out := make([]Bug, len(ptrs))
	for i, b := range ptrs {
		out[i] = *b
	}
	return out
}

// CountByStatus tallies bugs per lifecycle state (the §VII headline
// numbers).
func (db *DB) CountByStatus() map[Status]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	m := make(map[Status]int)
	for _, b := range db.bugs {
		m[b.Status]++
	}
	return m
}

// Ownership maps source paths to owning teams, the way a CODEOWNERS file
// does: the longest registered path prefix wins.
type Ownership struct {
	mu       sync.RWMutex
	prefixes map[string]string
}

// NewOwnership builds an ownership map from prefix→owner pairs.
func NewOwnership(prefixes map[string]string) *Ownership {
	o := &Ownership{prefixes: make(map[string]string, len(prefixes))}
	for p, owner := range prefixes {
		o.prefixes[p] = owner
	}
	return o
}

// Register adds or replaces a prefix rule.
func (o *Ownership) Register(prefix, owner string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.prefixes == nil {
		o.prefixes = make(map[string]string)
	}
	o.prefixes[prefix] = owner
}

// OwnerOf resolves the owner for a source location ("path/file.go:12").
// The longest matching prefix wins; unmatched locations return "unowned".
func (o *Ownership) OwnerOf(location string) string {
	path := location
	if i := strings.LastIndexByte(path, ':'); i > 0 {
		path = path[:i]
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	best, bestLen := "unowned", -1
	for prefix, owner := range o.prefixes {
		if strings.HasPrefix(path, prefix) && len(prefix) > bestLen {
			best, bestLen = owner, len(prefix)
		}
	}
	return best
}

// Alert is the rendered payload sent to a code owner, carrying the fields
// Section V-A lists: the offending operation with source location and
// blocked-goroutine count, the representative profile, and the memory
// footprint.
type Alert struct {
	Bug Bug
	// RepresentativeInstance is the instance with the largest cluster.
	RepresentativeInstance string
	// RepresentativeCount is that instance's blocked count.
	RepresentativeCount int
	// MemoryFootprint describes the leak's memory trend, when available.
	MemoryFootprint string
}

// Render formats the alert as the multi-line report text.
func (a *Alert) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[leakprof] suspected goroutine leak in %s (owner: %s)\n", a.Bug.Service, a.Bug.Owner)
	fmt.Fprintf(&b, "  operation:      chan %s at %s (%s)\n", a.Bug.Op, a.Bug.Location, a.Bug.Function)
	fmt.Fprintf(&b, "  blocked:        %d goroutines fleet-wide (impact %.1f)\n", a.Bug.BlockedGoroutines, a.Bug.Impact)
	fmt.Fprintf(&b, "  representative: %s with %d blocked goroutines\n", a.RepresentativeInstance, a.RepresentativeCount)
	if a.MemoryFootprint != "" {
		fmt.Fprintf(&b, "  memory:         %s\n", a.MemoryFootprint)
	}
	if a.Bug.StaticAlarm != "" {
		fmt.Fprintf(&b, "  static:         %s\n", a.Bug.StaticAlarm)
	}
	fmt.Fprintf(&b, "  status:         %s (sightings: %d)\n", a.Bug.Status, a.Bug.Sightings)
	return b.String()
}
