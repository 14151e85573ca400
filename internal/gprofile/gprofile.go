// Package gprofile implements the goroutine-profile format served by the
// Go pprof endpoint at ?debug=2 and a self-contained HTTP handler serving
// it, built directly on the runtime Stacks API.
//
// LEAKPROF (Section V of the paper) consumes these profiles: every service
// instance exposes the endpoint, the collector fetches a snapshot per
// instance per day, and the scan counts its channel-blocked goroutines
// by operation and location; the analyzer reads only those counts.
//
// The debug=2 encoding is the full stack dump, identical to runtime.Stack
// output with per-goroutine state headers. It is the LEAKPROF input
// because it carries the blocking state ("chan send", "select", ...).
package gprofile

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/stack"
)

// Snapshot is one instance's goroutine profile as LEAKPROF consumes it:
// collection metadata plus the population as counts — how many
// goroutines are blocked at each channel operation and source location,
// and how many goroutines there are in all. ScanSnapshot builds it while
// streaming a dump, without building a goroutine record; simulators
// build it directly.
type Snapshot struct {
	// Service is the owning service name.
	Service string
	// Instance identifies the program instance (host, task id, or URL).
	Instance string
	// TakenAt is the collection timestamp.
	TakenAt time.Time
	// PreAggregated counts the channel-blocked goroutines per
	// (operation, location). Wait durations are preserved in the key
	// so duration-sensitive filters still apply; CountByLocation and
	// the analyzer fold them away when grouping.
	PreAggregated map[stack.BlockedOp]int
	// TotalGoroutines is the instance's whole goroutine population,
	// blocked or not.
	TotalGoroutines int
	// Malformed counts goroutine members the scan dropped: those lost
	// while resyncing past corrupt headers (stack.Scanner.Malformed),
	// and channel-blocked members with no frame outside the runtime to
	// locate them, which count in TotalGoroutines but not in
	// PreAggregated. It is the per-dump diagnostic that a profile was
	// salvaged rather than decoded cleanly. Zero for a clean scan.
	Malformed int
}

// ErrSalvaged marks failure reports about profiles that were decoded by
// skipping corrupt goroutine members rather than lost outright: the
// snapshot was still emitted and its instance was reachable. Consumers
// that treat failures as service-health signals (error budgets) should
// test for it with errors.Is and exempt these — a service serving noisy
// dumps is not a service that is down.
var ErrSalvaged = errors.New("profile salvaged")

// ScanSnapshot streams a debug=2 profile body and returns its counts:
// per-(operation, location) blocked counts plus the total goroutine
// count, counted one member at a time by the scanner's Tally path. It
// holds neither the body nor a *stack.Goroutine per member, and
// allocates per distinct string in the dump, not per goroutine. Wait
// durations stay in the aggregation key (they are coarse, so
// cardinality is low) so criterion-2 filters that inspect blocking
// durations see them. The scan draws a pooled scanner, whose intern
// table keeps the fleet's function names, file paths and state
// annotations from one dump to the next. This is the LEAKPROF
// collection path: peak memory per profile is O(distinct blocked
// locations), not O(goroutines).
//
// Its result is the one verdict on a body that every collection door
// acts on, by reporting the error when it is set and folding the
// snapshot when it is set:
//
//   - (snap, nil): a clean profile. An empty body is a profile of zero
//     goroutines, which is what DirWriter leaves for an instance with
//     nothing blocked.
//   - (snap, err): the scan dropped members (snap.Malformed > 0) and
//     kept the rest; err wraps ErrSalvaged.
//   - (nil, err): the read failed, or a non-empty body held no
//     goroutine member. Nothing is counted.
func ScanSnapshot(service, instance string, takenAt time.Time, r io.Reader) (*Snapshot, error) {
	sc, ok := scannerPool.Get().(*stack.Scanner)
	if ok {
		sc.Reset(r)
	} else {
		sc = stack.NewScanner(r)
	}
	defer scannerPool.Put(sc)
	snap := &Snapshot{Service: service, Instance: instance, TakenAt: takenAt}
	sc.Tally(func(op stack.BlockedOp, n int, blocked bool) {
		// A count-annotated record (a pre-aggregated cluster written by
		// WriteSnapshot) stands for n identical goroutines.
		snap.TotalGoroutines += n
		if !blocked {
			return
		}
		if op.Function == "" {
			// No frame outside the runtime survived (a member cut after
			// its header, or frames that did not parse): there is no
			// location to file the operation at, so the member is lost
			// like one with a corrupt header.
			snap.Malformed++
			return
		}
		if snap.PreAggregated == nil {
			snap.PreAggregated = make(map[stack.BlockedOp]int)
		}
		snap.PreAggregated[op] += n
	})
	snap.Malformed += sc.Malformed()
	switch {
	case sc.Err() != nil:
		return nil, fmt.Errorf("gprofile: scanning %s/%s: %w", service, instance, sc.Err())
	case snap.Malformed > 0:
		return snap, fmt.Errorf("gprofile: %w: %s/%s skipped %d malformed goroutine members", ErrSalvaged, service, instance, snap.Malformed)
	case snap.TotalGoroutines == 0 && sc.Lines() > 0:
		return nil, fmt.Errorf("gprofile: %s/%s holds no goroutine dump", service, instance)
	}
	return snap, nil
}

// scannerPool recycles stack.Scanners (a 64KiB line buffer plus warm
// intern/header/location caches each) across profile scans. The ingest
// hot path runs one scan per POSTed dump; without pooling every dump
// pays the buffer allocation and re-interns the fleet's identical
// strings from scratch.
var scannerPool sync.Pool

// CountByLocation groups the snapshot's channel-blocked goroutines by
// (operation, source location) — the LEAKPROF per-profile aggregation of
// Section V-A.
func (s *Snapshot) CountByLocation() map[stack.BlockedOp]int {
	counts := make(map[stack.BlockedOp]int, len(s.PreAggregated))
	for op, n := range s.PreAggregated {
		op.WaitTime = 0 // group irrespective of individual wait times
		counts[op] += n
	}
	return counts
}
