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
func ScanSnapshot(service, instance string, takenAt time.Time, r io.Reader) (*Snapshot, error) {
	snap, err := scanSnapshotPartial(service, instance, takenAt, r)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// scannerPool recycles stack.Scanners (a 64KiB line buffer plus warm
// intern/header/location caches each) across profile scans. The ingest
// hot path runs one scan per POSTed dump; without pooling every dump
// pays the buffer allocation and re-interns the fleet's identical
// strings from scratch.
var scannerPool sync.Pool

// scanSnapshotPartial is the shared counting scan behind
// ScanSnapshot and the archive replay path. Unlike the exported
// entry point it keeps what it scanned: on a mid-body error the partial
// snapshot (members counted before the corruption) is returned alongside
// the error — nil only when nothing was salvaged — so archive replay can
// keep a torn member's valid prefix. Callers that keep the partial are
// responsible for saying so in any surfaced error; the error here makes
// no salvage claim, since ScanSnapshot discards the partial.
func scanSnapshotPartial(service, instance string, takenAt time.Time, r io.Reader) (*Snapshot, error) {
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
	if err := sc.Err(); err != nil {
		err = fmt.Errorf("gprofile: scanning %s/%s: %w", service, instance, err)
		if snap.TotalGoroutines == 0 {
			return nil, err
		}
		return snap, err
	}
	return snap, nil
}

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
