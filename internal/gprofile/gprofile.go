// Package gprofile implements the goroutine-profile formats served by the
// Go pprof endpoint and a self-contained HTTP handler equivalent to
// net/http/pprof's /debug/pprof/goroutine, built directly on the runtime
// Stacks API.
//
// LEAKPROF (Section V of the paper) consumes these profiles: every service
// instance exposes the endpoint, the collector fetches a snapshot per
// instance per day, and the analyzer inspects the parsed goroutines.
//
// Two text encodings exist:
//
//   - debug=2: the full stack dump, identical to runtime.Stack output with
//     per-goroutine state headers. This is the LEAKPROF input because it
//     carries the blocking state ("chan send", "select", ...).
//   - debug=1: the aggregated form, one record per unique stack with an
//     occurrence count ("N @ pc1 pc2 ..." followed by symbolised frames).
//     It is cheaper to transfer but drops the state string.
package gprofile

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stack"
)

// Record is one aggregated stack in a debug=1 profile: Count goroutines
// share the identical call stack.
type Record struct {
	// Count is the number of goroutines with this stack.
	Count int
	// Frames is the shared call stack, leaf first.
	Frames []stack.Frame
}

// Profile is a parsed debug=1 goroutine profile.
type Profile struct {
	// Total is the process-wide goroutine count from the header line.
	Total int
	// Records are the aggregated stacks, in file order.
	Records []Record
}

// Snapshot is one instance's goroutine profile as LEAKPROF consumes it:
// collection metadata plus the goroutine population in one of two forms —
// fully parsed records (Goroutines) or compact blocked-operation counts
// (PreAggregated). ScanSnapshot, the streaming collection path, produces
// only the compact form, and never builds a goroutine record to do so.
type Snapshot struct {
	// Service is the owning service name.
	Service string
	// Instance identifies the program instance (host, task id, or URL).
	Instance string
	// TakenAt is the collection timestamp.
	TakenAt time.Time
	// Goroutines are all goroutines in the instance at collection time.
	// Empty for snapshots built by ScanSnapshot, which aggregates while
	// scanning instead of retaining records.
	Goroutines []*stack.Goroutine
	// PreAggregated carries blocked-operation counts aggregated at the
	// source: ScanSnapshot counts them while streaming the profile body
	// (stack.Scanner.Tally: no goroutine record is built, only each
	// member's header and frames through the leaf are kept), and
	// large-scale simulators use them instead of materialising millions
	// of identical records. Wait durations are preserved in the
	// key so duration-sensitive filters still apply; CountByLocation and
	// the analyzer fold them away when grouping. Both representations
	// may coexist and are merged by every consumer.
	PreAggregated map[stack.BlockedOp]int
	// TotalGoroutines is the number of goroutines scanned, including
	// unblocked ones, when the snapshot was built by ScanSnapshot; zero
	// for snapshots carrying full records (use len(Goroutines)).
	TotalGoroutines int
	// Malformed counts goroutine members the scan dropped while
	// resyncing past corrupt headers (stack.Scanner.Malformed): the
	// per-dump diagnostic that a profile was salvaged rather than
	// decoded cleanly. Zero for a clean scan.
	Malformed int
}

// NumGoroutines returns the instance's goroutine population size in
// either representation.
func (s *Snapshot) NumGoroutines() int {
	if s.TotalGoroutines > 0 {
		return s.TotalGoroutines
	}
	n := len(s.Goroutines)
	for _, c := range s.PreAggregated {
		n += c
	}
	return n
}

// Aggregate folds full goroutine records into debug=1 form, grouping by
// identical frame sequences. Record order is deterministic: descending
// count, then lexicographic leaf function.
func Aggregate(gs []*stack.Goroutine) *Profile {
	type key string
	counts := make(map[key]*Record)
	for _, g := range gs {
		var sb strings.Builder
		for _, f := range g.Frames {
			sb.WriteString(f.Function)
			sb.WriteByte('|')
			sb.WriteString(f.File)
			sb.WriteByte('|')
			sb.WriteString(strconv.Itoa(f.Line))
			sb.WriteByte(';')
		}
		k := key(sb.String())
		if r, ok := counts[k]; ok {
			r.Count++
			continue
		}
		frames := make([]stack.Frame, len(g.Frames))
		copy(frames, g.Frames)
		counts[k] = &Record{Count: 1, Frames: frames}
	}
	p := &Profile{Total: len(gs)}
	for _, r := range counts {
		p.Records = append(p.Records, *r)
	}
	sort.Slice(p.Records, func(i, j int) bool {
		a, b := p.Records[i], p.Records[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return leafFn(a) < leafFn(b)
	})
	return p
}

func leafFn(r Record) string {
	if len(r.Frames) == 0 {
		return ""
	}
	return r.Frames[0].Function
}

// Format renders the profile in the debug=1 text encoding. Synthetic
// program counters are assigned per unique (function, line) pair since the
// structured form does not carry real addresses.
func (p *Profile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goroutine profile: total %d\n", p.Total)
	pcs := map[string]uint64{}
	nextPC := uint64(0x400000)
	pcOf := func(f stack.Frame) uint64 {
		k := f.Function + "|" + f.File + "|" + strconv.Itoa(f.Line)
		if pc, ok := pcs[k]; ok {
			return pc
		}
		nextPC += 0x40
		pcs[k] = nextPC
		return nextPC
	}
	for _, r := range p.Records {
		fmt.Fprintf(&b, "%d @", r.Count)
		for _, f := range r.Frames {
			fmt.Fprintf(&b, " %#x", pcOf(f))
		}
		b.WriteByte('\n')
		for _, f := range r.Frames {
			fmt.Fprintf(&b, "#\t%#x\t%s+%#x\t%s:%d\n",
				pcOf(f), f.Function, f.Offset, f.File, f.Line)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseProfile1 decodes the debug=1 text encoding produced by Format or by
// the real pprof endpoint.
func ParseProfile1(text string) (*Profile, error) {
	p := &Profile{}
	lines := strings.Split(text, "\n")
	var cur *Record
	for i, raw := range lines {
		line := strings.TrimRight(raw, "\r")
		switch {
		case strings.HasPrefix(line, "goroutine profile: total "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "goroutine profile: total "))
			if err != nil {
				return nil, fmt.Errorf("gprofile: bad total on line %d: %w", i+1, err)
			}
			p.Total = n
		case line == "":
			if cur != nil {
				p.Records = append(p.Records, *cur)
				cur = nil
			}
		case strings.HasPrefix(line, "#"):
			if cur == nil {
				return nil, fmt.Errorf("gprofile: frame line %d outside record", i+1)
			}
			f, err := parseFrameLine(line)
			if err != nil {
				return nil, fmt.Errorf("gprofile: line %d: %w", i+1, err)
			}
			cur.Frames = append(cur.Frames, f)
		default:
			// "N @ pc pc pc"
			at := strings.Index(line, " @")
			if at < 0 {
				continue // tolerate unknown annotations
			}
			n, err := strconv.Atoi(line[:at])
			if err != nil {
				return nil, fmt.Errorf("gprofile: bad count on line %d: %w", i+1, err)
			}
			if cur != nil {
				p.Records = append(p.Records, *cur)
			}
			cur = &Record{Count: n}
		}
	}
	if cur != nil {
		p.Records = append(p.Records, *cur)
	}
	return p, nil
}

// parseFrameLine parses "#\t0x4004c0\tmain.leak.func1+0x28\t/src/main.go:12".
func parseFrameLine(line string) (stack.Frame, error) {
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	if len(fields) < 3 {
		return stack.Frame{}, fmt.Errorf("malformed frame line %q", line)
	}
	var f stack.Frame
	fn := fields[1]
	if plus := strings.LastIndexByte(fn, '+'); plus > 0 {
		if off, err := strconv.ParseUint(strings.TrimPrefix(fn[plus+1:], "0x"), 16, 64); err == nil {
			f.Offset = off
			fn = fn[:plus]
		}
	}
	f.Function = fn
	loc := fields[2]
	colon := strings.LastIndexByte(loc, ':')
	if colon <= 0 {
		return stack.Frame{}, fmt.Errorf("malformed location in %q", line)
	}
	n, err := strconv.Atoi(loc[colon+1:])
	if err != nil {
		return stack.Frame{}, fmt.Errorf("malformed line number in %q", line)
	}
	f.File, f.Line = loc[:colon], n
	return f, nil
}

// ParseSnapshot decodes a debug=2 profile body into a Snapshot with fully
// parsed goroutine records. Collection paths that only need blocked-count
// aggregates should use ScanSnapshot, which streams the body instead of
// materialising it.
func ParseSnapshot(service, instance string, takenAt time.Time, body string) (*Snapshot, error) {
	gs, err := stack.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("gprofile: parsing %s/%s: %w", service, instance, err)
	}
	return &Snapshot{Service: service, Instance: instance, TakenAt: takenAt, Goroutines: gs}, nil
}

// ScanSnapshot streams a debug=2 profile body and returns a compact
// snapshot: per-(operation, location) blocked counts plus the total
// goroutine count, counted one member at a time by the scanner's Tally
// path. Collection never builds goroutine records: it holds neither the
// body nor a *stack.Goroutine per member, and allocates per distinct
// string in the dump, not per goroutine. Wait durations stay in the
// aggregation key (they are coarse, so cardinality is low) so criterion-2
// filters that inspect blocking durations behave exactly as on full
// records. This is the LEAKPROF collection path: peak memory per profile
// is O(distinct blocked locations), not O(goroutines).
func ScanSnapshot(service, instance string, takenAt time.Time, r io.Reader) (*Snapshot, error) {
	return ScanSnapshotWith(service, instance, takenAt, r, nil)
}

// ScanSnapshotWith is ScanSnapshot with a shared intern pool: strings the
// scan interns (function names, file paths, state annotations) are drawn
// from pool when non-nil, so a sweep's many fetches stop re-interning the
// fleet's identical strings once per Scanner.
func ScanSnapshotWith(service, instance string, takenAt time.Time, r io.Reader, pool *stack.InternPool) (*Snapshot, error) {
	snap, err := scanSnapshotPartial(service, instance, takenAt, r, pool)
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
// ScanSnapshotWith and the archive replay path. Unlike the exported
// entry point it keeps what it scanned: on a mid-body error the partial
// snapshot (members counted before the corruption) is returned alongside
// the error — nil only when nothing was salvaged — so archive replay can
// keep a torn member's valid prefix. Callers that keep the partial are
// responsible for saying so in any surfaced error; the error here makes
// no salvage claim, since ScanSnapshotWith discards the partial.
func scanSnapshotPartial(service, instance string, takenAt time.Time, r io.Reader, pool *stack.InternPool) (*Snapshot, error) {
	sc, ok := scannerPool.Get().(*stack.Scanner)
	if ok {
		sc.Reset(r)
	} else {
		sc = stack.NewScanner(r)
	}
	// Always (re)attach: a pooled scanner may carry a previous caller's
	// pool, and nil must restore private interning.
	sc.SetInternPool(pool)
	defer scannerPool.Put(sc)
	snap := &Snapshot{Service: service, Instance: instance, TakenAt: takenAt}
	sc.Tally(func(op stack.BlockedOp, n int, blocked bool) {
		// A count-annotated record (a pre-aggregated cluster written by
		// WriteSnapshot) stands for n identical goroutines.
		snap.TotalGoroutines += n
		if !blocked {
			return
		}
		if snap.PreAggregated == nil {
			snap.PreAggregated = make(map[stack.BlockedOp]int)
		}
		snap.PreAggregated[op] += n
	})
	snap.Malformed = sc.Malformed()
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
		op.WaitTime = 0
		counts[op] += n
	}
	for _, g := range s.Goroutines {
		op, ok := g.BlockedChannelOp()
		if !ok {
			continue
		}
		op.WaitTime = 0 // group irrespective of individual wait times
		counts[op] += g.Multiplicity()
	}
	return counts
}
