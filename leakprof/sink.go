package leakprof

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gprofile"
	"repro/internal/report"
)

// maxSweepFailures caps the per-failure detail a Sweep retains; Errors
// keeps the true total. A fleet-wide outage over 200K instances must not
// turn the sweep result into a 200K-element error slice.
const maxSweepFailures = 1000

// SweepFailure is one instance whose collection failed.
type SweepFailure struct {
	Service  string
	Instance string
	Err      error
}

// Sweep is one completed collection pass: what the engine hands every
// sink and returns from Pipeline.Sweep.
type Sweep struct {
	// At is the sweep's start timestamp.
	At time.Time
	// Source names the profile origin that fed the sweep.
	Source string
	// Profiles is the number of instance profiles folded in.
	Profiles int
	// Errors is the number of instances whose collection failed
	// (including instances short-circuited by an exhausted error
	// budget, and archive members that were salvaged only partially —
	// those also count toward Profiles; see SweepEnv.Fail).
	Errors int
	// Failures details the failed instances, capped at maxSweepFailures
	// entries; Errors carries the uncapped count.
	Failures []SweepFailure
	// FailedByService tallies failed instances per service, uncapped
	// (bounded by the number of services, not instances). It is what the
	// state journal records so the next sweep can seed its error budget.
	FailedByService map[string]int
	// Findings are the suspicious operations, ranked by impact.
	Findings []*Finding
	// Err is the source-level failure of the sweep as a whole (an
	// unlistable archive directory, a cancelled context); per-instance
	// failures are in Failures, and sink errors are joined into
	// Pipeline.Sweep's return value.
	Err error

	agg         *Aggregator
	momentsOnce sync.Once
	moments     []Moment
}

// fail counts one failed instance under the sweep's one failure rule: in
// Errors always; in FailedByService, the next sweep's error-budget seed,
// unless err wraps gprofile.ErrSalvaged (salvage is a diagnostic from a
// reachable instance, not downness); and in Failures up to
// maxSweepFailures. Callers serialise access.
func (s *Sweep) fail(service, instance string, err error) {
	s.Errors++
	if !errors.Is(err, gprofile.ErrSalvaged) {
		s.addFailed(service, 1)
	}
	if len(s.Failures) < maxSweepFailures {
		s.Failures = append(s.Failures, SweepFailure{Service: service, Instance: instance, Err: err})
	}
}

// addFailures adds failures counted under that rule elsewhere (a shard's
// report, an ingest window's admissions). Callers serialise access.
func (s *Sweep) addFailures(errs int, byService map[string]int, failures []SweepFailure) {
	s.Errors += errs
	for svc, n := range byService {
		s.addFailed(svc, n)
	}
	if room := maxSweepFailures - len(s.Failures); len(failures) > room {
		failures = failures[:room]
	}
	s.Failures = append(s.Failures, failures...)
}

func (s *Sweep) addFailed(service string, n int) {
	if s.FailedByService == nil {
		s.FailedByService = make(map[string]int)
	}
	s.FailedByService[service] += n
}

// Moments returns the aggregator's raw per-group streaming moments —
// every observed (service, operation, location) group, suspicious or
// not — for consumers that want pre-threshold signal (trend tracking,
// metrics). Computed lazily on first call: sinkless sweeps (detection
// over materialised snapshots, benchmarks) never pay for the export.
func (s *Sweep) Moments() []Moment {
	s.momentsOnce.Do(func() {
		if s.agg != nil {
			s.moments = s.agg.Moments()
		}
	})
	return s.moments
}

// Sink consumes a pipeline's output. Implementations receive streaming
// per-snapshot events during collection and the completed Sweep after.
//
// The pipeline runs every sink on its own goroutine over a bounded
// event queue: one sink's calls are serialised in event order, distinct
// sinks run concurrently, and a sink that falls further behind than its
// queue backpressures collection rather than buffering without bound.
// Implementations must still lock any state they expose to other
// goroutines (accessors like LastAlerts are called from outside the
// sink's worker).
type Sink interface {
	// Snapshot observes one collected instance snapshot as it is
	// scanned, before it is folded into the aggregator. It must not
	// retain snap past the call unless it owns the memory cost.
	Snapshot(snap *gprofile.Snapshot)
	// SweepDone observes the completed sweep. Errors are joined into
	// Pipeline.Sweep's return value.
	SweepDone(sweep *Sweep) error
}

// ReportSink files sweep findings through a Reporter: ownership routing,
// bug-DB dedup, top-N alerting — the paper's reporting tail as a
// pipeline sink.
type ReportSink struct {
	// Reporter files and routes alerts; required.
	Reporter *Reporter

	mu   sync.Mutex
	last []*report.Alert
	all  []*report.Alert
}

// Snapshot implements Sink; reporting consumes only sweep results.
func (s *ReportSink) Snapshot(*gprofile.Snapshot) {}

// SweepDone files the sweep's findings.
func (s *ReportSink) SweepDone(sweep *Sweep) error {
	alerts := s.Reporter.Report(sweep.Findings)
	s.mu.Lock()
	s.last = alerts
	s.all = append(s.all, alerts...)
	s.mu.Unlock()
	return nil
}

// LastAlerts returns the alerts for newly discovered defects from the
// most recent sweep.
func (s *ReportSink) LastAlerts() []*report.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Alerts returns every new-defect alert filed since the sink was
// created, across sweeps. Dedup bounds it: a defect alerts once per
// bug-DB lifetime, not once per sweep. It is the accumulator a
// multi-sweep replay reads after the last sweep.
func (s *ReportSink) Alerts() []*report.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*report.Alert(nil), s.all...)
}

// TrendSink feeds the aggregator's streaming moments into a TrendTracker
// after every sweep, giving cross-sweep verdicts the per-instance
// variance the old findings-total feed lacked.
type TrendSink struct {
	// Tracker accumulates cross-sweep history; required.
	Tracker *TrendTracker
}

// Snapshot implements Sink; trend tracking consumes only sweep results.
func (s *TrendSink) Snapshot(*gprofile.Snapshot) {}

// SweepDone records the sweep's moments.
func (s *TrendSink) SweepDone(sweep *Sweep) error {
	s.Tracker.ObserveMoments(sweep.At, sweep.Moments())
	return nil
}

// MetricsSink accumulates sweep telemetry — a lightweight stand-in for a
// metrics backend, and the hook operational dashboards attach to.
type MetricsSink struct {
	mu sync.Mutex
	t  MetricsTotals
}

// MetricsTotals is a MetricsSink's running state.
type MetricsTotals struct {
	// Sweeps is the number of completed sweeps.
	Sweeps int
	// Profiles and Goroutines count collected instance profiles and the
	// goroutines scanned inside them, across all sweeps.
	Profiles   int
	Goroutines int
	// Errors counts failed instances across all sweeps.
	Errors int
	// Findings counts reported suspicious operations across all sweeps;
	// LastFindings holds the most recent sweep's count.
	Findings     int
	LastFindings int
}

// Snapshot tallies one collected profile.
func (m *MetricsSink) Snapshot(snap *gprofile.Snapshot) {
	m.mu.Lock()
	m.t.Profiles++
	m.t.Goroutines += snap.TotalGoroutines
	m.mu.Unlock()
}

// SweepDone tallies the sweep result.
func (m *MetricsSink) SweepDone(sweep *Sweep) error {
	m.mu.Lock()
	m.t.Sweeps++
	m.t.Errors += sweep.Errors
	m.t.Findings += len(sweep.Findings)
	m.t.LastFindings = len(sweep.Findings)
	m.mu.Unlock()
	return nil
}

// Totals returns a copy of the running counters.
func (m *MetricsSink) Totals() MetricsTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// ArchiveSink records the sweep as it happens: every collected snapshot
// is written through to a debug=2 archive directory the moment it is
// scanned, so a production-scale sweep archives itself without ever
// materialising the dump slice. When the sweep completes, the sink
// finalises the directory with a manifest (sweep timestamp, snapshot
// index, format version), so replaying the archive reconstructs the
// sweep at its recorded time instead of the replay time.
//
// Each sweep lands in a fresh timestamp-manifested sweep-NNNN
// subdirectory of one base directory, the multi-sweep layout
// Pipeline.Replay walks in recorded order — the durable form of the
// paper's daily cadence. Archive replays one such subdirectory.
type ArchiveSink struct {
	base string // base dir holding one sweep-NNNN subdirectory per sweep
	keep int    // retention: max finalised sweeps kept (0 = unlimited)

	mu       sync.Mutex
	w        *gprofile.DirWriter
	seq      int
	writeErr error
	written  int
}

// ArchiveOption tunes an archive sink.
type ArchiveOption func(*ArchiveSink)

// KeepSweeps bounds the archive to the n most recently recorded
// finalised sweeps: after each sweep's manifest is written, the
// lowest-numbered sweep-NNNN subdirectories beyond n are pruned
// (rotation order, so a replay of old history recorded today still
// counts as today's sweep). Retention is manifest-aware — only
// finalised sweeps count toward (or are removed by) the bound, so an
// in-progress or torn sweep directory is never deleted. Zero keeps
// every sweep.
func KeepSweeps(n int) ArchiveOption {
	return func(s *ArchiveSink) {
		if n > 0 {
			s.keep = n
		}
	}
}

// NewSweepArchiveSink creates base and returns a rotating sink: each
// sweep lands in its own sweep-NNNN subdirectory with its own manifest.
// Rotation resumes after any sweeps already archived under base, so a
// restarted daily loop appends instead of overwriting history. With
// KeepSweeps the history is bounded: the oldest finalised sweeps are
// pruned so a multi-month daily archive stops growing monotonically.
func NewSweepArchiveSink(base string, opts ...ArchiveOption) (*ArchiveSink, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("leakprof: creating archive base %s: %w", base, err)
	}
	s := &ArchiveSink{base: base}
	for _, opt := range opts {
		opt(s)
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		return nil, fmt.Errorf("leakprof: reading archive base %s: %w", base, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "sweep-")
		if !ok {
			continue // unrelated subdirectory, not a rotation
		}
		if n, err := strconv.Atoi(rest); err == nil && n > s.seq {
			s.seq = n
		}
	}
	return s, nil
}

// Dir returns the archive's base directory.
func (s *ArchiveSink) Dir() string { return s.base }

// Written returns the number of snapshots archived so far, across all
// sweeps.
func (s *ArchiveSink) Written() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// writer returns the current sweep's directory writer, opening the next
// rotation subdirectory on demand.
func (s *ArchiveSink) writer() (*gprofile.DirWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		return s.w, nil
	}
	s.seq++
	w, err := gprofile.NewDirWriter(filepath.Join(s.base, fmt.Sprintf("sweep-%04d", s.seq)))
	if err != nil {
		return nil, err
	}
	s.w = w
	return w, nil
}

// Snapshot writes one snapshot through to disk.
func (s *ArchiveSink) Snapshot(snap *gprofile.Snapshot) {
	w, err := s.writer()
	if err == nil {
		err = w.Write(snap)
	}
	s.mu.Lock()
	if err != nil && s.writeErr == nil {
		s.writeErr = err
	}
	if err == nil {
		s.written++
	}
	s.mu.Unlock()
}

// SweepDone finalises the sweep's directory with its manifest — stamped
// with the sweep's recorded time — rotates, prunes sweeps beyond the
// retention bound, and surfaces the first write error of the sweep, if
// any.
func (s *ArchiveSink) SweepDone(sweep *Sweep) error {
	s.mu.Lock()
	w, err := s.w, s.writeErr
	s.writeErr = nil
	s.w = nil // next sweep rotates into a fresh subdirectory
	s.mu.Unlock()
	if w == nil {
		return err // empty sweep: nothing archived
	}
	if merr := w.WriteManifest(sweep.At, sweep.Source); err == nil {
		err = merr
	}
	if perr := s.prune(); err == nil {
		err = perr
	}
	return err
}

// prune deletes the lowest-numbered finalised sweep subdirectories
// beyond the retention bound. Only directories with a readable manifest
// are candidates — a directory still being written (no manifest yet) or
// torn (corrupt manifest) is left alone. Ordering is by rotation
// sequence, i.e. recording order, not by the manifested sweep time: a
// replay of old history recorded into a retained archive is still the
// newest recording and must survive its own finalisation.
func (s *ArchiveSink) prune() error {
	if s.keep <= 0 {
		return nil
	}
	entries, err := os.ReadDir(s.base)
	if err != nil {
		return fmt.Errorf("leakprof: pruning archive %s: %w", s.base, err)
	}
	type rotation struct {
		seq int
		dir string
	}
	var finalised []rotation
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "sweep-")
		if !ok {
			continue
		}
		seq, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		sub := filepath.Join(s.base, e.Name())
		if m, merr := gprofile.ReadManifest(sub); merr != nil || m == nil {
			continue // in-progress or torn: never a prune candidate
		}
		finalised = append(finalised, rotation{seq: seq, dir: sub})
	}
	sort.Slice(finalised, func(i, j int) bool { return finalised[i].seq < finalised[j].seq })
	for _, r := range finalised[:max(0, len(finalised)-s.keep)] {
		if err := os.RemoveAll(r.dir); err != nil {
			return fmt.Errorf("leakprof: pruning archived sweep %s: %w", r.dir, err)
		}
	}
	return nil
}
