package leakprof

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/frame"
	"repro/internal/report"
)

// StateManifestName is the segmented journal's manifest: a tiny pointer
// document naming the first live segment. Compaction makes its fold
// atomic by writing the new snapshot segment first and then swinging
// this pointer; only segments at or after the pointer are live.
const StateManifestName = "journal.json"

// StateVersion is the journal format version: a segmented log of binary
// frames with segment-scoped string dictionaries. It is the only format
// this build reads or writes. A state dir in any other format — format 1
// was a monolithic state.json, format 2 the segmented log with JSON
// frames — is refused at open with an error naming both versions, never
// opened empty: an empty store would re-alert every owner of every bug
// the journal had filed.
const StateVersion = 3

// legacyStateFile is format 1's monolithic journal; its presence in a
// state dir fails the open.
const legacyStateFile = "state.json"

// Compaction defaults: the active segment rolls over past
// DefaultStateSegmentBytes, and once more than DefaultStateMaxSegments
// segments are live the store folds them into one snapshot segment.
const (
	DefaultStateSegmentBytes = int64(4 << 20)
	DefaultStateMaxSegments  = 8
)

// journalRecord is one frame's payload. A "delta" frame carries what one
// sweep changed — the dirty bugs, the new trend observations, the sweep
// outcome — and replays by accumulation; a "snapshot" frame carries the
// whole state and replays by replacement, which is what makes compaction
// (and its crash windows) safe: replaying old deltas and then a snapshot
// yields exactly the snapshot's state.
type journalRecord struct {
	Kind    string // recordDelta or recordSnapshot
	SavedAt time.Time
	Bugs    []report.Bug
	Trend   map[string][]TrendObservation
	Sweep   *SweepRecord
}

const (
	recordDelta    = "delta"
	recordSnapshot = "snapshot"
)

// stateManifest is the on-disk form of StateManifestName. Decoding
// ignores unknown fields, so the "codec" field earlier builds wrote
// beside a format-3 manifest is read past.
type stateManifest struct {
	FormatVersion int `json:"format_version"`
	// BaseSegment is the first live segment. Segments below it are
	// pre-compaction leftovers, deleted on open.
	BaseSegment int `json:"base_segment"`
}

// SweepRecord is the journaled outcome of one sweep: the operational
// facts the next sweep needs (its error-budget seed) plus the headline
// numbers a dashboard wants across restarts.
type SweepRecord struct {
	// At is the sweep's start timestamp.
	At time.Time `json:"at"`
	// Source names the profile origin that fed the sweep.
	Source string `json:"source,omitempty"`
	// Profiles, Errors, and Findings are the sweep's headline counts.
	Profiles int `json:"profiles"`
	Errors   int `json:"errors"`
	Findings int `json:"findings"`
	// FailedByService is the uncapped per-service count of failed
	// instances — the seed for the next sweep's error budget.
	FailedByService map[string]int `json:"failed_by_service,omitempty"`
}

// SyncPolicy decides when appended journal frames are fsynced durable.
// The default, SyncEverySweep, syncs inside every RecordSweep: no
// recorded sweep is ever lost to a crash, at the cost of one fsync on
// the sweep's critical path. SyncOnClose defers every sync to
// Flush/Close: the benchmark-and-test policy, or fleets where losing
// the tail of an interrupted run is acceptable. Under either policy a
// compaction fold first syncs whatever the active segment holds.
//
// The loss window follows the policy: on a crash (process kill), frames
// appended since the last sync may be torn from the tail of the active
// segment, and recovery truncates back to the last complete frame — up
// to the unsynced window is lost, never anything before it. (That bound
// assumes fail-stop: on power loss, a disk that reorders unflushed pages
// could corrupt a mid-window frame, which recovery refuses to silently
// truncate because durable frames follow it.)
type SyncPolicy struct{ onClose bool }

// SyncEverySweep syncs every appended frame before RecordSweep returns:
// the strictest policy and the default.
var SyncEverySweep = SyncPolicy{}

// SyncOnClose defers all syncing to Flush/Close.
var SyncOnClose = SyncPolicy{onClose: true}

// String names the policy in its flag form.
func (p SyncPolicy) String() string {
	if p.onClose {
		return "close"
	}
	return "sweep"
}

// ParseSyncPolicy decodes a policy from its flag form: "sweep" or
// "close".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "sweep":
		return SyncEverySweep, nil
	case "close":
		return SyncOnClose, nil
	}
	return SyncPolicy{}, fmt.Errorf("leakprof: fsync policy %q: want sweep or close", s)
}

// StateStore is the pipeline's durable memory: the bug database (filed
// findings), the cross-sweep trend history (with the aggregator moments
// behind variance-aware verdicts), and the previous sweep's outcome. The
// paper's workflow is a daily fleet sweep whose value is history — bugs
// filed once, trends across days, budgets informed by yesterday — so the
// journal is what makes a restarted pipeline resume rather than start
// blind.
//
// On disk the store is a segmented append-only log. Every recorded sweep
// appends one length-prefixed, CRC-checksummed binary frame — the
// sweep's delta — to the active segment-NNNN.log, so the per-sweep write
// cost is proportional to what the sweep changed, not to every key ever
// tracked. Durability follows the SyncPolicy: by default every append is
// fsynced before RecordSweep returns, and under SyncOnClose the syncs
// wait for Flush or Close. Every fsync runs on the calling goroutine; the
// store owns none. Recovery replays segments in order; a torn tail frame
// (a crash mid-append) is truncated rather than failing the open, losing
// at most the unsynced window. Once the active segment has reached its
// size bound, the next append rolls to a fresh segment, so a segment
// passes its bound by at most its last frame; every segment's string
// dictionary starts empty. The RecordSweep that pushes the live segment
// count past its bound folds them on the spot into one snapshot segment,
// then swings the journal.json manifest pointer to it atomically. That
// sweep waits for the fold, whose cost grows with the number of tracked
// keys.
//
// A pipeline opens its store under WithStateDir, with the pipeline's
// clock, compaction thresholds, and sync policy;
// Pipeline.State returns it, and its BugDB and Tracker are what the
// sinks wire to:
//
//	pipe := leakprof.New(leakprof.WithStateDir(dir), ...)
//	store, err := pipe.State()
//	pipe.AddSinks(
//		&leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: store.BugDB()}},
//		&leakprof.TrendSink{Tracker: store.Tracker()},
//	)
//
// OpenStateStore opens a store outside a pipeline — a tool reading the
// journal — and takes the same options. Keep one open store per
// directory.
type StateStore struct {
	dir string
	now func() time.Time

	segmentBytes int64 // roll the active segment beyond this size
	maxSegments  int   // compact once more than this many segments are live
	syncPolicy   SyncPolicy

	mu      sync.Mutex
	db      *report.DB
	tracker *TrendTracker
	last    *SweepRecord

	base       int      // first live segment (manifest pointer; 0 = none)
	activeSeq  int      // highest live segment, where appends go (0 = none yet)
	active     *os.File // open append handle for the active segment
	activeSize int64
	segCount   int   // live segments on disk
	appended   int64 // total frame bytes appended since open (telemetry)
	syncs      int64 // total fsyncs issued since open (telemetry)
	unsynced   int   // frames appended to the active segment since its last sync

	// Segment string dictionary: the cumulative table the active
	// segment's frames reference and append to. It starts empty in every
	// segment, and recovery rebuilds it by replaying the active segment.
	// Appended strings commit only after their frame's write succeeds,
	// so the dictionary never references strings the on-disk segment
	// does not declare.
	segDict *frame.Dict
}

// StateClock is WithClock. The repository benchmark opens its seed store
// with it, and that harness changes only with its own measurement
// contract, so the name stays until then.
func StateClock(now func() time.Time) Option { return WithClock(now) }

// OpenStateStore creates dir if needed and recovers its journal. The
// returned store's BugDB and Tracker are pre-seeded with everything the
// journal recorded; a missing journal yields an empty store. A corrupt
// journal, or one in any format but StateVersion, is an error —
// silently discarding filed bugs would re-alert every owner on the next
// sweep — with one deliberate exception: a torn tail frame in the active
// segment (a crash mid-append) is truncated, so recovery loses at most
// the frames the sync policy had not yet made durable.
//
// The store takes the pipeline's options and reads the ones that concern
// it: WithClock stamps every journal frame's SavedAt, WithStateCompaction
// and WithStateSync tune the journal, and the rest are ignored.
func OpenStateStore(dir string, opts ...Option) (*StateStore, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return openStateStore(dir, &cfg)
}

// openStateStore opens the store under cfg's clock and journal settings;
// non-positive thresholds keep the defaults.
func openStateStore(dir string, cfg *Config) (*StateStore, error) {
	if dir == "" {
		return nil, errors.New("leakprof: state dir must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("leakprof: creating state dir %s: %w", dir, err)
	}
	s := &StateStore{
		dir:          dir,
		now:          cfg.now,
		segmentBytes: DefaultStateSegmentBytes,
		maxSegments:  DefaultStateMaxSegments,
		syncPolicy:   cfg.StateSync,
		db:           report.NewDB(),
		tracker:      &TrendTracker{},
	}
	if cfg.StateSegmentBytes > 0 {
		s.segmentBytes = cfg.StateSegmentBytes
	}
	if cfg.StateMaxSegments > 0 {
		s.maxSegments = cfg.StateMaxSegments
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	// Replay rebuilt the trend horizon (nothing shares the tracker yet):
	// keys out of it leave in an export, closed bugs seen before it too.
	if start := s.tracker.start; !start.IsZero() {
		s.tracker.Export()
		s.db.DropAged(start)
	}
	return s, nil
}

// recover loads the on-disk journal into the store: manifest, leftover
// deletion, and segment replay (with tail truncation).
func (s *StateStore) recover() error {
	if _, err := os.Stat(filepath.Join(s.dir, legacyStateFile)); err == nil {
		return fmt.Errorf("leakprof: state dir %s holds a format-1 %s journal; this build reads only format %d",
			s.dir, legacyStateFile, StateVersion)
	}
	manifest, err := s.readManifest()
	if err != nil {
		return err
	}
	if manifest != nil {
		s.base = manifest.BaseSegment
	}
	seqs, err := s.listSegments()
	if err != nil {
		return err
	}
	// A fold that crashed mid-stage leaves its snapshot as a .segment-*
	// temp file (the rename never happened); it was never referenced, so
	// sweep it up.
	if entries, derr := os.ReadDir(s.dir); derr == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), ".segment-") {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	// Segments below the manifest pointer are pre-compaction leftovers —
	// the fold completed (the pointer only swings after the snapshot
	// segment is durable) but the crash hit before their deletion.
	var live []int
	for _, seq := range seqs {
		if seq < s.base {
			os.Remove(s.segmentPath(seq))
			continue
		}
		live = append(live, seq)
	}
	if s.base == 0 && len(live) > 0 {
		s.base = live[0]
	}
	if len(live) == 0 {
		if manifest != nil {
			return fmt.Errorf("leakprof: state manifest %s points at segment %d but its segments are missing",
				filepath.Join(s.dir, StateManifestName), s.base)
		}
		return nil
	}
	for i, seq := range live {
		if err := s.replaySegment(seq, i == len(live)-1); err != nil {
			return err
		}
	}
	s.activeSeq = live[len(live)-1]
	s.segCount = len(live)
	if fi, err := os.Stat(s.segmentPath(s.activeSeq)); err == nil {
		s.activeSize = fi.Size()
	}
	return nil
}

func (s *StateStore) readManifest() (*stateManifest, error) {
	path := filepath.Join(s.dir, StateManifestName)
	body, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("leakprof: reading state manifest: %w", err)
	}
	var m stateManifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("leakprof: decoding state manifest %s: %w", path, err)
	}
	if m.FormatVersion != StateVersion {
		return nil, fmt.Errorf("leakprof: state manifest %s has format version %d; this build reads only format %d",
			path, m.FormatVersion, StateVersion)
	}
	if m.BaseSegment <= 0 {
		return nil, fmt.Errorf("leakprof: state manifest %s has invalid base segment %d", path, m.BaseSegment)
	}
	return &m, nil
}

func (s *StateStore) writeManifest(base int) error {
	body, err := json.Marshal(&stateManifest{FormatVersion: StateVersion, BaseSegment: base})
	if err != nil {
		return fmt.Errorf("leakprof: encoding state manifest: %w", err)
	}
	if err := writeFileAtomic(s.dir, ".journal-*", filepath.Join(s.dir, StateManifestName), append(body, '\n')); err != nil {
		return fmt.Errorf("leakprof: writing state manifest: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it survive a power cut; without it a new segment or a manifest swing
// can vanish even though the file's own data was synced. A variable so
// tests can record when the store syncs.
var syncDir = atomicfile.SyncDir

// writeFileAtomic stages data in a temp file in dir, syncs it, and
// renames it to path: on disk path holds either its old content or all
// of data. The rename is durable only once the caller syncs dir.
func writeFileAtomic(dir, pattern, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644) // CreateTemp's 0600 would lock out other readers
	if err == nil {
		_, err = tmp.Write(data)
	}
	if serr := tmp.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

func (s *StateStore) segmentPath(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("segment-%04d.log", seq))
}

// listSegments returns the sequence numbers of every segment file in the
// state dir, ascending.
func (s *StateStore) listSegments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("leakprof: reading state dir %s: %w", s.dir, err)
	}
	var seqs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "segment-")
		if !ok {
			continue
		}
		rest, ok = strings.CutSuffix(rest, ".log")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(rest); err == nil && n > 0 {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// replaySegment replays one segment's frames into the in-memory state.
// In the final (active) segment a torn tail frame (frame.ErrTorn: one
// that stops at end-of-file) is truncated away, everything before it
// already replayed. A checksum-failed frame with data after it
// (frame.ErrCorrupt: the store is a single O_APPEND writer, so only the
// final frame can be half-written — this is bit rot over durable data,
// and truncating it would silently discard the valid frames behind it),
// or any bad frame in an earlier segment, fails the open: compaction is
// the only path that removes old segments, and it never leaves a torn
// one behind the manifest pointer.
func (s *StateStore) replaySegment(seq int, isLast bool) error {
	path := s.segmentPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("leakprof: opening journal segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("leakprof: sizing journal segment: %w", err)
	}
	size := fi.Size()
	br := bufio.NewReader(f)
	// Each segment owns a fresh string dictionary that its frames extend
	// as they decode (a dictionary frame, which earlier builds wrote at a
	// rolled segment's head, only extends it).
	var dec segDecoder
	var off int64
	for {
		payload, n, err := frame.Read(br, size-off)
		if err == io.EOF {
			break
		}
		if errors.Is(err, frame.ErrTorn) {
			if !isLast {
				return fmt.Errorf("leakprof: journal segment %s: %w at offset %d (not the active segment; refusing to guess)", path, err, off)
			}
			if terr := os.Truncate(path, off); terr != nil {
				return fmt.Errorf("leakprof: truncating torn journal tail in %s: %w", path, terr)
			}
			break
		}
		if err != nil {
			return fmt.Errorf("leakprof: journal segment %s at offset %d: %w", path, off, err)
		}
		rec, derr := dec.decodePayload(payload)
		if derr != nil {
			// The checksum matched, so this is not torn — it is a frame
			// this build cannot read (another format version, say).
			return fmt.Errorf("leakprof: journal segment %s: decoding frame at offset %d: %w", path, off, derr)
		}
		if rec != nil { // nil: a dictionary seed frame, no record to apply
			if aerr := s.applyRecord(rec); aerr != nil {
				return fmt.Errorf("leakprof: journal segment %s: %w", path, aerr)
			}
		}
		off += n
	}
	if isLast {
		// The recovered writer resumes this segment, so its dictionary
		// must be exactly what any future reader will rebuild from the
		// frames replayed above (a torn tail was truncated before its
		// appends were committed, keeping the two in lockstep).
		s.segDict = dec.dict
	}
	return nil
}

// applyRecord folds one replayed frame into the in-memory state.
func (s *StateStore) applyRecord(rec *journalRecord) error {
	switch rec.Kind {
	case recordSnapshot:
		// Replacement semantics: a snapshot resets state before applying,
		// which makes replaying "old deltas, then the snapshot that folded
		// them" idempotent — the property mid-compaction crash recovery
		// leans on.
		s.db = report.NewDB()
		s.db.Restore(rec.Bugs)
		s.tracker.restore(rec.Trend)
		s.last = rec.Sweep
	case recordDelta:
		s.db.Restore(rec.Bugs)
		s.tracker.restoreDelta(rec.Trend)
		if rec.Sweep != nil {
			s.last = rec.Sweep
		}
	default:
		return fmt.Errorf("unknown journal record kind %q", rec.Kind)
	}
	return nil
}

// encodeRecord renders a record for the active segment. A variable so
// tests can count the store's encodes.
var encodeRecord = encodeBinaryRecordDict

// openActive ensures the active segment is open for appending. A segment
// that has reached its size bound rolls first, to a fresh segment whose
// dictionary starts empty, so the frame about to be encoded lands whole
// in the segment it is encoded for. A roll syncs the outgoing segment
// first when frames in it are still unsynced: the sync-policy loss
// window must never silently extend to a segment the store can no longer
// reach through its active handle.
func (s *StateStore) openActive() error {
	// Roll on size whether or not the handle is open: after a restart, or
	// a fold whose snapshot outgrew the bound, the segment may already be
	// at its bound.
	if s.activeSeq > 0 && s.activeSize >= s.segmentBytes {
		if s.unsynced > 0 && s.active != nil {
			if err := s.syncActiveLocked(); err != nil {
				return err
			}
		}
		if s.active != nil {
			s.active.Close()
			s.active = nil
		}
		s.activeSeq++
		s.activeSize = 0
		s.segCount++
	}
	if s.active != nil {
		return nil
	}
	if s.activeSeq == 0 {
		s.activeSeq = 1
		s.segCount = 1
		if s.base == 0 {
			s.base = 1
		}
	}
	f, err := os.OpenFile(s.segmentPath(s.activeSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("leakprof: opening journal segment: %w", err)
	}
	if fi, err := f.Stat(); err == nil {
		s.activeSize = fi.Size()
	}
	if s.activeSize == 0 {
		// An empty segment declares no strings yet. One this call created
		// needs its directory entry durable before any frame synced into
		// it is.
		s.segDict = frame.NewDict()
		if err := syncDir(s.dir); err != nil {
			f.Close()
			return fmt.Errorf("leakprof: syncing state dir for a new journal segment: %w", err)
		}
	}
	s.active = f
	return nil
}

// syncActiveLocked fsyncs the active segment, closing its unsynced
// window.
func (s *StateStore) syncActiveLocked() error {
	if s.active == nil {
		s.unsynced = 0
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("leakprof: syncing journal segment: %w", err)
	}
	s.syncs++
	s.unsynced = 0
	return nil
}

// appendRecord appends one framed record to the active segment and makes
// it durable per the store's sync policy: before it returns
// (SyncEverySweep), or not until Flush/Close (SyncOnClose). The frame is
// encoded once, against the dictionary of the segment it lands in, and
// the strings it appends commit only after its write succeeded.
func (s *StateStore) appendRecord(rec *journalRecord) error {
	if err := s.openActive(); err != nil {
		return err
	}
	dt := frame.NewDictTable(s.segDict, 0)
	payload, err := encodeRecord(rec, dt)
	if err != nil {
		return err
	}
	buf := frame.New(payload)
	if _, err := s.active.Write(buf); err != nil {
		return fmt.Errorf("leakprof: appending journal frame: %w", err)
	}
	dt.Commit()
	s.activeSize += int64(len(buf))
	s.appended += int64(len(buf))
	s.unsynced++
	if s.syncPolicy.onClose {
		return nil
	}
	return s.syncActiveLocked()
}

// Dir returns the store's directory.
func (s *StateStore) Dir() string { return s.dir }

// BugDB returns the journal-backed bug database. Wire it into the
// ReportSink's Reporter so filing dedups against every bug ever filed
// from this state dir, not just this process's lifetime.
func (s *StateStore) BugDB() *report.DB { return s.db }

// Tracker returns the journal-backed trend tracker. Wire it into a
// TrendSink so cross-sweep verdicts resume with the prior sweeps'
// moments after a restart. Tune MinObservations on the returned tracker
// before the first sweep.
func (s *StateStore) Tracker() *TrendTracker { return s.tracker }

// Flush makes the journal current and durable: it appends a delta frame
// for state mutated since the last recorded sweep (status transitions
// from an embedder, say) and fsyncs the unsynced window — where
// SyncOnClose's syncs run. Tests and shutdown paths call it to assert
// "everything I did is on disk" under either sync policy.
func (s *StateStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.appendPendingLocked()
	if s.unsynced > 0 {
		err = errors.Join(err, s.syncActiveLocked())
	}
	return err
}

// appendPendingLocked journals un-recorded state as a sweep-less delta
// frame, if any exists.
func (s *StateStore) appendPendingLocked() error {
	if s.db.DirtyCount() == 0 && !s.tracker.hasPending() {
		return nil
	}
	rec := &journalRecord{
		Kind:    recordDelta,
		SavedAt: s.now(),
		Bugs:    s.db.TakeDirty(),
		Trend:   s.tracker.takeNew(),
	}
	if err := s.appendRecord(rec); err != nil {
		s.requeueDeltaLocked(rec)
		return err
	}
	return nil
}

// requeueDeltaLocked hands a drained delta back to the DB and tracker
// after a failed append, so a later persist still journals it.
func (s *StateStore) requeueDeltaLocked(rec *journalRecord) {
	keys := make([]string, len(rec.Bugs))
	for i, b := range rec.Bugs {
		keys[i] = b.Key
	}
	s.db.MarkDirty(keys...)
	s.tracker.requeueNew(rec.Trend)
}

// Close flushes and releases the store: pending deltas and the unsynced
// window are made durable (SyncOnClose's contract), and the active
// segment handle closes. Skipping Close under SyncOnClose forfeits the
// unsynced window if the process dies before the OS writes it back.
func (s *StateStore) Close() error {
	err := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil {
		err = errors.Join(err, s.active.Close())
		s.active = nil
	}
	return err
}

// LastSweep returns a copy of the journaled previous sweep outcome, or
// nil when no sweep has been recorded.
func (s *StateStore) LastSweep() *SweepRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return nil
	}
	rec := *s.last
	rec.FailedByService = copyCounts(s.last.FailedByService)
	return &rec
}

// LastFailureCounts returns the previous sweep's per-service failure
// counts: the error-budget seed. Nil when no sweep is on record.
func (s *StateStore) LastFailureCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return nil
	}
	return copyCounts(s.last.FailedByService)
}

// RecordSweep journals one completed sweep by appending a single delta
// frame: the bugs the sweep filed or re-sighted (report.DB.TakeDirty),
// the trend observations recorded since the last frame, and the sweep
// outcome. The write cost is O(the sweep's findings), not O(every key
// ever tracked), and the frame is made durable per the sync policy —
// fsynced before RecordSweep returns under SyncEverySweep, left for
// Flush or Close under SyncOnClose. The sweep whose append pushes the live
// segment count past the threshold then compacts synchronously, exactly
// as Save does, and waits for the fold. A failed fold is returned, but
// the sweep's delta is already journaled by then and the next
// RecordSweep retries the fold.
//
// A sweep that folded no profile and counted no failure keeps the
// previous outcome; see the package doc's rule for empty sweeps.
func (s *StateStore) RecordSweep(sweep *Sweep) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var outcome *SweepRecord
	if sweep.Profiles > 0 || sweep.Errors > 0 {
		s.last = &SweepRecord{
			At:              sweep.At,
			Source:          sweep.Source,
			Profiles:        sweep.Profiles,
			Errors:          sweep.Errors,
			Findings:        len(sweep.Findings),
			FailedByService: copyCounts(sweep.FailedByService),
		}
		outcome = s.last
	} else if s.db.DirtyCount() == 0 && !s.tracker.hasPending() {
		return nil
	}
	rec := &journalRecord{
		Kind:    recordDelta,
		SavedAt: s.now(),
		Bugs:    s.db.TakeDirty(),
		Trend:   s.tracker.takeNew(),
		Sweep:   outcome,
	}
	if err := s.appendRecord(rec); err != nil {
		// The frame never became durable; hand the drained delta back so
		// a later append (or compaction) still journals it — otherwise a
		// transient disk error would silently drop this sweep's filings
		// from the journal forever.
		s.requeueDeltaLocked(rec)
		return err
	}
	if s.segCount > s.maxSegments {
		return s.compactLocked()
	}
	return nil
}

// Save persists the full state as a snapshot, compacting the journal to
// a single segment. The per-sweep path is RecordSweep, which appends only
// the sweep's delta and folds once too many segments are live; Save is
// the explicit checkpoint for embedders that mutate the BugDB or Tracker
// outside a sweep (status transitions from a bug-tracker webhook, say)
// and want the journal caught up now.
//
// The fold writes the full state as one snapshot frame to a staged
// segment renamed into place, swings the manifest pointer to it (temp
// file + rename), and deletes the old segments, syncing the directory
// after each rename. A crash before the segment rename leaves a staging
// file that the next open deletes; a crash before the pointer swing
// leaves the old segments live beside a complete snapshot that replays
// harmlessly by replacement; a crash after it leaves only already-folded
// leftovers to sweep up — either way, recovery loses at most the
// unsynced window.
func (s *StateStore) Save() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// encodeSnapshotFrame renders a snapshot record as a framed byte slice
// with its own fresh dictionary — snapshot segments are single-frame,
// so the frame's appended-strings table carries everything it
// references. It returns the committed dictionary so a store that
// resumes appending onto the snapshot segment keeps resolving against
// it.
func encodeSnapshotFrame(rec *journalRecord) ([]byte, *frame.Dict, error) {
	dict := frame.NewDict()
	// Each bug names a key, a location and a function no other bug
	// shares, and a trend key may have no bug; services, operations and
	// owners repeat.
	dt := frame.NewDictTable(dict, 3*len(rec.Bugs)+len(rec.Trend))
	payload, err := encodeBinaryRecordDict(rec, dt)
	if err != nil {
		return nil, nil, err
	}
	dt.Commit()
	return frame.New(payload), dict, nil
}

// compactLocked is the one fold, behind both Save and RecordSweep's
// threshold (see Save for its crash windows). A fold that fails leaves
// the active segment open with its window synced, and the drained
// deltas pending again for the next frame.
func (s *StateStore) compactLocked() error {
	// Once the snapshot lands the active segment is no longer the final
	// one, and only the final segment may ever hold a torn frame: sync
	// its window before anything can fail.
	if s.unsynced > 0 {
		if err := s.syncActiveLocked(); err != nil {
			return err
		}
	}
	// Drain the pending deltas before the capture, not after the writes:
	// the snapshot subsumes them, and a bug changed while the fold runs
	// stays dirty for the next delta (bugs replay by overwrite, so one
	// changed between the drain and the capture may sit in both). The
	// trend export and drain are one step, since observations replay by
	// appending. The drain keeps only the dirty keys and the new
	// observations, to hand back if the fold fails. The trend goes first:
	// closed bugs last seen before its horizon leave with its keys.
	trend, newTrend, start := s.tracker.exportTakeNew()
	if !start.IsZero() {
		s.db.DropAged(start)
	}
	dirty := s.db.TakeDirtyKeys()
	rec := &journalRecord{
		Kind:    recordSnapshot,
		SavedAt: s.now(),
		Bugs:    s.db.All(),
		Trend:   trend,
		Sweep:   s.last,
	}
	requeue := func() {
		s.db.MarkDirty(dirty...)
		s.tracker.requeueNew(newTrend)
	}
	buf, snapDict, err := encodeSnapshotFrame(rec)
	if err != nil {
		requeue()
		return err
	}
	oldBase, newSeq := s.base, s.activeSeq+1
	if newSeq <= 0 {
		newSeq = 1
	}
	snapPath := s.segmentPath(newSeq)
	if err := writeFileAtomic(s.dir, ".segment-*", snapPath, buf); err != nil {
		requeue()
		return fmt.Errorf("leakprof: writing snapshot segment: %w", err)
	}
	// Until the pointer swings, a failure removes the snapshot: left
	// behind, it would pin the old segments forever, and a later roll
	// would append onto it, replaying it over the deltas recorded since.
	err = syncDir(s.dir)
	if err != nil {
		err = fmt.Errorf("leakprof: syncing state dir after the snapshot segment: %w", err)
	} else {
		err = s.writeManifest(newSeq)
	}
	if err != nil {
		os.Remove(snapPath)
		requeue()
		return err
	}
	// The pointer swung, so the fold stands. The old segments may go
	// only once the swing is durable; if the directory sync fails they
	// stay, and the next open sweeps them up below the pointer.
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	dirErr := syncDir(s.dir)
	if dirErr != nil {
		dirErr = fmt.Errorf("leakprof: syncing state dir after the manifest swing: %w", dirErr)
	} else {
		for seq := oldBase; seq < newSeq; seq++ {
			if seq > 0 {
				os.Remove(s.segmentPath(seq))
			}
		}
	}
	s.base, s.activeSeq = newSeq, newSeq
	s.activeSize = int64(len(buf))
	s.segCount = 1
	s.appended += int64(len(buf))
	s.syncs++ // the snapshot segment's
	// Appends resume onto the snapshot segment, whose frame already
	// declares its whole dictionary.
	s.segDict = snapDict
	return dirErr
}

// journalBytesAppended returns the total frame bytes this store has
// appended since open — the benchmark's per-sweep persistence cost probe.
func (s *StateStore) journalBytesAppended() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// journalSyncs returns the number of segment-file fsyncs issued since
// open: one per sweep under SyncEverySweep, one per Flush, Close or fold
// that finds frames unsynced under SyncOnClose, plus the snapshot
// segment's per fold. It leaves out the directory fsync a new segment
// adds, and the journal.json fsync and two directory fsyncs of a fold.
func (s *StateStore) journalSyncs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// SegmentCount returns the number of live journal segments.
func (s *StateStore) SegmentCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segCount
}

func copyCounts(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
