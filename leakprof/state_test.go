package leakprof

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/internal/stack"
)

// durableFleet serves a leaky service over HTTP plus a service whose
// every instance fails, returning the endpoints and a hit counter for
// the failing service.
func durableFleet(t *testing.T) (eps []Endpoint, flakyHits *atomic.Int64, shutdown func()) {
	t.Helper()
	leaky := make([]*stack.Goroutine, 300)
	for i := range leaky {
		leaky[i] = &stack.Goroutine{
			ID: int64(i + 1), State: "chan send",
			Frames: []stack.Frame{{Function: "pay.leak", File: "/pay/l.go", Line: 5}},
		}
	}
	pay := profileServer(leaky)
	flakyHits = &atomic.Int64{}
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flakyHits.Add(1)
		http.Error(w, "deploying", http.StatusServiceUnavailable)
	}))
	eps = []Endpoint{
		{Service: "pay", Instance: "i1", URL: pay.URL + "?debug=2"},
		{Service: "pay", Instance: "i2", URL: pay.URL + "?debug=2"},
		{Service: "flaky", Instance: "i1", URL: flaky.URL},
		{Service: "flaky", Instance: "i2", URL: flaky.URL},
		{Service: "flaky", Instance: "i3", URL: flaky.URL},
		{Service: "flaky", Instance: "i4", URL: flaky.URL},
	}
	return eps, flakyHits, func() { pay.Close(); flaky.Close() }
}

// durablePipeline builds a pipeline wired to the state dir the way a
// restart-safe monitor boots: sinks backed by the store's journal.
func durablePipeline(t *testing.T, dir string, day int) (*Pipeline, *ReportSink, *StateStore) {
	t.Helper()
	pipe := New(
		WithThreshold(100),
		WithParallelism(1), // deterministic budget accounting
		WithErrorBudget(3),
		WithStateDir(dir),
		WithClock(func() time.Time { return time.Unix(0, 0).Add(time.Duration(day) * 24 * time.Hour) }),
	)
	store, err := pipe.State()
	if err != nil {
		t.Fatal(err)
	}
	store.Tracker().MinObservations = 2
	reportSink := &ReportSink{Reporter: &Reporter{DB: store.BugDB(), TopN: 5}}
	pipe.AddSinks(reportSink, &TrendSink{Tracker: store.Tracker()})
	return pipe, reportSink, store
}

// TestStateStoreCrashRecovery is the restart integration test: run a
// sweep, throw the whole pipeline away, rebuild it from the same state
// dir, and require that bug dedup, trend history, and error-budget
// seeding all carry over through the journal.
func TestStateStoreCrashRecovery(t *testing.T) {
	eps, flakyHits, shutdown := durableFleet(t)
	defer shutdown()
	dir := t.TempDir()

	// Day one.
	pipe1, report1, _ := durablePipeline(t, dir, 1)
	sweep1, err := pipe1.Sweep(context.Background(), StaticEndpoints(eps...))
	if err != nil {
		t.Fatal(err)
	}
	if sweep1.Profiles != 2 || sweep1.Errors != 4 {
		t.Fatalf("sweep1 = %d profiles, %d errors", sweep1.Profiles, sweep1.Errors)
	}
	if len(report1.LastAlerts()) != 1 {
		t.Fatalf("day-one alerts = %d, want 1", len(report1.LastAlerts()))
	}
	// Budget 3: three real fetches fail, the fourth instance
	// short-circuits without touching the network.
	if got := flakyHits.Load(); got != 3 {
		t.Fatalf("day-one flaky fetches = %d, want 3 (budget)", got)
	}
	if sweep1.FailedByService["flaky"] != 4 {
		t.Fatalf("FailedByService = %+v", sweep1.FailedByService)
	}

	// "Crash": build everything anew from the journal alone.
	flakyHits.Store(0)
	pipe2, report2, store2 := durablePipeline(t, dir, 2)
	last := store2.LastSweep()
	if last == nil || last.Profiles != 2 || last.FailedByService["flaky"] != 4 {
		t.Fatalf("journaled last sweep = %+v", last)
	}

	sweep2, err := pipe2.Sweep(context.Background(), StaticEndpoints(eps...))
	if err != nil {
		t.Fatal(err)
	}
	// Dedup survives the restart: the same defect files as a re-sighting,
	// not a new alert.
	if got := len(report2.LastAlerts()); got != 0 {
		t.Errorf("post-restart alerts = %d, want 0 (deduplicated via journal)", got)
	}
	if bug, ok := store2.BugDB().Get((&Finding{Service: "pay", Op: "send", Location: "/pay/l.go:5"}).Key()); !ok || bug.Sightings != 2 {
		t.Errorf("journaled bug = %+v, ok=%v (want 2 sightings)", bug, ok)
	}
	// Trend history resumes with day one's observation: two observations
	// of an identical total classify as stable, not unknown.
	key := (&Finding{Service: "pay", Op: "send", Location: "/pay/l.go:5"}).Key()
	if v := store2.Tracker().Verdict(key); v != TrendStable {
		t.Errorf("post-restart verdict = %v, want stable (history resumed)", v)
	}
	// Budget seeding: flaky burned its budget yesterday, so today it is
	// probed once (seed = budget-1 leaves a single probe) and the rest
	// short-circuit.
	if got := flakyHits.Load(); got != 1 {
		t.Errorf("post-restart flaky fetches = %d, want 1 (reduced probe budget)", got)
	}
	exhausted := 0
	for _, f := range sweep2.Failures {
		if errors.Is(f.Err, ErrBudgetExhausted) {
			exhausted++
		}
	}
	if exhausted != 3 {
		t.Errorf("short-circuited instances = %d, want 3", exhausted)
	}
}

// TestErrorBudgetSeeding pins the seeding rule: yesterday's failures
// pre-spend today's budget but always leave at least one probe.
func TestErrorBudgetSeeding(t *testing.T) {
	b := newErrorBudget(3, map[string]int{"down": 10, "blip": 1, "ok": 0})
	if b.exhausted("down") {
		t.Error("seeded service must keep at least one probe")
	}
	b.spend("down")
	if !b.exhausted("down") {
		t.Error("one failure after a heavy seed should exhaust the budget")
	}
	b.spend("blip")
	if b.exhausted("blip") { // 1 seeded + 1 new = 2 < 3
		t.Error("light seed exhausted too early")
	}
	if b.exhausted("ok") || b.exhausted("fresh") {
		t.Error("unseeded services must start with a full budget")
	}
	if seeded := newErrorBudget(1, map[string]int{"down": 5}); seeded.exhausted("down") {
		t.Error("budget of 1 cannot be pre-spent")
	}
}

// blockingSink stalls in SweepDone until released — the pathological
// slow sink (a hung metrics push) the concurrent fan-out must isolate.
type blockingSink struct {
	release chan struct{}
	done    atomic.Bool
}

func (s *blockingSink) Snapshot(*gprofile.Snapshot) {}
func (s *blockingSink) SweepDone(*Sweep) error {
	<-s.release
	s.done.Store(true)
	return errors.New("metrics push failed")
}

// TestSinkFanOutConcurrent proves the fan-out decouples sinks: the
// report sink files its alerts while another sink is stalled mid-
// SweepDone, and the stalled sink's error still joins the sweep result
// once the drain barrier completes.
func TestSinkFanOutConcurrent(t *testing.T) {
	leaky := &gprofile.Snapshot{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}
	stalled := &blockingSink{release: make(chan struct{})}
	reportSink := &ReportSink{Reporter: &Reporter{DB: report.NewDB(), TopN: 5}}
	pipe := New(WithThreshold(100)).AddSinks(stalled, reportSink)

	type result struct {
		sweep *Sweep
		err   error
	}
	sweepDone := make(chan result, 1)
	go func() {
		sweep, err := pipe.Sweep(context.Background(), FromSnapshots([]*gprofile.Snapshot{leaky}))
		sweepDone <- result{sweep, err}
	}()

	// The report sink must complete while the other sink is still
	// stalled: alerting does not wait for the slowest sink.
	deadline := time.Now().Add(5 * time.Second)
	for len(reportSink.LastAlerts()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("report sink did not complete while another sink was stalled")
		}
		time.Sleep(time.Millisecond)
	}
	if stalled.done.Load() {
		t.Fatal("stalled sink finished first; test proves nothing")
	}
	select {
	case <-sweepDone:
		t.Fatal("Sweep returned before the drain barrier: stalled sink was not drained")
	default:
	}

	close(stalled.release)
	res := <-sweepDone
	if res.err == nil || !strings.Contains(res.err.Error(), "metrics push failed") {
		t.Errorf("sweep error = %v, want the stalled sink's error joined in", res.err)
	}
	if len(res.sweep.Findings) != 1 {
		t.Errorf("findings = %+v", res.sweep.Findings)
	}
}

// TestSweepArchiveReplayUsesManifestTimestamps drives the multi-sweep
// archive round trip: two sweeps recorded on different (fake) days
// rotate into manifested subdirectories, and a later replay reconstructs
// both sweeps at their recorded times — so the trend tracker sees the
// original two-day history, not two sweeps at replay time.
func TestSweepArchiveReplayUsesManifestTimestamps(t *testing.T) {
	base := t.TempDir()
	archive, err := NewSweepArchiveSink(base)
	if err != nil {
		t.Fatal(err)
	}
	day := time.Unix(0, 0)
	clock := func() time.Time { return day }
	snaps := []*gprofile.Snapshot{{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}}

	recorder := New(WithThreshold(100), WithClock(clock)).AddSinks(archive)
	for i := 0; i < 2; i++ {
		if _, err := recorder.Sweep(context.Background(), FromSnapshots(snaps)); err != nil {
			t.Fatal(err)
		}
		day = day.Add(24 * time.Hour)
	}
	if archive.Written() != 2 {
		t.Fatalf("archived %d snapshots, want 2", archive.Written())
	}
	for _, sub := range []string{"sweep-0001", "sweep-0002"} {
		if _, err := os.Stat(filepath.Join(base, sub, gprofile.ManifestName)); err != nil {
			t.Fatalf("missing manifest: %v", err)
		}
	}

	// Replay much later: the fake replay clock is far from the recorded
	// days, so matching timestamps can only come from the manifests.
	tracker := &TrendTracker{MinObservations: 2}
	replayer := New(
		WithThreshold(100),
		WithClock(func() time.Time { return time.Unix(0, 0).Add(1000 * 24 * time.Hour) }),
	).AddSinks(&TrendSink{Tracker: tracker})
	sweeps, err := replayer.Replay(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 2 {
		t.Fatalf("replayed %d sweeps, want 2", len(sweeps))
	}
	for i, sweep := range sweeps {
		want := time.Unix(0, 0).Add(time.Duration(i) * 24 * time.Hour)
		if !sweep.At.Equal(want) {
			t.Errorf("sweep %d replayed at %v, want recorded %v", i, sweep.At, want)
		}
		if sweep.Profiles != 1 {
			t.Errorf("sweep %d profiles = %d", i, sweep.Profiles)
		}
	}
	// Identical totals one day apart: stable — a verdict only reachable
	// when both observations carry their recorded, distinct timestamps.
	key := (&Finding{Service: "pay", Op: "send", Location: "/pay/l.go:5"}).Key()
	if v := tracker.Verdict(key); v != TrendStable {
		t.Errorf("replayed verdict = %v, want stable", v)
	}

	// A restarted recorder appends after the existing rotations instead
	// of overwriting them.
	archive2, err := NewSweepArchiveSink(base)
	if err != nil {
		t.Fatal(err)
	}
	recorder2 := New(WithThreshold(100), WithClock(clock)).AddSinks(archive2)
	if _, err := recorder2.Sweep(context.Background(), FromSnapshots(snaps)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(base, "sweep-0003", gprofile.ManifestName)); err != nil {
		t.Errorf("restarted archive did not rotate to sweep-0003: %v", err)
	}
}

// TestStateStoreJournalSafety pins the journal's failure modes: corrupt
// manifests, manifests of any format but the current one, and format-1
// state.json journals refuse to load (silently dropping filed bugs
// would re-page every owner), a manifest pointing at missing segments
// refuses, and saves leave no staging litter behind.
func TestStateStoreJournalSafety(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "state.json")
	manifest := filepath.Join(dir, StateManifestName)
	// A format-1 state.json — torn, from the future, or well-formed — is
	// refused, never opened empty beside the bugs it records.
	futureV1, _ := json.Marshal(map[string]any{"format_version": StateVersion + 1})
	v1, _ := json.Marshal(map[string]any{"format_version": 1, "bugs": []report.Bug{{Key: svcKey("/old.go:1")}}})
	for _, body := range [][]byte{[]byte("{torn"), futureV1, v1} {
		if err := os.WriteFile(legacy, body, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenStateStore(dir)
		if err == nil || !strings.Contains(err.Error(), "format-1") ||
			!strings.Contains(err.Error(), fmt.Sprintf("format %d", StateVersion)) {
			t.Errorf("state.json %s: err = %v, want a refusal naming format 1 and format %d", body, err, StateVersion)
		}
	}
	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(manifest, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStateStore(dir); err == nil {
		t.Error("corrupt manifest must not load silently")
	}
	future, _ := json.Marshal(map[string]any{"format_version": StateVersion + 1, "base_segment": 1})
	if err := os.WriteFile(manifest, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStateStore(dir); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Errorf("future manifest error = %v", err)
	}
	// Format 2 was the same segment layout with JSON frames.
	v2, _ := json.Marshal(map[string]any{"format_version": 2, "base_segment": 1, "codec": "json"})
	if err := os.WriteFile(manifest, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStateStore(dir); err == nil || !strings.Contains(err.Error(), "format version 2") ||
		!strings.Contains(err.Error(), fmt.Sprintf("format %d", StateVersion)) {
		t.Errorf("format-2 manifest error = %v, want a refusal naming formats 2 and %d", err, StateVersion)
	}
	// A manifest pointing at segments that do not exist means the state
	// was lost out from under the journal; refusing beats resurrecting
	// an empty store that re-alerts every owner.
	valid, _ := json.Marshal(map[string]any{"format_version": StateVersion, "base_segment": 3})
	if err := os.WriteFile(manifest, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStateStore(dir); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("dangling manifest error = %v", err)
	}
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}

	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	// Exactly the snapshot segment and the manifest — no staging temp
	// files left behind — and the journal round-trips.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{StateManifestName, "segment-0001.log"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("state dir contents = %v, want %v", names, want)
	}
	if _, err := OpenStateStore(dir); err != nil {
		t.Errorf("freshly saved journal failed to load: %v", err)
	}
}

// --- segmented-journal test helpers -----------------------------------

// readJournalFrames decodes every frame in one segment file.
func readJournalFrames(t *testing.T, path string) []journalRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	remaining := fi.Size()
	br := bufio.NewReader(f)
	// Version-3 frames reference the segment's cumulative dictionary, so
	// reading a segment means threading one decoder across its frames —
	// exactly what replaySegment does.
	var dec segDecoder
	var out []journalRecord
	for {
		payload, n, err := frame.Read(br, remaining)
		if err == io.EOF {
			return out
		}
		remaining -= n
		if err != nil {
			t.Fatalf("frame in %s: %v", path, err)
		}
		rec, err := dec.decodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil { // a dictionary-seed frame, as earlier builds wrote: no record
			continue
		}
		out = append(out, *rec)
	}
}

// svcKey is the finding key journalSweep files bugs and trend under.
func svcKey(loc string) string {
	return (&Finding{Service: "svc", Op: "send", Location: loc}).Key()
}

// journalSweep drives one synthetic sweep through a store: file the
// given bug keys, observe them as trend totals, and record the outcome.
func journalSweep(t *testing.T, store *StateStore, day int, keys map[string]int) {
	t.Helper()
	if err := recordDay(store, day, keys); err != nil {
		t.Fatal(err)
	}
}

// recordDay is journalSweep returning RecordSweep's error.
func recordDay(store *StateStore, day int, keys map[string]int) error {
	at := time.Unix(0, 0).Add(time.Duration(day) * 24 * time.Hour)
	var findings []*Finding
	for loc, total := range keys {
		f := &Finding{Service: "svc", Op: "send", Location: loc, TotalBlocked: total}
		store.BugDB().File(report.Bug{Key: f.Key(), Service: "svc", Op: "send", Location: loc, FiledAt: at})
		findings = append(findings, f)
	}
	store.Tracker().ObserveMoments(at, momentsOf(findings))
	return store.RecordSweep(&Sweep{At: at, Source: "test", Profiles: 10})
}

// TestStateStoreDeltaAppend pins the tentpole property at the format
// level: each recorded sweep appends exactly one frame carrying only
// what the sweep changed, and recovery replays the frames back into the
// full state.
func TestStateStoreDeltaAppend(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100, "/b.go:2": 50})
	journalSweep(t, store, 2, map[string]int{"/a.go:1": 120}) // re-sighting: only /a.go:1 changed
	store.Close()

	frames := readJournalFrames(t, store.segmentPath(1))
	if len(frames) != 2 {
		t.Fatalf("journal has %d frames, want 2 (one per sweep)", len(frames))
	}
	if frames[0].Kind != recordDelta || len(frames[0].Bugs) != 2 {
		t.Errorf("frame 1 = %s with %d bugs, want delta with 2", frames[0].Kind, len(frames[0].Bugs))
	}
	// The second sweep touched one key; its frame must carry one bug —
	// the delta — not the whole database.
	if len(frames[1].Bugs) != 1 || frames[1].Bugs[0].Key != svcKey("/a.go:1") {
		t.Errorf("frame 2 bugs = %+v, want only the re-sighted key", frames[1].Bugs)
	}
	if frames[1].Bugs[0].Sightings != 2 {
		t.Errorf("re-sighted bug journaled with %d sightings, want 2", frames[1].Bugs[0].Sightings)
	}
	if len(frames[1].Trend) != 1 {
		t.Errorf("frame 2 trend keys = %d, want 1", len(frames[1].Trend))
	}

	// Recovery accumulates the deltas back into the full state.
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if bug, ok := re.BugDB().Get(svcKey("/a.go:1")); !ok || bug.Sightings != 2 {
		t.Errorf("recovered bug = %+v ok=%v, want 2 sightings", bug, ok)
	}
	if bug, ok := re.BugDB().Get(svcKey("/b.go:2")); !ok || bug.Sightings != 1 {
		t.Errorf("recovered bug = %+v ok=%v, want 1 sighting", bug, ok)
	}
	if last := re.LastSweep(); last == nil || !last.At.Equal(time.Unix(0, 0).Add(48*time.Hour)) {
		t.Errorf("recovered last sweep = %+v", last)
	}
	if got := len(re.Tracker().Export()[svcKey("/a.go:1")]); got != 2 {
		t.Errorf("recovered trend history length = %d, want 2", got)
	}
}

// TestStateStoreTornTailRecovery proves recovery after a crash
// mid-append: whatever tears the tail of the active segment — a partial
// frame header, a frame cut short, an implausible length, a checksum
// flip — the store reopens with at most the in-flight sweep lost, and
// subsequent appends continue cleanly.
func TestStateStoreTornTailRecovery(t *testing.T) {
	tears := []struct {
		name string
		tear func(t *testing.T, path string)
		// lostLast reports whether the final recorded sweep is lost (the
		// tear damaged its frame) or only un-recorded garbage is lost.
		lostLast bool
	}{
		{"partial-header", func(t *testing.T, path string) { appendBytes(t, path, []byte{0x00, 0x00, 0x01}) }, false},
		{"truncated-payload", func(t *testing.T, path string) {
			appendBytes(t, path, []byte{0x00, 0x00, 0x00, 0x64, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'})
		}, false},
		{"implausible-length", func(t *testing.T, path string) {
			appendBytes(t, path, []byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 'j', 'u', 'n', 'k'})
		}, false},
		{"checksum-flip", func(t *testing.T, path string) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body[len(body)-2] ^= 0xff // corrupt the last frame's payload
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStateStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
			journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
			journalSweep(t, store, 3, map[string]int{"/c.go:3": 25})
			store.Close()
			tc.tear(t, store.segmentPath(1))

			re, err := OpenStateStore(dir)
			if err != nil {
				t.Fatalf("torn tail failed recovery: %v", err)
			}
			if _, ok := re.BugDB().Get(svcKey("/a.go:1")); !ok {
				t.Error("sweep 1 lost")
			}
			if _, ok := re.BugDB().Get(svcKey("/b.go:2")); !ok {
				t.Error("sweep 2 lost")
			}
			_, gotThird := re.BugDB().Get(svcKey("/c.go:3"))
			if gotThird == tc.lostLast {
				t.Errorf("sweep 3 present = %v, want %v", gotThird, !tc.lostLast)
			}
			wantDay := 3
			if tc.lostLast {
				wantDay = 2
			}
			wantAt := time.Unix(0, 0).Add(time.Duration(wantDay) * 24 * time.Hour)
			if last := re.LastSweep(); last == nil || !last.At.Equal(wantAt) {
				t.Errorf("recovered last sweep = %+v, want day %d", last, wantDay)
			}

			// The truncated journal accepts appends again.
			journalSweep(t, re, 4, map[string]int{"/d.go:4": 12})
			re.Close()
			re2, err := OpenStateStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if _, ok := re2.BugDB().Get(svcKey("/d.go:4")); !ok {
				t.Error("post-recovery sweep lost")
			}
		})
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStateStoreMidCompactionCrash drives both compaction crash windows:
// a crash before the manifest pointer swings (the half-written snapshot
// segment is a torn tail; the old segments are still live) and a crash
// after it (already-folded leftovers below the pointer are swept up).
// Either way recovery loses nothing that was recorded.
func TestStateStoreMidCompactionCrash(t *testing.T) {
	// segmentBytes=1 forces every sweep into its own segment, the
	// multi-segment layout compaction exists for.
	open := func(dir string) *StateStore {
		store, err := OpenStateStore(dir, WithStateCompaction(1, 100))
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	seed := func(dir string) *StateStore {
		store := open(dir)
		journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
		journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
		journalSweep(t, store, 3, map[string]int{"/c.go:3": 25})
		if store.SegmentCount() != 3 {
			t.Fatalf("seed segments = %d, want 3", store.SegmentCount())
		}
		return store
	}
	verify := func(t *testing.T, dir string) {
		re, err := OpenStateStore(dir)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer re.Close()
		for _, key := range []string{"/a.go:1", "/b.go:2", "/c.go:3"} {
			if _, ok := re.BugDB().Get(svcKey(key)); !ok {
				t.Errorf("recorded sweep for %s lost", key)
			}
		}
		if last := re.LastSweep(); last == nil || !last.At.Equal(time.Unix(0, 0).Add(72*time.Hour)) {
			t.Errorf("recovered last sweep = %+v", last)
		}
	}

	t.Run("crash-before-pointer-swing", func(t *testing.T) {
		dir := t.TempDir()
		store := seed(dir)
		store.Close()
		// The snapshot segment was being written when the crash hit: a
		// torn frame in a fresh segment, manifest still pointing at the
		// old base.
		appendBytes(t, store.segmentPath(4), []byte{0x00, 0x01, 0x02})
		verify(t, dir)
	})

	t.Run("crash-after-pointer-swing", func(t *testing.T) {
		dir := t.TempDir()
		store := seed(dir)
		if err := store.Save(); err != nil {
			t.Fatal(err)
		}
		if store.SegmentCount() != 1 {
			t.Fatalf("post-compaction segments = %d, want 1", store.SegmentCount())
		}
		store.Close()
		// The crash hit after the pointer swung but before the old
		// segments were deleted: recreate one as a leftover.
		appendBytes(t, store.segmentPath(2), []byte("stale pre-compaction garbage"))
		verify(t, dir)
		if _, err := os.Stat(store.segmentPath(2)); !errorsIsNotExist(err) {
			t.Errorf("pre-compaction leftover survived recovery: %v", err)
		}
	})
}

func errorsIsNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }

// TestStateStoreTrendRetention pins the horizon through a store: no key
// holds more than Horizon observations — in the live tracker, in the
// compacted journal, and after recovery — and the ones it holds are the
// most recent.
func TestStateStoreTrendRetention(t *testing.T) {
	const days = Horizon + 5
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateSync(SyncOnClose))
	if err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= days; day++ {
		journalSweep(t, store, day, map[string]int{"/hot.go:1": 100 * day})
	}
	if got := len(store.Tracker().Export()[svcKey("/hot.go:1")]); got != Horizon {
		t.Fatalf("live history = %d observations, want %d", got, Horizon)
	}
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	frames := readJournalFrames(t, store.segmentPath(store.activeSeq))
	if len(frames) != 1 || frames[0].Kind != recordSnapshot {
		t.Fatalf("compacted journal = %+v, want one snapshot frame", frames)
	}
	for key, obs := range frames[0].Trend {
		if len(obs) > Horizon {
			t.Errorf("compacted journal holds %d observations for %s, want <= %d", len(obs), key, Horizon)
		}
	}
	// The horizon holds the *most recent* sweeps: the last observation
	// must be the last day's total.
	obs := frames[0].Trend[svcKey("/hot.go:1")]
	if len(obs) == 0 || obs[len(obs)-1].Total != 100*days {
		t.Errorf("journaled window = %+v, want it to end at total %d", obs, 100*days)
	}

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Tracker().Export()[svcKey("/hot.go:1")]); got != Horizon {
		t.Errorf("recovered history = %d observations, want %d", got, Horizon)
	}
}

// TestStateStoreBoundedAcrossDay runs the default one-minute ingest
// window for a simulated day over 1,000 steady groups, under SyncOnClose
// and with a fold at 1 h and at 24 h. The horizon bounds what a fold
// writes: at 24 h the exported observations and the folded journal's
// bytes are within 2× of their 1 h values.
func TestStateStoreBoundedAcrossDay(t *testing.T) {
	const groups = 1000
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateSync(SyncOnClose))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	moments := make([]Moment, groups)
	for i := range moments {
		moments[i] = Moment{
			Service: fmt.Sprintf("svc%02d", i%16),
			Op:      stack.BlockedOp{Op: "send", Location: fmt.Sprintf("/svc/f%04d.go:%d", i, 10+i%50)},
			Total:   100 + i, ServiceProfiles: 4, SumSquares: float64((100 + i) * (100 + i) / 4),
		}
	}
	fold := func() (observations int, bytes int64) {
		t.Helper()
		if err := store.Save(); err != nil {
			t.Fatal(err)
		}
		for _, obs := range store.Tracker().Export() {
			observations += len(obs)
		}
		fi, err := os.Stat(store.segmentPath(store.activeSeq))
		if err != nil {
			t.Fatal(err)
		}
		return observations, fi.Size()
	}
	var hourObs int
	var hourBytes int64
	for w := 1; w <= 24*60; w++ {
		at := time.Unix(0, 0).Add(time.Duration(w) * DefaultWindow)
		for i := range moments {
			moments[i].Total = 100 + i + w%7
		}
		store.Tracker().ObserveMoments(at, moments)
		if err := store.RecordSweep(&Sweep{At: at, Source: "ingest", Profiles: 4}); err != nil {
			t.Fatal(err)
		}
		if w == 60 {
			hourObs, hourBytes = fold()
		}
	}
	dayObs, dayBytes := fold()
	t.Logf("folded at 1 h: %d observations, %d bytes; at 24 h: %d observations, %d bytes", hourObs, hourBytes, dayObs, dayBytes)
	if dayObs > 2*hourObs {
		t.Errorf("exported observations grew from %d at 1 h to %d at 24 h, want within 2×", hourObs, dayObs)
	}
	if dayBytes > 2*hourBytes {
		t.Errorf("the folded journal grew from %d bytes at 1 h to %d at 24 h, want within 2×", hourBytes, dayBytes)
	}
}

// TestStateStoreHorizonReopen runs sweeps past the horizon with a fold
// among them: the live store and the reopened one agree on the trend
// export, every verdict and the bug DB. A key only the first sweep saw
// leaves at the fold, as does a closed bug last seen then; an open bug
// of the same age stays.
func TestStateStoreHorizonReopen(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateSync(SyncOnClose))
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/leak.go:1": 100, "/gone.go:1": 10, "/open.go:1": 5, "/fixed.go:1": 5})
	if !store.BugDB().SetStatus(svcKey("/fixed.go:1"), report.StatusFixed) {
		t.Fatal("SetStatus failed")
	}
	for day := 2; day <= Horizon+5; day++ {
		// The leak drops once, on day 4, and grows 20% on every other day.
		total := int(100 * math.Pow(1.2, float64(day)))
		if day == 4 {
			total = 50
		}
		journalSweep(t, store, day, map[string]int{"/leak.go:1": total, "/busy.go:1": 300 + 200*(day%2)})
		if day == Horizon+2 {
			if err := store.Save(); err != nil {
				t.Fatal(err)
			}
			if _, ok := store.Tracker().history[svcKey("/gone.go:1")]; ok {
				t.Error("a key with no observation in the horizon survived the fold")
			}
			if _, ok := store.BugDB().Get(svcKey("/fixed.go:1")); ok {
				t.Error("a closed bug last seen before the horizon survived the fold")
			}
		}
	}
	live := replayed(store)
	verdicts := func(store *StateStore) map[string]TrendVerdict {
		out := map[string]TrendVerdict{}
		for key := range live.Trend {
			out[key] = store.Tracker().Verdict(key)
		}
		return out
	}
	liveVerdicts := verdicts(store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := replayed(re); !reflect.DeepEqual(got, live) {
		t.Errorf("reopened state diverged from the live one:\n%+v\n%+v", got, live)
	}
	if got := verdicts(re); !reflect.DeepEqual(got, liveVerdicts) {
		t.Errorf("reopened verdicts %v, want the live %v", got, liveVerdicts)
	}
	if _, ok := live.Trend[svcKey("/gone.go:1")]; ok {
		t.Error("a key out of the horizon is exported")
	}
	if v := liveVerdicts[svcKey("/leak.go:1")]; v != TrendGrowing {
		t.Errorf("leak verdict = %v, want growing once its drop left the horizon", v)
	}
	if v := liveVerdicts[svcKey("/busy.go:1")]; v != TrendOscillating {
		t.Errorf("busy verdict = %v, want oscillating", v)
	}
	if _, ok := re.BugDB().Get(svcKey("/fixed.go:1")); ok {
		t.Error("a closed bug last seen before the horizon came back at reopen")
	}
	if _, ok := re.BugDB().Get(svcKey("/open.go:1")); !ok {
		t.Error("an open bug left; open bugs never leave")
	}
}

// TestStateStoreCompactionThreshold proves the pipeline-visible loop:
// deltas roll segments, crossing the segment bound compacts back to one
// snapshot segment, and the fold loses nothing.
func TestStateStoreCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	// Every frame rolls (segmentBytes=1); more than 3 live segments
	// compacts.
	store, err := OpenStateStore(dir, WithStateCompaction(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 4; day++ {
		journalSweep(t, store, day, map[string]int{"/k.go:1": 10 * day})
	}
	// Sweep 4 pushed the journal past 3 segments and folded it before
	// RecordSweep returned.
	if got := store.SegmentCount(); got != 1 {
		t.Errorf("segments after threshold crossing = %d, want 1 (compacted)", got)
	}
	journalSweep(t, store, 5, map[string]int{"/k.go:1": 50})
	store.Close()

	re, err := OpenStateStore(dir, WithStateCompaction(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if bug, ok := re.BugDB().Get(svcKey("/k.go:1")); !ok || bug.Sightings != 5 {
		t.Errorf("recovered bug = %+v ok=%v, want 5 sightings", bug, ok)
	}
	if got := len(re.Tracker().Export()[svcKey("/k.go:1")]); got != 5 {
		t.Errorf("recovered history = %d observations, want 5", got)
	}
}

// TestStateJournalStampsPipelineClock pins the deterministic-timestamps
// satellite: a pipeline run under a fake clock journals frames whose
// SavedAt comes from that clock, not the wall clock.
func TestStateJournalStampsPipelineClock(t *testing.T) {
	dir := t.TempDir()
	fake := time.Unix(0, 0).Add(42 * 24 * time.Hour)
	pipe := New(
		WithThreshold(100),
		WithStateDir(dir),
		WithClock(func() time.Time { return fake }),
	)
	snaps := []*gprofile.Snapshot{{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}}
	if _, err := pipe.Sweep(context.Background(), FromSnapshots(snaps)); err != nil {
		t.Fatal(err)
	}
	store, err := pipe.State()
	if err != nil {
		t.Fatal(err)
	}
	frames := readJournalFrames(t, store.segmentPath(store.activeSeq))
	if len(frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(frames))
	}
	if !frames[0].SavedAt.Equal(fake) {
		t.Errorf("journal SavedAt = %v, want the fake clock's %v", frames[0].SavedAt, fake)
	}
}

// TestSweepArchiveRetention drives the archive max-sweeps knob: with
// KeepSweeps(2), four recorded sweeps leave only the two newest
// manifested subdirectories, while an unmanifested (in-progress or torn)
// directory is never touched.
func TestSweepArchiveRetention(t *testing.T) {
	base := t.TempDir()
	archive, err := NewSweepArchiveSink(base, KeepSweeps(2))
	if err != nil {
		t.Fatal(err)
	}
	day := time.Unix(0, 0)
	pipe := New(WithThreshold(100), WithClock(func() time.Time { return day })).AddSinks(archive)
	snaps := []*gprofile.Snapshot{{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}}

	// An unfinalised sweep directory (profile members, no manifest):
	// pruning must never delete it.
	torn := filepath.Join(base, "sweep-0500")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, "pay_i9.txt"), []byte("goroutine 1 [running]:\nmain.m()\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		if _, err := pipe.Sweep(context.Background(), FromSnapshots(snaps)); err != nil {
			t.Fatal(err)
		}
		day = day.Add(24 * time.Hour)
	}

	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	// The torn directory appeared after the sink was constructed, so
	// rotation numbered the recorded sweeps 0001..0004; retention keeps
	// the newest two manifested sweeps and never touches the torn dir.
	want := []string{"sweep-0003", "sweep-0004", "sweep-0500"}
	if !reflect.DeepEqual(dirs, want) {
		t.Errorf("archive dirs after retention = %v, want %v", dirs, want)
	}
}

// TestStateStoreFailedAppendRequeuesDelta pins the durability repair
// contract: an append that never became durable hands its drained delta
// back, so the next successful persist journals it rather than losing
// the sweep's filings forever.
func TestStateStoreFailedAppendRequeuesDelta(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})

	// Sabotage the active handle: a read-only fd makes the next append's
	// write fail the way a yanked disk would.
	broken, err := os.Open(store.segmentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	store.active.Close()
	store.active = broken

	at := time.Unix(0, 0).Add(48 * time.Hour)
	f := &Finding{Service: "svc", Op: "send", Location: "/b.go:2", TotalBlocked: 50}
	store.BugDB().File(report.Bug{Key: f.Key(), Service: "svc", Op: "send", Location: "/b.go:2", FiledAt: at})
	store.Tracker().ObserveMoments(at, momentsOf([]*Finding{f}))
	if err := store.RecordSweep(&Sweep{At: at, Source: "test", Profiles: 10}); err == nil {
		t.Fatal("append through a read-only fd did not error")
	}
	// The failed frame's delta must be pending again.
	if store.BugDB().DirtyCount() != 1 {
		t.Fatalf("dirty keys after failed append = %d, want 1 (requeued)", store.BugDB().DirtyCount())
	}

	// Heal the handle; the next sweep journals the requeued delta too.
	broken.Close()
	store.active = nil
	journalSweep(t, store, 3, map[string]int{"/c.go:3": 25})
	store.Close()

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, loc := range []string{"/a.go:1", "/b.go:2", "/c.go:3"} {
		if _, ok := re.BugDB().Get(svcKey(loc)); !ok {
			t.Errorf("bug for %s lost across the failed append", loc)
		}
	}
	if got := len(re.Tracker().Export()[svcKey("/b.go:2")]); got != 1 {
		t.Errorf("requeued trend observation journaled %d times, want 1", got)
	}
}

// TestStateStoreFailedCompactionKeepsState pins the failed-fold repair
// contract for both callers of the fold: a compaction that cannot swing
// the manifest removes its orphan snapshot segment (which would
// otherwise replay over later deltas) and leaves the un-folded state
// journaled and fsynced, and the next fold after the fault succeeds.
func TestStateStoreFailedCompactionKeepsState(t *testing.T) {
	// A directory squatting on the manifest name makes the atomic rename
	// fail after the snapshot segment is fully written.
	block := func(t *testing.T, dir string) func() {
		t.Helper()
		blocker := filepath.Join(dir, StateManifestName)
		if err := os.Mkdir(blocker, 0o755); err != nil {
			t.Fatal(err)
		}
		return func() {
			t.Helper()
			if err := os.Remove(blocker); err != nil {
				t.Fatal(err)
			}
		}
	}
	holds := func(t *testing.T, dir string, locs ...string) {
		t.Helper()
		re, err := OpenStateStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for _, loc := range locs {
			if _, ok := re.BugDB().Get(svcKey(loc)); !ok {
				t.Errorf("bug for %s lost across the failed compaction", loc)
			}
		}
	}

	t.Run("save", func(t *testing.T) {
		dir := t.TempDir()
		store, err := OpenStateStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
		unblock := block(t, dir)
		if err := store.Save(); err == nil {
			t.Fatal("compaction renamed its manifest over a directory")
		}
		if _, serr := os.Stat(store.segmentPath(2)); !errors.Is(serr, os.ErrNotExist) {
			t.Error("failed compaction left its orphan snapshot segment behind")
		}

		// Unblock and record another sweep: both sweeps must survive a
		// reopen, proving no state was stranded in the failed fold.
		unblock()
		journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
		store.Close()
		holds(t, dir, "/a.go:1", "/b.go:2")
	})

	// thresholdFold has sweep 3 trigger the fold: every frame rolls
	// (segmentBytes=1) and more than 2 live segments compacts.
	thresholdFold := func(t *testing.T, policy SyncPolicy, wantSyncs int64) {
		dir := t.TempDir()
		store, err := OpenStateStore(dir, WithStateCompaction(1, 2), WithStateSync(policy))
		if err != nil {
			t.Fatal(err)
		}
		journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
		journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
		unblock := block(t, dir)
		syncsBefore := store.journalSyncs()
		if err := recordDay(store, 3, map[string]int{"/c.go:3": 25}); err == nil {
			t.Fatal("RecordSweep hid its failed fold")
		}
		if _, serr := os.Stat(store.segmentPath(4)); !errors.Is(serr, os.ErrNotExist) {
			t.Error("failed fold left its orphan snapshot segment behind")
		}
		// Whatever the policy, sweep 3's frame has had its fsync once
		// Flush returns, failed fold or not; under SyncOnClose the roll
		// into sweep 3's segment also fsyncs sweep 2's frame.
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := store.journalSyncs() - syncsBefore; got != wantSyncs {
			t.Errorf("segment fsyncs from sweep 3 through Flush = %d, want %d", got, wantSyncs)
		}
		// The sweep's delta was journaled before the fold began.
		unblock()
		holds(t, dir, "/a.go:1", "/b.go:2", "/c.go:3")

		// The next sweep retries the fold, and it succeeds.
		journalSweep(t, store, 4, map[string]int{"/d.go:4": 10})
		if got := store.SegmentCount(); got != 1 {
			t.Errorf("segments after the retried fold = %d, want 1", got)
		}
		store.Close()
		holds(t, dir, "/a.go:1", "/b.go:2", "/c.go:3", "/d.go:4")
	}
	t.Run("threshold-sweep", func(t *testing.T) { thresholdFold(t, SyncEverySweep, 1) })
	t.Run("threshold-sweep-on-close", func(t *testing.T) { thresholdFold(t, SyncOnClose, 2) })
}

// TestStateStoreFoldKeepsConcurrentMutations pins the fold's capture
// order: a bug status or trend observation an embedder records while a
// threshold fold is writing is not in the snapshot, so it must stay
// pending for the next frame rather than be drained with the deltas the
// snapshot subsumes.
func TestStateStoreFoldKeepsConcurrentMutations(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateCompaction(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
	journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})

	late := &Finding{Service: "svc", Op: "send", Location: "/b.go:2", TotalBlocked: 75}
	lateAt := time.Unix(0, 0).Add(2*24*time.Hour + time.Hour)
	mutated := false
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(d string) error {
		// Sweep 3's fold writes its snapshot as segment 4; the directory
		// sync that follows runs after the fold captured the state.
		if _, err := os.Stat(store.segmentPath(4)); err == nil && !mutated {
			mutated = true
			store.BugDB().SetStatus(svcKey("/a.go:1"), report.StatusFixed)
			store.Tracker().ObserveMoments(lateAt, momentsOf([]*Finding{late}))
		}
		return orig(d)
	}
	journalSweep(t, store, 3, map[string]int{"/c.go:3": 25})
	if !mutated {
		t.Fatal("sweep 3 did not fold through the snapshot segment")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if b, _ := re.BugDB().Get(svcKey("/a.go:1")); b.Status != report.StatusFixed {
		t.Errorf("status set during the fold = %v after reopen, want fixed", b.Status)
	}
	obs := re.Tracker().Export()[late.Key()]
	if len(obs) != 2 || !obs[1].At.Equal(lateAt) {
		t.Errorf("trend history for %s = %+v, want day 2's and the observation made during the fold", late.Key(), obs)
	}
}

// TestSweepReportsSalvagedProfiles pins the live-collection half of the
// resync satellite: a dump whose scan resynced past corrupt members is
// emitted (Profiles) *and* lands in the sweep's error accounting (Fail),
// matching the archive replay path's carve-out.
func TestSweepReportsSalvagedProfiles(t *testing.T) {
	torn := "goroutine 1 [chan send]:\npay.leak()\n\t/pay/l.go:5 +0x2b\n" +
		"goroutine 99 [chan send:\ntorn.member()\n" +
		"goroutine 2 [chan send]:\npay.leak()\n\t/pay/l.go:5 +0x2b\n"
	pipe := New(WithThreshold(1))
	sweep, err := pipe.Sweep(context.Background(), Dumps(Dump{Service: "pay", Instance: "i1", Body: strings.NewReader(torn)}))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Profiles != 1 || sweep.Errors != 1 {
		t.Fatalf("sweep = %d profiles, %d errors; want 1 and 1 (salvaged counts in both)", sweep.Profiles, sweep.Errors)
	}
	if len(sweep.Failures) != 1 || !strings.Contains(sweep.Failures[0].Err.Error(), "1 malformed") {
		t.Fatalf("failures = %+v, want one salvage report", sweep.Failures)
	}
	// The salvaged records still reached the aggregator.
	if len(sweep.Findings) != 1 || sweep.Findings[0].TotalBlocked != 2 {
		t.Fatalf("findings = %+v, want the 2 salvaged goroutines", sweep.Findings)
	}
}

// TestStateStoreMidSegmentCorruptionRefuses pins the other half of the
// torn-tail contract: a checksum failure with durable frames *after* it
// cannot be a torn append, so recovery refuses instead of silently
// truncating committed sweeps away.
func TestStateStoreMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
	firstFrameEnd, err := os.Stat(store.segmentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
	store.Close()

	// Flip a byte inside the *first* frame: valid frame 2 follows it.
	body, err := os.ReadFile(store.segmentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	body[firstFrameEnd.Size()-2] ^= 0xff
	if err := os.WriteFile(store.segmentPath(1), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStateStore(dir); err == nil || !strings.Contains(err.Error(), "corrupt journal frame") {
		t.Errorf("mid-segment corruption open = %v, want a corrupt-frame refusal", err)
	}
}

// TestSalvageDoesNotSeedErrorBudget pins the budget exemption: a sweep
// whose only failures are salvage reports journals no per-service
// failure counts, so the next sweep's error budget starts full.
func TestSalvageDoesNotSeedErrorBudget(t *testing.T) {
	torn := "goroutine 1 [chan send]:\npay.leak()\n\t/pay/l.go:5 +0x2b\n" +
		"goroutine 99 [chan send:\ntorn.member()\n"
	pipe := New(WithThreshold(1))
	sweep, err := pipe.Sweep(context.Background(), Dumps(Dump{Service: "pay", Instance: "i1", Body: strings.NewReader(torn)}))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Errors != 1 || len(sweep.Failures) != 1 {
		t.Fatalf("sweep = %d errors %d failures, want 1 and 1", sweep.Errors, len(sweep.Failures))
	}
	if !errors.Is(sweep.Failures[0].Err, gprofile.ErrSalvaged) {
		t.Errorf("salvage failure not marked: %v", sweep.Failures[0].Err)
	}
	if len(sweep.FailedByService) != 0 {
		t.Errorf("FailedByService = %+v, want empty (salvage is not downness)", sweep.FailedByService)
	}
}

// TestSweepArchiveRetentionKeepsNewestRecording pins prune ordering:
// recording *older* history (an archive replay) into a retained archive
// must not delete the just-finalised sweep, because retention orders by
// recording sequence, not manifested sweep time.
func TestSweepArchiveRetentionKeepsNewestRecording(t *testing.T) {
	base := t.TempDir()
	archive, err := NewSweepArchiveSink(base, KeepSweeps(2))
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*gprofile.Snapshot{{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}}
	// Two sweeps recorded at day 100 and day 101, then a replayed sweep
	// whose manifested time is day 1 — far older than everything else.
	days := []time.Duration{100 * 24 * time.Hour, 101 * 24 * time.Hour, 24 * time.Hour}
	var now time.Duration
	pipe := New(WithThreshold(100), WithClock(func() time.Time { return time.Unix(0, 0).Add(now) })).AddSinks(archive)
	for _, d := range days {
		now = d
		if _, err := pipe.Sweep(context.Background(), FromSnapshots(snaps)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		dirs = append(dirs, e.Name())
	}
	sort.Strings(dirs)
	// The day-1 recording is the newest rotation (sweep-0003): it and
	// sweep-0002 survive; by-time pruning would have deleted it instead.
	want := []string{"sweep-0002", "sweep-0003"}
	if !reflect.DeepEqual(dirs, want) {
		t.Errorf("retained dirs = %v, want %v (recording order)", dirs, want)
	}
}

// TestStateStoreLegacyCodecRecovery pins recovery's answer to a journal
// an earlier build wrote in version-2 binary frames: the open fails
// naming both versions, never opening empty beside the bugs the journal
// records.
func TestStateStoreLegacyCodecRecovery(t *testing.T) {
	old, err := encodeBinaryRecord(codecSampleRecord(recordDelta))
	if err != nil {
		t.Fatal(err)
	}
	old[1] = 2
	assertSegmentRefused(t, fmt.Sprintf("version 2, older than supported %d", journalFormat.Version), old)
}

// assertSegmentRefused writes payloads as the frames of a fresh state
// dir's only segment and asserts the open fails naming want and leaves
// the segment byte for byte as it was.
func assertSegmentRefused(t *testing.T, want string, payloads ...[]byte) {
	t.Helper()
	seg := filepath.Join(t.TempDir(), "segment-0001.log")
	var body []byte
	for _, p := range payloads {
		body = append(body, frame.New(p)...)
	}
	if err := os.WriteFile(seg, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStateStore(filepath.Dir(seg)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want a refusal naming %q", err, want)
	}
	if got, _ := os.ReadFile(seg); !bytes.Equal(got, body) {
		t.Error("the refused segment was modified")
	}
}

// TestStateStoreTornDictionaryFrame tears the active segment inside its
// head frame, whose leading table declares the segment's first
// dictionary strings: recovery must truncate the tail (that frame and
// everything after it in that segment), keep every prior segment's
// state, and keep appending — the rebuilt in-memory dictionary must
// stay in lockstep with what survived on disk.
func TestStateStoreTornDictionaryFrame(t *testing.T) {
	dir := t.TempDir()
	// segmentBytes=1 rolls every sweep after the first into a fresh
	// segment, each starting with an empty dictionary.
	store, err := OpenStateStore(dir, WithStateCompaction(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
	journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
	journalSweep(t, store, 3, map[string]int{"/c.go:3": 25})
	if store.SegmentCount() != 3 {
		t.Fatalf("segments = %d, want 3", store.SegmentCount())
	}
	store.Close()

	// Tear the last segment mid-way through its first frame — sweep 3's
	// delta. 11 bytes is past the 8-byte frame header but far short of
	// the payload.
	last := store.segmentPath(3)
	body, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, body[:11], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatalf("torn dictionary frame failed recovery: %v", err)
	}
	if _, ok := re.BugDB().Get(svcKey("/a.go:1")); !ok {
		t.Error("sweep 1 lost")
	}
	if _, ok := re.BugDB().Get(svcKey("/b.go:2")); !ok {
		t.Error("sweep 2 lost")
	}
	if _, ok := re.BugDB().Get(svcKey("/c.go:3")); ok {
		t.Error("sweep 3 survived a tear that destroyed its segment head")
	}
	// The strings the torn frame declared are gone from disk; appends
	// must declare them again in lockstep and replay cleanly.
	journalSweep(t, re, 4, map[string]int{"/a.go:1": 120, "/d.go:4": 12})
	re.Close()
	re2, err := OpenStateStore(dir)
	if err != nil {
		t.Fatalf("post-tear append failed recovery: %v", err)
	}
	defer re2.Close()
	for _, loc := range []string{"/a.go:1", "/b.go:2", "/d.go:4"} {
		if _, ok := re2.BugDB().Get(svcKey(loc)); !ok {
			t.Errorf("post-tear recovery lost %s", loc)
		}
	}
	if bug, _ := re2.BugDB().Get(svcKey("/a.go:1")); bug.Sightings != 2 {
		t.Errorf("re-sighted bug = %d sightings, want 2", bug.Sightings)
	}
}

// TestStateStoreDictionaryShrinksSteadyState pins the dictionary's
// point: at steady state (the same keys re-sighted sweep after sweep)
// the journal is substantially smaller than the same records encoded as
// self-contained frames, because repeated strings are dictionary
// references instead of per-frame table copies.
func TestStateStoreDictionaryShrinksSteadyState(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for i := 0; i < 20; i++ {
		keys[fmt.Sprintf("/very/long/steady/state/path/services/payments/handler%02d.go:42", i)] = 100
	}
	const sweeps = 10
	for d := 1; d <= sweeps; d++ {
		journalSweep(t, store, d, keys)
	}
	store.Close()

	fi, err := os.Stat(store.segmentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	dictBytes := fi.Size()
	var selfContained int64
	for _, rec := range readJournalFrames(t, store.segmentPath(1)) {
		rec := rec
		payload, err := encodeBinaryRecord(&rec)
		if err != nil {
			t.Fatal(err)
		}
		selfContained += int64(len(frame.New(payload)))
	}
	if dictBytes >= selfContained*2/3 {
		t.Errorf("steady-state journal = %d bytes with dictionary, %d without: want at least a third smaller",
			dictBytes, selfContained)
	}
}

// TestRecordSweepAfterOversizedFoldEncodesOnce pins the roll ahead of
// the encode: a Save whose snapshot frame outgrows the segment bound
// leaves a segment that rolls before any next frame, so the next
// RecordSweep encodes its delta once, against the fresh dictionary, not
// first against the snapshot's dictionary it is about to drop.
func TestRecordSweepAfterOversizedFoldEncodesOnce(t *testing.T) {
	const bound = 1 << 10
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateCompaction(bound, 100))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for i := 0; i < 200; i++ {
		keys[fmt.Sprintf("/svc/handler%03d.go:%d", i, 10+i)] = 100 + i
	}
	journalSweep(t, store, 1, keys)
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	if store.activeSize < bound {
		t.Fatalf("snapshot frame = %d bytes, want past the %d-byte bound", store.activeSize, bound)
	}

	encodes := 0
	orig := encodeRecord
	t.Cleanup(func() { encodeRecord = orig })
	encodeRecord = func(rec *journalRecord, dt *frame.DictTable) ([]byte, error) {
		encodes++
		return orig(rec, dt)
	}
	journalSweep(t, store, 2, map[string]int{"/svc/handler000.go:10": 120, "/svc/new.go:1": 5})
	if encodes != 1 {
		t.Errorf("the sweep after an oversized fold encoded its frame %d times, want 1", encodes)
	}
	if got := store.SegmentCount(); got != 2 {
		t.Errorf("segments = %d, want the snapshot's and a fresh one", got)
	}
	store.Close()

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if b, ok := re.BugDB().Get(svcKey("/svc/handler000.go:10")); !ok || b.Sightings != 2 {
		t.Errorf("re-sighted bug after reopen = %+v, %v; want 2 sightings", b, ok)
	}
	if _, ok := re.BugDB().Get(svcKey("/svc/new.go:1")); !ok {
		t.Error("the sweep after the fold was lost on reopen")
	}
	if last := re.LastSweep(); last == nil || !last.At.Equal(time.Unix(0, 0).Add(48*time.Hour)) {
		t.Errorf("LastSweep after reopen = %+v, want day 2's", last)
	}
}

// TestStateStoreTippingFrameStaysInSegment pins the roll rule: a segment
// rolls only once it has reached its bound, before the next frame is
// encoded. The frame that carries a segment past its bound is encoded
// once, against that segment's dictionary, and written into it; the
// append after it rolls.
func TestStateStoreTippingFrameStaysInSegment(t *testing.T) {
	const bound = 1 << 10
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateCompaction(bound, 100))
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/svc/handler000.go:10": 100})
	if store.activeSize >= bound {
		t.Fatalf("first frame = %d bytes, want the segment below its %d-byte bound", store.activeSize, bound)
	}

	encodes := 0
	orig := encodeRecord
	t.Cleanup(func() { encodeRecord = orig })
	encodeRecord = func(rec *journalRecord, dt *frame.DictTable) ([]byte, error) {
		encodes++
		return orig(rec, dt)
	}
	keys := map[string]int{}
	for i := 0; i < 200; i++ {
		keys[fmt.Sprintf("/svc/handler%03d.go:%d", i, 10+i)] = 100 + i
	}
	journalSweep(t, store, 2, keys)
	if encodes != 1 {
		t.Errorf("the frame that tipped the segment was encoded %d times, want 1", encodes)
	}
	if got := store.SegmentCount(); got != 1 || store.activeSize <= bound {
		t.Errorf("segments = %d with the active one at %d bytes, want 1 past the %d-byte bound", got, store.activeSize, bound)
	}
	journalSweep(t, store, 3, map[string]int{"/svc/handler000.go:10": 120})
	if got := store.SegmentCount(); got != 2 {
		t.Errorf("segments after the next append = %d, want 2 (it rolls)", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if b, ok := re.BugDB().Get(svcKey("/svc/handler000.go:10")); !ok || b.Sightings != 3 {
		t.Errorf("bug sighted on every day = %+v, %v; want 3 sightings after reopen", b, ok)
	}
	if got := len(re.BugDB().All()); got != 200 {
		t.Errorf("bugs after reopen = %d, want 200", got)
	}
}

// TestStateStoreFoldLeavesFilesReadable checks the modes a fold leaves:
// journal.json and the snapshot segment are staged through temp files,
// and must end up 0644, as appended segments are created, so a tool
// reading the journal as another user can open them.
func TestStateStoreFoldLeavesFilesReadable(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode() != 0o644 {
			t.Errorf("%s has mode %v, want -rw-r--r--", e.Name(), fi.Mode())
		}
		names = append(names, e.Name())
	}
	if want := []string{StateManifestName, "segment-0002.log"}; !reflect.DeepEqual(names, want) {
		t.Errorf("state dir after a fold holds %v, want %v", names, want)
	}
}
