package leakprof

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/goleak"
	"repro/internal/frame"
	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/internal/stack"
)

// frameEnds returns the cumulative end offset of every complete frame in
// a segment file — the boundaries a crash-simulation truncation cuts
// between.
func frameEnds(t testing.TB, path string) []int64 {
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
	var ends []int64
	var off int64
	for {
		_, n, err := frame.Read(br, remaining)
		if err == io.EOF {
			return ends
		}
		if err != nil {
			t.Fatalf("frame in %s: %v", path, err)
		}
		off += n
		remaining -= n
		ends = append(ends, off)
	}
}

// TestStateStoreSyncPolicies pins where each policy's fsyncs run: one
// inside every RecordSweep, or one covering every sweep at Close.
func TestStateStoreSyncPolicies(t *testing.T) {
	cases := []struct {
		name   string
		policy SyncPolicy
		sweeps int
		// syncs expected after the sweeps, and after Close.
		wantAfterSweeps int64
		wantAfterClose  int64
	}{
		{"every-sweep", SyncEverySweep, 6, 6, 6},
		{"on-close", SyncOnClose, 6, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStateStore(dir, WithStateSync(tc.policy))
			if err != nil {
				t.Fatal(err)
			}
			for day := 1; day <= tc.sweeps; day++ {
				journalSweep(t, store, day, map[string]int{fmt.Sprintf("/d%d.go:1", day): 10 * day})
			}
			if got := store.journalSyncs(); got != tc.wantAfterSweeps {
				t.Errorf("syncs after %d sweeps = %d, want %d", tc.sweeps, got, tc.wantAfterSweeps)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			if got := store.journalSyncs(); got != tc.wantAfterClose {
				t.Errorf("syncs after Close = %d, want %d", got, tc.wantAfterClose)
			}
			// Whatever the policy, a clean Close left everything durable
			// and recoverable.
			re, err := OpenStateStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for day := 1; day <= tc.sweeps; day++ {
				if _, ok := re.BugDB().Get(svcKey(fmt.Sprintf("/d%d.go:1", day))); !ok {
					t.Errorf("sweep %d lost across clean Close under %s", day, tc.policy)
				}
			}
		})
	}
}

// TestStateStoreStartsNoGoroutine pins that every fsync runs on the
// caller's goroutine: under either policy, a store between RecordSweep
// and Close runs no goroutine of its own.
func TestStateStoreStartsNoGoroutine(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEverySweep, SyncOnClose} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := goleak.IgnoreCurrent()
			store, err := OpenStateStore(t.TempDir(), WithStateSync(policy))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
			journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
			goleak.VerifyNone(t, opts)
		})
	}
}

// TestStateStoreCrashRecoveryPerSyncPolicy is the satellite's "kill
// between append and sync" test: for each policy, simulate the crash as
// a truncation inside the unsynced window (all a fail-stop crash can
// lose) and require that recovery opens the journal, loses at most the
// unsynced window, and keeps everything synced before it.
func TestStateStoreCrashRecoveryPerSyncPolicy(t *testing.T) {
	policies := []struct {
		name   string
		policy SyncPolicy
		// syncedSweeps is how many of the 5 recorded sweeps the policy
		// guarantees durable (the rest are the unsynced window).
		syncedSweeps int
	}{
		{"every-sweep", SyncEverySweep, 5},
		{"on-close-without-close", SyncOnClose, 0},
	}
	const sweeps = 5
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStateStore(dir, WithStateSync(tc.policy))
			if err != nil {
				t.Fatal(err)
			}
			for day := 1; day <= sweeps; day++ {
				journalSweep(t, store, day, map[string]int{fmt.Sprintf("/d%d.go:1", day): 10 * day})
			}
			// Kill: no Flush, no Close. The file holds all appended
			// frames (the OS had them buffered); the crash may tear any
			// suffix of the unsynced window. Simulate the worst tear the
			// policy permits: truncate to the synced boundary plus half a
			// frame.
			ends := frameEnds(t, store.segmentPath(1))
			if len(ends) != sweeps {
				t.Fatalf("recorded %d frames, want %d", len(ends), sweeps)
			}
			var syncedEnd int64
			if tc.syncedSweeps > 0 {
				syncedEnd = ends[tc.syncedSweeps-1]
			}
			cut := syncedEnd
			if tc.syncedSweeps < sweeps {
				// Half of the first unsynced frame survived the crash: a
				// torn tail recovery must truncate away.
				cut = syncedEnd + (ends[tc.syncedSweeps]-syncedEnd)/2
			}
			store.active.Close() // drop the handle without syncing
			store.active = nil
			if err := os.Truncate(store.segmentPath(1), cut); err != nil {
				t.Fatal(err)
			}

			re, err := OpenStateStore(dir, WithStateSync(tc.policy))
			if err != nil {
				t.Fatalf("%s: crash recovery failed: %v", tc.name, err)
			}
			for day := 1; day <= tc.syncedSweeps; day++ {
				if _, ok := re.BugDB().Get(svcKey(fmt.Sprintf("/d%d.go:1", day))); !ok {
					t.Errorf("synced sweep %d lost — the policy's durability guarantee broke", day)
				}
			}
			for day := tc.syncedSweeps + 1; day <= sweeps; day++ {
				if _, ok := re.BugDB().Get(svcKey(fmt.Sprintf("/d%d.go:1", day))); ok {
					t.Errorf("unsynced sweep %d survived the simulated crash; the tear was not exercised", day)
				}
			}
			// The journal accepts appends again after the truncation.
			journalSweep(t, re, sweeps+1, map[string]int{"/post.go:1": 7})
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenStateStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if _, ok := re2.BugDB().Get(svcKey("/post.go:1")); !ok {
				t.Error("post-recovery sweep lost")
			}
		})
	}
}

// TestStateStoreMixedCodecJournal pins recovery's answer to a segment
// whose frames mix codecs: a JSON frame a format-2 build appended, a
// binary frame behind it. Format 2 wrote no manifest before its first
// compaction, so the frames are the only signal: the open fails on the
// JSON frame and leaves the segment as it was.
func TestStateStoreMixedCodecJournal(t *testing.T) {
	jsonFrame, _ := json.Marshal(map[string]any{"kind": recordDelta, "bugs": []report.Bug{{Key: svcKey("/json.go:1")}}})
	binFrame, err := encodeBinaryRecord(codecSampleRecord(recordDelta))
	if err != nil {
		t.Fatal(err)
	}
	assertSegmentRefused(t, "offset 0: not a journal record (leading byte 0x7b", jsonFrame, binFrame)
}

// TestStateStoreCodecNegotiation pins the end of codec negotiation:
// manifests carry no codec field, and the one earlier builds wrote
// beside format 3 is read past, so their state dirs still open.
func TestStateStoreCodecNegotiation(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	manifest := filepath.Join(dir, StateManifestName)
	written, err := os.ReadFile(manifest)
	if err != nil || strings.Contains(string(written), "codec") {
		t.Fatalf("manifest = %s, %v; want no codec field", written, err)
	}
	earlier := strings.Replace(string(written), "}", `,"codec":"binary"}`, 1)
	if err := os.WriteFile(manifest, []byte(earlier), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatalf("manifest %s failed to load: %v", earlier, err)
	}
	defer re.Close()
	if _, ok := re.BugDB().Get(svcKey("/a.go:1")); !ok {
		t.Error("journaled bug lost behind a manifest with a codec field")
	}
}

// TestStateStoreSyncsDirectory pins the directory fsyncs that make new
// segment files and renames durable: one when an append creates a
// segment, none when it appends to an existing one, and one after each
// of Save's two renames — the snapshot segment, then the manifest —
// issued once the rename it covers is in place.
func TestStateStoreSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	// At each directory sync, record which segments exist and which one
	// the manifest points at (0: no manifest yet).
	type dirState struct {
		segments []int
		base     int
	}
	var synced []dirState
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(d string) error {
		if d != dir {
			t.Errorf("synced %s, want the state dir %s", d, dir)
		}
		st := dirState{}
		st.segments, _ = (&StateStore{dir: dir}).listSegments()
		if m, err := (&StateStore{dir: dir}).readManifest(); err == nil && m != nil {
			st.base = m.BaseSegment
		}
		synced = append(synced, st)
		return orig(d)
	}

	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
	if len(synced) != 1 || !reflect.DeepEqual(synced[0].segments, []int{1}) {
		t.Fatalf("syncs after the first append = %+v, want one, once segment 1 exists", synced)
	}
	journalSweep(t, store, 2, map[string]int{"/b.go:2": 50})
	if len(synced) != 1 {
		t.Fatalf("syncs after an append into the existing segment = %d, want still 1", len(synced))
	}
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	want := []dirState{
		{segments: []int{1}},
		{segments: []int{1, 2}},          // the snapshot segment landed; no pointer yet
		{segments: []int{1, 2}, base: 2}, // the pointer swung; old segment not yet deleted
	}
	if !reflect.DeepEqual(synced, want) {
		t.Errorf("directory syncs = %+v, want %+v", synced, want)
	}
}

// TestStateStoreConcurrentCompactionStress hammers the threshold fold:
// thresholds tuned so folds trigger every few sweeps while sweeps keep
// arriving, then a Flush barrier and a reopen must account for every
// sweep ever recorded.
func TestStateStoreConcurrentCompactionStress(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateCompaction(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	const sweeps = 60
	for day := 1; day <= sweeps; day++ {
		journalSweep(t, store, day, map[string]int{fmt.Sprintf("/d%03d.go:1", day): day})
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for day := 1; day <= sweeps; day++ {
		if _, ok := re.BugDB().Get(svcKey(fmt.Sprintf("/d%03d.go:1", day))); !ok {
			t.Errorf("sweep %d lost under threshold compaction", day)
		}
	}
	if last := re.LastSweep(); last == nil || !last.At.Equal(time.Unix(0, 0).Add(sweeps*24*time.Hour)) {
		t.Errorf("recovered last sweep = %+v, want day %d", last, sweeps)
	}
}

// TestStateStoreBugRetention pins the age-out of closed bugs at the store
// level: a closed bug last seen before the trend horizon leaves at the
// next fold, which leaves it out of the snapshot, or at the next open,
// which drops it after replay; open bugs and closed bugs seen within the
// horizon stay. No sweep walks the bug DB, so until then it stays in
// memory.
func TestStateStoreBugRetention(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateSync(SyncOnClose))
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/open.go:1": 100, "/fixed.go:1": 50})
	if !store.BugDB().SetStatus(svcKey("/fixed.go:1"), report.StatusFixed) {
		t.Fatal("SetStatus failed")
	}
	// Day Horizon+1: the horizon starts on day 2, after the fixed bug's
	// last sighting; the open bug is just as old but never leaves.
	for day := 2; day <= Horizon+1; day++ {
		keys := map[string]int{"/fresh.go:1": 25}
		if day == Horizon+1 {
			keys["/recent.go:1"] = 25
		}
		journalSweep(t, store, day, keys)
	}
	if !store.BugDB().SetStatus(svcKey("/recent.go:1"), report.StatusFixed) {
		t.Fatal("SetStatus failed")
	}
	if _, ok := store.BugDB().Get(svcKey("/fixed.go:1")); !ok {
		t.Error("a sweep aged the closed bug out; only a fold or an open walks the bug DB")
	}

	// The fold drops the aged bug and leaves it out of the snapshot.
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.BugDB().Get(svcKey("/fixed.go:1")); ok {
		t.Error("closed bug survived a fold past the horizon in memory")
	}
	frames := readJournalFrames(t, store.segmentPath(store.activeSeq))
	if len(frames) != 1 || frames[0].Kind != recordSnapshot {
		t.Fatalf("compacted journal = %+v, want one snapshot", frames)
	}
	for _, b := range frames[0].Bugs {
		if b.Key == svcKey("/fixed.go:1") {
			t.Error("aged-out bug journaled into the compaction fold")
		}
	}
	for _, loc := range []string{"/open.go:1", "/recent.go:1"} {
		if _, ok := store.BugDB().Get(svcKey(loc)); !ok {
			t.Errorf("%s left at the fold; only closed bugs last seen before the horizon leave", loc)
		}
	}

	// A horizon later the recently fixed bug has aged too. Replay
	// resurrects it from the snapshot, and the open drops it again.
	for day := Horizon + 2; day <= 2*Horizon+1; day++ {
		journalSweep(t, store, day, map[string]int{"/fresh.go:1": 25})
	}
	store.Close()
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, loc := range []string{"/fixed.go:1", "/recent.go:1"} {
		if _, ok := re.BugDB().Get(svcKey(loc)); ok {
			t.Errorf("aged-out bug %s resurrected by recovery", loc)
		}
	}
	if _, ok := re.BugDB().Get(svcKey("/open.go:1")); !ok {
		t.Error("open bug lost in recovery")
	}
}

// TestPipelineDetachedCloseJournalsLateState pins the drain-at-Close
// contract: a status transition an embedder makes after the last sweep
// was journaled still reaches the state journal through Pipeline.Close,
// so a restart resumes with it.
func TestPipelineDetachedCloseJournalsLateState(t *testing.T) {
	dir := t.TempDir()
	snaps := []*gprofile.Snapshot{{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}}
	pipe := New(
		WithThreshold(100),
		WithStateDir(dir),
		WithClock(func() time.Time { return time.Unix(0, 0) }),
	)
	store, err := pipe.State()
	if err != nil {
		t.Fatal(err)
	}
	pipe.AddSinks(
		&ReportSink{Reporter: &Reporter{DB: store.BugDB(), TopN: 5}},
		&TrendSink{Tracker: store.Tracker()},
	)
	if _, err := pipe.Sweep(context.Background(), FromSnapshots(snaps)); err != nil {
		t.Fatal(err)
	}
	key := (&Finding{Service: "pay", Op: "send", Location: "/pay/l.go:5"}).Key()
	if !store.BugDB().SetStatus(key, report.StatusFixed) {
		t.Fatal("the sweep filed no bug to transition")
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if bug, ok := re.BugDB().Get(key); !ok || bug.Status != report.StatusFixed {
		t.Errorf("journaled bug = %+v ok=%v, want status %v (Close journaled the late transition)", bug, ok, report.StatusFixed)
	}
	if got := len(re.Tracker().Export()[key]); got != 1 {
		t.Errorf("journaled trend history = %d observations, want 1", got)
	}
}

// TestParseSyncPolicy covers cmd/leakprof's -fsync surface: the two
// policy names parse, and anything else fails naming both.
func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"", SyncEverySweep, false},
		{"sweep", SyncEverySweep, false},
		{"close", SyncOnClose, false},
		{"8", SyncPolicy{}, true},
		{"8/2s", SyncPolicy{}, true},
		{"0/500ms", SyncPolicy{}, true},
		{"banana", SyncPolicy{}, true},
		{"8/xyz", SyncPolicy{}, true},
	}
	for _, tc := range cases {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseSyncPolicy(%q) error = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if err != nil && !(strings.Contains(err.Error(), "sweep") && strings.Contains(err.Error(), "close")) {
			t.Errorf("ParseSyncPolicy(%q) error = %v, want it to name sweep and close", tc.in, err)
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
