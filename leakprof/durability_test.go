package leakprof

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/internal/stack"
)

// frameEnds returns the cumulative end offset of every complete frame in
// a segment file — the boundaries a crash-simulation truncation cuts
// between.
func frameEnds(t *testing.T, path string) []int64 {
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

// TestStateStoreSyncPolicies pins the group-commit accounting: fsyncs per
// recorded sweep follow the policy, not the sweep count.
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
		{"group-commit-of-3", SyncEvery(3, 0), 6, 2, 2},
		{"group-commit-partial-window", SyncEvery(4, 0), 6, 1, 2}, // 2 unsynced at Close
		{"on-close", SyncOnClose, 6, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStateStore(dir, StateSync(tc.policy))
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

// TestStateStoreTimedGroupCommit pins the background committer: with a
// pure time window, an appended frame is synced shortly after the window
// elapses without any further store calls — the fsync rides the
// committer goroutine, not a sweep.
func TestStateStoreTimedGroupCommit(t *testing.T) {
	store, err := OpenStateStore(t.TempDir(), StateSync(SyncEvery(0, 20*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	journalSweep(t, store, 1, map[string]int{"/a.go:1": 100})
	if got := store.journalSyncs(); got != 0 {
		t.Fatalf("append synced inline (%d syncs), want the committer to do it", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for store.journalSyncs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("committer never synced the window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One sync covered the window; a second window only opens with the
	// next append.
	if got := store.journalSyncs(); got != 1 {
		t.Errorf("syncs = %d, want 1 (one per window)", got)
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
		{"group-commit-of-2", SyncEvery(2, 0), 4},
		{"on-close-without-close", SyncOnClose, 0},
	}
	const sweeps = 5
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStateStore(dir, StateSync(tc.policy))
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

			re, err := OpenStateStore(dir, StateSync(tc.policy))
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
	if err := store.Compact(); err != nil {
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

// TestStateStoreMidFoldSweepDurability pins the concurrent-compaction
// durability contract: a sweep recorded while a fold is in flight does
// not block on the fold, lands on disk immediately (in a segment past
// the snapshot's reserved slot, per the sync policy), and survives a
// crash that kills the fold before it completes.
func TestStateStoreMidFoldSweepDurability(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/pre.go:1": 100})

	// Hold a synthetic fold open, staged exactly as startFoldLocked
	// stages it: the snapshot slot reserved, appends rolled past it.
	store.mu.Lock()
	newSeq := store.activeSeq + 1
	if store.active != nil {
		store.active.Close()
		store.active = nil
	}
	store.activeSeq = newSeq + 1
	store.activeSize = 0
	store.segCount++
	store.rollDictLocked()
	store.folding = true
	store.foldDone = make(chan struct{})
	store.mu.Unlock()

	recorded := make(chan error, 1)
	go func() {
		at := time.Unix(0, 0).Add(48 * time.Hour)
		f := &Finding{Service: "svc", Op: "send", Location: "/mid.go:1", TotalBlocked: 50}
		store.BugDB().File(report.Bug{Key: f.Key(), Service: "svc", Op: "send", Location: "/mid.go:1", FiledAt: at})
		store.Tracker().Observe(at, []*Finding{f})
		recorded <- store.RecordSweep(&Sweep{At: at, Source: "test", Profiles: 10})
	}()
	select {
	case err := <-recorded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecordSweep blocked on an in-flight fold")
	}
	// The mid-fold sweep is already on disk — in the segment after the
	// snapshot's slot — under the default sync-every-sweep policy.
	frames := readJournalFrames(t, store.segmentPath(newSeq+1))
	if len(frames) != 1 || len(frames[0].Bugs) != 1 || frames[0].Bugs[0].Key != svcKey("/mid.go:1") {
		t.Fatalf("mid-fold segment frames = %+v, want the sweep's delta", frames)
	}

	// Crash before the fold ever completes: the snapshot never landed,
	// and recovery must still hold both sweeps (old segment, then the
	// post-reservation delta segment across the gap).
	store.mu.Lock()
	if store.active != nil {
		store.active.Close()
		store.active = nil
	}
	store.mu.Unlock()
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatalf("mid-fold crash recovery failed: %v", err)
	}
	defer re.Close()
	for _, loc := range []string{"/pre.go:1", "/mid.go:1"} {
		if _, ok := re.BugDB().Get(svcKey(loc)); !ok {
			t.Errorf("sweep for %s lost to the mid-fold crash", loc)
		}
	}
}

// TestStateStoreConcurrentCompactionStress hammers the real concurrent
// fold: thresholds tuned so folds trigger every few sweeps while sweeps
// keep arriving, then a Flush barrier and a reopen must account for
// every sweep ever recorded.
func TestStateStoreConcurrentCompactionStress(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir, StateCompaction(1, 2))
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
			t.Errorf("sweep %d lost under concurrent compaction", day)
		}
	}
	if last := re.LastSweep(); last == nil || !last.At.Equal(time.Unix(0, 0).Add(sweeps*24*time.Hour)) {
		t.Errorf("recovered last sweep = %+v, want day %d", last, sweeps)
	}
}

// TestStateStoreBugRetention pins the age-out satellite at the store
// level: closed bugs older than the window leave memory, delta frames,
// and compaction folds; open bugs and recently-seen closed bugs stay.
func TestStateStoreBugRetention(t *testing.T) {
	dir := t.TempDir()
	day := 1
	clock := func() time.Time { return time.Unix(0, 0).Add(time.Duration(day) * 24 * time.Hour) }
	store, err := OpenStateStore(dir, StateClock(clock), StateBugRetention(3*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	journalSweep(t, store, 1, map[string]int{"/open.go:1": 100, "/fixed.go:1": 50})
	if !store.BugDB().SetStatus(svcKey("/fixed.go:1"), report.StatusFixed) {
		t.Fatal("SetStatus failed")
	}

	// Day 10: the fixed bug's last sighting (day 1) is 9 days old, far
	// past the 3-day window; the open bug is just as old but immortal.
	day = 10
	journalSweep(t, store, 10, map[string]int{"/fresh.go:1": 25})
	if _, ok := store.BugDB().Get(svcKey("/fixed.go:1")); ok {
		t.Error("closed bug survived its age-out window in memory")
	}
	if _, ok := store.BugDB().Get(svcKey("/open.go:1")); !ok {
		t.Error("open bug aged out; retention must only drop closed bugs")
	}

	// The compaction fold excludes the aged bug from the snapshot.
	if err := store.Compact(); err != nil {
		t.Fatal(err)
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
	store.Close()

	// Recovery replays history that still names the aged bug; the window
	// re-applies at open.
	re, err := OpenStateStore(dir, StateClock(clock), StateBugRetention(3*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.BugDB().Get(svcKey("/fixed.go:1")); ok {
		t.Error("aged-out bug resurrected by recovery")
	}
	if _, ok := re.BugDB().Get(svcKey("/open.go:1")); !ok {
		t.Error("open bug lost in retention-aware recovery")
	}
}

// TestPipelineDetachedSinks proves the detached fan-out: Sweep returns
// while a sink is still stalled mid-SweepDone, the next sweep proceeds
// behind it, and the stalled sink's error surfaces at the Flush barrier
// instead of the sweep result.
func TestPipelineDetachedSinks(t *testing.T) {
	leaky := &gprofile.Snapshot{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}
	stalled := &blockingSink{release: make(chan struct{})}
	reportSink := &ReportSink{Reporter: &Reporter{DB: report.NewDB(), TopN: 5}}
	pipe := New(WithThreshold(100), WithDetachedSinks()).AddSinks(stalled, reportSink)

	// Sweep 1 returns while the stalled sink has not finished SweepDone.
	sweep1, err := pipe.Sweep(context.Background(), FromSnapshots([]*gprofile.Snapshot{leaky}))
	if err != nil {
		t.Fatalf("detached sweep error = %v, want nil (sink errors surface at Flush)", err)
	}
	if len(sweep1.Findings) != 1 {
		t.Fatalf("findings = %+v", sweep1.Findings)
	}
	if stalled.done.Load() {
		t.Fatal("stalled sink finished before Sweep returned; test proves nothing")
	}

	// Sweep 2 starts and completes while sweep 1's sink work is still
	// stalled: sink lag spans sweeps.
	if _, err := pipe.Sweep(context.Background(), FromSnapshots([]*gprofile.Snapshot{leaky})); err != nil {
		t.Fatal(err)
	}
	if stalled.done.Load() {
		t.Fatal("stalled sink caught up unexpectedly")
	}

	// Release the sink: both queued sweeps drain, and Flush returns the
	// accumulated errors (one per SweepDone).
	close(stalled.release)
	err = pipe.Flush()
	if err == nil || !strings.Contains(err.Error(), "metrics push failed") {
		t.Errorf("Flush error = %v, want the detached sink's errors", err)
	}
	if !stalled.done.Load() {
		t.Error("Flush returned before the detached sink drained")
	}
	// The barrier drained the errors; a second Flush is clean.
	if err := pipe.Flush(); err != nil {
		t.Errorf("second Flush = %v, want nil", err)
	}
	if err := pipe.Close(); err != nil {
		t.Errorf("Close = %v, want nil", err)
	}
}

// TestPipelineDetachedCloseJournalsLateState pins the drain-at-Close
// contract: trend observations a detached TrendSink records after the
// sweep was journaled still reach the state journal via Close's flush,
// so a restart resumes with them.
func TestPipelineDetachedCloseJournalsLateState(t *testing.T) {
	dir := t.TempDir()
	snaps := []*gprofile.Snapshot{{Service: "pay", Instance: "i1",
		PreAggregated: map[stack.BlockedOp]int{{Op: "send", Function: "pay.leak", Location: "/pay/l.go:5"}: 500}}}
	pipe := New(
		WithThreshold(100),
		WithDetachedSinks(),
		WithStateDir(dir),
		WithClock(func() time.Time { return time.Unix(0, 0) }),
	)
	store, err := pipe.State()
	if err != nil {
		t.Fatal(err)
	}
	pipe.AddSinks(&TrendSink{Tracker: store.Tracker()})
	if _, err := pipe.Sweep(context.Background(), FromSnapshots(snaps)); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	key := (&Finding{Service: "pay", Op: "send", Location: "/pay/l.go:5"}).Key()
	if got := len(re.Tracker().Export()[key]); got != 1 {
		t.Errorf("journaled trend history = %d observations, want 1 (Close drained the late delta)", got)
	}
}

// TestParseSyncPolicy covers the flag surface both cmds expose.
func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"", SyncEverySweep, false},
		{"sweep", SyncEverySweep, false},
		{"close", SyncOnClose, false},
		{"8", SyncEvery(8, 0), false},
		{"8/2s", SyncEvery(8, 2*time.Second), false},
		{"0/500ms", SyncEvery(0, 500*time.Millisecond), false},
		{"banana", SyncPolicy{}, true},
		{"8/xyz", SyncPolicy{}, true},
	}
	for _, tc := range cases {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseSyncPolicy(%q) error = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
