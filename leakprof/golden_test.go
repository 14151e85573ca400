package leakprof

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/report"
	"repro/internal/stack"
)

// goldenShardReport builds a shard report with one entry per map and
// moments moments: few keep its body below the flate floor, many push
// it above.
func goldenShardReport(moments int) *ShardReport {
	rep := &ShardReport{
		Shard:           "shard-0",
		Seq:             9,
		At:              time.Unix(1700000000, 0).UTC(),
		Profiles:        64,
		Errors:          1,
		Services:        map[string]int{"svc": 64},
		FailedByService: map[string]int{"svc": 1},
		Failures:        []SweepFailure{{Service: "svc", Instance: "i-7", Err: errors.New("connection refused")}},
		Err:             "",
	}
	for i := 0; i < moments; i++ {
		rep.Moments = append(rep.Moments, Moment{
			Service: "svc",
			Op: stack.BlockedOp{
				Op:       "send",
				Location: fmt.Sprintf("/svc/handler%03d.go:%d", i, 10+i),
				Function: fmt.Sprintf("svc.(*Handler).serve%03d", i),
				WaitTime: int64(i),
			},
			Total: 1000 + i, Instances: 3, ServiceProfiles: 64, Suspicious: i % 2,
			SumSquares: float64(i) * 1.5, MaxCount: 500 + i, MaxInstance: fmt.Sprintf("i-%d", i%5),
		})
	}
	return rep
}

// goldenLargeSnapshot builds a fold's snapshot record large enough that
// its frame spans flate's 32 KB window and several deflate blocks: 3,000
// bugs over 64 services, each at its own location and function, filed
// on five days and captured in DB.All's order; one trend key with 500
// observations; and one failed service. Each map
// holds one entry, so the encoding does not depend on map order.
func goldenLargeSnapshot() *journalRecord {
	at := time.Unix(1700000000, 0).UTC()
	db := report.NewDB()
	ops := []string{"send", "receive", "select"}
	for i := 0; i < 3000; i++ {
		svc := fmt.Sprintf("svc%02d", i%64)
		op := ops[i%len(ops)]
		loc := fmt.Sprintf("/%s/handler%04d.go:%d", svc, i, 10+i%90)
		bug := report.Bug{
			Key: svc + "\x00" + op + "\x00" + loc, Service: svc, Op: op, Location: loc,
			Function:          fmt.Sprintf("%s.(*Handler).serve%04d", svc, i),
			Owner:             fmt.Sprintf("team-%d", i%7),
			BlockedGoroutines: 1000 + 7*i,
			Impact:            1.25 * float64(i),
			FiledAt:           at.Add(time.Duration(i%5) * 24 * time.Hour),
		}
		if i%11 == 0 {
			bug.StaticAlarm = "gcatch-like: send on chan with no reachable receiver"
		}
		db.File(bug)
		if i%4 == 0 {
			bug.LastSeen = bug.FiledAt.Add(48 * time.Hour)
			db.File(bug)
		}
		if i%13 == 0 {
			db.SetStatus(bug.Key, report.StatusAcknowledged)
		}
	}
	obs := make([]TrendObservation, 500)
	for i := range obs {
		obs[i] = TrendObservation{At: at.Add(time.Duration(i) * time.Hour), Total: 100 + 3*i, Profiles: 8 + i%4, SumSquares: 12.5 * float64(i)}
	}
	// The trend map is built directly: a tracker would hide all but the
	// last Horizon of these 500 hourly observations.
	return &journalRecord{
		Kind:    recordSnapshot,
		SavedAt: at.Add(6 * 24 * time.Hour),
		Bugs:    db.All(),
		Trend:   map[string][]TrendObservation{"svc00\x00send\x00/svc00/handler0000.go:10": obs},
		Sweep: &SweepRecord{
			At: at.Add(5 * 24 * time.Hour), Source: "fleet", Profiles: 256, Errors: 2, Findings: 3000,
			FailedByService: map[string]int{"svc07": 2},
		},
	}
}

// TestGoldenBytes pins the bytes this build writes for each journal
// payload kind it writes (delta and snapshot) and for shard reports on
// both sides of the flate floor, against testdata/golden. Written bytes
// change in one of two kinds of epoch, each re-recording the files in a
// commit of its own:
//
//   - a byte epoch changes what the encoders write but not what the
//     decoders read, so the version stays and payloads written before it
//     still open. The flate level's move from 6 to 4 was one: its
//     compressed payloads changed, and testdata/golden keeps a level-6
//     snapshot that must still decode (TestGoldenLevel6SnapshotOpens).
//     Starting every segment's dictionary empty was another: the store
//     stopped writing the dictionary-seed frame, and journal-dict-seed
//     is kept as a segment head that must still replay
//     (TestGoldenDictSeedSegmentResumes).
//   - a version epoch changes the layout. The version byte moves, and
//     this build refuses payloads at any other version with an error
//     naming both, as shard reports' version 3 (failure kinds) refuses 2.
//
// Either way a change here, however harmless it looks, is one a state
// dir or a mixed fleet of workers will see, so it must show up here.
func TestGoldenBytes(t *testing.T) {
	writeReport := func(rep *ShardReport) ([]byte, error) {
		var buf bytes.Buffer
		err := WriteShardReport(&buf, rep)
		return buf.Bytes(), err
	}
	for name, encode := range map[string]func() ([]byte, error){
		"journal-delta":      func() ([]byte, error) { return encodeBinaryRecord(codecSampleRecord(recordDelta)) },
		"journal-snapshot":   func() ([]byte, error) { return encodeBinaryRecord(codecSampleRecord(recordSnapshot)) },
		"shard-report-small": func() ([]byte, error) { return writeReport(goldenShardReport(2)) },
		"shard-report-large": func() ([]byte, error) { return writeReport(goldenShardReport(80)) },
	} {
		got, err := encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".hex"))
		if err != nil {
			t.Fatal(err)
		}
		if h := hex.EncodeToString(got); h != strings.TrimSpace(string(want)) {
			t.Errorf("%s drifted from testdata/golden:\ngot  %s\nwant %s", name, h, want)
		}
		if name == "shard-report-large" && got[frame.HeaderSize+2]&1 == 0 {
			t.Error("large golden report is not flate-compressed; raise its moment count")
		}
	}

	// The fold's frame, as encodeSnapshotFrame writes it, is too large to
	// keep as hex: its SHA-256 pins it.
	large, _, err := encodeSnapshotFrame(goldenLargeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(large) < 64<<10 {
		t.Errorf("large snapshot frame is %d bytes, no longer past flate's 32 KB window twice over", len(large))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "journal-snapshot-large.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(large); hex.EncodeToString(sum[:]) != strings.TrimSpace(string(want)) {
		t.Errorf("journal-snapshot-large (%d bytes) drifted from testdata/golden: sha256 %x, want %s", len(large), sum, want)
	}
}

// TestGoldenLevel6SnapshotOpens decodes the sample snapshot as builds
// before the flate-level epoch wrote it, at level 6: a DEFLATE reader
// inflates any level, so state dirs written then open with no version
// bump.
func TestGoldenLevel6SnapshotOpens(t *testing.T) {
	payload := goldenPayload(t, "journal-snapshot-level6")
	now, err := encodeBinaryRecord(codecSampleRecord(recordSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(payload, now) {
		t.Fatal("the level-6 fixture equals what this build writes; it no longer pins an older level")
	}
	got, err := decodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := codecSampleRecord(recordSnapshot); !reflect.DeepEqual(got, want) {
		t.Fatalf("level-6 snapshot decoded to\n%+v\nwant %+v", got, want)
	}
}

// goldenPayload reads the payload testdata/golden/name.hex holds.
func goldenPayload(tb testing.TB, name string) []byte {
	tb.Helper()
	h, err := os.ReadFile(filepath.Join("testdata", "golden", name+".hex"))
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := hex.DecodeString(strings.TrimSpace(string(h)))
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// dictSeedSegment returns a rolled segment as earlier builds wrote one:
// the dictionary-seed frame of testdata/golden, carrying the strings
// "svc", "send", "/a.go:1" and "svc.leak" over from the segment before,
// then the sample delta encoded against the seeded dictionary.
func dictSeedSegment(tb testing.TB) []byte {
	tb.Helper()
	seed := goldenPayload(tb, "journal-dict-seed")
	var dec segDecoder
	if rec, err := dec.decodePayload(seed); err != nil || rec != nil {
		tb.Fatalf("dictionary-seed fixture decoded to %+v, %v; want no record", rec, err)
	}
	delta, err := encodeBinaryRecordDict(codecSampleRecord(recordDelta), frame.NewDictTable(dec.dict, 0))
	if err != nil {
		tb.Fatal(err)
	}
	return append(frame.New(seed), frame.New(delta)...)
}

// TestGoldenDictSeedSegmentResumes opens a state dir whose only segment
// is headed by the dictionary-seed frame, which this build reads but
// never writes. The segment must replay, take appends whose references
// index the seeded dictionary in lockstep with a reader's, and reopen to
// the state the store held.
func TestGoldenDictSeedSegmentResumes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "segment-0001.log"), dictSeedSegment(t), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := codecSampleRecord(recordDelta).Bugs[0]
	if got, ok := store.BugDB().Get(want.Key); !ok || got.Function != want.Function || got.Location != want.Location {
		t.Fatalf("replayed bug = %+v, %v; want the sample's %+v", got, ok, want)
	}
	// Day 2 names the seeded "svc", "send" and "/a.go:1" again and adds
	// strings of its own.
	journalSweep(t, store, 2, map[string]int{"/a.go:1": 5, "/e.go:5": 7})
	if got := store.SegmentCount(); got != 1 {
		t.Fatalf("segments = %d, want the append in the seeded segment", got)
	}
	live := replayed(store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if again := replayed(re); !reflect.DeepEqual(live, again) {
		t.Fatalf("reopen diverged from the live store:\n%+v\n%+v", live, again)
	}
	if _, ok := re.BugDB().Get(svcKey("/e.go:5")); !ok {
		t.Error("day 2's new bug was lost on reopen")
	}
}
