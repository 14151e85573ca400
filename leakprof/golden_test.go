package leakprof

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// observations, exported by a tracker; and one failed service. Each map
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
	tracker := &TrendTracker{}
	tracker.Restore(map[string][]TrendObservation{"svc00\x00send\x00/svc00/handler0000.go:10": obs})
	return &journalRecord{
		Kind:    recordSnapshot,
		SavedAt: at.Add(6 * 24 * time.Hour),
		Bugs:    db.All(),
		Trend:   tracker.Export(),
		Sweep: &SweepRecord{
			At: at.Add(5 * 24 * time.Hour), Source: "fleet", Profiles: 256, Errors: 2, Findings: 3000,
			FailedByService: map[string]int{"svc07": 2},
		},
	}
}

// TestGoldenBytes pins the bytes this build writes for every journal
// payload kind and for shard reports on both sides of the flate floor,
// against testdata/golden recorded from the encoders as they stood
// before the payload envelope moved into internal/frame. An encoding
// change, however harmless it looks, strands every state dir and every
// worker of a mixed fleet, so it must show up here.
func TestGoldenBytes(t *testing.T) {
	writeReport := func(rep *ShardReport) ([]byte, error) {
		var buf bytes.Buffer
		err := WriteShardReport(&buf, rep)
		return buf.Bytes(), err
	}
	for name, encode := range map[string]func() ([]byte, error){
		"journal-delta":      func() ([]byte, error) { return encodeBinaryRecord(codecSampleRecord(recordDelta)) },
		"journal-snapshot":   func() ([]byte, error) { return encodeBinaryRecord(codecSampleRecord(recordSnapshot)) },
		"journal-dict-seed":  func() ([]byte, error) { return encodeDictSeedPayload([]string{"svc", "send", "/a.go:1", "svc.leak"}) },
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
	// keep as hex: its SHA-256 pins it, recorded from the encoder before
	// the fold stopped copying its inputs.
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
