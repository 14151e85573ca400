package leakprof

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
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
}
