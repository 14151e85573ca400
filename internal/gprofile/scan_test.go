package gprofile

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/stack"
)

func clusterDump(t *testing.T) (string, int) {
	t.Helper()
	var gs []*stack.Goroutine
	id := int64(1)
	add := func(state, fn, file string, line int, wait time.Duration, n int) {
		for i := 0; i < n; i++ {
			gs = append(gs, &stack.Goroutine{
				ID: id, State: state, WaitTime: wait,
				Frames: []stack.Frame{{Function: fn, File: file, Line: line, Offset: 0x2b}},
			})
			id++
		}
	}
	add("chan send", "svc.leak", "/svc/l.go", 5, 5*time.Minute, 40)
	add("chan receive (nil chan)", "svc.dead", "/svc/d.go", 9, 0, 7)
	add("select", "svc.fan", "/svc/f.go", 12, 2*time.Hour, 13)
	add("IO wait", "net.poll", "/net/fd.go", 100, 0, 25) // not channel-blocked
	add("running", "svc.h", "/svc/h.go", 1, 0, 5)
	return stack.Format(gs), len(gs)
}

// TestScanSnapshotMatchesParsePath asserts the streaming aggregation is
// observationally identical to parse-then-count: same CountByLocation,
// same per-op pre-aggregates including wait durations.
func TestScanSnapshotMatchesParsePath(t *testing.T) {
	dump, total := clusterDump(t)
	at := time.Unix(7, 0)

	// The reference: full records from stack.Parse, folded the way the
	// LEAKPROF grouping defines it.
	parsed, err := stack.Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	want := map[stack.BlockedOp]int{}
	for _, g := range parsed {
		if op, ok := g.BlockedChannelOp(); ok {
			op.WaitTime = 0
			want[op] += g.Multiplicity()
		}
	}
	scanned, err := ScanSnapshot("svc", "i1", at, strings.NewReader(dump), nil)
	if err != nil {
		t.Fatal(err)
	}

	if scanned.Service != "svc" || scanned.Instance != "i1" || !scanned.TakenAt.Equal(at) {
		t.Errorf("metadata = %+v", scanned)
	}
	if scanned.TotalGoroutines != total {
		t.Errorf("total = %d, want %d", scanned.TotalGoroutines, total)
	}

	if got := scanned.CountByLocation(); !reflect.DeepEqual(got, want) {
		t.Errorf("CountByLocation diverges:\nscan:  %+v\nparse: %+v", got, want)
	}

	// Wait durations must be preserved in the pre-aggregated keys so
	// duration filters see them.
	var sawWait bool
	for op := range scanned.PreAggregated {
		if op.WaitTime == int64(5*time.Minute) && op.Location == "/svc/l.go:5" {
			sawWait = true
		}
	}
	if !sawWait {
		t.Errorf("wait durations lost in pre-aggregates: %+v", scanned.PreAggregated)
	}
}

func TestScanSnapshotEmptyBody(t *testing.T) {
	snap, err := ScanSnapshot("svc", "i1", time.Unix(0, 0), strings.NewReader(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalGoroutines != 0 || len(snap.PreAggregated) != 0 {
		t.Errorf("empty body produced %+v", snap)
	}
}

func TestScanSnapshotResyncsPastMalformedMembers(t *testing.T) {
	// A header with brackets missing the closing ']' is the one malformed
	// member shape; the scan resyncs at the next well-formed header and
	// reports the loss on the snapshot instead of erroring.
	dump := "goroutine 8 [chan send:\nmain.torn()\n\t/t/t.go:1 +0x1\n" +
		"goroutine 9 [chan send]:\nmain.ok()\n\t/ok/ok.go:2 +0x2\n"
	snap, err := ScanSnapshot("svc", "i1", time.Unix(0, 0), strings.NewReader(dump), nil)
	if err != nil {
		t.Fatalf("resynced dump errored: %v", err)
	}
	if snap.Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", snap.Malformed)
	}
	if snap.TotalGoroutines != 1 {
		t.Errorf("TotalGoroutines = %d, want 1 (the salvaged member)", snap.TotalGoroutines)
	}
	var salvaged bool
	for op, n := range snap.CountByLocation() {
		if op.Location == "/ok/ok.go:2" && n == 1 {
			salvaged = true
		}
	}
	if !salvaged {
		t.Errorf("post-corruption member not salvaged: %+v", snap.PreAggregated)
	}
}

func TestScanSnapshotPropagatesReadError(t *testing.T) {
	// Reader failures (a truncated transfer) still error, with the
	// instance named for the sweep's failure report.
	_, err := ScanSnapshot("svc", "i1", time.Unix(0, 0), failingReader{}, nil)
	if err == nil {
		t.Fatal("reader failure did not error")
	}
	if !strings.Contains(err.Error(), "svc/i1") {
		t.Errorf("error lacks instance context: %v", err)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) {
	return 0, errors.New("synthetic read failure")
}
