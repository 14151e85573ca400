package gprofile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	scanned, err := ScanSnapshot("svc", "i1", at, strings.NewReader(dump))
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
	snap, err := ScanSnapshot("svc", "i1", time.Unix(0, 0), strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalGoroutines != 0 || len(snap.PreAggregated) != 0 {
		t.Errorf("empty body produced %+v", snap)
	}
}

func TestScanSnapshotResyncsPastMalformedMembers(t *testing.T) {
	// A header with brackets missing the closing ']' is the one malformed
	// member shape; the scan resyncs at the next well-formed header,
	// keeps the rest and reports the loss as a salvage.
	dump := "goroutine 8 [chan send:\nmain.torn()\n\t/t/t.go:1 +0x1\n" +
		"goroutine 9 [chan send]:\nmain.ok()\n\t/ok/ok.go:2 +0x2\n"
	snap, err := ScanSnapshot("svc", "i1", time.Unix(0, 0), strings.NewReader(dump))
	if !errors.Is(err, ErrSalvaged) {
		t.Fatalf("resynced dump: err = %v, want a salvage", err)
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

// TestScanSnapshotCountsUnlocatedBlockedMember covers a channel-blocked
// member with no frame outside the runtime: it has no location to be
// filed at, so it counts in the population and as malformed, once per
// member, and never as a blocked operation.
func TestScanSnapshotCountsUnlocatedBlockedMember(t *testing.T) {
	for _, tc := range []struct {
		name, dump string
		total      int
	}{
		{"no frames", "goroutine 1 [chan send]:\n", 1},
		{"unparsed frame", "goroutine 1 [chan send]:\n!!!garbage\n", 1},
		{"runtime frames only", "goroutine 1 [chan receive]:\nruntime.gopark(0x1)\n\t/go/src/runtime/proc.go:382 +0xc6\n", 1},
		{"count-annotated", "goroutine 1 [select, 5 times]:\n", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := ScanSnapshot("svc", "i1", time.Unix(0, 0), strings.NewReader(tc.dump))
			if !errors.Is(err, ErrSalvaged) {
				t.Fatalf("err = %v, want a salvage", err)
			}
			if snap.Malformed != 1 || snap.TotalGoroutines != tc.total || len(snap.PreAggregated) != 0 {
				t.Errorf("Malformed %d, TotalGoroutines %d, PreAggregated %v; want 1, %d and none",
					snap.Malformed, snap.TotalGoroutines, snap.PreAggregated, tc.total)
			}
		})
	}
}

func TestScanSnapshotPropagatesReadError(t *testing.T) {
	// Reader failures (a truncated transfer) still error, with the
	// instance named for the sweep's failure report.
	_, err := ScanSnapshot("svc", "i1", time.Unix(0, 0), failingReader{})
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

// FuzzScanSnapshot checks that ScanSnapshot gives exactly one verdict on
// any bytes — a clean snapshot, a salvaged snapshot with its
// ErrSalvaged error, or an error alone — that an empty body is a profile
// of zero goroutines, and that ScanDir emits and fails a file holding
// the same bytes exactly as the verdict says.
func FuzzScanSnapshot(f *testing.F) {
	member := func(id int, header string) string {
		return fmt.Sprintf("goroutine %d %s\nsvc.f%d()\n\t/s/f.go:%d +0x1\n\n", id, header, id, id)
	}
	everySecondMalformed := ""
	for id := 1; id <= 6; id++ {
		header := "[chan send]:"
		if id%2 == 0 {
			header = "[chan send:"
		}
		everySecondMalformed += member(id, header)
	}
	for _, seed := range []string{
		"",
		"\x00\x01\x02binary",
		"goroutine 1 [chan send]:",
		"goroutine 99 [chan send:\nsvc.torn()\n",
		member(1, "[chan send]:") + member(2, "[select]:"),
		everySecondMalformed,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		snap, err := ScanSnapshot("svc", "i1", time.Time{}, bytes.NewReader(body))
		switch {
		case snap != nil && err == nil:
			if snap.Malformed != 0 {
				t.Fatalf("clean verdict with Malformed %d", snap.Malformed)
			}
		case snap != nil:
			if !errors.Is(err, ErrSalvaged) || snap.Malformed == 0 {
				t.Fatalf("snapshot with error %v and Malformed %d, want a salvage", err, snap.Malformed)
			}
		case err == nil:
			t.Fatal("neither a snapshot nor an error")
		case errors.Is(err, ErrSalvaged):
			t.Fatalf("salvage %v without a snapshot", err)
		}
		if len(body) == 0 && (snap == nil || snap.TotalGoroutines != 0 || len(snap.PreAggregated) != 0) {
			t.Fatalf("empty body: %+v, %v; want a profile of zero goroutines", snap, err)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "svc_i1.txt"), body, 0o644); err != nil {
			t.Fatal(err)
		}
		var emitted []*Snapshot
		var failed []error
		if err := ScanDir(context.Background(), dir, time.Time{},
			func(s *Snapshot) { emitted = append(emitted, s) },
			func(_ string, err error) { failed = append(failed, err) }); err != nil {
			t.Fatal(err)
		}
		if (snap == nil && len(emitted) != 0) || (snap != nil && (len(emitted) != 1 || !reflect.DeepEqual(emitted[0], snap))) {
			t.Errorf("ScanDir emitted %+v, want the verdict's %+v", emitted, snap)
		}
		if (err == nil && len(failed) != 0) || (err != nil && (len(failed) != 1 || failed[0].Error() != err.Error())) {
			t.Errorf("ScanDir failed %v, want the verdict's %v", failed, err)
		}
	})
}
