package gprofile

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stack"
)

// TestDirWriterScanDirRoundTrip drives the streaming archive path both
// ways: snapshots written through one at a time (from concurrent
// writers, as ArchiveSink does during a sweep) and replayed one file at a
// time, preserving the blocked-operation counts of every operation kind.
func TestDirWriterScanDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	send := stack.BlockedOp{Op: "send", Function: "pay.leak", Location: "/pay/l.go:9"}
	sel := stack.BlockedOp{Op: "select", Function: "pay.worker", Location: "/pay/w.go:22"}
	snaps := []*Snapshot{
		{Service: "pay", Instance: "i1", PreAggregated: map[stack.BlockedOp]int{send: 3, sel: 2}},
		{Service: "pay", Instance: "i2", PreAggregated: map[stack.BlockedOp]int{send: 5}},
		{Service: "search", Instance: "h/1"}, // nothing blocked; slash sanitised in filename
	}
	var wg sync.WaitGroup
	for _, s := range snaps {
		wg.Add(1)
		go func(s *Snapshot) {
			defer wg.Done()
			if err := w.Write(s); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()

	var got []*Snapshot
	err = ScanDir(context.Background(), dir, time.Unix(9, 0), func(s *Snapshot) { got = append(got, s) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d snapshots, want 3", len(got))
	}
	total := map[stack.BlockedOp]int{}
	for _, s := range got {
		if !s.TakenAt.Equal(time.Unix(9, 0)) {
			t.Errorf("timestamp = %v", s.TakenAt)
		}
		for op, n := range s.CountByLocation() {
			total[op] += n
		}
	}
	if want := map[stack.BlockedOp]int{send: 8, sel: 2}; !reflect.DeepEqual(total, want) {
		t.Errorf("replayed blocked counts = %v, want %v", total, want)
	}
}

func TestScanDirReportsCorruptMembers(t *testing.T) {
	dir := t.TempDir()
	good := "goroutine 1 [chan send]:\nsvc.f()\n\t/s/f.go:2 +0x1\n"
	if err := os.WriteFile(filepath.Join(dir, "svc_i1.txt"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "svc_i2.txt")
	if err := os.WriteFile(bad, []byte(good), 0o000); err != nil {
		t.Fatal(err)
	}
	if _, err := os.ReadFile(bad); err == nil {
		t.Skip("running as a user that ignores file modes")
	}
	var emitted, failed int
	err := ScanDir(context.Background(), dir, time.Now(),
		func(*Snapshot) { emitted++ },
		func(name string, err error) {
			failed++
			if name != "svc_i2.txt" || err == nil {
				t.Errorf("fail(%q, %v)", name, err)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1 || failed != 1 {
		t.Errorf("emitted=%d failed=%d", emitted, failed)
	}
}

// TestScanDirSalvagesResyncedMembers pins the archive contract for a
// member torn mid-dump: records before and after the corrupt header are
// both kept, and the member is reported through fail so the sweep's
// error accounting still sees the damage.
func TestScanDirSalvagesResyncedMembers(t *testing.T) {
	dir := t.TempDir()
	torn := "goroutine 1 [chan send]:\nsvc.before()\n\t/s/b.go:2 +0x1\n" +
		"goroutine 99 [chan send:\nsvc.torn()\n" +
		"goroutine 2 [chan send]:\nsvc.after()\n\t/s/a.go:3 +0x1\n"
	if err := os.WriteFile(filepath.Join(dir, "svc_i1.txt"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	var failures []string
	err := ScanDir(context.Background(), dir, time.Now(),
		func(s *Snapshot) { snaps = append(snaps, s) },
		func(name string, err error) { failures = append(failures, name+": "+err.Error()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("emitted %d snapshots, want 1", len(snaps))
	}
	if snaps[0].TotalGoroutines != 2 || snaps[0].Malformed != 1 {
		t.Errorf("salvaged %d goroutines (%d malformed), want 2 (1)",
			snaps[0].TotalGoroutines, snaps[0].Malformed)
	}
	counts := snaps[0].CountByLocation()
	for _, loc := range []string{"/s/b.go:2", "/s/a.go:3"} {
		found := false
		for op := range counts {
			if op.Location == loc {
				found = true
			}
		}
		if !found {
			t.Errorf("location %s lost in salvage: %+v", loc, counts)
		}
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "1 malformed") {
		t.Errorf("failures = %v, want one malformed-member report", failures)
	}
}

func TestScanDirMissing(t *testing.T) {
	if err := ScanDir(context.Background(), "/does/not/exist", time.Now(), func(*Snapshot) {}, nil); err == nil {
		t.Error("missing directory should error")
	}
}
