package stack

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// good builds one well-formed goroutine block.
func goodBlock(id string, fn string) string {
	return "goroutine " + id + " [chan send]:\n" + fn + "()\n\t/src/" + fn + ".go:5 +0x2b\n"
}

// TestScannerResync drives the salvage contract on dumps corrupted
// mid-stream: records before the torn member are yielded, records after
// it are recovered at the next well-formed header, and the loss is
// counted per dump instead of aborting the member.
func TestScannerResync(t *testing.T) {
	a := goodBlock("1", "svc.a")
	b := goodBlock("2", "svc.b")
	c := goodBlock("3", "svc.c")
	cases := []struct {
		name      string
		dump      string
		wantIDs   []int64
		malformed int
	}{
		{
			name:      "torn-member-mid-dump",
			dump:      a + "goroutine 99 [chan send:\nsvc.torn()\n\t/src/torn.go:9 +0x1\n" + b + c,
			wantIDs:   []int64{1, 2, 3},
			malformed: 1,
		},
		{
			name:      "torn-member-first",
			dump:      "goroutine 99 [select:\nsvc.torn()\n" + a + b,
			wantIDs:   []int64{1, 2},
			malformed: 1,
		},
		{
			name:      "torn-member-last",
			dump:      a + b + "goroutine 99 [chan receive:\nsvc.torn()\n",
			wantIDs:   []int64{1, 2},
			malformed: 1,
		},
		{
			name: "two-torn-members",
			dump: a + "goroutine 98 [chan send:\nx()\n" + b +
				"goroutine 99 [select:\ny()\n" + c,
			wantIDs:   []int64{1, 2, 3},
			malformed: 2,
		},
		{
			name: "consecutive-torn-headers",
			dump: a + "goroutine 98 [chan send:\ngoroutine 99 [select:\n" + b,
			// The second torn header is its own member: each counts.
			wantIDs:   []int64{1, 2},
			malformed: 2,
		},
		{
			name:      "garbage-between-members",
			dump:      a + "goroutine 99 [oops:\n\x00\xff binary junk\nmore junk()\n\tnot/a/location\n" + b,
			wantIDs:   []int64{1, 2},
			malformed: 1,
		},
		{
			name:      "clean-dump-counts-zero",
			dump:      a + b + c,
			wantIDs:   []int64{1, 2, 3},
			malformed: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gs, malformed, err := scanAllCounting(tc.dump)
			if err != nil {
				t.Fatalf("scanner error: %v", err)
			}
			ids := make([]int64, len(gs))
			for i, g := range gs {
				ids[i] = g.ID
			}
			if len(ids) != len(tc.wantIDs) {
				t.Fatalf("salvaged ids = %v, want %v", ids, tc.wantIDs)
			}
			for i := range ids {
				if ids[i] != tc.wantIDs[i] {
					t.Fatalf("salvaged ids = %v, want %v", ids, tc.wantIDs)
				}
			}
			if malformed != tc.malformed {
				t.Errorf("malformed = %d, want %d", malformed, tc.malformed)
			}
		})
	}
}

// TestScannerResyncSkipsTornMemberLines verifies the torn member's own
// frames are dropped, not glued onto a neighbouring record.
func TestScannerResyncSkipsTornMemberLines(t *testing.T) {
	dump := goodBlock("1", "svc.a") +
		"goroutine 99 [chan send:\nsvc.torn()\n\t/src/torn.go:9 +0x1\n" +
		goodBlock("2", "svc.b")
	gs, _, err := scanAllCounting(dump)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		for _, f := range g.Frames {
			if strings.Contains(f.Function, "torn") || strings.Contains(f.File, "torn") {
				t.Fatalf("torn member's frame leaked into goroutine %d: %+v", g.ID, f)
			}
		}
	}
}

// TestScannerFrameSalvage drives the frame-level salvage contract: a torn
// frame line inside a member (manifesting as a blank that splits the
// member) no longer drops the member's remaining frames — the scanner
// resyncs at the next frame pair and reattaches them, counting the tear
// in Malformed. Content after the blank that is not a frame pair still
// disposes the member normally.
func TestScannerFrameSalvage(t *testing.T) {
	cases := []struct {
		name       string
		dump       string
		wantIDs    []int64
		wantFrames []int // frames per yielded member
		malformed  int
	}{
		{
			name: "torn-blank-inside-member",
			dump: "goroutine 1 [chan send]:\nsvc.a()\n\t/src/a.go:5 +0x2b\n\n" +
				"svc.rest()\n\t/src/rest.go:9 +0x1\n\n" + goodBlock("2", "svc.b"),
			wantIDs:    []int64{1, 2},
			wantFrames: []int{2, 1}, // svc.rest reattaches to goroutine 1
			malformed:  1,
		},
		{
			name: "torn-blank-then-created-by",
			dump: "goroutine 1 [chan send]:\nsvc.a()\n\t/src/a.go:5 +0x2b\n\n" +
				"created by svc.spawn in goroutine 7\n\t/src/sp.go:3 +0x1\n",
			wantIDs:    []int64{1},
			wantFrames: []int{1},
			malformed:  1,
		},
		{
			name: "lone-function-line-stays-dropped",
			dump: goodBlock("1", "svc.a") + "\n" +
				"orphan.fn()\n" + goodBlock("2", "svc.b"),
			wantIDs:    []int64{1, 2},
			wantFrames: []int{1, 1},
			malformed:  0,
		},
		{
			name:       "preamble-after-blank-not-salvaged",
			dump:       goodBlock("1", "svc.a") + "\ngoroutine profile: total 9\n" + goodBlock("2", "svc.b"),
			wantIDs:    []int64{1, 2},
			wantFrames: []int{1, 1},
			malformed:  0,
		},
		{
			name: "salvage-at-end-of-dump",
			dump: "goroutine 1 [chan send]:\nsvc.a()\n\t/src/a.go:5 +0x2b\n\n" +
				"svc.tail()\n\t/src/t.go:2 +0x4\n",
			wantIDs:    []int64{1},
			wantFrames: []int{2},
			malformed:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gs, malformed, err := scanAllCounting(tc.dump)
			if err != nil {
				t.Fatalf("scanner error: %v", err)
			}
			if len(gs) != len(tc.wantIDs) {
				t.Fatalf("yielded %d members, want %d: %+v", len(gs), len(tc.wantIDs), gs)
			}
			for i, g := range gs {
				if g.ID != tc.wantIDs[i] {
					t.Errorf("member %d id = %d, want %d", i, g.ID, tc.wantIDs[i])
				}
				if len(g.Frames) != tc.wantFrames[i] {
					t.Errorf("member %d frames = %d (%+v), want %d", i, len(g.Frames), g.Frames, tc.wantFrames[i])
				}
			}
			if malformed != tc.malformed {
				t.Errorf("malformed = %d, want %d", malformed, tc.malformed)
			}
			if msg := checkScannerBehaviour(tc.dump); msg != "" {
				t.Errorf("parity contract: %s", msg)
			}
		})
	}
	// The created-by salvage attaches as the creation site, not a frame.
	gs, _, err := scanAllCounting(cases[1].dump)
	if err != nil {
		t.Fatal(err)
	}
	if gs[0].CreatedBy.Function != "svc.spawn" || gs[0].CreatorID != 7 {
		t.Errorf("salvaged creation site = %+v creator %d, want svc.spawn by 7", gs[0].CreatedBy, gs[0].CreatorID)
	}
}

// FuzzScan fuzzes the scanner with truncated and garbled dumps. The
// invariants are the resync contract: in-memory input never surfaces an
// error, the scanner agrees exactly with the frozen legacy parser on
// inputs the legacy parser accepts cleanly, resyncs are counted whenever
// the legacy parser would have rejected the dump, and frame-level salvage
// (orphaned frame pairs behind a torn blank) preserves member identity
// while never losing frames. The counting path is checked differentially:
// Tally must agree with folding Scan's records (see checkTallyParity).
func FuzzScan(f *testing.F) {
	for _, dump := range goldenDumps() {
		f.Add(dump)
	}
	base := syntheticDump(2, 3)
	f.Add(base[:len(base)/2])                              // truncated mid-record
	f.Add(strings.Replace(base, "[chan send", "[chan", 1)) // garbled header region
	f.Add("goroutine 8 [chan send:\nmain.f()\n")           // torn header
	f.Add("goroutine 1 [x]:\n\tgoroutine 2 [y]:\n")
	// Frame-salvage shapes: a blank torn into a member, orphaned frame
	// pairs and created-by pairs behind it, and a bare orphan pair.
	f.Add("goroutine 1 [chan send]:\nsvc.a()\n\t/src/a.go:5 +0x2b\n\nsvc.rest()\n\t/src/r.go:9 +0x1\n")
	f.Add(goodBlock("1", "svc.a") + "\ncreated by svc.spawn in goroutine 7\n\t/src/sp.go:3 +0x1\n" + goodBlock("2", "svc.b"))
	f.Add("orphan.fn()\n\t/src/o.go:1 +0x1\n")
	// Counting-path shapes: a torn blank before the leaf (the probe
	// reattaches the leaf), a runtime frame above the leaf with no
	// location line, a count header, a nil-channel state, and a state
	// settled only by the runtime frames.
	f.Add("goroutine 1 [chan send]:\nruntime.gopark()\n\t/go/src/runtime/proc.go:382 +0xc6\n\n" +
		"svc.leak()\n\t/src/l.go:5 +0x2b\nsvc.handle()\n\t/src/h.go:3 +0x9\n\n" + goodBlock("2", "svc.b"))
	f.Add("goroutine 3 [chan receive]:\nruntime.gopark()\nruntime.chanrecv1()\n\t/go/src/runtime/chan.go:442 +0x18\n" +
		"svc.recv()\n\t/src/r.go:7 +0x1\nsvc.handle()\n\t/src/h.go:3 +0x9\n")
	f.Add("goroutine 4 [chan send, 5 minutes, 2000 times]:\nsvc.leak()\n\t/src/l.go:5 +0x2b\n" +
		"created by svc.spawn in goroutine 1\n\t/src/l.go:1 +0x5c\n")
	f.Add("goroutine 5 [chan receive (nil chan), 3 minutes]:\nsvc.dead()\n\t/src/d.go:9 +0x1\n")
	f.Add("goroutine 6 [waiting]:\nruntime.gopark()\n\t/go/src/runtime/proc.go:382 +0xc6\n" +
		"runtime.selectgo()\n\t/go/src/runtime/select.go:327 +0x7be\nsvc.fan()\n\t/src/f.go:12 +0x3\n")
	f.Fuzz(func(t *testing.T, dump string) {
		if len(dump) > 1<<20 {
			t.Skip("bounded corpus")
		}
		if msg := checkScannerBehaviour(dump); msg != "" {
			t.Fatal(msg)
		}
		if msg := checkTallyParity(dump); msg != "" {
			t.Fatal(msg)
		}
	})
}

// tallied is what the collection path keeps of a dump.
type tallied struct {
	counts    map[BlockedOp]int
	total     int
	malformed int
	err       string
}

// checkTallyParity is the counting path's oracle: Tally must give the
// same counts by BlockedOp, total multiplicity, Malformed and Err as
// folding Scan's records through BlockedChannelOp and Multiplicity. Tally
// runs twice through one scanner, Reset between, so the member record it
// recycles across dumps is checked too.
func checkTallyParity(dump string) string {
	gs, malformed, err := scanAllCounting(dump)
	want := tallied{counts: map[BlockedOp]int{}, malformed: malformed, err: fmt.Sprint(err)}
	for _, g := range gs {
		want.total += g.Multiplicity()
		if op, ok := g.BlockedChannelOp(); ok {
			want.counts[op] += g.Multiplicity()
		}
	}

	sc := NewScanner(nil)
	for pass := 0; pass < 2; pass++ {
		got := tallied{counts: map[BlockedOp]int{}}
		sc.Reset(strings.NewReader(dump))
		sc.Tally(func(op BlockedOp, n int, blocked bool) {
			got.total += n
			if blocked {
				got.counts[op] += n
			}
		})
		got.malformed, got.err = sc.Malformed(), fmt.Sprint(sc.Err())
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("Tally pass %d diverges from the Scan fold:\ntally: %+v\nscan:  %+v", pass, got, want)
		}
	}
	return ""
}
