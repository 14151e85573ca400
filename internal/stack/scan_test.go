package stack

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// scanAll drains a Scanner over the dump, mirroring Parse's contract.
func scanAll(dump string) ([]*Goroutine, error) {
	gs, _, err := scanAllCounting(dump)
	return gs, err
}

// scanAllCounting drains a Scanner and also reports the malformed-member
// resync count.
func scanAllCounting(dump string) ([]*Goroutine, int, error) {
	sc := NewScanner(strings.NewReader(dump))
	var out []*Goroutine
	for sc.Scan() {
		out = append(out, sc.Goroutine())
	}
	return out, sc.Malformed(), sc.Err()
}

// syntheticDump builds a dump with clusters goroutine groups of size each,
// one distinct blocked location per cluster, plus varied singletons —
// the shape of a leaked production profile.
func syntheticDump(clusters, size int) string {
	var gs []*Goroutine
	id := int64(1)
	for c := 0; c < clusters; c++ {
		for i := 0; i < size; i++ {
			gs = append(gs, &Goroutine{
				ID:       id,
				State:    "chan send",
				WaitTime: time.Duration(c+1) * time.Minute,
				Frames: []Frame{
					{Function: "runtime.gopark", File: "/go/src/runtime/proc.go", Line: 382, Offset: 0xc6},
					{Function: fmt.Sprintf("svc%d.leak", c), File: fmt.Sprintf("/svc%d/l.go", c), Line: 5 + c, Offset: 0x2b},
				},
				CreatedBy: Frame{Function: fmt.Sprintf("svc%d.spawn", c), File: fmt.Sprintf("/svc%d/l.go", c), Line: 1 + c},
				CreatorID: 1,
			})
			id++
		}
	}
	for i := 0; i < 50; i++ {
		gs = append(gs, &Goroutine{
			ID: id, State: "IO wait",
			Frames: []Frame{{Function: fmt.Sprintf("net.poll%d", i), File: "/net/fd.go", Line: 100 + i}},
		})
		id++
	}
	return Format(gs)
}

// goldenDumps are the inputs every parser change must hold its behaviour
// on: the documented sample, preamble and malformed-header tolerance,
// frames without locations, runtime-frame stacks, and a large clustered
// dump.
func goldenDumps() map[string]string {
	return map[string]string{
		"sample":   sampleDump,
		"empty":    "",
		"preamble": "goroutine profile: total 3\n\ngoroutine 7 [running]:\nmain.main()\n\t/a/b.go:1 +0x1\n",
		"malformed-headers": "goroutine x [running]:\ngoroutine 5\ngoroutine 5 running:\n" +
			"goroutine profile: total 99\n",
		"frame-no-location": "goroutine 3 [select]:\nsome.pkg.fn()\nother.pkg.fn2()\n\t/x/y.go:9\n",
		"runtime-frames": "goroutine 9 [chan send]:\nruntime.gopark()\n\t/go/src/runtime/proc.go:382 +0xc6\n" +
			"runtime.chansend()\n\t/go/src/runtime/chan.go:259 +0x42e\nmain.sender()\n\t/src/app/send.go:8 +0x2e\n",
		"no-trailing-newline": "goroutine 4 [running]:\nmain.main()\n\t/a.go:1 +0x1",
		"crlf":                "goroutine 6 [chan receive]:\r\nmain.recv()\r\n\t/a.go:2 +0x3\r\n",
		"missing-brackets":    "goroutine 8 [chan send:\nmain.f()\n",
		"locked":              "goroutine 2 [select, 3 hours, locked to thread, wedged]:\nmain.w()\n\t/w.go:4 +0x9\n",
		"clustered":           syntheticDump(3, 40),
	}
}

func TestScannerParityOnGoldenDumps(t *testing.T) {
	for name, dump := range goldenDumps() {
		t.Run(name, func(t *testing.T) {
			assertScannerBehaviour(t, dump)
		})
	}
}

// TestScannerParityOnMutatedDumps is the fuzz-shaped property test:
// truncations, garbage line injections, and byte flips of a valid dump
// must never make the scanner diverge from the legacy parser or panic.
func TestScannerParityOnMutatedDumps(t *testing.T) {
	base := syntheticDump(4, 10)
	garbage := []string{
		"!!garbage!!",
		"goroutine 99999999999999999999999999 [running]:",
		"goroutine -3 [chan send]:",
		"\t/orphaned/location.go:7 +0x1",
		"created by lone.creator in goroutine 2",
		"no parens here",
		"fn.with.args(0x1, 0x2)",
		"goroutine 12 [chan send",
		"   leading spaces()",
		"goroutine 13 [zz, 7 minutes]:",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		m := base
		switch i % 3 {
		case 0: // truncate at a random byte
			m = base[:rng.Intn(len(base)+1)]
		case 1: // splice garbage lines at random line boundaries
			lines := strings.Split(base, "\n")
			for j := 0; j < 3; j++ {
				at := rng.Intn(len(lines) + 1)
				lines = append(lines[:at], append([]string{garbage[rng.Intn(len(garbage))]}, lines[at:]...)...)
			}
			m = strings.Join(lines, "\n")
		case 2: // flip random bytes
			b := []byte(base)
			for j := 0; j < 5; j++ {
				b[rng.Intn(len(b))] = byte(rng.Intn(256))
			}
			m = string(b)
		}
		if msg := checkScannerBehaviour(m); msg != "" {
			t.Fatalf("divergence on mutation %d:\ninput:\n%q\n%s", i, m, msg)
		}
	}
}

// TestScannerAllocsBelowParse pins the acceptance criterion: streaming a
// >=10K-goroutine dump must allocate strictly less than the
// materialise-then-parse baseline.
func TestScannerAllocsBelowParse(t *testing.T) {
	dump := syntheticDump(4, 2500) // 10050 goroutines
	var n int
	scanAllocs := testing.AllocsPerRun(3, func() {
		sc := NewScanner(strings.NewReader(dump))
		n = 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
	})
	if n != 10050 {
		t.Fatalf("scanned %d goroutines, want 10050", n)
	}
	parseAllocs := testing.AllocsPerRun(3, func() {
		gs, err := parseLegacy(dump)
		if err != nil || len(gs) != 10050 {
			t.Fatalf("parse: %v (%d)", err, len(gs))
		}
	})
	if scanAllocs >= parseAllocs {
		t.Errorf("scanner allocs/op = %.0f, want strictly below legacy parse %.0f", scanAllocs, parseAllocs)
	}
	t.Logf("allocs/op: scanner %.0f vs legacy parse %.0f", scanAllocs, parseAllocs)
}

// TestScannerInternsAcrossCluster verifies the leaked-cluster economy:
// the same function name yields the same string header across records,
// and across dumps read through one Scanner after Reset, as the pooled
// scanner of the collection path reads one instance after another.
func TestScannerInternsAcrossCluster(t *testing.T) {
	sc := NewScanner(strings.NewReader(syntheticDump(1, 3)))
	drain := func() []*Goroutine {
		var gs []*Goroutine
		for sc.Scan() {
			gs = append(gs, sc.Goroutine())
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return gs
	}
	gs := drain()
	if len(gs) < 2 {
		t.Fatalf("got %d goroutines", len(gs))
	}
	a, b := gs[0].Frames[1].Function, gs[1].Frames[1].Function
	if a != b {
		t.Fatalf("cluster functions differ: %q vs %q", a, b)
	}
	// Interned strings share storage: identical string headers.
	if unsafeStringData(a) != unsafeStringData(b) {
		t.Error("identical function names were not interned to one allocation")
	}

	// A second dump, read from its own bytes, repeats the first one's
	// cluster function.
	sc.Reset(strings.NewReader(syntheticDump(2, 2)))
	next := drain()
	if len(next) == 0 {
		t.Fatal("second dump yielded no goroutines")
	}
	c := next[0].Frames[1].Function
	if c != a {
		t.Fatalf("second dump's first function = %q, want %q", c, a)
	}
	if unsafeStringData(c) != unsafeStringData(a) {
		t.Error("a function name interned before Reset was allocated again")
	}
}

func unsafeStringData(s string) *byte {
	return unsafe.StringData(s)
}

func TestScannerYieldsIncrementally(t *testing.T) {
	// A reader that fails after the first goroutine block proves the
	// scanner yields records before the input is fully consumed.
	head := "goroutine 1 [running]:\nmain.main()\n\t/a.go:1 +0x1\n\n"
	r := &failAfter{data: []byte(head)}
	sc := NewScanner(r)
	if !sc.Scan() {
		t.Fatalf("no goroutine before reader failure: %v", sc.Err())
	}
	if sc.Goroutine().ID != 1 {
		t.Errorf("goroutine = %+v", sc.Goroutine())
	}
	if sc.Scan() {
		t.Error("Scan succeeded past reader failure")
	}
	if sc.Err() == nil {
		t.Error("reader failure not surfaced via Err")
	}
}

type failAfter struct {
	data []byte
	off  int
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, fmt.Errorf("synthetic read failure")
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

// assertScannerBehaviour pins the scanner's contract relative to the
// frozen legacy parser: on inputs the legacy parser accepts cleanly, the
// scanner must produce identical records with no resyncs; on inputs the
// legacy parser rejects (a malformed goroutine header — its only content
// error), the scanner must not error but instead resync, counting at
// least one malformed member. Where the legacy parser accepts but the
// scanner counts a salvage (orphaned frame pairs after a torn blank
// line), member identity must agree and no member may lose frames.
// Either way, arbitrary string input must never surface a scanner
// error: Err is reserved for reader failures.
func assertScannerBehaviour(t *testing.T, dump string) {
	t.Helper()
	if msg := checkScannerBehaviour(dump); msg != "" {
		t.Fatal(msg)
	}
}

func checkScannerBehaviour(dump string) string {
	want, wantErr := parseLegacy(dump)
	got, malformed, gotErr := scanAllCounting(dump)
	if gotErr != nil {
		return fmt.Sprintf("scanner errored on in-memory input: %v", gotErr)
	}
	if wantErr != nil {
		if malformed == 0 {
			return fmt.Sprintf("legacy rejected the dump (%v) but scanner resynced %d times (want >= 1)", wantErr, malformed)
		}
		return ""
	}
	if malformed != 0 {
		// Frame-level salvage: the dump carried frame-pair content where
		// a header should be (a torn frame line inside a member). The
		// legacy parser silently drops those orphaned frames; the scanner
		// reattaches them and counts the tear. Member identity must still
		// agree exactly — salvage may only enrich a member's frames,
		// never invent or lose members.
		if len(want) != len(got) {
			return fmt.Sprintf("salvaging scanner yielded %d goroutines, legacy %d", len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID || want[i].State != got[i].State {
				return fmt.Sprintf("salvaged record %d identity differs:\nlegacy:  %+v\nscanner: %+v", i, want[i], got[i])
			}
			if len(got[i].Frames) < len(want[i].Frames) {
				return fmt.Sprintf("salvaged record %d lost frames:\nlegacy:  %+v\nscanner: %+v", i, want[i], got[i])
			}
		}
		return ""
	}
	if len(want) != len(got) {
		return fmt.Sprintf("legacy: %d goroutines, scanner: %d\nlegacy: %+v\nscanner: %+v",
			len(want), len(got), dumpRecords(want), dumpRecords(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Sprintf("record %d differs:\nlegacy:  %+v\nscanner: %+v", i, want[i], got[i])
		}
	}
	return ""
}

func dumpRecords(gs []*Goroutine) []string {
	out := make([]string, 0, len(gs))
	for _, g := range gs {
		out = append(out, g.String())
	}
	return out
}
