package staticindex_test

// The precision/recall harness: the acceptance experiment for the
// static↔dynamic join. Ground truth is the synth corpus's planted seeds
// (leaks and hard negatives). The static half is the full detector
// suite via staticindex.Scan; the dynamic half is a simulated
// production deployment — every leaky seed is sighted with monotonic
// cross-sweep growth, every hard negative is sighted as oscillating
// congestion (the fleet is under load everywhere; only the trend
// separates the populations, per Fig 6). The combined ranker is
// Link(...).Actionable().
//
// The assertion is Pareto dominance: combined precision and recall are
// each at least the better half's, and combined precision strictly
// beats BOTH halves alone — static pays for hard negatives, dynamic
// pays for congestion, and the join dismisses both failure modes.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/stack"
	"repro/internal/staticindex"
	"repro/internal/synth"
	"repro/leakprof"
)

type harness struct {
	corpus *synth.Corpus
	idx    *staticindex.Index
	db     *report.DB
	trend  *leakprof.TrendTracker
}

func pkgOf(file string) string {
	if i := strings.IndexByte(file, '/'); i > 0 {
		return file[:i]
	}
	return ""
}

func qualify(s synth.Seed) string { return pkgOf(s.File) + "." + s.Function }

// buildHarness scans the corpus and replays four production sweeps over
// every seed: leaks grow 100→130→170→220 (each step clears the 15%
// stable band), hard negatives oscillate 100→140→90→150.
func buildHarness(tb testing.TB) *harness {
	tb.Helper()
	corpus := synth.Generate(synth.DefaultConfig())
	files := map[string]string{}
	for _, f := range corpus.Files() {
		if f.Test {
			continue
		}
		files[f.Path] = f.Content
	}
	idx := staticindex.Scan(files)
	idx.Root = "synth"

	leakTotals := []int{100, 130, 170, 220}
	congTotals := []int{100, 140, 90, 150}
	db := report.NewDB()
	trend := &leakprof.TrendTracker{}
	seeds := corpus.Seeds()
	for sweep := 0; sweep < 4; sweep++ {
		at := time.Unix(int64(1000*(sweep+1)), 0)
		var findings []*leakprof.Finding
		for i, s := range seeds {
			totals := congTotals
			if s.IsLeak {
				totals = leakTotals
			}
			findings = append(findings, &leakprof.Finding{
				Service: pkgOf(s.File),
				Op:      "send",
				// A distinct line per seed: several seeds share a file,
				// and identical locations would collide on the dedup key,
				// merging a leak's series with a neighbour's congestion.
				Location:     fmt.Sprintf("%s:%d", s.File, 100+i),
				Function:     qualify(s),
				TotalBlocked: totals[sweep],
			})
		}
		moments := make([]leakprof.Moment, len(findings))
		for i, f := range findings {
			moments[i] = leakprof.Moment{Service: f.Service, Op: stack.BlockedOp{Op: f.Op, Location: f.Location}, Total: f.TotalBlocked}
		}
		trend.ObserveMoments(at, moments)
		for _, f := range findings {
			db.File(report.Bug{
				Key: f.Key(), Service: f.Service, Op: f.Op, Location: f.Location,
				Function: f.Function, BlockedGoroutines: f.TotalBlocked, FiledAt: at,
			})
		}
	}
	return &harness{corpus: corpus, idx: idx, db: db, trend: trend}
}

// score computes precision/recall of a flagged-seed set against the
// planted ground truth.
func score(flaggedLeak, flaggedSafe, totalLeak int) (precision, recall float64) {
	flagged := flaggedLeak + flaggedSafe
	if flagged > 0 {
		precision = float64(flaggedLeak) / float64(flagged)
	}
	if totalLeak > 0 {
		recall = float64(flaggedLeak) / float64(totalLeak)
	}
	return
}

// seedMatch reports whether a ranked finding lands on the seed: same
// file, and the finding's function is the seed function either bare
// (static site) or package-qualified (dynamic-only bug).
func seedMatch(rf staticindex.RankedFinding, s synth.Seed) bool {
	if rf.File != s.File {
		return false
	}
	return rf.Function == s.Function || strings.HasSuffix(rf.Function, "."+s.Function)
}

func TestCombinedRankerDominatesEitherHalf(t *testing.T) {
	h := buildHarness(t)
	seeds := h.corpus.Seeds()
	totalLeak := 0
	for _, s := range seeds {
		if s.IsLeak {
			totalLeak++
		}
	}
	if totalLeak == 0 {
		t.Fatal("corpus planted no leaks")
	}

	// Static-only baseline: a seed is flagged if any alarm detector
	// reported its (file, function).
	staticFlagged := map[string]bool{}
	for _, f := range h.idx.Findings {
		if staticindex.IsAlarm(f.Detector) && f.Function != "" {
			staticFlagged[f.File+"\x00"+f.Function] = true
		}
	}
	var sLeak, sSafe int
	for _, s := range seeds {
		if !staticFlagged[s.File+"\x00"+s.Function] {
			continue
		}
		if s.IsLeak {
			sLeak++
		} else {
			sSafe++
		}
	}
	staticPrec, staticRec := score(sLeak, sSafe, totalLeak)

	// Dynamic-only baseline: every filed bug is an alarm. All seeds were
	// sighted, so recall is perfect and congestion is the precision cost.
	var dLeak, dSafe int
	for si, s := range seeds {
		if _, ok := h.db.Get(pkgOf(s.File) + "\x00send\x00" + fmt.Sprintf("%s:%d", s.File, 100+si)); !ok {
			t.Fatalf("seed %s/%s never filed", s.File, s.Function)
		}
		if s.IsLeak {
			dLeak++
		} else {
			dSafe++
		}
	}
	dynPrec, dynRec := score(dLeak, dSafe, totalLeak)

	// Combined: the cross-linker's actionable set.
	rep := staticindex.Link(h.idx, h.db, h.trend.Verdict)
	act := rep.Actionable()
	var cLeak, cSafe int
	for _, s := range seeds {
		hit := false
		for _, rf := range act {
			if seedMatch(rf, s) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if s.IsLeak {
			cLeak++
		} else {
			cSafe++
		}
	}
	combPrec, combRec := score(cLeak, cSafe, totalLeak)

	t.Logf("static-only:  precision=%.3f recall=%.3f (flagged %d leaks, %d safe of %d seeds)", staticPrec, staticRec, sLeak, sSafe, len(seeds))
	t.Logf("dynamic-only: precision=%.3f recall=%.3f", dynPrec, dynRec)
	t.Logf("combined:     precision=%.3f recall=%.3f", combPrec, combRec)

	// The corpus must make both halves imperfect, or dominance is vacuous.
	if staticPrec >= 1 {
		t.Fatal("static baseline has perfect precision; the hard negatives are not doing their job")
	}
	if dynPrec >= 1 {
		t.Fatal("dynamic baseline has perfect precision; congestion sightings are not doing their job")
	}

	// Pareto dominance, strict on precision against both halves.
	if combPrec <= staticPrec || combPrec <= dynPrec {
		t.Errorf("combined precision %.3f must strictly beat static %.3f and dynamic %.3f", combPrec, staticPrec, dynPrec)
	}
	if combRec < staticRec || combRec < dynRec {
		t.Errorf("combined recall %.3f must be at least static %.3f and dynamic %.3f", combRec, staticRec, dynRec)
	}
}

func TestSuppressionsNeverCoverPlantedLeaks(t *testing.T) {
	h := buildHarness(t)
	rep := staticindex.Link(h.idx, h.db, h.trend.Verdict)
	sup := rep.Suppressions()
	suppressed := map[string]bool{}
	for _, fn := range sup.Functions() {
		suppressed[fn] = true
	}
	for _, s := range h.corpus.Seeds() {
		if s.IsLeak && suppressed[qualify(s)] {
			t.Errorf("suppression list covers planted leak %s", qualify(s))
		}
	}
	// And it must actually suppress something: the corpus's hard
	// negatives oscillate, so the static alarms on them are demoted.
	if sup.Len() == 0 {
		t.Error("no suppressions generated; hard negatives should have been demoted")
	}
}

// BenchmarkStaticIndex measures the full detector-suite scan over the
// synth corpus — the throughput of the staticindex driver itself.
func BenchmarkStaticIndex(b *testing.B) {
	corpus := synth.Generate(synth.DefaultConfig())
	files := map[string]string{}
	var bytes int64
	for _, f := range corpus.Files() {
		if f.Test {
			continue
		}
		files[f.Path] = f.Content
		bytes += int64(len(f.Content))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := staticindex.Scan(files)
		if len(idx.Findings) == 0 {
			b.Fatal("no findings")
		}
	}
}
