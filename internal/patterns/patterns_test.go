package patterns

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/stack"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"complex-state", "contract-context", "contract-done",
		"contract-outside-loop", "double-send", "empty-select",
		"loop-no-escape", "missing-receiver", "ncast-leak", "nil-receive",
		"nil-send", "premature-return", "timeout-leak", "timer-loop",
		"unclosed-range",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d patterns, want %d", len(all), len(want))
	}
	for i, p := range all {
		if p.Name != want[i] {
			t.Errorf("pattern %d = %q, want %q", i, p.Name, want[i])
		}
		if p.Doc == "" || p.Trigger == nil || p.Fixed == nil || p.Stacks == nil {
			t.Errorf("pattern %q incomplete", p.Name)
		}
	}
	if _, err := Lookup("ncast-leak"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("no-such"); err == nil {
		t.Error("Lookup of unknown pattern succeeded")
	}
}

func TestByCategory(t *testing.T) {
	sends := ByCategory(CatSend)
	if len(sends) != 7 {
		t.Errorf("send patterns = %d, want 7", len(sends))
	}
	for _, p := range sends {
		if p.Category != CatSend {
			t.Errorf("%q misfiled", p.Name)
		}
	}
	if got := len(ByCategory(CatSelect)); got != 5 {
		t.Errorf("select patterns = %d, want 5", got)
	}
	if got := len(ByCategory(CatReceive)); got != 3 {
		t.Errorf("receive patterns = %d, want 3", got)
	}
}

// TestLiveTriggerAndRelease runs every releasable pattern end to end:
// trigger a few leaks, confirm goroutines park in the declared blocking
// kind with the declared stack signature, release, and confirm they exit.
// It follows the triggered goroutines by ID, so goroutines of the same
// kind elsewhere in the process (other tests, the runtime) do not count.
func TestLiveTriggerAndRelease(t *testing.T) {
	for _, p := range All() {
		if !p.Releasable {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			before := kindIDs(t, p.Kind)
			inst := p.Trigger(3)
			if inst.N != 3 {
				t.Fatalf("instance N = %d", inst.N)
			}
			// The triggered goroutines are the new ones of this kind that
			// carry this pattern's signature.
			var triggered map[int64]bool
			deadline := time.Now().Add(5 * time.Second)
			for {
				triggered = make(map[int64]bool)
				for id, leaf := range kindIDs(t, p.Kind) {
					if _, old := before[id]; !old && strings.Contains(leaf, "repro/internal/patterns.") {
						triggered[id] = true
					}
				}
				if len(triggered) >= 3 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if len(triggered) < 3 {
				t.Errorf("only %d/3 leaked goroutines carry a patterns signature", len(triggered))
			}
			inst.Release()
			remaining := func() int {
				n := 0
				for id := range kindIDs(t, p.Kind) {
					if triggered[id] {
						n++
					}
				}
				return n
			}
			deadline = time.Now().Add(5 * time.Second)
			for remaining() > 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := remaining(); n > 0 {
				t.Errorf("after release: %d of %d triggered goroutines of kind %v remain", n, len(triggered), p.Kind)
			}
		})
	}
}

// TestFixedVariantsLeakNothing runs each Fixed protocol and confirms no
// pattern goroutines linger.
func TestFixedVariantsLeakNothing(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			p.Fixed(4) // returns only when all goroutines finished
			gs, err := stack.Current()
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range gs {
				leaf := g.Leaf().Function
				if strings.Contains(leaf, "repro/internal/patterns.") && g.Kind() == p.Kind {
					t.Errorf("fixed variant leaked: %s", g)
				}
			}
		})
	}
}

// kindIDs maps the ID of every live goroutine of kind k to its leaf
// function.
func kindIDs(t *testing.T, k stack.Kind) map[int64]string {
	t.Helper()
	gs, err := stack.Current()
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[int64]string)
	for _, g := range gs {
		if g.Kind() == k {
			ids[g.ID] = g.Leaf().Function
		}
	}
	return ids
}

func TestSyntheticStacksMatchDeclaredKind(t *testing.T) {
	for _, p := range All() {
		gs := p.Stacks(100, 5)
		if len(gs) != 5 {
			t.Errorf("%s: got %d stacks", p.Name, len(gs))
			continue
		}
		for i, g := range gs {
			if g.ID != 100+int64(i) {
				t.Errorf("%s: id sequence broken: %d", p.Name, g.ID)
			}
			if g.Kind() != p.Kind {
				t.Errorf("%s: synthetic kind = %v, want %v", p.Name, g.Kind(), p.Kind)
			}
			if g.Leaf().Function == "" || g.CreatedBy.Function == "" {
				t.Errorf("%s: synthetic stack lacks context: %+v", p.Name, g)
			}
		}
		// Synthetic stacks round-trip through the dump format.
		parsed, err := stack.Parse(stack.Format(gs))
		if err != nil {
			t.Errorf("%s: synthetic dump unparseable: %v", p.Name, err)
		} else if len(parsed) != 5 {
			t.Errorf("%s: round trip lost goroutines", p.Name)
		}
	}
}

func TestRelocate(t *testing.T) {
	gs := PrematureReturn.Stacks(1, 2)
	Relocate(gs, "/services/payments/worker.go", 77)
	for _, g := range gs {
		if g.Leaf().File != "/services/payments/worker.go" || g.Leaf().Line != 77 {
			t.Errorf("relocation failed: %+v", g.Leaf())
		}
		if g.CreatedBy.Line != 73 {
			t.Errorf("creator line = %d", g.CreatedBy.Line)
		}
		if g.Kind() != stack.KindChanSend {
			t.Error("relocation changed the kind")
		}
	}
}

func TestBenignStacksAreNotChannelBlocked(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gs := BenignStacks(r, 1, 500)
	if len(gs) != 500 {
		t.Fatalf("got %d", len(gs))
	}
	states := map[string]int{}
	for _, g := range gs {
		if g.BlockedOnChannel() {
			t.Fatalf("benign stack is channel-blocked: %s", g.State)
		}
		states[g.State]++
	}
	// The weighted mix must produce at least the three dominant states.
	for _, s := range []string{"IO wait", "syscall", "sleep"} {
		if states[s] == 0 {
			t.Errorf("state %q never sampled: %v", s, states)
		}
	}
	if states["IO wait"] <= states["running"] {
		t.Errorf("weighting off: IO wait %d should dominate running %d", states["IO wait"], states["running"])
	}
}

func TestDistributionSampling(t *testing.T) {
	d := GoleakTaxonomy()
	r := rand.New(rand.NewSource(7))
	counts := map[Category]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[d.Sample(r).Category]++
	}
	// Section VI: send 15%, receive 40%, select 45% (±3 points of noise).
	checks := []struct {
		cat  Category
		want float64
	}{{CatSend, 0.15}, {CatReceive, 0.40}, {CatSelect, 0.45}}
	for _, c := range checks {
		got := float64(counts[c.cat]) / n
		if got < c.want-0.03 || got > c.want+0.03 {
			t.Errorf("category %v frequency = %.3f, want ~%.2f", c.cat, got, c.want)
		}
	}
}

func TestLeakprofTaxonomyShape(t *testing.T) {
	d := LeakprofTaxonomy()
	r := rand.New(rand.NewSource(11))
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[d.Sample(r).Name]++
	}
	// Timeout (5/24) must be the most frequent single pattern.
	max, maxName := 0, ""
	for name, c := range counts {
		if c > max {
			max, maxName = c, name
		}
	}
	if maxName != "timeout-leak" {
		t.Errorf("most frequent = %s, want timeout-leak (counts %v)", maxName, counts)
	}
}

func TestDistributionDeterminism(t *testing.T) {
	d := GoleakTaxonomy()
	a := rand.New(rand.NewSource(3))
	b := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if d.Sample(a).Name != d.Sample(b).Name {
			t.Fatal("sampling is not deterministic under equal seeds")
		}
	}
}

func TestCategoryString(t *testing.T) {
	for c, want := range map[Category]string{
		CatSend: "send", CatReceive: "receive", CatSelect: "select",
		CatRunaway: "runaway", Category(42): "unknown",
	} {
		if got := c.String(); got != want {
			t.Errorf("Category(%d) = %q, want %q", c, got, want)
		}
	}
}
