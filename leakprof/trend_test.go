package leakprof

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/stack"
)

func observeSeries(t *testing.T, tr *TrendTracker, key string, counts []int) {
	t.Helper()
	at := time.Unix(0, 0)
	for _, c := range counts {
		tr.ObserveMoments(at, momentsOf([]*Finding{{Service: "s", Op: "send", Location: key, TotalBlocked: c}}))
		at = at.Add(24 * time.Hour)
	}
}

// momentsOf gives each finding's total as a moment with no per-instance
// variance: the tracker's feed for tests that build findings.
func momentsOf(findings []*Finding) []Moment {
	moments := make([]Moment, len(findings))
	for i, f := range findings {
		moments[i] = Moment{Service: f.Service, Op: stack.BlockedOp{Op: f.Op, Location: f.Location}, Total: f.TotalBlocked}
	}
	return moments
}

func keyFor(loc string) string {
	return (&Finding{Service: "s", Op: "send", Location: loc}).Key()
}

func TestTrendVerdicts(t *testing.T) {
	tr := &TrendTracker{}
	observeSeries(t, tr, "/leak.go:1", []int{100, 250, 600, 1400})
	observeSeries(t, tr, "/busy.go:2", []int{900, 300, 1100, 200})
	observeSeries(t, tr, "/pool.go:3", []int{500, 520, 490, 505})
	observeSeries(t, tr, "/new.go:4", []int{100})

	cases := map[string]TrendVerdict{
		"/leak.go:1": TrendGrowing,
		"/busy.go:2": TrendOscillating,
		"/pool.go:3": TrendStable,
		"/new.go:4":  TrendUnknown,
	}
	for loc, want := range cases {
		if got := tr.Verdict(keyFor(loc)); got != want {
			t.Errorf("%s: verdict = %v, want %v", loc, got, want)
		}
	}
	growing := tr.Growing()
	if len(growing) != 1 || growing[0] != keyFor("/leak.go:1") {
		t.Errorf("growing = %v", growing)
	}
}

func TestTrendVerdictStrings(t *testing.T) {
	for v, want := range map[TrendVerdict]string{
		TrendUnknown: "unknown", TrendGrowing: "growing",
		TrendOscillating: "oscillating", TrendStable: "stable",
	} {
		if got := v.String(); got != want {
			t.Errorf("verdict %d = %q, want %q", v, got, want)
		}
	}
}

// The fleet-driven trend test lives in integration_test.go at the module
// root (importing internal/fleet here would create an import cycle in
// the test binary).

// TestTrendTakeNew pins the delta-export contract: takeNew returns
// exactly the observations recorded since the last takeNew, restores are
// never unjournaled, and the full history stays exportable.
func TestTrendTakeNew(t *testing.T) {
	tr := &TrendTracker{}
	if got := tr.takeNew(); got != nil {
		t.Fatalf("fresh tracker takeNew = %+v, want nil", got)
	}
	observeSeries(t, tr, "/a.go:1", []int{100, 200})
	delta := tr.takeNew()
	if got := len(delta[keyFor("/a.go:1")]); got != 2 {
		t.Fatalf("first delta = %d observations, want 2", got)
	}
	if got := tr.takeNew(); got != nil {
		t.Fatalf("second takeNew = %+v, want nil (drained)", got)
	}

	tr.ObserveMoments(time.Unix(0, 0).Add(48*time.Hour), momentsOf([]*Finding{{Service: "s", Op: "send", Location: "/a.go:1", TotalBlocked: 400}}))
	delta = tr.takeNew()
	if got := delta[keyFor("/a.go:1")]; len(got) != 1 || got[0].Total != 400 {
		t.Fatalf("incremental delta = %+v, want only the new observation", got)
	}
	// Full history is unaffected by the delta drain.
	if got := len(tr.Export()[keyFor("/a.go:1")]); got != 3 {
		t.Fatalf("history after takeNew = %d observations, want 3", got)
	}

	// Restored history is not a delta: it came from the journal. The
	// first observation after a restore is a delta of its own.
	tr2 := &TrendTracker{}
	tr2.restore(tr.Export())
	if got := tr2.takeNew(); got != nil {
		t.Fatalf("takeNew after restore = %+v, want nil", got)
	}
	tr2.ObserveMoments(time.Unix(0, 0).Add(72*time.Hour), momentsOf([]*Finding{{Service: "s", Op: "send", Location: "/a.go:1", TotalBlocked: 800}}))
	if got := tr2.takeNew()[keyFor("/a.go:1")]; len(got) != 1 || got[0].Total != 800 {
		t.Fatalf("delta after restore = %+v, want only the new observation", got)
	}
}

// TestTrendRetention pins the horizon on one key: exports and verdicts
// hold the last Horizon sweeps' observations, the most recent ones, and
// the append that brings a history to 2×Horizon copies it down to them.
// A restore rebuilds the horizon from the observations it restores.
func TestTrendRetention(t *testing.T) {
	tr := &TrendTracker{MinObservations: 2}
	counts := make([]int, 2*Horizon)
	for i := range counts {
		counts[i] = int(100 * math.Pow(1.2, float64(i)))
	}
	observeSeries(t, tr, "/leak.go:1", counts)
	key := keyFor("/leak.go:1")
	hist := tr.Export()[key]
	if len(hist) != Horizon {
		t.Fatalf("exported history = %d observations, want %d", len(hist), Horizon)
	}
	if hist[0].Total != counts[Horizon] || hist[Horizon-1].Total != counts[2*Horizon-1] {
		t.Fatalf("exported window runs %d..%d, want the most recent %d..%d",
			hist[0].Total, hist[Horizon-1].Total, counts[Horizon], counts[2*Horizon-1])
	}
	if got := len(tr.history[key]); got != Horizon {
		t.Errorf("held history = %d observations after 2×Horizon appends, want %d", got, Horizon)
	}
	// Verdicts still work on the window.
	if v := tr.Verdict(key); v != TrendGrowing {
		t.Errorf("verdict on the horizon = %v, want growing", v)
	}
	// 2×Horizon observations await the journal, but only the Horizon
	// left are there to hand it.
	if delta := tr.takeNew()[key]; len(delta) != Horizon || delta[0].Total != counts[Horizon] {
		t.Fatalf("delta after trimming = %+v, want the %d in the horizon", delta, Horizon)
	}

	// A restored history is held to the horizon too.
	long := map[string][]TrendObservation{"k": make([]TrendObservation, Horizon+10)}
	for i := range long["k"] {
		long["k"][i] = TrendObservation{At: time.Unix(int64(i), 0), Total: i}
	}
	tr2 := &TrendTracker{}
	tr2.restore(long)
	if got := tr2.Export()["k"]; len(got) != Horizon || got[0].Total != 10 {
		t.Fatalf("restored history exports %+v, want the most recent %d, from total 10", got, Horizon)
	}
}

// TestTrendVerdictAfterDeployReset grows a leak, resets it with a
// deploy, and grows it again: the reset reads oscillating while the
// drop is in the horizon, and once it has left, the leak reads growing.
func TestTrendVerdictAfterDeployReset(t *testing.T) {
	tr := &TrendTracker{}
	key := keyFor("/leak.go:1")
	counts := []int{100, 200, 400, 800, 50} // a deploy on day 5 resets it
	for i := 1; i <= Horizon+1; i++ {
		counts = append(counts, 50+25*i)
	}
	observeSeries(t, tr, "/leak.go:1", counts[:8])
	if v := tr.Verdict(key); v != TrendOscillating {
		t.Errorf("verdict with the reset in the horizon = %v, want oscillating", v)
	}
	tr2 := &TrendTracker{}
	observeSeries(t, tr2, "/leak.go:1", counts)
	if v := tr2.Verdict(key); v != TrendGrowing {
		t.Errorf("verdict after %d sweeps of growth since the reset = %v, want growing", Horizon+1, v)
	}
}

// TestTrendDeployChurnKeepsHorizonKeys deploys daily for 100 days, each
// deploy moving ten blocked lines: only the keys the last Horizon sweeps
// observed are exported.
func TestTrendDeployChurnKeepsHorizonKeys(t *testing.T) {
	const days, perDeploy = 100, 10
	moment := func(day, i int) Moment {
		return Moment{Service: "s", Op: stack.BlockedOp{Op: "send", Location: fmt.Sprintf("/deploy%03d/f%d.go:1", day, i)}, Total: 100}
	}
	tr := &TrendTracker{}
	for day := 0; day < days; day++ {
		moments := make([]Moment, perDeploy)
		for i := range moments {
			moments[i] = moment(day, i)
		}
		tr.ObserveMoments(time.Unix(0, 0).Add(time.Duration(day)*24*time.Hour), moments)
	}
	exported := tr.Export()
	if len(exported) != Horizon*perDeploy {
		t.Fatalf("export holds %d keys after %d daily deploys, want %d", len(exported), days, Horizon*perDeploy)
	}
	for day := days - Horizon; day < days; day++ {
		for i := 0; i < perDeploy; i++ {
			if key := moment(day, i).Key(); len(exported[key]) != 1 {
				t.Errorf("export holds %d observations of %q, want 1", len(exported[key]), key)
			}
		}
	}
}

// TestTrendOutOfOrderRecord records a key out of time order, as an old
// archive replayed into a live state dir does. The verdict must read
// the history in time order without reordering it, since Export and the
// journal share it: Export is the same before the verdict, after it and
// after a reopen.
func TestTrendOutOfOrderRecord(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []int{1, 3, 2} { // day 2's sweep lands last
		at := time.Unix(0, 0).Add(time.Duration(day) * 24 * time.Hour)
		store.Tracker().ObserveMoments(at, momentsOf([]*Finding{{Service: "s", Op: "send", Location: "/leak.go:1", TotalBlocked: 100 * day * day}}))
		if err := store.RecordSweep(&Sweep{At: at, Source: "test", Profiles: 1}); err != nil {
			t.Fatal(err)
		}
	}
	key := keyFor("/leak.go:1")
	before := replayed(store).Trend
	// In record order the count reads 100, 900, 400: oscillating.
	if v := store.Tracker().Verdict(key); v != TrendGrowing {
		t.Errorf("verdict = %v, want growing: in time order the count reads 100, 400, 900", v)
	}
	if after := replayed(store).Trend; !reflect.DeepEqual(after, before) {
		t.Errorf("the verdict rewrote the history:\nbefore %+v\nafter  %+v", before, after)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := replayed(re).Trend; !reflect.DeepEqual(got, before) {
		t.Errorf("reopened history:\n%+v\nwant the live history, in record order:\n%+v", got, before)
	}
	if v := re.Tracker().Verdict(key); v != TrendGrowing {
		t.Errorf("verdict after reopen = %v, want growing", v)
	}
}

// TestTrendConcurrentFolds runs verdicts and observations against
// concurrent folds and delta frames. Both encode slices of the live
// history outside the tracker's lock while observations append to it and
// the horizon trims it, so under -race a write into a shared slice fails
// here. The journal, reopened, must give back the live history.
func TestTrendConcurrentFolds(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithStateSync(SyncOnClose))
	if err != nil {
		t.Fatal(err)
	}
	tr := store.Tracker()
	const keys = 32
	moments := make([]Moment, keys)
	for i := range moments {
		moments[i] = Moment{Service: "s", Op: stack.BlockedOp{Op: "send", Location: fmt.Sprintf("/f%02d.go:1", i)}, ServiceProfiles: 2}
	}
	stop, trimmed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for day := 1; ; day++ {
			sweep := slices.Clone(moments)
			for i := range sweep {
				sweep[i].Total = day + i
				sweep[i].SumSquares = float64(sweep[i].Total * sweep[i].Total / 2)
			}
			// Pairs of sweeps land out of time order, so a verdict that
			// sorted the shared history in place would write into it.
			tr.ObserveMoments(time.Unix(0, 0).Add(time.Duration(day^1)*time.Minute), sweep)
			if day == 2*Horizon {
				close(trimmed) // every key's history has been trimmed once
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Verdict(moments[0].Key())
			tr.Growing()
		}
	}()
	for i := 1; i <= 20; i++ {
		err := store.RecordSweep(&Sweep{At: time.Unix(0, 0).Add(time.Duration(i) * time.Hour), Source: "test", Profiles: 1})
		if err == nil && i%2 == 0 {
			err = store.Save()
		}
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	<-trimmed
	close(stop)
	wg.Wait()

	live := replayed(store).Trend
	if len(live) != keys {
		t.Fatalf("live history holds %d keys, want %d", len(live), keys)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := replayed(re).Trend; !reflect.DeepEqual(got, live) {
		t.Errorf("reopened history diverged from the live one:\n%+v\n%+v", got, live)
	}
}
