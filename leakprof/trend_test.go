package leakprof

import (
	"fmt"
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

// TestTrendRetention pins the retention window: appends, restores, and
// exports all hold at most Retention observations per key, keeping the
// most recent ones, and verdicts run on the retained window.
func TestTrendRetention(t *testing.T) {
	tr := &TrendTracker{Retention: 3, MinObservations: 2}
	observeSeries(t, tr, "/leak.go:1", []int{10, 20, 40, 80, 160, 320})
	hist := tr.Export()[keyFor("/leak.go:1")]
	if len(hist) != 3 {
		t.Fatalf("retained history = %d observations, want 3", len(hist))
	}
	if hist[0].Total != 80 || hist[2].Total != 320 {
		t.Fatalf("retained window = %+v, want the most recent [80 160 320]", hist)
	}
	// Verdicts still work on the window.
	if v := tr.Verdict(keyFor("/leak.go:1")); v != TrendGrowing {
		t.Errorf("verdict on retained window = %v, want growing", v)
	}
	// Six observations await the journal, but only the retained three
	// are left to hand it.
	if delta := tr.takeNew()[keyFor("/leak.go:1")]; len(delta) != 3 || delta[0].Total != 80 {
		t.Fatalf("delta after trimming = %+v, want the retained [80 160 320]", delta)
	}

	// restore trims long histories too.
	long := map[string][]TrendObservation{"k": make([]TrendObservation, 10)}
	for i := range long["k"] {
		long["k"][i] = TrendObservation{At: time.Unix(int64(i), 0), Total: i}
	}
	tr2 := &TrendTracker{Retention: 4}
	tr2.restore(long)
	if got := len(tr2.Export()["k"]); got != 4 {
		t.Fatalf("restored history = %d observations, want 4", got)
	}
	if first := tr2.Export()["k"][0].Total; first != 6 {
		t.Fatalf("restored window starts at total %d, want 6 (most recent 4)", first)
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
// retention trims it, so under -race a write into a shared slice fails
// here. The journal, reopened, must give back the live history.
func TestTrendConcurrentFolds(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStateStore(dir, WithTrendRetention(4), WithStateSync(SyncOnClose))
	if err != nil {
		t.Fatal(err)
	}
	tr := store.Tracker()
	const keys = 32
	moments := make([]Moment, keys)
	for i := range moments {
		moments[i] = Moment{Service: "s", Op: stack.BlockedOp{Op: "send", Location: fmt.Sprintf("/f%02d.go:1", i)}, ServiceProfiles: 2}
	}
	stop := make(chan struct{})
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
	close(stop)
	wg.Wait()

	live := replayed(store).Trend
	if len(live) != keys {
		t.Fatalf("live history holds %d keys, want %d", len(live), keys)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir, WithTrendRetention(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := replayed(re).Trend; !reflect.DeepEqual(got, live) {
		t.Errorf("reopened history diverged from the live one:\n%+v\n%+v", got, live)
	}
}
