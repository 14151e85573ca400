package leakprof

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/gprofile"
)

// foldAll folds snapshots into a fresh aggregator.
func foldAll(threshold int, snaps []*gprofile.Snapshot) *Aggregator {
	agg := NewAggregator(threshold)
	for _, s := range snaps {
		agg.Add(s)
	}
	return agg
}

// TestMergeMomentsMatchesSingleFold is the merge-correctness property
// test: for random sweeps and random snapshot splits,
// merge(fold(A), fold(B)) must equal fold(A ∪ B) exactly — moments,
// findings, and profile counts, byte for byte. Counts are integers, so
// the float sums of squares are exact and associativity holds without
// tolerance.
func TestMergeMomentsMatchesSingleFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		snaps := randomSweep(rng)
		threshold := 1 + rng.Intn(200)

		var a, b []*gprofile.Snapshot
		for _, s := range snaps {
			if rng.Intn(2) == 0 {
				a = append(a, s)
			} else {
				b = append(b, s)
			}
		}
		whole := foldAll(threshold, snaps)
		foldA, foldB := foldAll(threshold, a), foldAll(threshold, b)

		merged := NewAggregator(threshold)
		merged.MergeMoments(foldA.ServiceProfiles(), foldA.Profiles(), foldA.Moments())
		merged.MergeMoments(foldB.ServiceProfiles(), foldB.Profiles(), foldB.Moments())

		if got, want := merged.Profiles(), whole.Profiles(); got != want {
			t.Fatalf("trial %d: merged profiles %d, want %d", trial, got, want)
		}
		if got, want := merged.Moments(), whole.Moments(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged moments diverge\ngot  %+v\nwant %+v", trial, got, want)
		}
		gotF, wantF := merged.Findings(RankRMS), whole.Findings(RankRMS)
		if len(gotF) != len(wantF) {
			t.Fatalf("trial %d: %d findings, want %d", trial, len(gotF), len(wantF))
		}
		for i := range wantF {
			if !reflect.DeepEqual(gotF[i], wantF[i]) {
				t.Fatalf("trial %d finding %d:\ngot  %+v\nwant %+v", trial, i, gotF[i], wantF[i])
			}
		}
	}
}

// TestMomentMergeGroupwise checks the exported Moment.Merge combines two
// single-instance folds of one group into the union fold, including the
// tie-break (equal counts go to the lexicographically smaller instance).
func TestMomentMergeGroupwise(t *testing.T) {
	a := Moment{Service: "svc", Total: 7, Instances: 1, ServiceProfiles: 1,
		Suspicious: 1, SumSquares: 49, MaxCount: 7, MaxInstance: "i-b"}
	b := Moment{Service: "svc", Total: 7, Instances: 1, ServiceProfiles: 1,
		Suspicious: 1, SumSquares: 49, MaxCount: 7, MaxInstance: "i-a"}
	want := Moment{Service: "svc", Total: 14, Instances: 2, ServiceProfiles: 2,
		Suspicious: 2, SumSquares: 98, MaxCount: 7, MaxInstance: "i-a"}
	if got := a.Merge(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("a.Merge(b) = %+v, want %+v", got, want)
	}
	if got := b.Merge(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("b.Merge(a) = %+v, want %+v", got, want)
	}
}

// TestShardReportWireRoundTrip pushes a fully populated report through
// the binary frame and back.
func TestShardReportWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	agg := foldAll(50, randomSweep(rng))
	rep := &ShardReport{
		Shard:           "shard-3",
		Seq:             7,
		At:              time.Unix(1000, 500).UTC(),
		Profiles:        agg.Profiles(),
		Errors:          2,
		Services:        agg.ServiceProfiles(),
		FailedByService: map[string]int{"pay": 2},
		Failures: []SweepFailure{
			{Service: "pay", Instance: "pay-01", Err: errors.New("connection refused")},
			{Service: "pay", Instance: "pay-02", Err: errors.New("timeout")},
		},
		Moments: agg.Moments(),
		Err:     "partial sweep",
	}
	var buf bytes.Buffer
	if err := WriteShardReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShardReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip diverged\ngot  %+v\nwant %+v", got, rep)
	}
}

// TestShardReportWireRejectsCorruption flips a payload byte and expects
// the CRC to catch it, and refuses well-formed frames of the retired
// versions 1 and 2 with an error naming both versions.
func TestShardReportWireRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteShardReport(&buf, &ShardReport{Shard: "s", Profiles: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x40
	if _, err := ReadShardReport(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted frame decoded cleanly")
	}

	// A version-1 frame had no sequence number, and a version-2 frame no
	// failure kinds. Derive both from an encoding whose trailing fields
	// are all empty: stamping version 2 yields exactly what a v2 writer
	// produced, and dropping the single zero Seq byte too what a v1
	// writer did.
	buf.Reset()
	if err := WriteShardReport(&buf, &ShardReport{Shard: "old", Profiles: 3}); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[frame.HeaderSize:]
	if payload[len(payload)-5] != 0 {
		t.Fatal("layout drift: expected the Seq byte fifth from the end (before four empty section counts)")
	}
	v1 := append([]byte(nil), payload[:len(payload)-5]...)
	v1 = append(v1, payload[len(payload)-4:]...) // drop the Seq byte
	v1[1] = 1                                    // stamp the old version
	_, err := ReadShardReport(bytes.NewReader(frame.New(v1)))
	if !errors.Is(err, frame.ErrVersion) || !strings.Contains(err.Error(), "version 1, older than supported 3") {
		t.Fatalf("v1 frame: err = %v, want a refusal naming versions 1 and 3", err)
	}
	v2 := append([]byte(nil), payload...)
	v2[1] = 2
	_, err = ReadShardReport(bytes.NewReader(frame.New(v2)))
	if !errors.Is(err, frame.ErrVersion) || !strings.Contains(err.Error(), "version 2, older than supported 3") {
		t.Fatalf("v2 frame: err = %v, want a refusal naming versions 2 and 3", err)
	}

	// A checksummed frame whose one table string claims a length that
	// overflows the decoder's offset arithmetic.
	hostile := binary.AppendUvarint([]byte{payload[0], payload[1], 0, 1}, math.MaxInt64)
	if _, err := ReadShardReport(bytes.NewReader(frame.New(hostile))); !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("overflowing string length: err = %v, want frame.ErrTruncated", err)
	}
}

// TestShardInboxHostileLengthPrefix POSTs 8 bytes whose length prefix
// claims a 1 GiB payload: the inbox must answer 400 without allocating
// the claim. The allocation counter is process-wide, so the least of
// three POSTs is checked: other goroutines cannot inflate all three.
func TestShardInboxHostileLengthPrefix(t *testing.T) {
	var body [frame.HeaderSize]byte
	binary.BigEndian.PutUint32(body[0:4], frame.MaxPayload)
	inbox := NewShardInbox(1)
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body[:]))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inbox.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("an 8-byte POST allocated %d bytes, want < 1 MiB", least)
	}
}

// TestMergedReportsShardLoss loses one shard's report and checks the
// sweep still completes, with the loss in the global error accounting.
func TestMergedReportsShardLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	snaps := randomSweep(rng)
	shardAgg := foldAll(DefaultThreshold, snaps)

	okFetch := ShardFetch{Name: "shard-0", Fetch: func(ctx context.Context, env *SweepEnv) (*ShardReport, error) {
		return &ShardReport{
			Shard:    "shard-0",
			Profiles: shardAgg.Profiles(),
			Services: shardAgg.ServiceProfiles(),
			Moments:  shardAgg.Moments(),
		}, nil
	}}
	lostFetch := ShardFetch{Name: "shard-1", Fetch: func(ctx context.Context, env *SweepEnv) (*ShardReport, error) {
		return nil, errors.New("worker crashed")
	}}

	pipe := New()
	sweep, err := pipe.Sweep(context.Background(), MergedReports(okFetch, lostFetch))
	if err != nil {
		t.Fatalf("sweep error: %v", err)
	}
	if sweep.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", sweep.Errors)
	}
	if sweep.FailedByService["shard-1"] != 1 {
		t.Fatalf("FailedByService = %v, want shard-1:1", sweep.FailedByService)
	}
	if sweep.Profiles != shardAgg.Profiles() {
		t.Fatalf("Profiles = %d, want the surviving shard's %d", sweep.Profiles, shardAgg.Profiles())
	}
	if len(sweep.Moments()) != len(shardAgg.Moments()) {
		t.Fatalf("moments = %d, want %d", len(sweep.Moments()), len(shardAgg.Moments()))
	}
}

// TestShardInboxHTTP ships a report over a real HTTP hop — worker POST,
// coordinator inbox — and sweeps the coordinator off the inbox.
func TestShardInboxHTTP(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	snaps := randomSweep(rng)

	worker := New()
	rep, err := worker.ShardSweep(context.Background(), FromSnapshots(snaps), "shard-0", nil)
	if err != nil {
		t.Fatal(err)
	}

	inbox := NewShardInbox(1)
	srv := httptest.NewServer(inbox)
	defer srv.Close()
	if err := PostShardReport(context.Background(), nil, srv.URL, rep); err != nil {
		t.Fatal(err)
	}

	coord := New()
	sweep, err := coord.Sweep(context.Background(), MergedReports(inbox.Fetch("shard-0")))
	if err != nil {
		t.Fatal(err)
	}
	want := foldAll(DefaultThreshold, snaps)
	if sweep.Profiles != want.Profiles() {
		t.Fatalf("Profiles = %d, want %d", sweep.Profiles, want.Profiles())
	}
	if !reflect.DeepEqual(sweep.Moments(), want.Moments()) {
		t.Fatal("moments shipped over HTTP diverge from the direct fold")
	}
}

// TestMergedFailuresKeepTheirKind sweeps a salvaged dump in a shard
// worker, adds one failure of every other kind to its report, and ships
// it through the coordinator inbox: each merged failure must keep its
// message and still match its sentinel with errors.Is.
func TestMergedFailuresKeepTheirKind(t *testing.T) {
	torn := "goroutine 1 [chan send]:\npay.leak()\n\t/pay/l.go:5 +0x2b\n" +
		"goroutine 99 [chan send:\ntorn.member()\n"
	worker := New(WithThreshold(1))
	rep, err := worker.ShardSweep(context.Background(), Dumps(Dump{Service: "pay", Instance: "i0", Body: strings.NewReader(torn)}), "shard-0", nil)
	if err != nil {
		t.Fatal(err)
	}
	sentinels := []error{gprofile.ErrSalvaged, ErrIngestOverflow, ErrIngestQuota, ErrBudgetExhausted, nil}
	for i, sentinel := range sentinels[1:] {
		err := errors.New("connection refused")
		if sentinel != nil {
			err = fmt.Errorf("leakprof: i%d: %w", i+1, sentinel)
		}
		rep.Failures = append(rep.Failures, SweepFailure{Service: "pay", Instance: fmt.Sprintf("i%d", i+1), Err: err})
	}
	want := append([]SweepFailure(nil), rep.Failures...)
	if len(want) != len(sentinels) {
		t.Fatalf("worker failures = %+v, want the salvage report first", want)
	}

	inbox := NewShardInbox(1)
	srv := httptest.NewServer(inbox)
	defer srv.Close()
	if err := PostShardReport(context.Background(), nil, srv.URL, rep); err != nil {
		t.Fatal(err)
	}
	sweep, err := New().Sweep(context.Background(), MergedReports(inbox.Fetch("shard-0")))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Failures) != len(want) {
		t.Fatalf("merged failures = %+v, want %d", sweep.Failures, len(want))
	}
	for i, f := range sweep.Failures {
		if f.Instance != want[i].Instance || f.Err.Error() != want[i].Err.Error() {
			t.Errorf("failure %d = %s/%v, want %s/%v", i, f.Instance, f.Err, want[i].Instance, want[i].Err)
		}
		for _, s := range sentinels[:len(sentinels)-1] {
			if got, w := errors.Is(f.Err, s), s == sentinels[i]; got != w {
				t.Errorf("failure %d (%v): errors.Is(%v) = %v, want %v", i, f.Err, s, got, w)
			}
		}
	}
}

// TestShardSweepSeedsErrorBudget checks prevFailures reach the shard's
// budget enforcement: a service that burned the budget yesterday is
// short-circuited today inside the shard worker.
func TestShardSweepSeedsErrorBudget(t *testing.T) {
	pipe := New(WithErrorBudget(2))
	src := failingSource{service: "down", instances: 4}
	rep, err := pipe.ShardSweep(context.Background(), src, "shard-0", map[string]int{"down": 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedByService["down"] == 0 {
		t.Fatalf("FailedByService = %v, want down > 0", rep.FailedByService)
	}
	if rep.Errors != 4 {
		t.Fatalf("Errors = %d, want all 4 instances accounted", rep.Errors)
	}
}

// failingSource fails every instance of one service through the budget
// helper the endpoint source uses.
type failingSource struct {
	service   string
	instances int
}

func (failingSource) Name() string { return "failing" }

func (s failingSource) Sweep(ctx context.Context, env *SweepEnv) error {
	budget := newErrorBudget(env.Config.ErrorBudget, env.PrevFailures())
	for i := 0; i < s.instances; i++ {
		inst := string(rune('a' + i))
		if budget.exhausted(s.service) {
			env.Fail(s.service, inst, ErrBudgetExhausted)
			continue
		}
		budget.spend(s.service)
		env.Fail(s.service, inst, errors.New("unreachable"))
	}
	return nil
}

// TestShardInboxDedupsDuplicatePost retries a worker's POST after it
// already landed: the inbox must drop the duplicate (shard, sequence)
// with 409 so the coordinator never double-counts the shard's moments,
// while new sequences, other shards, and unsequenced legacy reports
// still flow.
func TestShardInboxDedupsDuplicatePost(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	snaps := randomSweep(rng)
	ctx := context.Background()

	worker := New()
	rep1, err := worker.ShardSweep(ctx, FromSnapshots(snaps), "shard-0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Seq != 1 {
		t.Fatalf("first ShardSweep Seq = %d, want 1", rep1.Seq)
	}

	inbox := NewShardInbox(8)
	srv := httptest.NewServer(inbox)
	defer srv.Close()

	if err := PostShardReport(ctx, nil, srv.URL, rep1); err != nil {
		t.Fatalf("first POST: %v", err)
	}
	// The retry of a POST that actually landed: dropped with 409, which
	// PostShardReport surfaces so the worker knows to stop retrying.
	err = PostShardReport(ctx, nil, srv.URL, rep1)
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate POST: err = %v, want a 409", err)
	}
	if got := len(inbox.ch); got != 1 {
		t.Fatalf("inbox holds %d reports after duplicate, want 1", got)
	}

	// The worker's next sweep (sequence 2) is new work, not a duplicate.
	rep2, err := worker.ShardSweep(ctx, FromSnapshots(snaps), "shard-0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Seq != 2 {
		t.Fatalf("second ShardSweep Seq = %d, want 2", rep2.Seq)
	}
	if err := PostShardReport(ctx, nil, srv.URL, rep2); err != nil {
		t.Fatalf("sequence-2 POST: %v", err)
	}
	// A re-delivery of the now-stale sequence 1 is also a duplicate.
	if err := PostShardReport(ctx, nil, srv.URL, rep1); err == nil {
		t.Fatal("stale sequence-1 POST accepted after sequence 2")
	}

	// A different shard reuses sequence numbers freely.
	other := New()
	repB, err := other.ShardSweep(ctx, FromSnapshots(snaps), "shard-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := PostShardReport(ctx, nil, srv.URL, repB); err != nil {
		t.Fatalf("other shard's POST: %v", err)
	}

	// Unsequenced (hand-built) reports never deduplicate.
	legacy := &ShardReport{Shard: "legacy", Profiles: 1}
	for i := 0; i < 2; i++ {
		if err := PostShardReport(ctx, nil, srv.URL, legacy); err != nil {
			t.Fatalf("legacy POST %d: %v", i, err)
		}
	}
	if got := len(inbox.ch); got != 5 {
		t.Fatalf("inbox holds %d reports, want 5 (seq1, seq2, shard-1, 2x legacy)", got)
	}
}

// TestMergedReportsStragglerDeadline checks the partial merge: a shard
// still sweeping when the deadline passes is written off as one failed
// instance, the arrived reports merge, and the sweep itself succeeds.
func TestMergedReportsStragglerDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	snaps := randomSweep(rng)
	agg := foldAll(DefaultThreshold, snaps)

	fast := ShardFetch{Name: "fast", Fetch: func(ctx context.Context, env *SweepEnv) (*ShardReport, error) {
		return &ShardReport{
			Shard:    "fast",
			Profiles: agg.Profiles(),
			Services: agg.ServiceProfiles(),
			Moments:  agg.Moments(),
		}, nil
	}}
	slow := ShardFetch{Name: "slow", Fetch: func(ctx context.Context, env *SweepEnv) (*ShardReport, error) {
		<-ctx.Done() // a hung worker: only the deadline frees the fetch
		return nil, ctx.Err()
	}}

	pipe := New()
	start := time.Now()
	sweep, err := pipe.Sweep(context.Background(), MergedReportsWithin(50*time.Millisecond, fast, slow))
	if err != nil {
		t.Fatalf("straggler failed the sweep: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("merge took %v, deadline never fired", elapsed)
	}
	if sweep.Errors != 1 || sweep.FailedByService["slow"] != 1 {
		t.Fatalf("Errors=%d FailedByService=%v, want the straggler as one failed instance",
			sweep.Errors, sweep.FailedByService)
	}
	if len(sweep.Failures) != 1 || !errors.Is(sweep.Failures[0].Err, context.DeadlineExceeded) {
		t.Fatalf("Failures = %+v, want one DeadlineExceeded", sweep.Failures)
	}
	if sweep.Profiles != agg.Profiles() {
		t.Fatalf("Profiles = %d, want the fast shard's %d", sweep.Profiles, agg.Profiles())
	}
	if !reflect.DeepEqual(sweep.Moments(), agg.Moments()) {
		t.Fatal("partial merge lost the arrived shard's moments")
	}
}
