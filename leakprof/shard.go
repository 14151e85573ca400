package leakprof

import (
	"bytes"
	"context"
	"crypto/subtle"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
)

// Distributed sweeps. One process sweeping a 10K-instance fleet is
// bounded by its own fetch parallelism and NIC; the distributed plane
// splits the fleet across shard workers that each sweep their endpoint
// partition and ship a ShardReport — folded moments, not profiles — to a
// coordinator that merges them and runs the normal sink fan-out and
// state journal. Partitioning is by service (ShardOfService), which is
// what makes the merge exact: every instance of a service lands in one
// shard, so per-group statistics never split across reports, per-shard
// error-budget enforcement is globally correct, and the merged moments
// are byte-for-byte the single-process fold (see TestTopologyParity in
// internal/chaos, and TestMergeMomentsMatchesSingleFold here).

// ShardOfService maps a service onto one of n shards by FNV-1a hash.
// Sharding by service — never by instance — keeps each aggregation
// group, and each service's error budget, entirely within one shard.
func ShardOfService(service string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(service); i++ {
		h ^= uint32(service[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// PartitionEndpoints splits a fleet enumeration into the per-shard
// endpoint partitions, preserving enumeration order within each shard.
func PartitionEndpoints(eps []Endpoint, shards int) [][]Endpoint {
	if shards < 1 {
		shards = 1
	}
	parts := make([][]Endpoint, shards)
	for _, ep := range eps {
		i := ShardOfService(ep.Service, shards)
		parts[i] = append(parts[i], ep)
	}
	return parts
}

// ShardSweep runs one shard worker's collection pass through the same
// collection core as Pipeline.Sweep — same threshold, filters, retry
// policy, parallelism, failure ledger — but instead of findings, sinks,
// and journal frames the result is the shard's mergeable state, a
// ShardReport for a coordinator. prevFailures seeds the shard's error
// budget; a coordinator passes the globally journaled counts from
// SweepEnv.PrevFailures so a service that burned its budget yesterday is
// probed gently today regardless of which worker owns it. The returned
// report is non-nil even on error (partial collection still merges; the
// error is also recorded in report.Err).
func (p *Pipeline) ShardSweep(ctx context.Context, src Source, shard string, prevFailures map[string]int) (*ShardReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	sweep, err := p.collect(ctx, src, prevFailures, nil)
	rep := &ShardReport{
		Shard:           shard,
		Seq:             p.shardSeq.Add(1),
		At:              sweep.At,
		Profiles:        sweep.Profiles,
		Errors:          sweep.Errors,
		Services:        sweep.agg.ServiceProfiles(),
		FailedByService: sweep.FailedByService,
		Failures:        sweep.Failures,
		Moments:         sweep.agg.Moments(),
	}
	if err != nil {
		rep.Err = err.Error()
	}
	return rep, err
}

// ShardFetch is one shard's report retrieval as the coordinator sees it:
// a name for failure attribution and a fetch that produces the report —
// from a file a worker handed off, an inbox a worker POSTed to, or an
// in-process worker pipeline.
type ShardFetch struct {
	// Name identifies the shard in failure accounting: a lost shard
	// shows up as one failed instance of "service" Name, so error
	// budgets and operators see the loss without a new mechanism.
	Name string
	// Fetch retrieves the shard's report. The SweepEnv carries the
	// coordinator's config and journaled failure history
	// (SweepEnv.PrevFailures) for fetches that drive in-process workers.
	Fetch func(ctx context.Context, env *SweepEnv) (*ShardReport, error)
}

// MergedReports returns the coordinator's Source: one sweep fetches
// every shard's report concurrently and folds each into the sweep as it
// arrives — moments into the aggregator, failure tallies into the global
// error accounting — so the downstream pipeline (findings, ReportSink,
// TrendSink, StateStore) runs unchanged on the merged sweep. A shard
// whose fetch fails costs exactly that shard's contribution: the sweep
// completes, with the loss recorded as a failed instance named after the
// shard. A report that arrives carrying a shard-level sweep error merges
// its partial moments and surfaces the error the same way.
func MergedReports(shards ...ShardFetch) Source {
	return mergedSource{shards: shards}
}

// MergedReportsWithin is MergedReports with a straggler deadline: the
// merge closes after wait, and a shard that has not reported by then is
// written off as one failed instance (named after the shard) while the
// reports that did arrive merge normally. Without it a single hung
// worker holds the coordinator's sweep open until the sweep context
// itself expires — the partial merge trades that shard's contribution
// for a bounded sweep. A non-positive wait means no deadline.
func MergedReportsWithin(wait time.Duration, shards ...ShardFetch) Source {
	return mergedSource{shards: shards, wait: wait}
}

type mergedSource struct {
	shards []ShardFetch
	wait   time.Duration
}

func (mergedSource) Name() string { return "shards" }

func (s mergedSource) Sweep(ctx context.Context, env *SweepEnv) error {
	fctx := ctx
	if s.wait > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, s.wait)
		defer cancel()
	}
	var wg sync.WaitGroup
	for _, sf := range s.shards {
		wg.Add(1)
		go func(sf ShardFetch) {
			defer wg.Done()
			rep, err := sf.Fetch(fctx, env)
			if err != nil {
				env.Fail(sf.Name, sf.Name, fmt.Errorf("leakprof: shard report lost: %w", err))
				return
			}
			if rep.Err != "" {
				env.Fail(rep.Shard, rep.Shard, fmt.Errorf("leakprof: shard sweep: %s", rep.Err))
			}
			env.MergeReport(rep)
		}(sf)
	}
	wg.Wait()
	// The straggler deadline expiring is a per-shard loss (already
	// recorded above), not a sweep failure; only the caller's context
	// fails the sweep.
	return ctx.Err()
}

// WriteShardReportFile atomically writes one framed report — the file
// handoff transport for workers and coordinator sharing a filesystem.
func WriteShardReportFile(path string, rep *ShardReport) error {
	if err := atomicfile.Write(path, func(w io.Writer) error { return WriteShardReport(w, rep) }); err != nil {
		return fmt.Errorf("leakprof: writing shard report: %w", err)
	}
	return nil
}

// ShardReportFromFile is the ShardFetch over a handoff file, named after
// the file when name is empty.
func ShardReportFromFile(name, path string) ShardFetch {
	if name == "" {
		name = filepath.Base(path)
	}
	return ShardFetch{
		Name: name,
		Fetch: func(ctx context.Context, env *SweepEnv) (*ShardReport, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, fmt.Errorf("leakprof: reading shard report: %w", err)
			}
			defer f.Close()
			return ReadShardReport(f)
		},
	}
}

// PostShardReport ships one report to a coordinator's ShardInbox over
// HTTP — the push transport a worker uses when it shares no filesystem
// with the coordinator. A nil client uses http.DefaultClient.
func PostShardReport(ctx context.Context, client *http.Client, url string, rep *ShardReport) error {
	return PostShardReportAuth(ctx, client, url, "", rep)
}

// PostShardReportAuth is PostShardReport carrying a shared-secret token
// in X-Leakprof-Token, for inboxes configured with ShardInbox.Token.
// An empty token sends no header.
func PostShardReportAuth(ctx context.Context, client *http.Client, url, token string, rep *ShardReport) error {
	var buf bytes.Buffer
	if err := WriteShardReport(&buf, rep); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &buf)
	if err != nil {
		return fmt.Errorf("leakprof: posting shard report: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if token != "" {
		req.Header.Set("X-Leakprof-Token", token)
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("leakprof: posting shard report: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("leakprof: posting shard report: coordinator returned %s", resp.Status)
	}
	return nil
}

// ShardInbox is the coordinator's HTTP receiver for pushed reports: an
// http.Handler accepting POSTed shard-report frames. Each accepted
// report is buffered (up to the construction capacity; workers beyond it
// block in their POST, a natural backpressure) until a Fetch consumes
// it. Reports are consumed in arrival order, not shard order — merging
// is commutative, so order does not matter; the fetch name only labels a
// timeout or cancellation.
//
// The inbox deduplicates on (Shard, Seq): a worker whose POST succeeded
// but whose response was lost will retry, and without dedup the retry
// would double-count the shard's moments. A sequenced report (Seq != 0,
// as ShardSweep assigns) at or below the highest sequence already
// accepted from its shard is dropped with 409 Conflict — the worker
// learns its report landed and stops retrying. Unsequenced or unnamed
// (hand-built) reports are never deduplicated.
type ShardInbox struct {
	// Token, when non-empty, is the shared secret every POST must carry
	// in X-Leakprof-Token (constant-time compared; mismatches are 401s
	// counted by AuthRejected). Set it before the inbox starts serving —
	// a shard report folds straight into the coordinator's sweep, so an
	// unauthenticated inbox lets anyone on the network inject moments.
	Token string

	ch chan *ShardReport

	authRejects atomic.Uint64

	mu      sync.Mutex
	lastSeq map[string]uint64
}

// NewShardInbox returns an inbox buffering up to capacity reports.
func NewShardInbox(capacity int) *ShardInbox {
	if capacity < 1 {
		capacity = 1
	}
	return &ShardInbox{
		ch:      make(chan *ShardReport, capacity),
		lastSeq: make(map[string]uint64),
	}
}

// ServeHTTP accepts one POSTed report frame, dropping a duplicate
// (shard, sequence) delivery with 409.
func (in *ShardInbox) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a shard report frame", http.StatusMethodNotAllowed)
		return
	}
	if in.Token != "" &&
		subtle.ConstantTimeCompare([]byte(r.Header.Get("X-Leakprof-Token")), []byte(in.Token)) != 1 {
		in.authRejects.Add(1)
		http.Error(w, "missing or invalid X-Leakprof-Token", http.StatusUnauthorized)
		return
	}
	rep, err := ReadShardReport(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if rep.Shard != "" && rep.Seq != 0 {
		in.mu.Lock()
		last, seen := in.lastSeq[rep.Shard]
		dup := seen && rep.Seq <= last
		if !dup {
			in.lastSeq[rep.Shard] = rep.Seq
		}
		in.mu.Unlock()
		if dup {
			http.Error(w, fmt.Sprintf("leakprof: duplicate report: shard %q sweep %d already accepted", rep.Shard, rep.Seq), http.StatusConflict)
			return
		}
	}
	in.ch <- rep
	w.WriteHeader(http.StatusNoContent)
}

// AuthRejected counts POSTs refused with 401 for a missing or wrong
// token since the inbox was built.
func (in *ShardInbox) AuthRejected() uint64 { return in.authRejects.Load() }

// Fetch returns a ShardFetch consuming the next report POSTed to the
// inbox (or failing when the sweep's context expires — the crash window:
// a worker that never reports costs its shard's contribution and one
// attributed failure, never the sweep). A coordinator expecting n shards
// passes n of these to MergedReports.
func (in *ShardInbox) Fetch(name string) ShardFetch {
	return ShardFetch{
		Name: name,
		Fetch: func(ctx context.Context, env *SweepEnv) (*ShardReport, error) {
			select {
			case rep := <-in.ch:
				return rep, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}
