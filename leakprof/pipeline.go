package leakprof

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gprofile"
)

// Config is the resolved option set a Pipeline runs with. Callers build
// it through New and the With* options; Sources receive it (via SweepEnv)
// so every profile origin honours the same collection knobs.
type Config struct {
	// Client is the HTTP client endpoint sources fetch with; nil means a
	// client bounded by Timeout.
	Client *http.Client
	// Timeout bounds each fetch when Client is nil; zero means 30s.
	Timeout time.Duration
	// Parallelism bounds concurrent collection; zero means 32.
	Parallelism int
	// MaxProfileBytes bounds one profile body; a larger body fails the
	// fetch rather than truncating. Zero means DefaultMaxProfileBytes.
	MaxProfileBytes int64
	// Threshold is the per-instance suspicious-concentration bound;
	// zero means DefaultThreshold.
	Threshold int
	// Ranking picks the impact statistic; default RankRMS.
	Ranking Ranking
	// Filters mark operations as harmless (criterion 2).
	Filters []OpFilter
	// Retry bounds per-endpoint fetch retries; the zero value means one
	// attempt (no retry).
	Retry RetryPolicy
	// ErrorBudget is the number of failed instances per service per
	// sweep before that service's remaining instances short-circuit
	// with ErrBudgetExhausted; zero means unlimited.
	ErrorBudget int
	// Now supplies timestamps; nil means time.Now.
	Now func() time.Time
	// OnSweep observes each completed sweep (after sinks ran).
	OnSweep func(*Sweep)
	// StateDir, when non-empty, roots the pipeline's durable state: a
	// StateStore is opened there on first use, each sweep's error budget
	// is seeded from the previous sweep's journaled failures, and each
	// sweep appends its delta frame to the segmented journal. See
	// WithStateDir.
	StateDir string
	// StateSegmentBytes and StateMaxSegments tune the state journal's
	// compaction thresholds (see WithStateCompaction); zero means the
	// StateStore defaults.
	StateSegmentBytes int64
	StateMaxSegments  int
	// StateSync is the state journal's fsync policy (see WithStateSync);
	// the zero value is SyncEverySweep.
	StateSync SyncPolicy
	// Window is the streaming-ingest tumbling-window duration (see
	// WithWindow); zero means DefaultWindow. Only the push-ingestion
	// plane (IngestServer) consumes it — each pull sweep is one call.
	Window time.Duration

	// sleep and randFloat are test seams for the backoff path.
	sleep     func(context.Context, time.Duration) error
	randFloat func() float64
}

// sinkQueue is each sink's event queue capacity in the concurrent
// fan-out: a sink that falls further behind backpressures collection
// rather than buffering a sweep's worth of snapshots.
const sinkQueue = 1024

// DefaultWindow is the streaming-ingest tumbling-window duration when
// WithWindow is unset.
const DefaultWindow = time.Minute

func (c *Config) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

func (c *Config) parallelism() int {
	if c.Parallelism <= 0 {
		return 32
	}
	return c.Parallelism
}

func (c *Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Config) sleepFn() func(context.Context, time.Duration) error {
	if c.sleep != nil {
		return c.sleep
	}
	return sleepCtx
}

func (c *Config) randFn() func() float64 {
	if c.randFloat != nil {
		return c.randFloat
	}
	return rand.Float64
}

func (c *Config) window() time.Duration {
	if c.Window <= 0 {
		return DefaultWindow
	}
	return c.Window
}

// Option configures a Pipeline.
type Option func(*Config)

// WithHTTPClient sets the HTTP client endpoint sources fetch with.
func WithHTTPClient(client *http.Client) Option {
	return func(c *Config) { c.Client = client }
}

// WithTimeout bounds each profile fetch.
func WithTimeout(d time.Duration) Option {
	return func(c *Config) { c.Timeout = d }
}

// WithParallelism bounds concurrent collection.
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithMaxProfileBytes bounds one profile body.
func WithMaxProfileBytes(n int64) Option {
	return func(c *Config) { c.MaxProfileBytes = n }
}

// WithThreshold sets the per-instance suspicious-concentration bound
// (the paper's 10K).
func WithThreshold(n int) Option {
	return func(c *Config) { c.Threshold = n }
}

// WithRanking picks the fleet-wide impact statistic.
func WithRanking(r Ranking) Option {
	return func(c *Config) { c.Ranking = r }
}

// WithFilters appends criterion-2 harmless-operation filters.
func WithFilters(filters ...OpFilter) Option {
	return func(c *Config) { c.Filters = append(c.Filters, filters...) }
}

// WithRetry sets the per-endpoint retry policy for production
// collection.
func WithRetry(policy RetryPolicy) Option {
	return func(c *Config) { c.Retry = policy }
}

// WithErrorBudget short-circuits a service's remaining instances once
// perService of its instances have failed (post-retry) in one sweep.
func WithErrorBudget(perService int) Option {
	return func(c *Config) { c.ErrorBudget = perService }
}

// WithClock injects the timestamp source (simulations use a fake clock).
func WithClock(now func() time.Time) Option {
	return func(c *Config) { c.Now = now }
}

// WithSharedIntern does nothing. Profile scans intern their strings in
// the pooled scanner's own table, which keeps them across scans; the
// option remains only because the benchmark harness (bench/sut.go)
// still passes it, and goes once that caller drops it.
func WithSharedIntern(maxEntries int) Option {
	return func(*Config) {}
}

// WithOnSweep registers an observer called after each sweep's sinks ran.
func WithOnSweep(fn func(*Sweep)) Option {
	return func(c *Config) { c.OnSweep = fn }
}

// WithStateDir makes the pipeline durable: a StateStore journal under
// dir is recovered at startup (Pipeline.State returns it, with its
// pre-seeded BugDB and Tracker for sink wiring), each sweep seeds its
// error budget from the previous sweep's journaled failures — a service
// down yesterday gets a reduced probe budget today — and each sweep
// appends one checksummed delta frame to the segmented journal, so
// dedup, trend verdicts, and budgets survive a restart at a per-sweep
// write cost proportional to what the sweep changed.
func WithStateDir(dir string) Option {
	return func(c *Config) { c.StateDir = dir }
}

// WithStateCompaction tunes the state journal: the active segment rolls
// over once it exceeds segmentBytes, and once more than maxSegments
// segments are live they are folded into one snapshot segment (the old
// ones deleted), keeping the state dir bounded. Non-positive values keep
// the StateStore defaults.
func WithStateCompaction(segmentBytes int64, maxSegments int) Option {
	return func(c *Config) {
		c.StateSegmentBytes = segmentBytes
		c.StateMaxSegments = maxSegments
	}
}

// WithStateSync sets the state journal's fsync policy: SyncEverySweep
// (default) syncs each recorded sweep before RecordSweep returns;
// SyncOnClose defers to Flush/Close. The loss window on a crash equals
// the unsynced window. See SyncPolicy.
func WithStateSync(p SyncPolicy) Option {
	return func(c *Config) { c.StateSync = p }
}

// WithWindow sets the streaming-ingest tumbling-window duration: an
// IngestServer folding pushed dumps closes one window — and emits one
// normal Sweep through the pipeline's sinks and state journal — every d
// on the pipeline clock. Dumps arriving while a window closes are
// credited to the next window. Pull sweeps ignore it. Default
// DefaultWindow.
func WithWindow(d time.Duration) Option {
	return func(c *Config) { c.Window = d }
}

// Pipeline is the single entry point to LEAKPROF's collect → detect →
// report loop: one Engine pulling snapshots from a Source, folding them
// through the streaming Aggregator, and fanning per-snapshot
// events plus end-of-sweep results out to Sinks.
//
//	pipe := leakprof.New(
//		leakprof.WithThreshold(10000),
//		leakprof.WithRetry(leakprof.DefaultRetryPolicy),
//		leakprof.WithErrorBudget(3),
//	)
//	pipe.AddSinks(&leakprof.ReportSink{Reporter: rep}, &leakprof.TrendSink{Tracker: tr})
//	sweep, err := pipe.Sweep(ctx, leakprof.StaticEndpoints(fleet...))
//
// The same pipeline sweeps HTTP fleets (StaticEndpoints), on-disk archives
// (Archive), simulated fleets (fleet.(*Fleet).Source), materialised
// snapshots (FromSnapshots), and raw dump bodies (Dumps). Sweeps are
// serialised per Pipeline; the collection inside one sweep is
// concurrent, and so is the sink fan-out: every sink consumes its own
// bounded event queue on its own goroutine, so a slow sink (a remote
// metrics push, a cold archive disk) cannot delay another sink's
// alerting. The sweep drains all queues before returning (the
// drain-on-close barrier), so sink errors still join the sweep's
// result.
type Pipeline struct {
	cfg   Config
	mu    sync.Mutex // serialises sweeps (and Close)
	sinks []Sink

	stateOnce sync.Once
	store     *StateStore
	stateErr  error

	// shardSeq numbers this pipeline's ShardSweep reports so a
	// coordinator inbox can drop a report the worker shipped twice.
	shardSeq atomic.Uint64
}

// New builds a Pipeline from functional options.
func New(opts ...Option) *Pipeline {
	p := &Pipeline{}
	for _, opt := range opts {
		opt(&p.cfg)
	}
	return p
}

// AddSinks registers sinks receiving per-snapshot events and end-of-sweep
// results. Not safe to call concurrently with Sweep.
func (p *Pipeline) AddSinks(sinks ...Sink) *Pipeline {
	p.sinks = append(p.sinks, sinks...)
	return p
}

// Config returns the pipeline's resolved configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// State returns the pipeline's durable state store, opening it (and
// loading its journal) on first call. It returns (nil, nil) when the
// pipeline has no StateDir configured. The store's BugDB and Tracker
// are what restart-safe sinks should be wired to.
func (p *Pipeline) State() (*StateStore, error) {
	if p.cfg.StateDir == "" {
		return nil, nil
	}
	p.stateOnce.Do(func() {
		// The store inherits the pipeline's clock so journal frames are
		// stamped with the same (possibly fake) time the sweeps use.
		p.store, p.stateErr = openStateStore(p.cfg.StateDir, &p.cfg)
	})
	return p.store, p.stateErr
}

// sinkWorker runs one sink on its own goroutine over a bounded queue for
// one sweep: the sweep's snapshots in arrival order, then SweepDone once
// the queue closes. Sinks do not wait on each other, so a stalled
// archive disk cannot delay the report sink's alerting.
type sinkWorker struct {
	ch    chan *gprofile.Snapshot
	sweep *Sweep // set before ch closes
	done  chan struct{}
	err   error // SweepDone's result, read after done closes
}

func startSinkWorker(sink Sink) *sinkWorker {
	w := &sinkWorker{ch: make(chan *gprofile.Snapshot, sinkQueue), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for snap := range w.ch {
			sink.Snapshot(snap)
		}
		w.err = sink.SweepDone(w.sweep)
	}()
	return w
}

// collect is the one collection core behind Sweep, ShardSweep and every
// ingest window: it runs src through a fresh aggregator into a new Sweep,
// counting failures through its ledger and queueing every folded snapshot
// to the sink workers. The Sweep carries the aggregator but no findings.
func (p *Pipeline) collect(ctx context.Context, src Source, prevFailures map[string]int, workers []*sinkWorker) (*Sweep, error) {
	agg := NewAggregator(p.cfg.Threshold, p.cfg.Filters...)
	sweep := &Sweep{At: p.cfg.now(), Source: src.Name(), agg: agg}
	var mu sync.Mutex // guards the sweep's failure ledger
	env := &SweepEnv{
		Config: &p.cfg,
		Emit: func(snap *gprofile.Snapshot) {
			agg.Add(snap)
			for _, w := range workers {
				w.ch <- snap
			}
		},
		Fail: func(service, instance string, err error) {
			mu.Lock()
			sweep.fail(service, instance, err)
			mu.Unlock()
		},
		SetTime: func(at time.Time) { sweep.At = at },
		MergeReport: func(rep *ShardReport) {
			agg.MergeMoments(rep.Services, rep.Profiles, rep.Moments)
			mu.Lock()
			sweep.addFailures(rep.Errors, rep.FailedByService, rep.Failures)
			mu.Unlock()
		},
		prevFailures: prevFailures,
	}
	err := src.Sweep(ctx, env)
	sweep.Err = err
	sweep.Profiles = agg.Profiles()
	return sweep, err
}

// Sweep runs one collection pass over the source: every snapshot the
// source emits streams into a fresh aggregator and onto each sink's
// bounded queue, failures are tallied, and the completed Sweep (findings
// plus the aggregator's raw moments) is delivered to every sink. Sinks
// consume their queues concurrently with collection and with each other,
// and Sweep drains every queue before returning, so the returned error
// joins the source error with any sink and state-persistence errors. A
// Sweep is returned even when collection partially failed.
func (p *Pipeline) Sweep(ctx context.Context, src Source) (*Sweep, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	store, stateErr := p.State()
	var prevFailures map[string]int
	if store != nil {
		prevFailures = store.LastFailureCounts()
	}

	workers := make([]*sinkWorker, len(p.sinks))
	for i, s := range p.sinks {
		workers[i] = startSinkWorker(s)
	}
	sweep, err := p.collect(ctx, src, prevFailures, workers)
	sweep.Findings = sweep.agg.Findings(p.cfg.Ranking)

	errs := []error{err, stateErr}
	// Hand the completed sweep to every sink and wait for every worker:
	// the drain barrier. Fast sinks complete on their own schedule — the
	// barrier only bounds when Sweep itself returns.
	for _, w := range workers {
		w.sweep = sweep
		close(w.ch)
	}
	for _, w := range workers {
		<-w.done
		errs = append(errs, w.err)
	}
	if store != nil {
		errs = append(errs, store.RecordSweep(sweep))
	}
	if p.cfg.OnSweep != nil {
		p.cfg.OnSweep(sweep)
	}
	return sweep, errors.Join(errs...)
}

// Close shuts the pipeline down: the state store is flushed and closed
// (pending deltas journaled, the unsynced window fsynced — SyncOnClose's
// moment). A pipeline without a state store closes trivially.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store == nil {
		return nil
	}
	return p.store.Close()
}

// Replay sweeps an on-disk archive through the pipeline, honouring
// recorded manifests. A multi-sweep archive (one subdirectory per sweep,
// as NewSweepArchiveSink writes) replays one Sweep per recorded sweep in
// recorded-time order — so trend verdicts see the original cadence — and
// a single-sweep archive replays as one Sweep. Per-sweep errors, and
// sweep subdirectories skipped for a torn or missing manifest, are
// joined into the returned error; replay continues past a failed sweep.
func (p *Pipeline) Replay(ctx context.Context, dir string) ([]*Sweep, error) {
	var errs []error
	subs, err := gprofile.SweepDirs(dir, func(name string, err error) {
		errs = append(errs, fmt.Errorf("leakprof: replay skipping %s: %w", name, err))
	})
	if err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		sweep, err := p.Sweep(ctx, Archive(dir))
		errs = append(errs, err)
		return []*Sweep{sweep}, errors.Join(errs...)
	}
	var sweeps []*Sweep
	for _, sub := range subs {
		if ctx.Err() != nil {
			errs = append(errs, ctx.Err())
			break
		}
		sweep, err := p.Sweep(ctx, Archive(sub.Dir))
		sweeps = append(sweeps, sweep)
		errs = append(errs, err)
	}
	return sweeps, errors.Join(errs...)
}
