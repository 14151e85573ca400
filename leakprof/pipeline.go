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
	"repro/internal/stack"
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
	// Interval separates periodic sweeps in Run; zero means 24h.
	Interval time.Duration
	// Now supplies timestamps; nil means time.Now.
	Now func() time.Time
	// Intern, when non-nil, is a bounded string pool shared across all
	// of the pipeline's profile scans (see WithSharedIntern).
	Intern *stack.InternPool
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
	// TrendRetention bounds the trend history kept (and journaled) per
	// key to the last N observations (see WithTrendRetention); zero
	// means unlimited.
	TrendRetention int
	// SinkQueue bounds each sink's event queue in the concurrent sink
	// fan-out; zero means DefaultSinkQueue. A sink that falls further
	// behind than its queue backpressures collection rather than
	// buffering a sweep's worth of snapshots.
	SinkQueue int
	// DetachedSinks lets sink lag span sweeps: Sweep returns after
	// handing the completed sweep to every sink's queue instead of
	// draining them, so Run starts sweep N+1 while a slow sink finishes
	// sweep N. Lag is bounded by each sink's queue depth; Pipeline.Flush
	// is the drain barrier and Pipeline.Close the final one. See
	// WithDetachedSinks.
	DetachedSinks bool
	// StateSync is the state journal's fsync policy (see WithStateSync);
	// the zero value is SyncEverySweep.
	StateSync SyncPolicy
	// SinkErr observes each sink error as the sink's worker hits it (see
	// WithSinkErrorFunc); nil drops nothing — errors still accumulate for
	// the barriers.
	SinkErr func(Sink, error)
	// BugRetention ages closed bugs out of the durable bug database (see
	// WithBugRetention); zero keeps every bug ever filed.
	BugRetention time.Duration
	// Window is the streaming-ingest tumbling-window duration (see
	// WithWindow); zero means DefaultWindow. Only the push-ingestion
	// plane (IngestServer) consumes it — pull sweeps are paced by
	// Interval instead.
	Window time.Duration

	// sleep and randFloat are test seams for the backoff path.
	sleep     func(context.Context, time.Duration) error
	randFloat func() float64
}

// DefaultSinkQueue is the per-sink event queue capacity when SinkQueue
// is unset.
const DefaultSinkQueue = 1024

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

func (c *Config) sinkQueue() int {
	if c.SinkQueue <= 0 {
		return DefaultSinkQueue
	}
	return c.SinkQueue
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

// WithInterval separates periodic sweeps in Run.
func WithInterval(d time.Duration) Option {
	return func(c *Config) { c.Interval = d }
}

// WithClock injects the timestamp source (simulations use a fake clock).
func WithClock(now func() time.Time) Option {
	return func(c *Config) { c.Now = now }
}

// WithSharedIntern attaches a bounded intern pool (maxEntries distinct
// strings; <= 0 means the stack package default) shared across every
// profile scan the pipeline runs, across sweeps: daily sweeps of the same
// fleet stop re-interning identical function and file strings per fetch.
func WithSharedIntern(maxEntries int) Option {
	return func(c *Config) { c.Intern = stack.NewInternPool(maxEntries) }
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

// WithTrendRetention keeps only the last n trend observations per finding
// key — in the tracker's verdicts and exports, in every journaled
// snapshot, and across restores — so cross-sweep history (and the state
// journal) stops growing with the age of the deployment. Zero retains
// unlimited history.
func WithTrendRetention(n int) Option {
	return func(c *Config) { c.TrendRetention = n }
}

// WithSinkQueue bounds each sink's event queue in the concurrent sink
// fan-out (default DefaultSinkQueue).
func WithSinkQueue(n int) Option {
	return func(c *Config) { c.SinkQueue = n }
}

// WithDetachedSinks detaches sink draining from the sweep: Sweep returns
// once the completed sweep is on every sink's queue, without waiting for
// the slowest sink to process it, so a periodic Run starts sweep N+1
// while a cold archive disk is still writing sweep N. Sink lag is
// bounded: each queue holds at most SinkQueue events, and a sink further
// behind backpressures the next sweep's collection instead of buffering
// without bound. Sink errors surface at the explicit barriers —
// Pipeline.Flush (drain now, keep running) and Pipeline.Close (drain and
// shut down) — instead of joining each Sweep's return value, and the
// state journal records a sweep when it completes, not when its sinks
// finish (a detached TrendSink's late observations ride the next frame,
// or the Flush/Close delta). Without this option every Sweep drains all
// queues before returning, the strict default.
func WithDetachedSinks() Option {
	return func(c *Config) { c.DetachedSinks = true }
}

// WithStateSync sets the state journal's fsync policy: SyncEverySweep
// (default) syncs each recorded sweep before RecordSweep returns;
// SyncEvery(n, d) group-commits — one fsync per window of n sweeps or d
// elapsed, off the critical path; SyncOnClose defers to Flush/Close. The
// loss window on a crash equals the unsynced window. See SyncPolicy.
func WithStateSync(p SyncPolicy) Option {
	return func(c *Config) { c.StateSync = p }
}

// WithSinkErrorFunc registers a per-sink error callback invoked from the
// sink's worker goroutine the moment SweepDone fails. Under
// WithDetachedSinks errors otherwise surface only at the Flush/Close
// barriers — which a long periodic Run may not reach for days — so an
// operator alerting on archive-disk failures observes them here, between
// barriers, while the errors still accumulate for the barrier to return.
// The callback must be safe for concurrent use: each sink's worker calls
// it independently.
func WithSinkErrorFunc(fn func(Sink, error)) Option {
	return func(c *Config) { c.SinkErr = fn }
}

// WithWindow sets the streaming-ingest tumbling-window duration: an
// IngestServer folding pushed dumps closes one window — and emits one
// normal Sweep through the pipeline's sinks and state journal — every d
// on the pipeline clock. Dumps arriving while a window closes are
// credited to the next window. Pull sweeps ignore it (their cadence is
// WithInterval). Default DefaultWindow.
func WithWindow(d time.Duration) Option {
	return func(c *Config) { c.Window = d }
}

// WithBugRetention ages closed (fixed or rejected) bugs out of the
// durable bug database once their last sighting is older than age — from
// memory, from delta frames, and from compaction folds. Open bugs never
// age out, so dedup against a still-open report is unaffected. Zero
// keeps every bug ever filed.
func WithBugRetention(age time.Duration) Option {
	return func(c *Config) { c.BugRetention = age }
}

// Pipeline is the single entry point to LEAKPROF's collect → detect →
// report loop: one Engine pulling snapshots from a Source, folding them
// through the streaming sharded Aggregator, and fanning per-snapshot
// events plus end-of-sweep results out to Sinks.
//
//	pipe := leakprof.New(
//		leakprof.WithThreshold(10000),
//		leakprof.WithRetry(leakprof.DefaultRetryPolicy),
//		leakprof.WithErrorBudget(3),
//	)
//	pipe.AddSinks(&leakprof.ReportSink{Reporter: rep}, &leakprof.TrendSink{Tracker: tr})
//	sweep, err := pipe.Sweep(ctx, leakprof.Endpoints(enumerate))
//
// The same pipeline sweeps HTTP fleets (Endpoints), on-disk archives
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
	mu    sync.Mutex // serialises sweeps (and Flush/Close)
	sinks []Sink

	// workers are the persistent per-sink goroutines of detached mode,
	// created lazily on first sweep; in the default synchronous mode
	// workers live for one sweep only and this stays nil.
	workers []*sinkWorker

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
// results. Not safe to call concurrently with Sweep or Run.
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
		p.store, p.stateErr = OpenStateStore(p.cfg.StateDir,
			StateClock(p.cfg.now),
			StateCompaction(p.cfg.StateSegmentBytes, p.cfg.StateMaxSegments),
			StateTrendRetention(p.cfg.TrendRetention),
			StateSync(p.cfg.StateSync),
			StateBugRetention(p.cfg.BugRetention),
		)
	})
	return p.store, p.stateErr
}

// sinkEvent is one unit of a sink's queue: a streamed snapshot, the
// end-of-sweep delivery (sweep set), or a flush sentinel (flush set) —
// the detached-mode barrier, answered with the worker's accumulated
// errors once everything queued ahead of it has been processed.
type sinkEvent struct {
	snap  *gprofile.Snapshot
	sweep *Sweep
	flush chan<- error
}

// sinkWorker runs one sink on its own goroutine over a bounded queue.
// Events for one sink stay ordered (snapshots, then the sweep), but
// sinks no longer wait on each other: a stalled archive disk cannot
// delay the report sink's alerting. In detached mode the worker outlives
// individual sweeps, so its error accumulation is mutex-guarded and
// drained by flush sentinels instead of the per-sweep barrier.
type sinkWorker struct {
	sink Sink
	ch   chan sinkEvent
	done chan struct{}

	mu  sync.Mutex
	err error // accumulated SweepDone errors since the last drain
}

func startSinkWorker(sink Sink, queue int, onErr func(Sink, error)) *sinkWorker {
	w := &sinkWorker{sink: sink, ch: make(chan sinkEvent, queue), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for ev := range w.ch {
			switch {
			case ev.flush != nil:
				ev.flush <- w.takeErr()
			case ev.sweep != nil:
				if err := w.sink.SweepDone(ev.sweep); err != nil {
					w.mu.Lock()
					w.err = errors.Join(w.err, err)
					w.mu.Unlock()
					// The callback fires between barriers; the
					// accumulated error still reaches the next one.
					if onErr != nil {
						onErr(w.sink, err)
					}
				}
			default:
				w.sink.Snapshot(ev.snap)
			}
		}
	}()
	return w
}

// takeErr returns and clears the worker's accumulated errors.
func (w *sinkWorker) takeErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	w.err = nil
	return err
}

// Sweep runs one collection pass over the source: every snapshot the
// source emits streams into a fresh aggregator and onto each sink's
// bounded queue, failures are tallied, and the completed Sweep (findings
// plus the aggregator's raw moments) is delivered to every sink. Sinks
// consume their queues concurrently with collection and with each other.
// By default Sweep drains every queue before returning, so the returned
// error joins the source error with any sink and state-persistence
// errors; under WithDetachedSinks it returns once the sweep is enqueued
// everywhere, and sink errors surface at the Flush/Close barriers
// instead. A Sweep is returned even when collection partially failed.
func (p *Pipeline) Sweep(ctx context.Context, src Source) (*Sweep, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	store, stateErr := p.State()
	var prevFailures map[string]int
	if store != nil {
		prevFailures = store.LastFailureCounts()
	}

	agg := NewAggregator(p.cfg.Threshold, p.cfg.Filters...)
	sweep := &Sweep{At: p.cfg.now(), Source: src.Name()}
	var workers []*sinkWorker
	if p.cfg.DetachedSinks {
		workers = p.detachedWorkersLocked()
	} else {
		workers = make([]*sinkWorker, len(p.sinks))
		for i, s := range p.sinks {
			workers[i] = startSinkWorker(s, p.cfg.sinkQueue(), p.cfg.SinkErr)
		}
	}
	var mu sync.Mutex
	env := &SweepEnv{
		Config: &p.cfg,
		Emit: func(snap *gprofile.Snapshot) {
			agg.Add(snap)
			for _, w := range workers {
				w.ch <- sinkEvent{snap: snap}
			}
		},
		Fail: func(service, instance string, err error) {
			mu.Lock()
			sweep.Errors++
			// Salvage reports (a profile decoded by skipping corrupt
			// members) are diagnostics, not downness: they count in
			// Errors and Failures but must not seed the next sweep's
			// error budget against a reachable service.
			if !errors.Is(err, gprofile.ErrSalvaged) {
				if sweep.FailedByService == nil {
					sweep.FailedByService = make(map[string]int)
				}
				sweep.FailedByService[service]++
			}
			if len(sweep.Failures) < maxSweepFailures {
				sweep.Failures = append(sweep.Failures, SweepFailure{Service: service, Instance: instance, Err: err})
			}
			mu.Unlock()
		},
		SetTime: func(at time.Time) { sweep.At = at },
		MergeReport: func(rep *ShardReport) {
			agg.MergeMoments(rep.Services, rep.Profiles, rep.Moments)
			mu.Lock()
			sweep.Errors += rep.Errors
			for svc, n := range rep.FailedByService {
				if sweep.FailedByService == nil {
					sweep.FailedByService = make(map[string]int)
				}
				sweep.FailedByService[svc] += n
			}
			for _, f := range rep.Failures {
				if len(sweep.Failures) >= maxSweepFailures {
					break
				}
				sweep.Failures = append(sweep.Failures, f)
			}
			mu.Unlock()
		},
		prevFailures: prevFailures,
	}
	err := src.Sweep(ctx, env)
	sweep.Err = err
	sweep.Profiles = agg.Profiles()
	sweep.Findings = agg.Findings(p.cfg.Ranking)
	sweep.agg = agg

	errs := []error{err, stateErr}
	// Hand the completed sweep to every sink. In the default mode each
	// queue is closed behind its sweep event and the barrier waits for
	// every worker to finish; fast sinks complete on their own schedule —
	// the barrier only bounds when Sweep itself returns. Detached
	// workers persist instead: their lag may span sweeps (bounded by
	// queue depth), and Flush/Close are the barriers.
	for _, w := range workers {
		w.ch <- sinkEvent{sweep: sweep}
		if !p.cfg.DetachedSinks {
			close(w.ch)
		}
	}
	if !p.cfg.DetachedSinks {
		for _, w := range workers {
			<-w.done
			errs = append(errs, w.takeErr())
		}
	}
	if store != nil {
		errs = append(errs, store.RecordSweep(sweep))
	}
	if p.cfg.OnSweep != nil {
		p.cfg.OnSweep(sweep)
	}
	return sweep, errors.Join(errs...)
}

// detachedWorkersLocked returns the persistent sink workers, starting
// one for any sink that does not have its own yet.
func (p *Pipeline) detachedWorkersLocked() []*sinkWorker {
	for i := len(p.workers); i < len(p.sinks); i++ {
		p.workers = append(p.workers, startSinkWorker(p.sinks[i], p.cfg.sinkQueue(), p.cfg.SinkErr))
	}
	return p.workers
}

// Flush is the detached-mode drain barrier: it blocks until every sink
// has consumed everything enqueued so far — snapshots and sweeps alike —
// returns the sink errors accumulated since the previous barrier, and
// brings the state journal current and durable (late-arriving trend
// observations are appended, the unsynced group-commit window fsynced).
// With synchronous sinks it only flushes the journal: every Sweep was
// its own barrier. Flush excludes sweeps while it runs; the pipeline
// keeps working afterwards.
func (p *Pipeline) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pipeline) flushLocked() error {
	var errs []error
	acks := make([]chan error, len(p.workers))
	for i, w := range p.workers {
		ack := make(chan error, 1)
		acks[i] = ack
		w.ch <- sinkEvent{flush: ack}
	}
	for _, ack := range acks {
		errs = append(errs, <-ack)
	}
	if p.store != nil {
		errs = append(errs, p.store.Flush())
	}
	return errors.Join(errs...)
}

// Close drains and shuts the pipeline down: detached sink workers finish
// their queues and exit, their remaining errors are returned, and the
// state store is flushed and closed (pending deltas journaled, the
// unsynced window fsynced — SyncOnClose's moment). A pipeline without
// detached workers or a state store closes trivially. Sweeping after
// Close restarts workers, but the idiomatic lifecycle is one Close at
// the end of Run.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for _, w := range p.workers {
		close(w.ch)
	}
	for _, w := range p.workers {
		<-w.done
		errs = append(errs, w.takeErr())
	}
	p.workers = nil
	if p.store != nil {
		errs = append(errs, p.store.Close())
	}
	return errors.Join(errs...)
}

// Replay sweeps an on-disk archive through the pipeline, honouring
// recorded manifests. A multi-sweep archive (one subdirectory per sweep,
// as NewSweepArchiveSink writes) replays one Sweep per recorded sweep in
// recorded-time order — so trend verdicts see the original cadence — and
// a single-sweep archive replays as one Sweep. Per-sweep errors, and
// sweep subdirectories skipped for a torn or missing manifest, are
// joined into the returned error; replay continues past a failed sweep
// the way Run does.
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

// Run sweeps the source periodically — the paper's daily cadence — until
// the context is cancelled. The first sweep happens immediately;
// subsequent sweeps follow the configured interval. Sweep-level errors
// flow to sinks and OnSweep, not out of Run: an unreachable fleet today
// must not stop tomorrow's sweep.
func (p *Pipeline) Run(ctx context.Context, src Source) error {
	interval := p.cfg.Interval
	if interval <= 0 {
		interval = 24 * time.Hour
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		p.Sweep(ctx, src)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
