package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/leakprof"
)

// The mode runner is the one place a fleet is wired through a pipeline
// mode. Every mode reads the same bytes for a given round and instance:
// the instance's dump with the round's body fault. Batch mode sweeps
// the fleet's endpoints, which serve those bytes behind the Injector's
// per-attempt faults. Sharded mode splits the endpoints as `leakprof
// -shard K/N` does, and each worker hands its report to the coordinator
// through a handoff file (as `leakprof -merge-reports` reads them) or a
// POST to an HTTP ShardInbox. Ingest mode POSTs the bytes into an
// IngestServer and closes one window per round. Every mode runs under
// a fake clock that steps roundStep after each round, so a round's
// sweep carries the same timestamp in every mode.

// window is the ingest window; roundStep passes its deadline.
const (
	window    = time.Minute
	roundStep = window + time.Millisecond
)

// outcome is what one drive produced.
type outcome struct {
	// Sweeps holds each round's sweep, in round order. Ingest's shutdown
	// drain folds nothing, since every post lands in its round, and is
	// not among them.
	Sweeps []*leakprof.Sweep
	// Latency is the slowest round: the sweep's wall-clock in batch and
	// sharded mode, tick to emitted sweep in ingest mode.
	Latency time.Duration
	// Store is the sweeping pipeline's journal, closed, when the options
	// name a state dir; its ReportSink and TrendSink were wired to it the
	// way cmd/leakprof wires them.
	Store *leakprof.StateStore

	evidence observed
}

// bodyFault is the damage one instance's dump carries in one round.
type bodyFault struct{ torn, malform, badGzip bool }

// rollBodyFault draws the scenario's Post* probabilities for one
// (round, instance).
func (sc *Scenario) rollBodyFault(round int, instance string) bodyFault {
	n := uint64(round)
	if sc.PostBadGzip > 0 && Hash01(sc.Seed, "badgzip", instance, n) < sc.PostBadGzip {
		return bodyFault{badGzip: true}
	}
	return bodyFault{
		torn:    sc.PostTorn > 0 && Hash01(sc.Seed, "torn", instance, n) < sc.PostTorn,
		malform: sc.PostMalform > 0 && Hash01(sc.Seed, "malform", instance, n) < sc.PostMalform,
	}
}

// drive runs the fleet through the scenario's mode, one round per
// window (at least one) with the fleet a day older each round, and
// returns every round's sweep with the fault evidence and latency;
// faults picks each (round, instance)'s body fault. The outcome is
// non-nil even on error. Every server, temp dir and pipeline drive opens
// is closed before it returns.
func drive(ctx context.Context, sc *Scenario, f *fleet.Fleet, faults func(round int, instance string) bodyFault, opts ...leakprof.Option) (*outcome, error) {
	clock := &fakeClock{t: matrixOrigin.Add(time.Duration(sc.Days) * 24 * time.Hour)}
	r := &runner{sc: sc, f: f, faults: faults, clock: clock, out: &outcome{},
		opts: append(opts[:len(opts):len(opts)], leakprof.WithClock(clock.Now), leakprof.WithWindow(window))}
	if sc.Mode == ModeIngest {
		return r.out, r.ingest(ctx)
	}
	return r.out, r.pull(ctx)
}

type runner struct {
	sc     *Scenario
	f      *fleet.Fleet
	faults func(round int, instance string) bodyFault
	clock  *fakeClock
	opts   []leakprof.Option
	out    *outcome

	round      atomic.Int64 // the round the endpoints serve
	dupRejects atomic.Int64
}

func (r *runner) rounds() int { return max(1, r.sc.Windows) }

// body renders what in serves and POSTs in round, gzip-encoded when the
// fault or the scenario asks.
func (r *runner) body(round int, in *fleet.Instance) (body []byte, gz bool) {
	ft := r.faults(round, in.Name)
	body = in.Dump()
	if ft.badGzip {
		return CorruptGzip(gzipBody(body)), true
	}
	if ft.torn {
		body = Torn(body, 0.5)
	}
	if ft.malform {
		body, _ = MalformHeaders(body, 2)
	}
	if r.sc.Gzip {
		return gzipBody(body), true
	}
	return body, false
}

// durable wires the sweeping pipeline's sinks to its journal, if any.
func (r *runner) durable(pipe *leakprof.Pipeline) error {
	store, err := pipe.State()
	if store != nil {
		pipe.AddSinks(
			&leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: store.BugDB()}},
			&leakprof.TrendSink{Tracker: store.Tracker()},
		)
		r.out.Store = store
	}
	return err
}

// pull drives the batch and sharded modes over the fleet's endpoints.
func (r *runner) pull(ctx context.Context) (err error) {
	sc := r.sc
	inj := &Injector{Seed: sc.Seed, Faults: sc.Faults}
	if sc.RollingDeployFrac > 0 {
		inj.OnDeploy = func() { r.f.DeployRolling(sc.RollingDeployFrac) }
	}
	endpoints, shutdown := r.f.ServeWith(func(in *fleet.Instance, _ http.Handler) http.Handler {
		return inj.Wrap(in.Name, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			body, gz := r.body(int(r.round.Load()), in)
			if gz {
				w.Header().Set("Content-Encoding", "gzip")
			}
			w.Write(body)
		}))
	})
	defer shutdown()
	pipe := leakprof.New(r.opts...)
	defer func() { err = errors.Join(err, pipe.Close()) }()
	if err := r.durable(pipe); err != nil {
		return err
	}
	var dir string
	if sc.Mode == ModeSharded && !sc.Inbox {
		if dir, err = os.MkdirTemp("", "chaos-shards-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	for round := 0; round < r.rounds() && err == nil; round++ {
		if round > 0 {
			r.f.AdvanceDay()
		}
		r.round.Store(int64(round))
		start := time.Now()
		var sweep *leakprof.Sweep
		if sc.Mode == ModeSharded {
			sweep, err = r.shardedRound(ctx, pipe, endpoints, filepath.Join(dir, fmt.Sprint(round)))
		} else {
			sweep, err = pipe.Sweep(ctx, leakprof.StaticEndpoints(endpoints...))
		}
		r.out.Sweeps = append(r.out.Sweeps, sweep)
		r.out.Latency = max(r.out.Latency, time.Since(start))
		r.clock.Advance(roundStep)
	}
	st := inj.Stats()
	r.out.evidence.deploys, r.out.evidence.faults = st.Deploys, st.Fired()
	r.out.evidence.dupRejects = int(r.dupRejects.Load())
	return err
}

func shardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// shardedRound merges one round's shard reports. Each worker runs
// inside its shard's fetch, so the merge's straggler deadline cuts it
// loose, but its report reaches the coordinator only through the
// transport: a handoff file under prefix, or the HTTP inbox.
func (r *runner) shardedRound(ctx context.Context, coord *leakprof.Pipeline, endpoints []leakprof.Endpoint, prefix string) (*leakprof.Sweep, error) {
	sc := r.sc
	shards := max(1, sc.Shards)
	var url string
	var inbox *leakprof.ShardInbox
	if sc.Inbox {
		inbox = leakprof.NewShardInbox(shards)
		inbox.Token = sc.Token
		hs := httptest.NewServer(inbox)
		defer hs.Close()
		defer func() { r.out.evidence.authRejects += inbox.AuthRejected() }()
		url = hs.URL
	}
	parts := leakprof.PartitionEndpoints(endpoints, shards)
	errs := make([]error, shards) // handoffs that broke, beyond the shard's loss
	fetches := make([]leakprof.ShardFetch, shards)
	for i := range parts {
		name, path := shardName(i), prefix+"-"+shardName(i)+".report"
		next := leakprof.ShardReportFromFile(name, path)
		if inbox != nil {
			next = inbox.Fetch(name)
		}
		fetches[i] = leakprof.ShardFetch{Name: name, Fetch: func(ctx context.Context, env *leakprof.SweepEnv) (*leakprof.ShardReport, error) {
			if i == sc.CrashShard-1 {
				return nil, fmt.Errorf("chaos: %s crashed before reporting", name)
			}
			if err := r.shardWorker(ctx, i, parts[i], env.PrevFailures(), path, url); err != nil {
				if ctx.Err() == nil { // past the deadline, the loss is the straggler's
					errs[i] = err
				}
				return nil, err
			}
			return next.Fetch(ctx, env)
		}}
	}
	src := leakprof.MergedReports(fetches...)
	if sc.StragglerDeadline > 0 {
		src = leakprof.MergedReportsWithin(sc.StragglerDeadline, fetches...)
	}
	sweep, err := coord.Sweep(ctx, src)
	return sweep, errors.Join(append(errs, err)...)
}

// shardWorker is one shard's round as `leakprof -shard` runs it: sweep
// the partition and hand the report off, to path or the inbox at url.
func (r *runner) shardWorker(ctx context.Context, i int, part []leakprof.Endpoint, prev map[string]int, path, url string) error {
	sc := r.sc
	if i == sc.StragglerShard-1 {
		late, cancel := context.WithTimeout(ctx, sc.StragglerDelay)
		<-late.Done()
		cancel()
	}
	worker := leakprof.New(r.opts...)
	defer worker.Close()
	// A partial report ships anyway; it carries its error.
	rep, _ := worker.ShardSweep(ctx, leakprof.StaticEndpoints(part...), shardName(i), prev)
	if err := ctx.Err(); err != nil {
		return err // the merge closed without it
	}
	if url == "" {
		return leakprof.WriteShardReportFile(path, rep)
	}
	// A poster without the token replays a real report; the inbox must
	// refuse it before it can double-count the shard.
	if sc.RogueUnauth && i == 0 && leakprof.PostShardReport(ctx, nil, url, rep) == nil {
		return errors.New("unauthenticated shard report was accepted")
	}
	if err := leakprof.PostShardReportAuth(ctx, nil, url, sc.Token, rep); err != nil {
		return err
	}
	if sc.Duplicates {
		// The replay, same shard and sequence, must be refused (409) or
		// the merge double-counts.
		if leakprof.PostShardReportAuth(ctx, nil, url, sc.Token, rep) == nil {
			return fmt.Errorf("duplicate report for %s was accepted", rep.Shard)
		}
		r.dupRejects.Add(1)
	}
	return nil
}

// ingest POSTs every instance's body once per round (PostSkew defers a
// post into the next round: poster clock skew) and closes one window
// per round.
func (r *runner) ingest(ctx context.Context) error {
	sc := r.sc
	// Unbuffered: a completed send proves the window loop is running, so
	// the window has read its start time before the clock moves.
	ticks := make(chan time.Time)
	// Room for every round's sweep and the shutdown's (at most two).
	sweepCh := make(chan *leakprof.Sweep, r.rounds()+2)
	pipe := leakprof.New(append(r.opts, leakprof.WithOnSweep(func(s *leakprof.Sweep) { sweepCh <- s }))...)
	if err := r.durable(pipe); err != nil {
		return errors.Join(err, pipe.Close())
	}
	iopts := []leakprof.IngestOption{leakprof.IngestTicks(ticks)}
	if sc.Token != "" {
		iopts = append(iopts, leakprof.IngestAuthToken(sc.Token))
	}
	srv := leakprof.NewIngestServer(pipe, iopts...)
	ictx, cancel := context.WithCancel(ctx)
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ictx) }()
	tick := func() error {
		select {
		case ticks <- time.Time{}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	var err error
	var carry []ingestPost // skewed posts arriving a round late
	for round := 0; round < r.rounds() && err == nil; round++ {
		if round > 0 {
			r.f.AdvanceDay()
		}
		posts := carry
		carry = nil
		for _, in := range r.f.Instances() {
			p := ingestPost{service: in.Service, instance: in.Name}
			p.body, p.gz = r.body(round, in)
			if sc.PostSkew > 0 && Hash01(sc.Seed, "skew", in.Name, uint64(round)) < sc.PostSkew {
				carry = append(carry, p)
			} else {
				posts = append(posts, p)
			}
		}
		if sc.RogueUnauth {
			// The rogue poster fabricates a leak for a benign service;
			// without the token the claim must die at the door.
			rogue := ingestPost{service: benignService, instance: "rogue-0", body: renderRogue(sc)}
			if code := postIngest(srv, rogue, ""); code != http.StatusUnauthorized {
				err = fmt.Errorf("rogue unauthenticated post got %d, want 401", code)
			}
		}
		for _, p := range posts {
			postIngest(srv, p, sc.Token)
		}
		// Everything admitted must fold before the window closes, so
		// each window's findings are deterministic.
		err = errors.Join(err, waitStats(srv, func(st leakprof.IngestStats) bool {
			return st.Folded == st.Admitted
		}))
		// The first tick finds the window open on the unmoved clock; the
		// second, past its deadline, closes it.
		if terr := tick(); terr != nil {
			err = errors.Join(err, terr)
			break
		}
		r.clock.Advance(roundStep)
		closeStart := time.Now()
		if terr := tick(); terr != nil {
			err = errors.Join(err, terr)
			break
		}
		select {
		case sweep := <-sweepCh:
			r.out.Sweeps = append(r.out.Sweeps, sweep)
			r.out.Latency = max(r.out.Latency, time.Since(closeStart))
		case <-time.After(10 * time.Second):
			err = errors.Join(err, fmt.Errorf("window %d never closed", round))
		case <-ctx.Done():
			err = errors.Join(err, ctx.Err())
		}
	}
	cancel()
	// A failed window's sweep error, as batch mode returns Sweep's; the
	// cancel that stops Run is not one.
	if rerr := <-runDone; rerr != ictx.Err() {
		err = errors.Join(err, rerr)
	}
	st := srv.Stats()
	r.out.evidence.scanErrors = st.ScanErrors
	r.out.evidence.authRejects = st.AuthRejected
	return errors.Join(err, pipe.Close())
}
