package chaos

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/gprofile"
	"repro/internal/patterns"
	"repro/internal/stack"
	"repro/internal/textplot"
	"repro/leakprof"
)

// The scenario matrix: a named catalogue of fleet config × fault set ×
// pipeline mode combinations, each asserting detection precision and
// recall against the leaks it planted plus a latency SLO. The matrix is
// the CI-enforced answer to "does the pipeline still detect leaks when
// production misbehaves" — every fault decision is seeded, so a red
// cell reproduces exactly.
//
// Scoring is per service. A scenario plants leaks in half its services
// (growing past the detection threshold), leaves the rest benign, and
// optionally adds sub-threshold leakers as hard negatives. A service is
// detected when any sweep the scenario ran reports a finding for it.
// Precision = TP/(TP+FP) (1.0 when nothing was detected), recall =
// TP/planted — with planted reduced to the surviving partition when the
// scenario deliberately crashes or writes off a shard.

// Mode selects which pipeline path a scenario drives.
type Mode string

const (
	// ModeBatch is a pull sweep over per-instance HTTP endpoints.
	ModeBatch Mode = "batch"
	// ModeSharded is a distributed sweep: shard workers plus coordinator.
	ModeSharded Mode = "sharded"
	// ModeIngest is push ingestion: posters POST dumps into windows.
	ModeIngest Mode = "ingest"
)

// Expect names the fault evidence a scenario must observe to pass: a
// fault mix that silently never fired would otherwise let a scenario
// go green while testing nothing.
type Expect struct {
	// FetchErrors requires the sweep error accounting to show at least
	// one non-salvage failure.
	FetchErrors bool
	// Salvage requires at least one ErrSalvaged failure (scanner
	// resynced past malformed members).
	Salvage bool
	// ScanErrors requires at least one ingest body to fail scanning.
	ScanErrors bool
	// AuthRejects requires at least one 401 (push-plane token auth).
	AuthRejects bool
	// DupRejects requires at least one duplicate shard report 409.
	DupRejects bool
	// Deploys requires the mid-sweep rolling deploy to have fired.
	Deploys bool
	// Faults requires the injector to have fired at least one fault.
	Faults bool
}

// Scenario is one named cell of the matrix.
type Scenario struct {
	Name string
	Mode Mode
	// Note is the one-line intent shown in -matrix -v listings.
	Note string

	// Fleet shape: Services services of InstancesPer instances, leaks
	// grown for Days days before the scenario sweeps. Even-indexed
	// services carry planted leaks at LeakPerDay; with Subleak,
	// services at index 4k+1 leak at a sub-threshold trickle (hard
	// negatives for precision).
	Services, InstancesPer, Days int
	LeakPerDay                   int
	Subleak                      bool

	// Pipeline knobs.
	Threshold   int
	Timeout     time.Duration
	Retries     int
	ErrorBudget int
	Parallelism int

	// Pull-path fault mix (batch mode).
	Faults Faults
	// RollingDeployFrac, with Faults.DeployAfter, rolls this fraction
	// of every service's instances when the deploy fires.
	RollingDeployFrac float64

	// Sharded-mode shape. CrashShard and StragglerShard are 1-based so
	// the zero value means "none" (shard 0 stays crashable via 1).
	Shards            int
	CrashShard        int
	StragglerShard    int
	StragglerDelay    time.Duration
	StragglerDeadline time.Duration
	// Inbox routes shard reports over an HTTP ShardInbox instead of
	// in-process fetches; Duplicates re-POSTs every report (replay);
	// Token arms shared-secret auth; RogueUnauth adds an
	// unauthenticated poster injecting a fabricated leak.
	Inbox       bool
	Duplicates  bool
	Token       string
	RogueUnauth bool

	// Ingest-mode shape: Windows windows, each one simulated day of
	// leak growth, every instance POSTing once per window. The Post*
	// probabilities corrupt POSTed bodies per (window, instance);
	// PostSkew delays the post into the next window (poster clock
	// skew). Gzip compresses honest bodies.
	Windows     int
	PostTorn    float64
	PostMalform float64
	PostBadGzip float64
	PostSkew    float64
	Gzip        bool

	// Floors and SLO. LatencySLO bounds the sweep wall-clock (batch,
	// sharded) or the slowest window close (ingest).
	PrecisionFloor, RecallFloor float64
	LatencySLO                  time.Duration

	Seed   int64
	Expect Expect
}

// Result is one scenario's scored outcome.
type Result struct {
	Scenario *Scenario

	Planted, Detected, TP, FP int
	Precision, Recall         float64
	Latency                   time.Duration

	// Evidence is the observed fault accounting, for the table.
	Evidence string

	Pass    bool
	Reasons []string
	Err     error
}

// observed collects the fault evidence a run produced.
type observed struct {
	fetchErrors int
	salvage     int
	scanErrors  uint64
	authRejects uint64
	dupRejects  int
	deploys     uint64
	faults      uint64
}

func (o observed) String() string {
	var parts []string
	add := func(label string, n uint64) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, n))
		}
	}
	add("errors", uint64(o.fetchErrors))
	add("salvaged", uint64(o.salvage))
	add("scanerr", o.scanErrors)
	add("auth401", o.authRejects)
	add("dup409", uint64(o.dupRejects))
	add("deploys", o.deploys)
	add("faults", o.faults)
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, " ")
}

// Run executes one scenario and scores it.
func Run(ctx context.Context, sc *Scenario) *Result {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	switch sc.Mode {
	case ModeSharded:
		if sc.Inbox {
			return runInbox(ctx, sc)
		}
		return runSharded(ctx, sc)
	case ModeIngest:
		return runIngest(ctx, sc)
	default:
		return runBatch(ctx, sc)
	}
}

// RunAll executes every scenario in order.
func RunAll(ctx context.Context, scs []*Scenario) []*Result {
	out := make([]*Result, 0, len(scs))
	for _, sc := range scs {
		out = append(out, Run(ctx, sc))
	}
	return out
}

// RenderTable renders results as the pass/fail matrix table.
func RenderTable(results []*Result) string {
	header := []string{"scenario", "mode", "precision", "recall", "latency", "evidence", "result"}
	var rows [][]string
	for _, r := range results {
		status := "PASS"
		if !r.Pass {
			status = "FAIL: " + strings.Join(r.Reasons, "; ")
		}
		rows = append(rows, []string{
			r.Scenario.Name,
			string(r.Scenario.Mode),
			fmt.Sprintf("%.2f (floor %.2f)", r.Precision, r.Scenario.PrecisionFloor),
			fmt.Sprintf("%.2f (floor %.2f)", r.Recall, r.Scenario.RecallFloor),
			fmt.Sprintf("%v (slo %v)", r.Latency.Round(time.Millisecond), r.Scenario.LatencySLO),
			r.Evidence,
			status,
		})
	}
	return textplot.Table(header, rows)
}

// matrixOrigin anchors every scenario's simulated clock; fixed so runs
// are reproducible.
var matrixOrigin = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// buildFleet plants the scenario's fleet: even services leak past the
// threshold (the planted positives), 4k+1 services optionally leak a
// sub-threshold trickle (hard negatives), the rest are benign. Leak
// patterns rotate through the live simulatable catalogue so the matrix
// covers every pattern shape, not the seed handful.
func buildFleet(sc *Scenario) (*fleet.Fleet, map[string]bool) {
	sims := patterns.Simulatable()
	planted := make(map[string]bool)
	var configs []fleet.ServiceConfig
	for s := 0; s < sc.Services; s++ {
		name := fmt.Sprintf("chaos-%02d", s)
		cfg := fleet.ServiceConfig{
			Name:             name,
			Instances:        sc.InstancesPer,
			BenignGoroutines: 20,
			Seed:             sc.Seed + int64(s),
			DeployEveryDays:  1 << 20, // deploys happen only when chaos says so
		}
		switch {
		case s%2 == 0:
			cfg.Pattern = sims[(s/2)%len(sims)]
			cfg.LeakFile = fmt.Sprintf("services/%s/worker.go", name)
			cfg.LeakLine = 42
			cfg.LeakPerDay = sc.LeakPerDay
			cfg.LeakStartDay = 1
			cfg.FixDay = -1
			planted[name] = true
		case sc.Subleak && s%4 == 1:
			cfg.Pattern = sims[(s/4+1)%len(sims)]
			cfg.LeakFile = fmt.Sprintf("services/%s/poll.go", name)
			cfg.LeakLine = 7
			cfg.LeakPerDay = max(1, sc.Threshold/(4*max(1, sc.Days)))
			cfg.LeakStartDay = 1
			cfg.FixDay = -1
		}
		configs = append(configs, cfg)
	}
	f := fleet.New(matrixOrigin, configs)
	for d := 0; d < sc.Days; d++ {
		f.AdvanceDay()
	}
	return f, planted
}

// pipelineOptions assembles the scenario's pipeline knobs.
func pipelineOptions(sc *Scenario) []leakprof.Option {
	par := sc.Parallelism
	if par <= 0 {
		par = 8
	}
	opts := []leakprof.Option{
		leakprof.WithThreshold(sc.Threshold),
		leakprof.WithParallelism(par),
		leakprof.WithSharedIntern(0),
	}
	if sc.Timeout > 0 {
		opts = append(opts, leakprof.WithTimeout(sc.Timeout))
	}
	if sc.Retries > 1 {
		opts = append(opts, leakprof.WithRetry(leakprof.RetryPolicy{
			MaxAttempts: sc.Retries,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
		}))
	}
	if sc.ErrorBudget > 0 {
		opts = append(opts, leakprof.WithErrorBudget(sc.ErrorBudget))
	}
	return opts
}

// tallySweep folds one sweep's findings and failures into the score.
func tallySweep(sweep *leakprof.Sweep, detected map[string]bool, obs *observed) {
	if sweep == nil {
		return
	}
	for _, f := range sweep.Findings {
		detected[f.Service] = true
	}
	for _, f := range sweep.Failures {
		if errors.Is(f.Err, gprofile.ErrSalvaged) {
			obs.salvage++
		} else {
			obs.fetchErrors++
		}
	}
}

// finish scores the run against the scenario's floors, SLO, and
// expected evidence.
func finish(sc *Scenario, planted, detected map[string]bool, latency time.Duration, obs observed, err error) *Result {
	res := &Result{
		Scenario: sc,
		Planted:  len(planted),
		Detected: len(detected),
		Latency:  latency,
		Evidence: obs.String(),
		Err:      err,
	}
	for svc := range detected {
		if planted[svc] {
			res.TP++
		} else {
			res.FP++
		}
	}
	res.Precision = 1.0
	if res.TP+res.FP > 0 {
		res.Precision = float64(res.TP) / float64(res.TP+res.FP)
	}
	res.Recall = 1.0
	if len(planted) > 0 {
		res.Recall = float64(res.TP) / float64(len(planted))
	}

	fail := func(format string, args ...any) {
		res.Reasons = append(res.Reasons, fmt.Sprintf(format, args...))
	}
	if err != nil {
		fail("run error: %v", err)
	}
	if res.Precision < sc.PrecisionFloor {
		fail("precision %.2f < floor %.2f", res.Precision, sc.PrecisionFloor)
	}
	if res.Recall < sc.RecallFloor {
		fail("recall %.2f < floor %.2f", res.Recall, sc.RecallFloor)
	}
	if sc.LatencySLO > 0 && latency > sc.LatencySLO {
		fail("latency %v > SLO %v", latency.Round(time.Millisecond), sc.LatencySLO)
	}
	ex := sc.Expect
	if ex.FetchErrors && obs.fetchErrors == 0 {
		fail("expected fetch errors, saw none")
	}
	if ex.Salvage && obs.salvage == 0 {
		fail("expected salvage accounting, saw none")
	}
	if ex.ScanErrors && obs.scanErrors == 0 {
		fail("expected scan errors, saw none")
	}
	if ex.AuthRejects && obs.authRejects == 0 {
		fail("expected auth 401s, saw none")
	}
	if ex.DupRejects && obs.dupRejects == 0 {
		fail("expected duplicate 409s, saw none")
	}
	if ex.Deploys && obs.deploys == 0 {
		fail("expected a mid-sweep deploy, saw none")
	}
	if ex.Faults && obs.faults == 0 {
		fail("expected injected faults, saw none")
	}
	res.Pass = len(res.Reasons) == 0
	return res
}

// runBatch drives a pull sweep over fault-wrapped HTTP endpoints.
func runBatch(ctx context.Context, sc *Scenario) *Result {
	f, planted := buildFleet(sc)
	inj := &Injector{Seed: sc.Seed, Faults: sc.Faults}
	if sc.RollingDeployFrac > 0 {
		frac := sc.RollingDeployFrac
		inj.OnDeploy = func() { f.DeployRolling(frac) }
	}
	endpoints, shutdown := f.ServeWith(func(in *fleet.Instance, h http.Handler) http.Handler {
		return inj.Wrap(in.Name, h)
	})
	defer shutdown()

	pipe := leakprof.New(pipelineOptions(sc)...)
	start := time.Now()
	sweep, err := pipe.Sweep(ctx, leakprof.StaticEndpoints(endpoints...))
	latency := time.Since(start)
	if cerr := pipe.Close(); err == nil {
		err = cerr
	}

	detected := make(map[string]bool)
	var obs observed
	tallySweep(sweep, detected, &obs)
	st := inj.Stats()
	obs.deploys = st.Deploys
	obs.faults = st.Fired()
	return finish(sc, planted, detected, latency, obs, err)
}

// runSharded drives a distributed topology sweep, optionally crashing
// one shard or delaying one past the straggler deadline. Services owned
// by a deliberately lost shard leave the planted set: their leaks are
// the price of the injected fault, and the scenario instead asserts the
// loss is visible in the error accounting.
func runSharded(ctx context.Context, sc *Scenario) *Result {
	f, planted := buildFleet(sc)
	topo := fleet.NewTopology(f, sc.Shards, pipelineOptions(sc)...)
	lost := -1
	if sc.CrashShard > 0 {
		topo.FailShard = sc.CrashShard - 1
		lost = topo.FailShard
	}
	if sc.StragglerShard > 0 {
		topo.DelayShard = sc.StragglerShard - 1
		topo.ShardDelay = sc.StragglerDelay
		if sc.StragglerDeadline > 0 && sc.StragglerDeadline < sc.StragglerDelay {
			lost = topo.DelayShard
		}
	}
	topo.StragglerDeadline = sc.StragglerDeadline

	start := time.Now()
	sweep, err := topo.Sweep(ctx)
	latency := time.Since(start)
	if cerr := topo.Coordinator.Close(); err == nil {
		err = cerr
	}

	if lost >= 0 {
		for svc := range planted {
			if leakprof.ShardOfService(svc, sc.Shards) == lost {
				delete(planted, svc)
			}
		}
	}
	detected := make(map[string]bool)
	var obs observed
	tallySweep(sweep, detected, &obs)
	return finish(sc, planted, detected, latency, obs, err)
}

// runInbox drives a sharded sweep over the HTTP ShardInbox transport:
// workers POST their reports (optionally twice — the replay), a rogue
// poster optionally injects an unauthenticated report, and the
// coordinator merges whatever the inbox accepted.
func runInbox(ctx context.Context, sc *Scenario) *Result {
	f, planted := buildFleet(sc)
	opts := pipelineOptions(sc)

	var reports []*leakprof.ShardReport
	var err error
	for i := 0; i < sc.Shards && err == nil; i++ {
		worker := leakprof.New(opts...)
		var rep *leakprof.ShardReport
		rep, err = worker.ShardSweep(ctx, f.ShardSource(i, sc.Shards), fmt.Sprintf("shard-%d", i), nil)
		if err == nil {
			reports = append(reports, rep)
		}
		worker.Close()
	}
	if err != nil {
		return finish(sc, planted, nil, 0, observed{}, err)
	}

	inbox := leakprof.NewShardInbox(sc.Shards)
	inbox.Token = sc.Token
	hs := httptest.NewServer(inbox)
	defer hs.Close()

	var obs observed
	start := time.Now()
	if sc.RogueUnauth {
		// A poster without the token replays a real report; the inbox
		// must refuse it before it can double-count the shard.
		if perr := leakprof.PostShardReport(ctx, nil, hs.URL, reports[0]); perr == nil {
			err = errors.New("unauthenticated shard report was accepted")
		}
		obs.authRejects = inbox.AuthRejected()
	}
	for _, rep := range reports {
		if perr := leakprof.PostShardReportAuth(ctx, nil, hs.URL, sc.Token, rep); perr != nil && err == nil {
			err = perr
		}
		if sc.Duplicates {
			// The replayed delivery: same shard, same sequence. The
			// inbox must 409 it or the merge double-counts.
			if perr := leakprof.PostShardReportAuth(ctx, nil, hs.URL, sc.Token, rep); perr != nil {
				obs.dupRejects++
			} else if err == nil {
				err = fmt.Errorf("duplicate report for %s was accepted", rep.Shard)
			}
		}
	}
	var fetches []leakprof.ShardFetch
	for i := 0; i < sc.Shards; i++ {
		fetches = append(fetches, inbox.Fetch(fmt.Sprintf("shard-%d", i)))
	}
	coord := leakprof.New(opts...)
	sweep, serr := coord.Sweep(ctx, leakprof.MergedReports(fetches...))
	latency := time.Since(start)
	if err == nil {
		err = serr
	}
	if cerr := coord.Close(); err == nil {
		err = cerr
	}

	detected := make(map[string]bool)
	tallySweep(sweep, detected, &obs)
	return finish(sc, planted, detected, latency, obs, err)
}

// fakeClock is the ingest scenarios' pipeline clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// ingestPost is one POST the ingest scenarios send: possibly corrupted,
// possibly deferred into the next window by poster clock skew.
type ingestPost struct {
	service, instance string
	body              []byte
	gz                bool
}

// runIngest drives push ingestion through fake-clock tumbling windows:
// every instance POSTs once per window (one simulated day of growth per
// window), with the scenario's fault mix corrupting or delaying
// individual posts. Detection is scored over the union of window
// sweeps; the latency metric is the slowest window close (tick to
// emitted sweep).
func runIngest(ctx context.Context, sc *Scenario) *Result {
	f, planted := buildFleet(sc)
	window := time.Minute
	clock := &fakeClock{t: matrixOrigin.Add(time.Duration(sc.Days) * 24 * time.Hour)}
	ticks := make(chan time.Time, 1)
	sweepCh := make(chan *leakprof.Sweep, sc.Windows+2)

	opts := append(pipelineOptions(sc),
		leakprof.WithWindow(window),
		leakprof.WithClock(clock.Now),
		leakprof.WithOnSweep(func(s *leakprof.Sweep) { sweepCh <- s }),
	)
	pipe := leakprof.New(opts...)
	iopts := []leakprof.IngestOption{leakprof.IngestTicks(ticks)}
	if sc.Token != "" {
		iopts = append(iopts, leakprof.IngestAuthToken(sc.Token))
	}
	srv := leakprof.NewIngestServer(pipe, iopts...)
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		srv.Run(ictx)
	}()

	detected := make(map[string]bool)
	var obs observed
	var err error
	var maxClose time.Duration
	var carry []ingestPost // skewed posts arriving a window late

	rogueBody := renderRogue(sc)
	for w := 0; w < sc.Windows && err == nil; w++ {
		posts := carry
		carry = nil
		for _, in := range f.Instances() {
			key := in.Name
			n := uint64(w)
			body := in.Dump()
			p := ingestPost{service: in.Service, instance: in.Name}
			switch {
			case sc.PostBadGzip > 0 && Hash01(sc.Seed, "badgzip", key, n) < sc.PostBadGzip:
				p.body, p.gz = CorruptGzip(gzipBody(body)), true
			default:
				if sc.PostTorn > 0 && Hash01(sc.Seed, "torn", key, n) < sc.PostTorn {
					body = Torn(body, 0.5)
				}
				if sc.PostMalform > 0 && Hash01(sc.Seed, "malform", key, n) < sc.PostMalform {
					body, _ = MalformHeaders(body, 2)
				}
				p.body = body
				if sc.Gzip {
					p.body, p.gz = gzipBody(body), true
				}
			}
			if sc.PostSkew > 0 && Hash01(sc.Seed, "skew", key, n) < sc.PostSkew {
				carry = append(carry, p) // the poster's clock runs behind
				continue
			}
			posts = append(posts, p)
		}
		if sc.RogueUnauth {
			// The rogue poster fabricates a leak for a benign service;
			// without the token the claim must die at the door.
			code := postIngest(srv, ingestPost{service: benignService(sc), instance: "rogue-0", body: rogueBody}, "")
			if code != http.StatusUnauthorized {
				err = fmt.Errorf("rogue unauthenticated post got %d, want 401", code)
			}
		}
		for _, p := range posts {
			postIngest(srv, p, sc.Token)
		}
		// Everything admitted must fold before the window closes, so
		// each window's findings are deterministic.
		if werr := waitStats(srv, func(st leakprof.IngestStats) bool {
			return st.Folded == st.Admitted
		}); werr != nil && err == nil {
			err = werr
		}
		clock.Advance(window + time.Millisecond)
		closeStart := time.Now()
		select {
		case ticks <- time.Time{}:
		case <-ctx.Done():
			err = ctx.Err()
		}
		select {
		case sweep := <-sweepCh:
			if d := time.Since(closeStart); d > maxClose {
				maxClose = d
			}
			tallySweep(sweep, detected, &obs)
		case <-time.After(10 * time.Second):
			if err == nil {
				err = fmt.Errorf("window %d never closed", w)
			}
		case <-ctx.Done():
			err = ctx.Err()
		}
		f.AdvanceDay() // next window sees another day of growth
	}
	cancel()
	<-runDone
	pipe.Close()

	st := srv.Stats()
	obs.scanErrors = st.ScanErrors
	obs.authRejects = st.AuthRejected
	return finish(sc, planted, detected, maxClose, obs, err)
}

// benignService names the scenario's first benign (odd-index) service.
func benignService(sc *Scenario) string { return "chaos-01" }

// renderRogue fabricates a dump body claiming a huge leak — what an
// attacker would POST to frame a healthy service.
func renderRogue(sc *Scenario) []byte {
	snap := &gprofile.Snapshot{
		Service:  benignService(sc),
		Instance: "rogue-0",
		PreAggregated: map[stack.BlockedOp]int{
			{Op: "send", Location: "services/rogue/evil.go:666", Function: "rogue.frame"}: sc.Threshold * 10,
		},
	}
	return renderSnapshot(snap)
}

// renderSnapshot renders a snapshot as the debug=2 body its instance
// would POST.
func renderSnapshot(snap *gprofile.Snapshot) []byte {
	var buf bytes.Buffer
	if err := gprofile.WriteSnapshot(&buf, snap); err != nil {
		panic(err) // in-memory render of a synthesised snapshot cannot fail
	}
	return buf.Bytes()
}

func gzipBody(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

// postIngest POSTs one body straight at the server handler.
func postIngest(srv http.Handler, p ingestPost, token string) int {
	req := httptest.NewRequest(http.MethodPost, "/?service="+p.service+"&instance="+p.instance, bytes.NewReader(p.body))
	if p.gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	if token != "" {
		req.Header.Set("X-Leakprof-Token", token)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code
}

// waitStats polls the server's counters until cond holds.
func waitStats(srv *leakprof.IngestServer, cond func(leakprof.IngestStats) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond(srv.Stats()) {
		if time.Now().After(deadline) {
			return errors.New("timed out waiting for ingest folds")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Catalogue is the named scenario matrix: ≥8 scenarios spanning every
// pipeline mode, from a clean baseline to a hostile composition of four
// simultaneous fault types. Floors are asserted per scenario; the
// hostile cells keep non-trivial floors to prove detection degrades
// gracefully rather than collapsing.
func Catalogue() []*Scenario {
	base := func(sc *Scenario) *Scenario {
		if sc.Services == 0 {
			sc.Services = 8
		}
		if sc.InstancesPer == 0 {
			sc.InstancesPer = 3
		}
		if sc.Days == 0 {
			sc.Days = 3
		}
		if sc.LeakPerDay == 0 {
			sc.LeakPerDay = 200
		}
		if sc.Threshold == 0 {
			sc.Threshold = 300
		}
		if sc.Timeout == 0 {
			sc.Timeout = 2 * time.Second
		}
		if sc.LatencySLO == 0 {
			sc.LatencySLO = 15 * time.Second
		}
		if sc.Seed == 0 {
			sc.Seed = 1
		}
		sc.Subleak = true
		return sc
	}
	return []*Scenario{
		base(&Scenario{
			Name: "baseline-batch", Mode: ModeBatch,
			Note:           "clean pull sweep: every planted leak found, nothing else",
			PrecisionFloor: 1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "slow-fleet", Mode: ModeBatch,
			Note:           "30% of fetches delayed 60ms; latency absorbed, detection intact",
			Faults:         Faults{SlowProb: 0.3, SlowFor: 60 * time.Millisecond},
			Expect:         Expect{Faults: true},
			PrecisionFloor: 1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "hung-endpoints", Mode: ModeBatch,
			Note:    "40% of fetches wedge until the 250ms timeout; retries + budgets recover most",
			Timeout: 250 * time.Millisecond, Retries: 2, ErrorBudget: 3,
			Faults:         Faults{HangProb: 0.4},
			Expect:         Expect{Faults: true, FetchErrors: true},
			PrecisionFloor: 1.0, RecallFloor: 0.75,
		}),
		base(&Scenario{
			Name: "flapping-instances", Mode: ModeBatch,
			Note:           "40% of fetches hit a restarting instance (503); retries ride it out",
			Retries:        3,
			Faults:         Faults{FlapProb: 0.4},
			Expect:         Expect{Faults: true},
			PrecisionFloor: 1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "torn-dumps", Mode: ModeBatch,
			Note:           "40% of bodies cut mid-frame, 40% with corrupted headers; salvage accounts the damage",
			Faults:         Faults{TornProb: 0.4, TornFrac: 0.45, MalformProb: 0.4, MalformEvery: 2},
			Expect:         Expect{Faults: true, Salvage: true},
			PrecisionFloor: 1.0, RecallFloor: 0.75,
		}),
		base(&Scenario{
			Name: "rolling-deploy", Mode: ModeBatch,
			Note:              "half the fleet deploys mid-sweep; the un-rolled instances still convict",
			Faults:            Faults{DeployAfter: 12},
			RollingDeployFrac: 0.5,
			Expect:            Expect{Deploys: true},
			PrecisionFloor:    1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "shard-crash", Mode: ModeSharded,
			Note:   "one of three shards crashes before reporting; the merge survives with its loss on the books",
			Shards: 3, CrashShard: 2,
			Expect:         Expect{FetchErrors: true},
			PrecisionFloor: 1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "straggler-shard", Mode: ModeSharded,
			Note:   "one shard 1s late against a 150ms straggler deadline; the sweep must not wait for it",
			Shards: 3, StragglerShard: 1,
			StragglerDelay:    time.Second,
			StragglerDeadline: 150 * time.Millisecond,
			LatencySLO:        800 * time.Millisecond,
			Expect:            Expect{FetchErrors: true},
			PrecisionFloor:    1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "replayed-reports", Mode: ModeSharded,
			Note:   "reports ship over an authed HTTP inbox; every report replayed (409) and a rogue post rejected (401)",
			Shards: 3, Inbox: true, Duplicates: true,
			Token: "chaos-secret", RogueUnauth: true,
			Expect:         Expect{DupRejects: true, AuthRejects: true},
			PrecisionFloor: 1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "ingest-steady", Mode: ModeIngest,
			Note:    "three clean gzip push windows; every planted leak found in-window",
			Days:    2,
			Windows: 3, Gzip: true,
			LatencySLO:     5 * time.Second,
			PrecisionFloor: 1.0, RecallFloor: 1.0,
		}),
		base(&Scenario{
			Name: "ingest-hostile", Mode: ModeIngest,
			Note:     "four simultaneous push faults: torn bodies, corrupt headers, bad gzip, poster clock skew",
			Days:     2,
			Windows:  3,
			PostTorn: 0.3, PostMalform: 0.3, PostBadGzip: 0.2, PostSkew: 0.25,
			LatencySLO:     5 * time.Second,
			Expect:         Expect{Salvage: true, ScanErrors: true},
			PrecisionFloor: 1.0, RecallFloor: 0.9,
		}),
		base(&Scenario{
			Name: "ingest-auth", Mode: ModeIngest,
			Note:    "token-armed ingest; a rogue poster framing a benign service dies with 401",
			Days:    2,
			Windows: 2, Gzip: true,
			Token: "chaos-secret", RogueUnauth: true,
			LatencySLO:     5 * time.Second,
			Expect:         Expect{AuthRejects: true},
			PrecisionFloor: 1.0, RecallFloor: 1.0,
		}),
	}
}

// Lookup returns the named scenarios (all, when names is empty) in
// catalogue order.
func Lookup(names []string) ([]*Scenario, error) {
	all := Catalogue()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[strings.TrimSpace(n)] = true
	}
	var out []*Scenario
	for _, sc := range all {
		if want[sc.Name] {
			out = append(out, sc)
			delete(want, sc.Name)
		}
	}
	if len(want) > 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("chaos: unknown scenarios: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
