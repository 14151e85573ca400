// Command fleetsim stands up a simulated microservice fleet with injected
// goroutine leaks and serves a real goroutine-profile endpoint per
// instance, for driving cmd/leakprof end to end:
//
//	fleetsim -services 3 -instances 4 -days 3
//
// prints one service=url pair per instance (paste into leakprof
// -endpoints) and blocks until interrupted. With -sweep it instead runs
// one in-process collection sweep over its own endpoints — HTTP fetch,
// streaming scan, sharded aggregation, all through the unified leakprof
// Pipeline — prints the findings, and exits. With -sweep -direct the
// same pipeline pulls from the fleet simulator source directly (no
// HTTP), demonstrating that both origins drive the identical engine.
//
// With -post http://host:6061 fleetsim becomes a load generator for a
// push-ingestion endpoint (cmd/leakprof -ingest): it renders the
// fleet's current-day debug=2 dump bodies once, then -posters
// concurrent posters each POST -posts of them (round-robin, optionally
// -gzip compressed) and the run prints accepted/rejected counts,
// posts/sec, and admission-latency percentiles. A 429 is not dropped
// on the floor: posters honour the endpoint's Retry-After with capped,
// jittered backoff for up to -post-retries attempts before shedding
// the dump, and the run reports retried-vs-shed counts. -post-token
// sends the X-Leakprof-Token the endpoint's -ingest-token expects.
//
// With -matrix fleetsim runs the chaos scenario matrix instead: every
// named fleet-config × fault-set × pipeline-mode scenario from
// internal/chaos (or just those named by -scenario), rendering the
// pass/fail table with per-scenario precision, recall, latency, and
// fault evidence, and exiting non-zero if any scenario misses its
// floors. This is the CI robustness gate.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/patterns"
	"repro/leakprof"
)

func main() {
	services := flag.Int("services", 3, "number of services")
	instances := flag.Int("instances", 4, "instances per service")
	days := flag.Int("days", 3, "leak growth days to simulate before serving")
	leakRate := flag.Int("rate", 6000, "blocked goroutines per affected instance per day")
	sweep := flag.Bool("sweep", false, "run one in-process leakprof sweep over the fleet, print findings, and exit")
	direct := flag.Bool("direct", false, "with -sweep: pull from the simulator directly instead of over HTTP")
	stateDir := flag.String("state-dir", "", "with -sweep: journal bug DB, trend history, and budget seeds under this directory so repeated sweeps dedup and resume")
	post := flag.String("post", "", "load-generator mode: POST the fleet's dump bodies to this ingest endpoint URL (cmd/leakprof -ingest) instead of serving or sweeping")
	posters := flag.Int("posters", 256, "with -post: concurrent posting goroutines")
	posts := flag.Int("posts", 10, "with -post: POSTs per poster")
	gz := flag.Bool("gzip", false, "with -post: gzip-compress each dump body (Content-Encoding: gzip)")
	postRetries := flag.Int("post-retries", 3, "with -post: attempts per dump when the endpoint answers 429 (Retry-After honoured with capped jittered backoff)")
	postToken := flag.String("post-token", "", "with -post: X-Leakprof-Token to send (the endpoint's -ingest-token)")
	matrix := flag.Bool("matrix", false, "run the chaos scenario matrix, print the pass/fail table, and exit non-zero on any miss")
	scenario := flag.String("scenario", "", "with -matrix: comma-separated scenario names to run (default: all)")
	flag.Parse()

	if *matrix {
		runMatrix(*scenario)
		return
	}

	// Rotate planted defects through the full simulatable pattern
	// catalogue, so a bigger -services covers more leak shapes.
	pats := patterns.Simulatable()
	var configs []fleet.ServiceConfig
	for s := 0; s < *services; s++ {
		cfg := fleet.ServiceConfig{
			Name:             fmt.Sprintf("svc%02d", s),
			Instances:        *instances,
			BenignGoroutines: 30,
			Seed:             int64(s + 1),
		}
		if s%2 == 0 { // every other service carries a defect
			p := pats[s/2%len(pats)]
			cfg.Pattern = p
			cfg.LeakFile = fmt.Sprintf("services/svc%02d/handler.go", s)
			cfg.LeakLine = 42
			cfg.LeakPerDay = *leakRate
			cfg.LeakStartDay = 1
			cfg.FixDay = -1
			cfg.DeployEveryDays = 1000
		}
		configs = append(configs, cfg)
	}
	f := fleet.New(time.Now(), configs)
	for d := 0; d < *days; d++ {
		f.AdvanceDay()
	}

	if *post != "" {
		if err := runLoadGen(f, *post, *posters, *posts, *gz, *postRetries, *postToken); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
			os.Exit(1)
		}
		return
	}

	if *sweep && *direct {
		runSweep(f.Source(), *leakRate/2, *stateDir)
		return
	}

	endpoints, shutdown := f.Serve()
	defer shutdown()

	if *sweep {
		runSweep(leakprof.StaticEndpoints(endpoints...), *leakRate/2, *stateDir)
		return
	}

	var pairs []string
	for _, ep := range endpoints {
		pairs = append(pairs, ep.Service+"="+ep.URL)
	}
	fmt.Println("fleet is live; run:")
	fmt.Printf("  leakprof -threshold %d -endpoints %s\n", *leakRate/2, strings.Join(pairs, ","))
	fmt.Println("press Ctrl-C to stop")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
}

// runMatrix executes the chaos scenario catalogue (or the named subset)
// and renders the pass/fail table. Any scenario missing its floors, its
// latency SLO, or its expected fault evidence fails the run.
func runMatrix(names string) {
	var want []string
	if names != "" {
		want = strings.Split(names, ",")
	}
	scs, err := chaos.Lookup(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	results := chaos.RunAll(context.Background(), scs)
	fmt.Print(chaos.RenderTable(results))
	failed := 0
	for _, r := range results {
		if !r.Pass {
			failed++
		}
	}
	fmt.Printf("%d/%d scenarios passed\n", len(results)-failed, len(results))
	if failed > 0 {
		os.Exit(1)
	}
}

// runSweep drives the unified pipeline over the given profile origin:
// snapshots stream through the scanner into the fleet aggregator, and
// a metrics sink tallies the pass. With a state dir, the sweep journals
// through a StateStore: findings file into the durable bug DB (a repeat
// run deduplicates instead of re-alerting) and the sweep outcome seeds
// the next run's error budget. The journal runs on its defaults (one
// fsync per sweep); cmd/leakprof exposes its tuning flags.
func runSweep(src leakprof.Source, threshold int, stateDir string) {
	metrics := &leakprof.MetricsSink{}
	opts := []leakprof.Option{
		leakprof.WithThreshold(threshold),
		leakprof.WithParallelism(8),
		leakprof.WithRetry(leakprof.DefaultRetryPolicy),
	}
	if stateDir != "" {
		opts = append(opts, leakprof.WithStateDir(stateDir))
	}
	pipe := leakprof.New(opts...).AddSinks(metrics)
	var reportSink *leakprof.ReportSink
	store, err := pipe.State()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	if store != nil {
		reportSink = &leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: store.BugDB(), TopN: 10}}
		pipe.AddSinks(reportSink, &leakprof.TrendSink{Tracker: store.Tracker()})
	}
	sweep, err := pipe.Sweep(context.Background(), src)
	// Close closes the journal; its failure must surface even when the
	// sweep also failed.
	if cerr := pipe.Close(); err == nil {
		err = cerr
	} else if cerr != nil {
		fmt.Fprintf(os.Stderr, "warn: %v\n", cerr)
	}
	for _, f := range sweep.Failures {
		fmt.Fprintf(os.Stderr, "warn: %s/%s: %v\n", f.Service, f.Instance, f.Err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "warn: %v\n", err)
	}
	totals := metrics.Totals()
	fmt.Printf("swept %d instances via %s (%d goroutines scanned), %d suspicious locations (threshold %d)\n",
		sweep.Profiles, sweep.Source, totals.Goroutines, len(sweep.Findings), threshold)
	for _, f := range sweep.Findings {
		fmt.Printf("  %-8s %-7s %-32s blocked=%-8d instances=%d/%d max=%d@%s impact=%.1f\n",
			f.Service, f.Op, f.Location, f.TotalBlocked,
			f.SuspiciousInstances, f.Instances, f.MaxCount, f.MaxInstance, f.Impact)
	}
	if reportSink != nil {
		fmt.Printf("state: %d new alerts this sweep; previously filed findings deduplicate against %s\n",
			len(reportSink.LastAlerts()), stateDir)
	}
}

// dumpBody is one pre-rendered POST payload: the debug=2 text (possibly
// gzipped) plus the origin headers the ingest endpoint reads.
type dumpBody struct {
	service, instance string
	body              []byte
}

// runLoadGen renders the fleet's current-day dump bodies and hammers
// the ingest endpoint with them: posters×posts concurrent POSTs,
// round-robin over the bodies. Overload is deliberate — 429s measure
// the endpoint's shedding, not a failure of the run. Each 429 is
// retried up to retries attempts, honouring the endpoint's Retry-After
// (capped, with jitter so the herd does not re-arrive in lockstep);
// a dump still rejected after its last attempt is shed.
func runLoadGen(f *fleet.Fleet, url string, posters, posts int, gz bool, retries int, token string) error {
	if posters < 1 {
		posters = 1
	}
	if posts < 1 {
		posts = 1
	}
	if retries < 1 {
		retries = 1
	}

	// Render every instance's dump once, up front, so the posting loop
	// measures the endpoint and not the simulator.
	var bodies []dumpBody
	for _, in := range f.Instances() {
		body := in.Dump()
		if gz {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(body) // a bytes.Buffer never fails a write
			zw.Close()
			body = buf.Bytes()
		}
		bodies = append(bodies, dumpBody{service: in.Service, instance: in.Name, body: body})
	}
	if len(bodies) == 0 {
		return fmt.Errorf("fleet rendered no dump bodies")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var accepted, retried, shed, quotaShed, other, errs atomic.Int64
	latencies := make([][]time.Duration, posters)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			lat := make([]time.Duration, 0, posts)
			for i := 0; i < posts; i++ {
				d := bodies[(p*posts+i)%len(bodies)]
			attempts:
				for attempt := 1; ; attempt++ {
					req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(d.body))
					if err != nil {
						errs.Add(1)
						break
					}
					req.Header.Set("X-Leakprof-Service", d.service)
					req.Header.Set("X-Leakprof-Instance", fmt.Sprintf("%s-p%d", d.instance, p))
					if gz {
						req.Header.Set("Content-Encoding", "gzip")
					}
					if token != "" {
						req.Header.Set("X-Leakprof-Token", token)
					}
					t0 := time.Now()
					resp, err := client.Do(req)
					if err != nil {
						errs.Add(1)
						break
					}
					// The 429 body names the reason: a full queue (global
					// backpressure) or a per-service quota. Only the first
					// few bytes matter for the classification.
					head := make([]byte, 128)
					n, _ := io.ReadFull(resp.Body, head)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					lat = append(lat, time.Since(t0))
					switch resp.StatusCode {
					case http.StatusAccepted:
						accepted.Add(1)
						break attempts
					case http.StatusTooManyRequests:
						if attempt >= retries {
							// Out of attempts: the dump is shed.
							if bytes.Contains(head[:n], []byte("quota")) {
								quotaShed.Add(1)
							} else {
								shed.Add(1)
							}
							break attempts
						}
						retried.Add(1)
						time.Sleep(backoffDelay(resp.Header.Get("Retry-After"), rng))
					default:
						other.Add(1)
						break attempts
					}
				}
			}
			latencies[p] = lat
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)-1))
		return all[i]
	}

	total := int64(posters) * int64(posts)
	fmt.Printf("posted %d dumps (%d bodies, %d posters × %d posts, gzip=%v, retries=%d) in %v\n",
		total, len(bodies), posters, posts, gz, retries, wall.Round(time.Millisecond))
	fmt.Printf("  accepted=%d retried-429=%d shed=%d quota-shed=%d other=%d errors=%d\n",
		accepted.Load(), retried.Load(), shed.Load(), quotaShed.Load(), other.Load(), errs.Load())
	fmt.Printf("  %.0f posts/sec, admission latency p50=%v p99=%v\n",
		float64(total)/wall.Seconds(), pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	if errs.Load() > 0 {
		return fmt.Errorf("%d POSTs failed outright", errs.Load())
	}
	return nil
}

// backoffDelay turns a 429's Retry-After into the actual wait: the
// server's ask, capped at 2s so an aggressive hint cannot park the
// poster, with ±25% jitter so the shed herd does not re-arrive in
// lockstep at the exact same instant.
func backoffDelay(retryAfter string, rng *rand.Rand) time.Duration {
	const capDelay = 2 * time.Second
	d := 100 * time.Millisecond // server gave no hint
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > capDelay {
		d = capDelay
	}
	jitter := 0.75 + 0.5*rng.Float64()
	return time.Duration(float64(d) * jitter)
}
