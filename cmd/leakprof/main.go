// Command leakprof runs the production-side leak detector against a fleet
// of goroutine-profile endpoints, or against saved profile files.
//
// Usage:
//
//	leakprof -endpoints svc1=http://h1:6060,svc1=http://h2:6060,...
//	leakprof -dir /path/to/profiles    # files named <service>_<instance>.txt
//
// Flags tune the paper's knobs: -threshold (default 10000), -rank
// (rms|mean|max|total), -top (alerts per sweep), -parallelism (concurrent
// fetches). Production-collection knobs ride the Pipeline engine:
// -retries enables bounded per-endpoint retry with jittered backoff,
// -error-budget short-circuits a service's remaining instances once that
// many of its instances failed, and -archive records each sweep
// write-through into its own manifested sweep-NNNN subdirectory,
// replayable with -dir (a rerun appends new sweeps to the history;
// -archive-keep bounds the history to the newest N sweeps). With
// -state-dir the run is durable: the bug DB, cross-sweep trend history,
// and error-budget seeds journal to disk — as an append-only segment log
// whose per-sweep cost is the sweep's delta, compacted by the sweep that
// leaves more than -state-segments segments live, with -trend-keep
// bounding per-key trend history and -bug-keep aging closed bugs out —
// so repeated invocations dedup against every bug ever filed, resume
// trend verdicts, and probe yesterday's failing services with a reduced
// budget. -fsync picks the journal's durability policy: sweep fsyncs
// inside every sweep, close defers every fsync to exit. A -dir
// pointing at a multi-sweep archive (one sweep-NNNN subdirectory per
// sweep) replays every recorded sweep at its manifested timestamp. Both
// input kinds drive the same streaming pipeline: each profile flows
// through the stack scanner into the fleet aggregator as it arrives,
// so memory stays flat regardless of fleet and profile size. SIGINT
// cancels an in-flight sweep cleanly. With -static-index pointing at a
// findings index written by leakrank, every filed bug is decorated with
// the static alarm for its site ("static: gcatch-like,goat-like: ..."
// in the alert) — the static↔dynamic loop's production half.
//
// Distributed sweeps split one fleet across processes. A worker runs
// with -shard K/N: it sweeps only the endpoints whose services hash to
// shard K of N and, instead of filing findings, emits a folded shard
// report — moments, not profiles — to a file (-report-out) or a
// coordinator inbox URL (-report-url). A coordinator runs with
// -merge-reports file1,file2,...: it merges the workers' reports into
// one sweep carrying exactly the moments a single-process sweep of the
// whole fleet would fold, and runs the normal alerting, sinks, and
// state journal on the result. -merge-deadline bounds the merge: a
// shard that has not reported when the deadline passes is written off
// as one failed instance instead of holding the sweep open.
//
// Streaming ingestion inverts the pull model entirely: -ingest :6061
// serves a push endpoint where instances POST their own debug=2 dump
// bodies (plain or gzip), each body streaming through the scanner on
// arrival. Arrivals fold into tumbling windows (-window, default 1m);
// each closed window emits one normal sweep through the same alerting,
// archive, and state-journal tail the pull modes use, and prints its new
// alerts as it closes rather than at exit. Admission is
// bounded (-ingest-queue): overflow POSTs get 429 + Retry-After and the
// rejection is charged to the service's error accounting; -ingest-quota
// additionally caps any one service's share of the queue so a noisy
// fleet cannot crowd the others out. The window loop folds each scanned
// dump into the open window. SIGINT drains everything admitted into a
// final partial window before exiting, and a window whose sinks or
// journal append failed is reported as a warn: line on the way out.
// -ingest-token arms shared-secret admission: a POST without the
// matching X-Leakprof-Token is a 401 (compared constant-time) before
// its ?service= claim can touch any accounting; the same flag makes a
// -shard worker send the token with its -report-url handoff.
//
// The exit status is 1 after a source-, sink- or state-level failure
// (an unreadable archive, a failed -archive write-through, journal
// append or close, a failed ingest window), reported as a warn: line
// before the summary. A failed instance and an interrupted pull sweep
// leave it 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/internal/staticindex"
	"repro/leakprof"
)

func main() {
	endpoints := flag.String("endpoints", "", "comma-separated service=url pairs of goroutine profile endpoints")
	dir := flag.String("dir", "", "directory of saved debug=2 profiles named <service>_<instance>.txt (single- or multi-sweep archive)")
	threshold := flag.Int("threshold", leakprof.DefaultThreshold, "per-instance blocked-goroutine threshold")
	rank := flag.String("rank", "rms", "impact ranking: rms, mean, max, total")
	top := flag.Int("top", 10, "alerts per sweep")
	timeout := flag.Duration("timeout", 30*time.Second, "per-endpoint fetch timeout")
	parallelism := flag.Int("parallelism", 32, "concurrent profile fetches")
	retries := flag.Int("retries", 1, "fetch attempts per endpoint (1 = no retry)")
	errorBudget := flag.Int("error-budget", 0, "failed instances per service before skipping the rest (0 = unlimited)")
	archive := flag.String("archive", "", "base directory to archive sweeps into, write-through: one manifested sweep-NNNN subdirectory per sweep, replayable with -dir")
	archiveKeep := flag.Int("archive-keep", 0, "with -archive: keep only the newest N finalised sweeps, pruning older sweep-NNNN directories (0 = keep all)")
	stateDir := flag.String("state-dir", "", "directory for the durable state journal: bug-DB dedup, trend history, and error-budget seeds survive restarts")
	stateSegments := flag.Int("state-segments", 0, "with -state-dir: the sweep that leaves more than N journal segments live compacts them before it returns (0 = default)")
	trendKeep := flag.Int("trend-keep", 0, "with -state-dir: retain only the last N trend observations per finding key, in memory and in the journal (0 = unlimited)")
	bugKeep := flag.Duration("bug-keep", 0, "with -state-dir: age closed (fixed/rejected) bugs out of the bug DB and journal once unseen for this long (0 = keep forever)")
	fsync := flag.String("fsync", "sweep", "state journal fsync policy: sweep (fsync inside every sweep) or close (fsync only at exit)")
	shard := flag.String("shard", "", "worker mode: sweep partition K/N of the -endpoints fleet (services hashed across N shards) and emit a shard report instead of findings; requires -report-out or -report-url")
	shardName := flag.String("shard-name", "", "worker mode: shard name in the report and in coordinator failure accounting (default shard-<K>)")
	reportOut := flag.String("report-out", "", "worker mode: write the binary shard report to this file (atomic rename), for a coordinator's -merge-reports")
	reportURL := flag.String("report-url", "", "worker mode: POST the binary shard report to this coordinator inbox URL")
	mergeReports := flag.String("merge-reports", "", "coordinator mode: comma-separated shard report files to merge into one sweep, run through the normal sinks and state journal")
	mergeDeadline := flag.Duration("merge-deadline", 0, "coordinator mode: close the merge after this wait, counting each unreported shard as one failed instance (0 = wait for the slowest shard)")
	ingest := flag.String("ingest", "", "push-ingestion mode: serve an ingest endpoint on this address (e.g. :6061); instances POST debug=2 dump bodies, windowed sweeps run until SIGINT")
	window := flag.Duration("window", 0, "with -ingest: tumbling-window duration between emitted sweeps (0 = 1m default)")
	ingestQueue := flag.Int("ingest-queue", 0, "with -ingest: bound on dumps in flight before POSTs are rejected with 429 (0 = 1024 default)")
	ingestQuota := flag.Int("ingest-quota", 0, "with -ingest: per-service bound on concurrently held admission slots; a service over its quota gets 429 without crowding others out (0 = no quota)")
	ingestToken := flag.String("ingest-token", "", "shared-secret X-Leakprof-Token: -ingest POSTs without it get 401 (compared constant-time); worker -report-url POSTs send it")
	staticIndex := flag.String("static-index", "", "findings index written by leakrank: filed bugs and alerts are decorated with the static alarm for their site")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	syncPolicy, err := leakprof.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	opts := []leakprof.Option{
		leakprof.WithThreshold(*threshold),
		leakprof.WithRanking(parseRank(*rank)),
		leakprof.WithTimeout(*timeout),
		leakprof.WithParallelism(*parallelism),
		leakprof.WithRetry(leakprof.RetryPolicy{MaxAttempts: *retries}),
		leakprof.WithErrorBudget(*errorBudget),
		leakprof.WithSharedIntern(0),
	}
	if *window > 0 {
		opts = append(opts, leakprof.WithWindow(*window))
	}
	// Ingest mode's sweeps are emitted by the window loop, not returned
	// from a Sweep call: the observer prints each window's alerts as the
	// window closes and collects the sweeps for the summary below.
	live := &alertLog{out: os.Stdout}
	if *ingest != "" {
		opts = append(opts, leakprof.WithOnSweep(live.observe))
	}
	if *stateDir != "" {
		opts = append(opts,
			leakprof.WithStateDir(*stateDir),
			leakprof.WithStateCompaction(0, *stateSegments),
			leakprof.WithTrendRetention(*trendKeep),
			leakprof.WithBugRetention(*bugKeep),
			leakprof.WithStateSync(syncPolicy),
		)
	}
	if *shard != "" {
		// Worker mode bypasses findings, sinks, and the journal entirely:
		// the shard's contribution is its folded report, and the
		// coordinator owns everything downstream of the merge.
		runShardWorker(ctx, opts, *shard, *shardName, *endpoints, *reportOut, *reportURL, *ingestToken)
		return
	}
	pipe := leakprof.New(opts...)

	// Durable runs wire the sinks to the journal-backed DB and tracker;
	// ephemeral runs get fresh ones.
	db := report.NewDB()
	var tracker *leakprof.TrendTracker
	store, err := pipe.State()
	if err != nil {
		fatal(err)
	}
	var reportSink *leakprof.ReportSink
	if store != nil {
		db = store.BugDB()
		tracker = store.Tracker()
		if last := store.LastSweep(); last != nil {
			fmt.Fprintf(os.Stderr, "state: resuming after sweep of %s at %s (%d profiles, %d errors)\n",
				last.Source, last.At.Format(time.RFC3339), last.Profiles, last.Errors)
		}
	}
	reporter := &leakprof.Reporter{DB: db, TopN: *top}
	if *staticIndex != "" {
		idx, err := staticindex.Load(*staticIndex)
		if err != nil {
			fatal(err)
		}
		reporter.StaticAlarm = idx.AlarmFunc()
	}
	reportSink = &leakprof.ReportSink{Reporter: reporter}
	live.sink = reportSink
	pipe.AddSinks(reportSink)
	if tracker != nil {
		pipe.AddSinks(&leakprof.TrendSink{Tracker: tracker})
	}
	if *archive != "" {
		// Rotating mode: each sweep lands in its own manifested
		// subdirectory, so replaying a multi-sweep -dir through -archive
		// re-records every sweep instead of flattening them into one.
		archiveSink, err := leakprof.NewSweepArchiveSink(*archive, leakprof.KeepSweeps(*archiveKeep))
		if err != nil {
			fatal(err)
		}
		pipe.AddSinks(archiveSink)
	}

	var sweeps []*leakprof.Sweep
	switch {
	case *mergeReports != "":
		// Coordinator mode: merge the workers' handoff files into one
		// sweep and run it through the normal sink fan-out and journal. A
		// missing or corrupt file costs exactly that shard's contribution,
		// surfaced as a per-endpoint failure named after the file.
		var fetches []leakprof.ShardFetch
		for _, path := range strings.Split(*mergeReports, ",") {
			fetches = append(fetches, leakprof.ShardReportFromFile("", strings.TrimSpace(path)))
		}
		var sweep *leakprof.Sweep
		if *mergeDeadline > 0 {
			sweep, err = pipe.Sweep(ctx, leakprof.MergedReportsWithin(*mergeDeadline, fetches...))
		} else {
			sweep, err = pipe.Sweep(ctx, leakprof.MergedReports(fetches...))
		}
		sweeps = []*leakprof.Sweep{sweep}
	case *ingest != "":
		err = runIngest(ctx, pipe, *ingest, *ingestQueue, *ingestQuota, *ingestToken)
		live.mu.Lock()
		sweeps = live.sweeps
		live.mu.Unlock()
	case *endpoints != "":
		var sweep *leakprof.Sweep
		sweep, err = pipe.Sweep(ctx, leakprof.StaticEndpoints(parseEndpoints(*endpoints)...))
		sweeps = []*leakprof.Sweep{sweep}
	case *dir != "":
		// Replay handles both layouts: a flat archive is one sweep, a
		// multi-sweep archive replays every recorded sweep at its
		// manifested timestamp.
		sweeps, err = pipe.Replay(ctx, *dir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if len(sweeps) == 0 {
		fatal(err)
	}
	// The exit barrier: pending journal deltas append, and under -fsync
	// close the unsynced window lands on disk. Stateless runs close
	// trivially.
	failed := false // a source-, sink- or state-level warn: line was printed
	if cerr := pipe.Close(); err == nil {
		err = cerr
	} else if cerr != nil {
		fmt.Fprintf(os.Stderr, "warn: %v\n", cerr)
		failed = true
	}

	profiles := 0
	for _, sweep := range sweeps {
		profiles += sweep.Profiles
		for _, f := range sweep.Failures {
			fmt.Fprintf(os.Stderr, "warn: %s/%s: %v\n", f.Service, f.Instance, f.Err)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "leakprof: sweep interrupted")
	}
	// Source-, sink-, or state-level failure (unreadable archive, failed
	// write-through or journal save) — distinct from the per-endpoint
	// warnings above. An interrupted pull sweep's error is the
	// interruption itself; ingest mode stops on SIGINT by design, and
	// runIngest returns only what failed.
	if err != nil && (ctx.Err() == nil || *ingest != "") {
		fmt.Fprintf(os.Stderr, "warn: %v\n", err)
		failed = true
	}
	if len(sweeps) > 1 {
		fmt.Printf("collected %d profiles across %d sweeps\n", profiles, len(sweeps))
	} else {
		fmt.Printf("collected %d profiles\n", profiles)
	}

	// Alerts accumulate across a multi-sweep replay. Ingest mode printed
	// each window's alerts as the window closed.
	alerts := reportSink.Alerts()
	if len(alerts) == 0 {
		fmt.Println("no new suspicious blocking operations above threshold")
	}
	if *ingest == "" {
		for _, a := range alerts {
			fmt.Print(a.Render())
		}
	}
	if tracker != nil {
		for _, key := range tracker.Growing() {
			fmt.Printf("trend: growing across sweeps: %q\n", key)
		}
	}
	// A scheduler must tell a run whose archive or journal was not
	// written from a clean one.
	if failed {
		os.Exit(1)
	}
}

// alertLog is -ingest mode's sweep observer. The pipeline calls it after
// each window's sinks ran, so the report sink's LastAlerts are that
// window's new-defect alerts: it prints them to out the moment the window
// closes, in the exit summary's text, and keeps the sweep for the
// summary.
type alertLog struct {
	out  io.Writer
	sink *leakprof.ReportSink // set before the first window runs

	mu     sync.Mutex
	sweeps []*leakprof.Sweep
}

func (l *alertLog) observe(s *leakprof.Sweep) {
	l.mu.Lock()
	l.sweeps = append(l.sweeps, s)
	l.mu.Unlock()
	for _, a := range l.sink.LastAlerts() {
		fmt.Fprint(l.out, a.Render())
	}
}

// runIngest is -ingest mode: serve the push endpoint and run the window
// loop until the context is cancelled (SIGINT), then drain — everything
// admitted folds into a final partial-window sweep before the listener
// and pipeline shut down. A clean SIGINT returns nil; a failed window
// returns Run's error, which names the first failure and the count.
func runIngest(ctx context.Context, pipe *leakprof.Pipeline, addr string, queue, quota int, token string) error {
	var iopts []leakprof.IngestOption
	if queue > 0 {
		iopts = append(iopts, leakprof.IngestQueue(queue))
	}
	if quota > 0 {
		iopts = append(iopts, leakprof.IngestServiceQuota(quota))
	}
	if token != "" {
		iopts = append(iopts, leakprof.IngestAuthToken(token))
	}
	srv := leakprof.NewIngestServer(pipe, iopts...)
	hs := &http.Server{Addr: addr, Handler: srv}
	// A listener that dies (port in use, NIC gone) must stop the window
	// loop too — otherwise the process sits headless until SIGINT.
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()
	serveErr := make(chan error, 1)
	go func() {
		err := hs.ListenAndServe()
		serveErr <- err
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			icancel()
		}
	}()
	w := pipe.Config().Window
	if w <= 0 {
		w = leakprof.DefaultWindow
	}
	fmt.Fprintf(os.Stderr, "ingest: listening on %s, one sweep per %s window; POST debug=2 bodies with ?service= (Ctrl-C drains and exits)\n", addr, w)
	runErr := srv.Run(ictx)
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(sctx)
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "ingest: %d admitted (%d folded), %d rejected (%d over quota), %d auth 401s, %d scan errors, %d windows closed\n",
		st.Admitted, st.Folded, st.Rejected+st.QuotaRejected, st.QuotaRejected, st.AuthRejected, st.ScanErrors, st.Windows)
	// ListenAndServe returns exactly once; after Shutdown this receive
	// is immediate.
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if runErr == ctx.Err() {
		return nil // SIGINT is the intended shutdown path, and no window failed
	}
	return runErr
}

// runShardWorker is -shard mode: sweep partition K of the fleet's N
// service-hash shards and hand the folded report off (file, HTTP, or
// both) instead of filing findings.
func runShardWorker(ctx context.Context, opts []leakprof.Option, spec, name, endpoints, out, url, token string) {
	if endpoints == "" {
		fatal(errors.New("-shard requires -endpoints"))
	}
	if out == "" && url == "" {
		fatal(errors.New("-shard requires -report-out or -report-url"))
	}
	k, n, err := parseShardSpec(spec)
	if err != nil {
		fatal(err)
	}
	if name == "" {
		name = fmt.Sprintf("shard-%d", k)
	}
	part := leakprof.PartitionEndpoints(parseEndpoints(endpoints), n)[k]
	pipe := leakprof.New(opts...)
	rep, err := pipe.ShardSweep(ctx, leakprof.StaticEndpoints(part...), name, nil)
	if cerr := pipe.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "warn: %v\n", cerr)
	}
	// A source-level error still ships the partial report (it carries the
	// error for the coordinator); only a failed handoff is fatal.
	if err != nil {
		fmt.Fprintf(os.Stderr, "warn: %v\n", err)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "warn: %s/%s: %v\n", f.Service, f.Instance, f.Err)
	}
	if out != "" {
		if err := leakprof.WriteShardReportFile(out, rep); err != nil {
			fatal(err)
		}
	}
	if url != "" {
		if err := leakprof.PostShardReportAuth(ctx, nil, url, token, rep); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("shard %s (%d of %d): %d endpoints, %d profiles, %d errors, %d moment groups\n",
		name, k, n, len(part), rep.Profiles, rep.Errors, len(rep.Moments))
}

// parseShardSpec decodes -shard's K/N.
func parseShardSpec(s string) (k, n int, err error) {
	ks, ns, ok := strings.Cut(s, "/")
	if ok {
		k, err = strconv.Atoi(strings.TrimSpace(ks))
		if err == nil {
			n, err = strconv.Atoi(strings.TrimSpace(ns))
		}
	}
	if !ok || err != nil || n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("malformed -shard %q (want K/N with 0 <= K < N, e.g. 0/4)", s)
	}
	return k, n, nil
}

// parseEndpoints decodes the -endpoints flag.
func parseEndpoints(s string) []leakprof.Endpoint {
	var eps []leakprof.Endpoint
	for i, pair := range strings.Split(s, ",") {
		svc, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			fatal(fmt.Errorf("malformed endpoint %q (want service=url)", pair))
		}
		eps = append(eps, leakprof.Endpoint{
			Service: svc, Instance: fmt.Sprintf("i%03d", i), URL: url,
		})
	}
	return eps
}

func parseRank(s string) leakprof.Ranking {
	switch s {
	case "mean":
		return leakprof.RankMean
	case "max":
		return leakprof.RankMax
	case "total":
		return leakprof.RankTotal
	default:
		return leakprof.RankRMS
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leakprof:", err)
	os.Exit(1)
}
