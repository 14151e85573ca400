// Command leakbench is the repository's end-to-end benchmark: it drives
// the leak detector's real public API, in a separate process, over
// loopback sockets, and checks every answer it gets back.
//
// # Running
//
// The benchmark is a module of its own (bench/go.mod points back at the
// repository through a replace directive). From the repository root:
//
//	bash bench/run.sh --workload pull-daily --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh                          # every workload, seed 1
//	bash bench/run.sh --trace 1 --workload ingest-wide
//	bash bench/run.sh --seed 2 --out b.json    # append full results
//	bash bench/run.sh -compare a.json b.json   # verdicts against BENCHMARK.json
//
// run.sh builds the binary into .bench_build (with the Go build cache
// there too) and runs it; `cd bench && go run . <flags>` does the same
// with the default caches. The default seed is 1. Every input is
// generated from the seed; the same seed gives the same inputs.
//
// Each run prints its correctness checks, one "workload metric value
// unit" line per metric, and last a one-line JSON summary
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The exit
// status is 0 only when every check passed.
//
// The go test -bench functions elsewhere in the repository stay what they
// are: micro-benchmarks of single functions, called in-process, useful
// while working on one layer. They are not this benchmark.
//
// # Process split
//
// The load generator re-executes its own binary with
// -role=sut as the system under test (SUT). The SUT wires the same
// public API cmd/leakprof's -endpoints, -shard/-merge-reports and -ingest
// modes do: leakprof.New, Pipeline.State's StateStore journal (one fsync
// per sweep), ReportSink and TrendSink on the journal's bug database and
// trend tracker, ShardSweep, ShardInbox and MergedReports, and
// NewIngestServer. The SUT receives only generated inputs: profile bodies
// over HTTP, a pre-seeded journal directory, and flags. The generator's
// garbage collection and bursts never run inside the SUT's process; the
// generator uses at most two connections, the box's two cores.
//
// # Workloads
//
//	pull-daily     closed loop: one sweeper, back-to-back sweeps, one
//	               simulated day each, in whole 8-day deploy cycles. 64
//	               services x 4 instances served by the generator as debug=2
//	               dumps (300 background goroutines each); 16 services
//	               plant a patterns.Simulatable leak growing 600-1800
//	               goroutines a day, 8 carry a hard negative held below the
//	               per-instance threshold (1500); a deploy every 8 days
//	               resets the leaks. 39-107 MB per sweep; SUT parallelism 2.
//	               Why: the paper's daily sweep. HTTP fetch and the stack
//	               scan do almost all the work; the journal and sinks see a
//	               few dozen keys.
//	pull-sharded   the same fleet and days through two ShardSweep workers
//	               (parallelism 1 each) POSTing ShardReports over loopback
//	               to a coordinator ShardInbox merged with MergedReports.
//	               Why: wire encode/decode, the inbox and the merge run
//	               here and nowhere else; fetch and scan are pull-daily's,
//	               so a wire-only change shows here alone.
//	ingest-steady  open loop: seeded Poisson arrivals at 120 dumps/s over
//	               two keep-alive connections; 64 services x 8 instances
//	               POST gzip'd ~180 KB dumps (8 services leak above the
//	               threshold of 300, 8 hold hard negatives below it) into
//	               50 ms windows. Why: admission dominates — HTTP, gunzip,
//	               scan, enqueue — while window close stays light.
//	ingest-wide    open loop at 80 dumps/s of small (~19 KB) plain dumps,
//	               each holding 40 blocked sites drawn Zipf-skewed from 4096
//	               per service, into 125 ms windows over a journal pre-seeded
//	               with 20K keys of those sites and compacting every ~2.5 MB
//	               (512 KB segments, more than 4 live). Every window files
//	               and trends over 300 findings. Why: window close does the
//	               work — ranking, ReportSink filing, TrendSink, journal
//	               append, fsync and compaction; scanning is light.
//
// The open loops keep the SUT to about a sixth of the two cores. The box
// slows by half for minutes at a time; under heavier load (200-400
// dumps/s, or 160 dumps/s over a journal of 100K keys that compacts back
// to back) requests then queued behind each other and the latencies of
// such a run doubled, more than any bound the benchmark may set. Windows
// are short so that each run closes 150 of them or more: a window's close
// time varies twofold with the arrivals it holds and with whether a
// compaction runs beside it, so the median needs many.
//
// A pull run spends its first sweep warming up; an ingest run ignores its
// first tenth. Each run starts the SUT seven times on fresh copies of the
// seeded journal (20K keys) and keeps the seventh.
//
// # Correctness checks
//
// Every pull sweep's findings must equal the generator's closed-form
// findings for that day — every leak over the threshold, with its exact
// totals and representative instance, and no hard negative — so the
// sharded sweep of a day files exactly the single-process sweep's
// findings. Every planted leak must be alerted within a deploy cycle.
// Every POST must be admitted (202), IngestStats must show Folded ==
// Admitted and no scan error, and the findings over all windows must be
// exactly the leak sites the admitted dumps held. The generator's
// lateness (send time past due time, when a connection was free) must
// stay under 25 ms at p99, or the schedule, not the SUT, set the
// latencies. ingest-wide must file at least 300 findings in its median
// window and compact its journal at least 3 times.
//
// # End-to-end metrics (untraced run)
//
//	setup_s          s   SUT exec to its ready line: journal recovery and
//	                     the bound listener; median of seven starts
//	latency_ms.p50   ms  pull: one sweep, start to findings filed, trended
//	latency_ms.p75   ms  and journaled; ingest: one POST, from its due time
//	                     to its 202
//	alert_ms.p50     ms  close latency: pull, collection end to OnSweep;
//	                     ingest, OnSweep minus (Sweep.At + window), over
//	                     windows closed under load (on ingest-steady most
//	                     of it is the server noticing the deadline, at the
//	                     next arrival or its window/4 tick)
//	cpu_ms_per_dump  ms  SUT user+system CPU after ready, per profile
//	                     swept or dump folded
//	rss_mb.mean      MB  SUT resident set, mean of 100 ms samples (on
//	                     ingest-wide it swings twofold around each
//	                     journal compaction, which moves the median)
//
// Time metrics are scaled by a speed probe (see probe.go): this box is
// shared, and its neighbours slow it by up to half, flipping many times a
// second, in a mix that drifts over minutes. Set-up time scales by the
// mean probe time during set-up, the other times by that of the measured
// phase. Each line also shows the raw value. The tail is p75 on every
// workload: a pull run has about 60 sweeps, so p75 is the highest
// percentile with ten samples beyond it, and on ingest p90 and p99 spread
// from run to run by more than any bound the benchmark may set; p99 is
// printed for reference. A highest-sustainable-rate metric is left out:
// each metric must be reported by every workload, and a rate ladder has
// no pull counterpart and moves in whole steps of its ladder.
//
// # Per-layer metrics (traced run, -trace 1)
//
// A traced run measures its first half untraced and its second half with
// spans on; spans are recorded only in this package, around calls into
// public API (a Source wrapper around SweepEnv.Emit, an http.RoundTripper
// passed through WithHTTPClient that also times the body reads, Sink
// wrappers, WithOnSweep, and http.Handler wrappers around IngestServer
// and ShardInbox), plus reads of IngestServer.Stats, StateStore's
// SegmentCount and runtime/metrics. Spans of one sweep or window share
// its ID, stay in memory, and are written at exit to
// .bench_build/<workload>/trace.jsonl; the run prints a self-time table
// from them. A layer a workload bypasses reports 0.
//
//	layer            metrics                            should move       on (bypassed on)
//	generator        gen.lag_ms.p99 (ingest),           validity only     all
//	                 gen.serve_us.p50 (pull)
//	fetch            fetch.ttfb_ms.p50,                 latency (wait)    pull-*
//	                 fetch.inflight.mean
//	scan             scan.self_ms.p50/.p90,             latency,          pull-*, ingest-steady
//	                 scan.body_wait_ms.p50,             cpu_ms_per_dump   (ingest-wide)
//	                 scan.mb_per_s
//	fold             fold.us.p50, fold.count            cpu_ms_per_dump   pull-*
//	close            close.findings_ms.p50              alert_ms          ingest-wide (ingest-steady)
//	sinks            sink.report_ms.p50,                alert_ms          ingest-wide (ingest-steady)
//	                 sink.trend_ms.p50
//	journal          state.record_ms.p50/.p90,          alert_ms,         ingest-wide (pull-daily,
//	                 state.journal_kb_per_sweep,        setup_s           ingest-steady)
//	                 state.segments.max,
//	                 state.recover_ms
//	ingest           ingest.handler_us.p50/.p99,        latency           ingest-steady (ingest-wide)
//	                 ingest.body_wait_us.p50,
//	                 ingest.admit_self_us.p50,
//	                 ingest.backlog.max,
//	                 ingest.window_pause_us.mean,
//	                 ingest.snapshots_per_window.p50
//	shard/wire       shard.worker_sweep_ms.p50,         latency           pull-sharded (all others)
//	                 shard.skew_ms.p50, wire.post_ms.p50,
//	                 wire.report_kb.p50, wire.inbox_us.p50,
//	                 shard.merge_ms.p50
//	SUT runtime      sut.alloc_mb_per_dump,             cpu_ms_per_dump,  all
//	                 sut.gc_cycles, sut.gc_cpu_frac     rss_mb.mean
//	trace            trace.overhead_frac (traced vs     —                 all
//	                 untraced half, latency p50),
//	                 trace.coverage_frac (smallest share
//	                 of a sweep or window close its
//	                 child spans cover; a run fails
//	                 below 0.9)
//
// The generator and the SUT share two cores, so a SUT CPU saving shows most
// in the ingest latencies and least in pull sweeps that wait on fetches.
//
// # Comparing
//
// -compare a.json b.json reads two -out files and prints, for every
// workload and end-to-end metric, each side's median and quartiles, the
// share of run pairs (in file order) the second side wins, and a
// verdict against the bound in BENCHMARK.json: better (it wins nine
// tenths of the pairs and its median moved by more than the first side's
// interquartile range), unresolved (either side's spread exceeds the
// bound, unless every second-side run beats every first-side run), worse
// (the median worsened by more than the bound), or within bound. It exits
// 1 when any metric is worse or unresolved.
package main
