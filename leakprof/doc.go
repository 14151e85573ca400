// Package leakprof analyzes goroutine profiles collected from production
// service instances to pinpoint goroutine leaks, reproducing the LEAKPROF
// tool from "Unveiling and Vanquishing Goroutine Leaks in Enterprise
// Microservices" (CGO 2024), Section V.
//
// # The Pipeline API
//
// The package exposes one composable entry point: a Pipeline built from
// functional options, pulling snapshots from a Source and fanning results
// out to Sinks.
//
//	pipe := leakprof.New(
//		leakprof.WithThreshold(10000),           // paper's concentration bound
//		leakprof.WithParallelism(64),            // concurrent fetches
//		leakprof.WithRetry(leakprof.DefaultRetryPolicy),
//		leakprof.WithErrorBudget(3),             // per-service failure budget
//	)
//	pipe.AddSinks(
//		&leakprof.ReportSink{Reporter: reporter}, // dedup + top-N alerts
//		&leakprof.TrendSink{Tracker: tracker},    // cross-sweep verdicts
//	)
//	sweep, err := pipe.Sweep(ctx, leakprof.StaticEndpoints(fleet...))
//
// Every profile origin drives the identical engine:
//
//   - StaticEndpoints — HTTP fleet collection with bounded
//     parallelism, bounded jittered retry, and per-service error
//     budgets; response bodies stream through the incremental stack
//     scanner, never materialised.
//   - Archive — replay of one recorded sweep directory, one file at a
//     time (Pipeline.Replay walks every sweep an ArchiveSink recorded).
//   - fleet.(*Fleet).Source — a simulated platform (internal/fleet).
//   - FromSnapshots / Dumps — snapshots already counted, or raw debug=2
//     bodies (synthetic dumps, out-of-band captures).
//
// Every origin that scans a body — StaticEndpoints, Archive, Dumps and
// IngestServer — acts on one verdict, gprofile.ScanSnapshot's. A clean
// profile folds. A profile whose scan resynced past malformed members
// folds what remains and is reported as a failure wrapping
// gprofile.ErrSalvaged: it counts in Profiles and in Errors, but spends
// no error budget and seeds none (a reachable instance serving noisy
// dumps is not a down one), and a salvaged pull is one successful
// fetch, never retried. A body that could not be read, or a non-empty
// body holding no goroutine member, folds nothing and is a failed
// instance of its service. An empty body is a profile of zero
// goroutines.
//
// Sinks receive each snapshot as it is collected plus the completed
// Sweep (ranked findings and the aggregator's raw per-group moments):
// ReportSink files alerts, TrendSink feeds variance-aware cross-sweep
// classification, MetricsSink accumulates telemetry, and ArchiveSink
// writes the sweep through to disk as it happens. The fan-out is
// concurrent: every sink consumes its own bounded event queue on its own
// goroutine, so a slow sink — a remote metrics push, a cold archive
// disk — cannot delay another sink's alerting, and a sink that falls a
// full queue behind backpressures collection instead of buffering the
// sweep. Every Sweep drains all queues before returning, so sink errors
// join the sweep result and the state journal records a sweep only
// after every sink has seen it.
//
// The three stages mirror the paper, and they stream: no stage ever
// holds a whole profile body, a parsed goroutine slice, or a full sweep
// of snapshots in memory. Peak sweep state is O(services x locations),
// not O(fleet x profile).
//
// # Durability & state
//
// The paper's workflow is a daily fleet-wide sweep whose value is
// history: bugs are filed once, trends span days, and budgets are
// informed by yesterday. WithStateDir makes that history durable. The
// pipeline opens a StateStore there holding three things:
//
//   - the bug database of filed findings, so ReportSink dedup survives
//     a restart instead of re-alerting every owner;
//   - the cross-sweep trend history, including the aggregator moments
//     behind variance-aware verdicts, so TrendTracker resumes where it
//     left off;
//   - the previous sweep's outcome, whose per-service failure counts
//     seed the next sweep's error budget — a service that was down
//     yesterday is probed with a reduced budget today (never zero: a
//     recovered service always gets at least one probe).
//
// An empty sweep, one that folded no profile and counted no failure, is
// not an outcome: it replaces neither LastSweep nor LastFailureCounts,
// which keep the last sweep that saw the fleet. That covers the drain
// of a clean ingest stop with nothing arrived since the last window
// close, and an idle window in the middle of a run alike: the next
// window's error budget is seeded from the last window that saw a dump
// or a failure. An empty sweep's frame carries only the bugs and trend
// observations changed since the last frame (status transitions from an
// embedder, say), and with none it writes no frame and issues no fsync.
//
// On disk the store is a segmented append-only log. Each recorded sweep
// appends one frame — a length-prefixed, CRC-32-checksummed record — to
// the active segment-NNNN.log. The frame is a delta: the bugs the sweep
// filed or re-sighted (report.DB.TakeDirty), the trend observations
// recorded since the last frame (the tail of each key's history, read
// in place), and the sweep outcome. Persisting a sweep therefore costs
// O(what the sweep changed); at a 100K-key steady state rewriting the
// whole state every sweep costs ~10,000x more bytes (see
// BenchmarkStateJournal), and BenchmarkSweepCriticalPath measures the
// end-to-end sweep latency the remaining knobs buy back.
//
// Frames are binary (StateVersion 3): varint-packed fields, strings as
// references into a per-segment dictionary, and flate-compressed
// snapshot bodies, all inside the internal/frame payload envelope
// shared with shard reports and the static findings index. A build
// reads exactly the format it writes. A state dir in any other format —
// a format-1 state.json, a format-2 manifest or JSON frame, a binary
// frame of another version — fails the open with an error naming what
// it found and the version it supports, rather than opening empty and
// re-alerting every owner of every bug the journal had filed.
//
// Durability is a policy (WithStateSync), and every fsync runs on the
// caller's goroutine: the store starts no goroutine of its own.
// SyncEverySweep, the default, fsyncs inside every RecordSweep: no
// recorded sweep is ever lost, one fsync per sweep. SyncOnClose defers
// every sync to Flush/Close. The loss window on a crash follows the
// policy: recovery truncates a torn tail frame and loses at most the
// unsynced window — never a frame synced before it (under fail-stop; a
// power loss that reorders unflushed pages can corrupt a mid-window
// frame, which recovery refuses to truncate silently because durable
// frames follow it). StateStore.Flush is the explicit barrier: it
// journals pending state and fsyncs the window. Directory entries
// are made durable too: the store fsyncs the state dir after creating a
// segment and after every rename, so a power cut cannot lose a new
// segment or a manifest swing whose contents were already synced.
//
// The log is kept bounded by compaction, through one synchronous fold.
// The active segment rolls over past a size bound, and the sweep whose
// append leaves more than a bounded number of segments live
// (WithStateCompaction) folds them before RecordSweep returns — the
// same fold StateStore.Save runs. It fsyncs the active segment's
// unsynced window first (only the final segment may ever hold a torn
// frame), encodes the whole state as one snapshot frame, stages it to a
// temp file renamed into the next segment slot, swings the journal.json
// manifest pointer to it (temp file + rename), and deletes the old
// segments. A bug status or trend observation recorded while the fold
// writes stays pending for the next delta frame. That sweep waits for
// the fold, whose cost grows with the tracked key count; if the fold
// fails, RecordSweep returns the error, the sweep's own delta is
// already journaled, and the next sweep retries the fold. Snapshot frames
// replay by replacement, so a crash anywhere in that sequence recovers
// cleanly: before the rename, the open deletes the unreferenced staging
// file; before the pointer swing, the complete snapshot replays
// harmlessly after the segments it folded; after it, the leftovers below
// the pointer are swept up on open.
//
// One rule, on by default, keeps state from growing with the age of the
// deployment: anything unseen in the last Horizon (30) sweeps leaves,
// except an open bug. Older trend observations, and keys left with none,
// drop out of exports, verdicts and folds at once, and are freed when a
// key's history reaches 2×Horizon and is copied down, by a fold or by a
// reopen. Closed bugs last seen before the horizon go at the next fold
// or reopen; open bugs never leave, so dedup against them holds forever.
//
// Wire the store's journal-backed components into the sinks at startup:
//
//	pipe := leakprof.New(leakprof.WithStateDir(dir), ...)
//	store, err := pipe.State()
//	pipe.AddSinks(
//		&leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: store.BugDB()}},
//		&leakprof.TrendSink{Tracker: store.Tracker()},
//	)
//
// Archives are durable too: every ArchiveSink finalisation writes a
// manifest.json (sweep timestamp, snapshot index, format version)
// through internal/atomicfile — temp file fsynced, renamed, directory
// fsynced — so a power cut cannot leave it missing or empty, and
// NewSweepArchiveSink rotates one manifested subdirectory per sweep,
// pruning the oldest finalised sweeps beyond a KeepSweeps bound.
// Pipeline.Replay walks a multi-sweep archive in recorded order,
// replaying each sweep at its manifested timestamp, so trend verdicts
// over replayed history match what the live sweeps produced.
//
// # Distributed sweeps
//
// One process sweeping a very large fleet is bounded by its own fetch
// parallelism and NIC. The distributed plane splits the fleet across
// shard workers and a coordinator, without changing anything downstream
// of the merge:
//
//	// worker k of n: sweep the partition, ship folded moments
//	part := leakprof.PartitionEndpoints(fleet, n)[k]
//	rep, _ := pipe.ShardSweep(ctx, leakprof.StaticEndpoints(part...), name, prev)
//	leakprof.PostShardReport(ctx, nil, coordinatorURL, rep) // or WriteShardReportFile
//
//	// coordinator: merge the reports and run the normal pipeline
//	sweep, err := pipe.Sweep(ctx, leakprof.MergedReports(fetches...))
//
// Partitioning is by service (ShardOfService, FNV-1a) — never by
// instance — so every aggregation group and every service's error
// budget lives entirely within one shard. That is what makes the merge
// exact: a ShardReport carries the shard's per-group streaming moments
// (Moment, mergeable via Moment.Merge and Aggregator.MergeMoments) plus
// the per-service profiled-instance counts that form the RMS/mean
// denominators, and the coordinator's merged sweep is byte-for-byte the
// moments, findings, and ranking a single-process sweep of the whole
// fleet would produce. Reports are O(services x locations), independent
// of fleet and profile size — shards ship statistics, not dumps.
//
// Transport is pluggable through ShardFetch: ShardReportFromFile reads
// a worker's atomic file handoff (WriteShardReportFile), ShardInbox
// accepts HTTP POSTs (PostShardReport) with natural backpressure, and
// an in-process closure drives nested topologies. The simulator's mode
// runner (internal/chaos, runner.go) drives sharded sweeps over the
// file and inbox transports. On the wire a report is one framed,
// CRC-checksummed binary payload sharing the journal codec's
// primitives, with one string table amortising every repeated service,
// location, and function name across the report; bodies past a size
// floor are flate-compressed.
//
// Failure semantics follow the existing sweep model. A shard whose
// report is lost — worker crash, torn file, timed-out POST — costs
// exactly that shard's contribution: the merged sweep completes, with
// the loss recorded as one failed instance named after the shard. A
// report that arrives carrying a shard-level sweep error merges its
// partial moments and surfaces the error the same way. Error budgets
// stay globally correct: each report's uncapped FailedByService tallies
// are summed by the coordinator and journaled (WithStateDir), and the
// next sweep's workers receive the journaled counts through
// SweepEnv.PrevFailures, so a service that burned its budget yesterday
// is probed gently today regardless of which worker owns it.
//
// Two refinements harden the merge against real networks. Reports are
// sequenced: each worker stamps ShardReport.Seq from a per-pipeline
// counter, and ShardInbox rejects a (shard, seq) pair it has already
// accepted with 409 Conflict, so a worker that retries a POST whose
// response was lost cannot double-count its moments. And the merge can
// be deadlined: MergedReportsWithin(wait, fetches...) closes the sweep
// after the wait, writing off each shard still fetching as one failed
// instance — a straggler costs its shard's contribution, exactly like
// a crash, instead of holding every other shard's findings hostage.
//
// # Streaming ingestion
//
// Both modes above pull: a sweep visits every endpoint on the
// collector's schedule. IngestServer inverts that into push — each
// instance POSTs its own debug=2 dump body (plain or gzip, origin named
// by ?service=/?instance= or the X-Leakprof-* headers) whenever its own
// trigger fires, which suits fleets behind NAT, short-lived batch jobs
// that exit before any puller arrives, and crash handlers dumping on
// the way down:
//
//	srv := leakprof.NewIngestServer(pipe, leakprof.IngestQueue(4096))
//	go http.ListenAndServe(addr, srv)  // instances POST dump bodies
//	err := srv.Run(ctx)                // one Sweep per closed window
//
// Every body streams through the same stack scanner on arrival and gets
// the same verdict a pulled body gets (a refused body is a 400), and the
// window loop folds each scanned dump into the window's aggregator — no
// dump is ever buffered whole, so ingest memory is bounded by the
// admission queue times the per-dump folded state (O(locations)), not by
// fleet size or dump length. Arrivals accumulate into tumbling windows on
// the pipeline clock (WithWindow; a late arrival credits the next
// window). Each window arms a timer for its deadline, so it closes when
// the deadline passes, whether or not a dump arrives; a pipeline clock
// (WithClock) slower than the wall clock re-arms the timer for what is
// left. Each window close emits one ordinary Sweep: alerting, trend
// tracking, archives, and the state journal run unchanged, they simply
// see "windows" instead of "collection rounds".
//
// Backpressure is first-class rather than emergent. Admission is
// bounded by IngestQueue: a POST past the bound is rejected immediately
// with 429 and a Retry-After hint — never queued, never blocking the
// dumps already admitted — and the rejection is charged to the
// service's failure accounting in the closing window, where it feeds
// the same error budgets a pull sweep's fetch failures feed. Closing
// the server (context cancellation) drains: every dump already scanned
// and queued, and every admission failure counted since the last window
// closed, folds into one final partial window before Run returns. The
// rule is that an acknowledged dump is folded: a POST that takes its
// admission slot after the drain began is answered 503, as a later one
// is, never 202. A scan still in flight gets a fixed two seconds to
// land; one that lands later is answered 503 too, and is not folded.
// A window whose sweep fails (a sink's SweepDone, the journal append)
// does not stop the loop, and is not lost either: Run's error after the
// cancel wraps the first failed window's error and counts the windows
// that failed.
//
// Durability interacts with windows through the fsync policy
// (WithStateSync), and the loss bound on a crash is per-policy exactly
// as in batch mode, with "window" substituted for "sweep":
// SyncEverySweep loses at most the arrivals of the current, not yet
// closed window; SyncOnClose loses everything since the server started.
// Rejected POSTs are not a durability loss — the instance still holds
// its dump and the 429 tells it to retry after the hint.
//
// # Hot-path tuning
//
// The ingest-to-journal path is built to hold its throughput and its
// pause behaviour at fleet scale; five mechanisms carry that, each with
// a knob or a metric:
//
// Per-service admission quotas. IngestServiceQuota bounds how many
// dumps one service may hold in the admission queue at once; a POST
// past the quota is rejected with 429 + Retry-After before it touches
// the shared queue, so one misbehaving service cannot starve the rest
// of the fleet. Quota rejections are charged to that service's failure
// accounting (ErrIngestQuota) in the closing window, distinct from
// whole-queue overflow (ErrIngestOverflow).
//
// Pooled decompression and scan state. Gzip ingest bodies decompress
// through a pooled inflater (Reset instead of a fresh allocator per
// POST), and profile scans draw their scanner — line buffer, interning
// and location caches — from a pool as well. The scan counts instead of
// materialising (stack.Scanner.Tally): each member is classified from
// its header and its frames through the leaf in one recycled record, so
// steady-state collection allocation tracks the novel strings in a dump,
// not its byte size or goroutine count. On a 10,250-goroutine dump in
// the pull-daily member shape (BenchmarkScanDump/snapshot, 2-vCPU box)
// that took the scan from 2,057 to 1,181 ns per goroutine and from
// 60,510 allocations (8.8 MB) to 9 (1.8 KB) per dump; the repository
// benchmark's pull-daily cpu_ms_per_dump fell from 2.16 to 0.95 ms.
// There is one interning layer: each pooled scanner's own table, kept
// across scans and reset once it passes 8,192 strings. A pool shared by
// every scanner once sat behind those tables and never evicted. Over one
// 10 s run per benchmark workload (seed 7) it served 446 hits in 10,240
// pull-daily scans (0.04 per scan), 418 in 8,307 pull-sharded scans
// (0.05), 350 in 1,200 ingest-steady scans (0.29) and 10,648 in 803
// ingest-wide scans (13), each hit saving one small string in a scan of
// 1–2 ms of CPU, while ingest-wide alone left 8,866 strings in it.
// stack.Current scans its capture buffer in place for the same reason
// Tally counts: no whole-dump string copy on the goleak verification
// path.
//
// Dictionary-compressed segments. The journal codec writes a
// per-segment string dictionary that starts empty in every segment: a
// frame appends the strings (keys, locations, service names) its
// segment has not declared yet, and later frames reference them by
// ordinal instead of repeating them, which shrinks steady-state journal
// bytes by over a third. A segment rolls only once it has reached its
// size bound, before the next frame is encoded, so every frame is
// encoded once, against the dictionary of the segment it lands in, and
// a segment passes its bound by at most its last frame. The
// dictionary-seed frame (kind 3) that earlier builds wrote at a rolled
// segment's head, copying the old segment's strings forward, is read
// but never written: declaring a string when a segment first needs it
// never declares more strings than copying the whole dictionary
// forward, and on the repository benchmark's ingest-wide workload every
// rolled segment held over 7,000 strings, past the 4,096 the seed would
// carry, so no roll wrote one.
//
// A fold that copies nothing twice. A fold rewrites the whole state as
// one snapshot frame, and each input is captured once: the bug DB is
// sorted as pointers and each bug copied once (report.DB.All), the trend
// history is exported into one backing array, the string table and the
// body are sized from the record's counts and fed to flate one after
// the other (frame.Format.Seal), and the table becomes the snapshot
// segment's dictionary as it stands instead of being inserted into a
// second map. The frame's bytes are unchanged; TestGoldenBytes pins a
// 90 KB fold frame by its digest. At 100K keys
// (BenchmarkSweepCriticalPath/fold-pause, 2-vCPU box) a fold went from
// 142 MB and 103,700 allocations to 70 MB and 2,470, and from 0.58–0.67
// s to 0.49–0.58 s; at 20K keys TestSnapshotFoldAllocs reads 392
// allocations against 21,264 and pins them below 1,000. Window ranking
// compares dedup keys in place instead of concatenating two per
// comparison: sorting 1,000 moments keyed like ingest-wide's fell from
// 2.6 ms and 20,183 allocations to 0.7 ms and 3. Together they took the
// repository benchmark's ingest-wide cpu_ms_per_dump from 3.17 to 2.51
// ms (medians of 10 alternating pairs). The fold drains the dirty set
// as keys alone (report.DB.TakeDirtyKeys), which it keeps only to
// re-mark them if it fails.
//
// The compressor's level. Every sealed payload — the fold's snapshot,
// shard reports from frame.FlateMin up, the static index — deflates at
// level 4, not Go's default 6, because flate is the largest cost of a
// fold. The rule: take the fastest level whose end-of-run ingest-wide
// snapshot stays within 3% of level 6's bytes.
// Sealing that state (26,643 bugs, a 7.47 MB body and string table;
// best of 5, 2-vCPU box):
//
//	level  frame bytes  vs 6    ms
//	6      1,307,682    —       310.0
//	5      1,313,255    +0.4%   128.1
//	4      1,329,029    +1.6%   67.8
//	3      1,459,076    +11.6%  81.3
//	2      1,455,164    +11.3%  78.2
//	1      1,510,476    +15.5%  45.6
//
// Over 10 alternating pairs of the repository benchmark, ingest-wide
// cpu_ms_per_dump fell from 2.45 to 1.83 ms (medians; the change won
// all 10), every run folding 8 times on both sides; fold-pause went from
// 0.36–0.38 to 0.24–0.25 s and from 1175 to 1127 journal-KB per fold. A
// DEFLATE reader inflates any level, so the level changed written bytes
// but no format version: state dirs written at level 6 still open.
//
// # Chaos & fault injection
//
// Every robustness mechanism above — retries, error budgets, scanner
// salvage, straggler deadlines, sequence dedup, admission backpressure
// — exists because production misbehaves. internal/chaos is the layer
// that proves they compose: its mode runner drives one simulated fleet
// through batch, sharded and ingest delivery, wrapping the pull path
// (fleet.ServeWith mounts an Injector in front of each endpoint) and
// damaging the dump bodies every mode reads, with independently seeded,
// freely combinable faults:
//
//   - slow and hung endpoints (exercising WithTimeout and WithRetry),
//   - flapping instances answering 503 (retry recovery),
//   - torn dump bodies cut mid-frame (silent undercount — a dump that
//     simply ends scans as complete) and corrupted goroutine headers
//     (scanner resync + Malformed(), surfacing as ErrSalvaged failures),
//   - corrupt gzip streams (hard scan error, 400 + ScanErrors),
//   - rolling deploys firing mid-sweep (version skew: rolled instances
//     report empty backlogs while the rest still carry theirs),
//   - poster clock skew (dumps crediting the next window),
//   - crashed and straggling shards (MergedReportsWithin write-offs),
//   - replayed shard reports (409 sequence dedup) and unauthenticated
//     posts (401 token rejection).
//
// Every fault decision is a pure hash of (seed, fault kind, instance,
// attempt ordinal) — never of goroutine scheduling — so a failing
// scenario replays identically under -race and -count=100.
//
// Authentication is part of the fault surface. IngestAuthToken (flag
// -ingest-token) arms shared-secret admission on IngestServer, and
// ShardInbox.Token does the same for report POSTs
// (PostShardReportAuth sends it): a POST without the matching
// X-Leakprof-Token dies with 401 — compared constant-time, counted in
// IngestStats.AuthRejected / ShardInbox.AuthRejected, and deliberately
// not charged to the claimed service's failure accounting, since an
// unauthenticated claim is exactly what cannot be trusted.
//
// chaos.Catalogue is the scenario matrix: named fleet-config × fault-set
// × mode (batch pull, sharded topology, streaming ingest) combinations,
// each planting leaks through the live pattern catalogue
// (patterns.Simulatable) and asserting a precision floor, a recall
// floor, and a sweep-latency SLO, plus evidence checks that the
// configured faults actually fired. cmd/fleetsim -matrix runs it and
// renders the pass/fail table; CI runs both the race-enabled matrix
// test and the CLI gate, so a regression in any of the mechanisms above
// fails a named scenario rather than an abstract unit test.
//
// # Static↔dynamic loop
//
// The paper's two halves — production profiling (this package) and
// static leak detection (internal/staticbase, internal/astcheck, the
// goleak suppressions) — meet in internal/staticindex. A scan persists
// every static alarm in a findings index with stable keys (file,
// function, line, detector, reason), and the cross-linker joins that
// index against this package's production evidence:
//
//	idx, _ := staticindex.ScanTree(srcRoot)       // or cmd/leakrank
//	rep := staticindex.Link(idx, store.BugDB(), store.Tracker().Verdict)
//	actionable := rep.Actionable()                // evidence-ranked alarms
//	rep.WriteSuppressions("goleak.supp")          // demoted false positives
//
// The join partitions the alarm space by evidence. A static alarm the bug
// DB has sighted, with a growing or stable trend verdict, is
// near-certainly real and ranks by sightings and blocked-goroutine
// counts. An alarm no open bug matches, nor any bug seen within the trend
// horizon, is unsighted, a suppression candidate: the emitted
// goleak.SuppressionList carries a machine-generated Reason line with the
// evidence, so owners reviewing the file see why each alarm was demoted.
// A confirmed site whose trend oscillates is congestion, not a leak, and
// is demoted the same way. Sightings with no static alarm stay ranked on
// dynamic evidence alone.
//
// The loop closes in both directions. Reporter.StaticAlarm (wired from
// staticindex.Index.AlarmFunc, or cmd/leakprof's -static-index flag)
// decorates every filed report.Bug with the static annotation for its
// site, which the alert renders as a "static:" line — an owner reading
// a production alert sees immediately that three analyzers also flagged
// the function. The precision/recall harness over the synth corpus
// (internal/staticindex's TestCombinedRankerDominatesEitherHalf) shows
// the combined ranker strictly beating either half alone on precision
// at equal recall: static pays for hard negatives, dynamic pays for
// congestion, and the join dismisses both failure modes.
package leakprof
