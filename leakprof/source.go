package leakprof

import (
	"context"
	"io"
	"time"

	"repro/internal/gprofile"
)

// SweepEnv is what the engine hands a Source for one sweep.
type SweepEnv struct {
	// Config exposes the pipeline's resolved collection knobs —
	// parallelism, retry policy, error budgets, clock, profile byte
	// limit — so every profile origin honours them uniformly.
	Config *Config
	// Emit folds one successfully collected instance snapshot into the
	// sweep; safe for concurrent use.
	Emit func(*gprofile.Snapshot)
	// Fail records one instance's collection failure; safe for
	// concurrent use. A source hands each instance's
	// gprofile.ScanSnapshot verdict on, reporting its error through
	// Fail and emitting its snapshot through Emit, whichever are set.
	// Every instance a sweep attempts thus reaches exactly one of them,
	// except a salvaged profile (an error wrapping
	// gprofile.ErrSalvaged, with the snapshot of its remaining members),
	// which reaches both and counts in Profiles and Errors.
	Fail func(service, instance string, err error)
	// SetTime overrides the sweep's timestamp. Sources replaying
	// recorded data (an archive with a manifest) call it — before
	// emitting — so cross-sweep consumers like trend tracking see the
	// original collection time, not the replay time. Nil-safe to skip;
	// live sources never call it.
	SetTime func(at time.Time)
	// MergeReport folds one report into the sweep — a shard worker's,
	// or an ingest window's admission failures with no moments: its
	// moments merge into the aggregator (profiled-instance denominators
	// included) and its error accounting — Errors, FailedByService, the
	// capped failure detail — adds to the sweep's, so neither source
	// needs private engine hooks. Safe for concurrent use with Emit/Fail.
	MergeReport func(*ShardReport)

	// prevFailures carries the previous sweep's journaled per-service
	// failure counts into this sweep's error budget (set by the engine
	// when a state store is attached).
	prevFailures map[string]int
}

// PrevFailures returns the previous sweep's journaled per-service failure
// counts, nil when the pipeline has no state store (or no history). A
// coordinator hands these to its shard workers so per-shard error budgets
// are seeded from the global journal, not per-shard state.
func (env *SweepEnv) PrevFailures() map[string]int { return env.prevFailures }

// Source is one origin of goroutine-profile snapshots: an HTTP fleet, an
// on-disk archive, a simulated fleet, a synthetic dump. A Source streams
// one collection pass per Sweep call — it must never buffer the whole
// sweep — and may call Emit/Fail from concurrent workers. The returned
// error is for failures of the sweep as a whole (an unlistable archive
// directory); per-instance failures go through Fail.
type Source interface {
	// Name identifies the source kind in sweep results and logs.
	Name() string
	// Sweep performs one collection pass.
	Sweep(ctx context.Context, env *SweepEnv) error
}

// StaticEndpoints returns a Source collecting over HTTP from a fixed
// fleet; a caller whose deployments churn builds a new one per sweep.
// Fetches honour the pipeline's parallelism, timeout, retry policy, and
// per-service error budget, and each response body streams straight
// through the stack scanner — this is the production collection path.
func StaticEndpoints(eps ...Endpoint) Source {
	return endpointSource(eps)
}

type endpointSource []Endpoint

func (endpointSource) Name() string { return "endpoints" }

func (eps endpointSource) Sweep(ctx context.Context, env *SweepEnv) error {
	fetchFleet(ctx, env.Config, env.prevFailures, eps, func(i int, snap *gprofile.Snapshot, err error) {
		if err != nil {
			env.Fail(eps[i].Service, eps[i].Instance, err)
		}
		if snap != nil {
			env.Emit(snap)
		}
	})
	return ctx.Err()
}

// Archive returns a Source replaying one recorded sweep: a directory in
// the <service>_<instance>.txt layout gprofile.DirWriter writes, such as
// one sweep-NNNN subdirectory of an ArchiveSink. Files stream through
// the scanner one at a time, and each file's verdict is handed on as
// the live sources hand theirs (gprofile.ScanDir): a corrupt member
// fails on its own without aborting the replay. When the directory
// carries a manifest (every ArchiveSink finalisation writes one), the
// sweep replays at its recorded timestamp, so trend verdicts over
// replayed history match the verdicts the original sweeps produced. To
// replay a whole ArchiveSink base directory, use Pipeline.Replay, which
// runs one timestamped sweep per recorded sweep.
func Archive(dir string) Source {
	return archiveSource{dir: dir}
}

type archiveSource struct {
	dir string
}

func (archiveSource) Name() string { return "archive" }

func (s archiveSource) Sweep(ctx context.Context, env *SweepEnv) error {
	if env.SetTime != nil {
		// A readable manifest pins the sweep's time before anything is
		// emitted; a corrupt one is reported by ScanDir below.
		if m, err := gprofile.ReadManifest(s.dir); err == nil && m != nil && !m.SweepAt.IsZero() {
			env.SetTime(m.SweepAt)
		}
	}
	return gprofile.ScanDir(ctx, s.dir, env.Config.now(),
		func(snap *gprofile.Snapshot) { env.Emit(snap) },
		func(name string, err error) { env.Fail("archive", name, err) })
}

// FromSnapshots returns a Source over already-materialised snapshots
// (simulations, tests, archived sweeps loaded elsewhere).
func FromSnapshots(snaps []*gprofile.Snapshot) Source {
	return snapshotSource(snaps)
}

type snapshotSource []*gprofile.Snapshot

func (snapshotSource) Name() string { return "snapshots" }

func (s snapshotSource) Sweep(ctx context.Context, env *SweepEnv) error {
	for _, snap := range s {
		if err := ctx.Err(); err != nil {
			return err
		}
		env.Emit(snap)
	}
	return nil
}

// Dump names one raw debug=2 profile body to scan — the synth-dump
// origin for pipeline benchmarks and offline analysis of dumps captured
// out of band.
type Dump struct {
	Service  string
	Instance string
	Body     io.Reader
}

// Dumps returns a Source scanning raw profile bodies through the same
// streaming scanner the HTTP path uses.
func Dumps(dumps ...Dump) Source {
	return dumpSource(dumps)
}

type dumpSource []Dump

func (dumpSource) Name() string { return "dumps" }

func (s dumpSource) Sweep(ctx context.Context, env *SweepEnv) error {
	for _, d := range s {
		if err := ctx.Err(); err != nil {
			return err
		}
		snap, err := gprofile.ScanSnapshot(d.Service, d.Instance, env.Config.now(), d.Body)
		if err != nil {
			env.Fail(d.Service, d.Instance, err)
		}
		if snap != nil {
			env.Emit(snap)
		}
	}
	return nil
}
