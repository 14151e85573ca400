// Fleetmonitor: the full LEAKPROF pipeline end to end, over real HTTP —
// including the durability layer a production daily sweep depends on.
//
// The program stands up a small simulated fleet — three services, a few
// instances each, one carrying a timeout-leak defect and one a congested-
// but-healthy worker pool — and then runs the production pipeline exactly
// as Section V describes, through the unified Pipeline API: collect
// goroutine profiles from every instance over the network (with bounded
// retry), group blocked goroutines by operation and source location,
// apply the concentration threshold, rank the survivors by RMS impact
// across the fleet, and fan the sweep out to concurrent sinks — the
// alerting reporter, the cross-sweep trend tracker, and a timestamped
// archive.
//
// The sweeps run against a durable StateStore: after the first sweep the
// program rebuilds the pipeline from the same state directory — a
// simulated process restart — and the next-day sweep still deduplicates
// against the bug DB and resumes the trend history, because both were
// journaled to disk rather than held in memory.
//
// Run:
//
//	go run ./examples/fleetmonitor
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/patterns"
	"repro/internal/report"
	"repro/leakprof"
)

func main() {
	configs := []fleet.ServiceConfig{
		{
			// The defective service: a handler leaks senders when
			// request contexts expire (Listing 8).
			Name: "payments", Instances: 4,
			Pattern:  patterns.TimeoutLeak,
			LeakFile: "services/payments/handler.go", LeakLine: 58,
			LeakPerDay: 900, LeakStartDay: 1, FixDay: -1,
			DeployEveryDays: 1000, BenignGoroutines: 25, Seed: 1,
		},
		{
			// A busy but healthy service: its blocked population stays
			// under the threshold, so no alert fires.
			Name: "search", Instances: 3,
			Pattern:  patterns.ContractOutsideLoop,
			LeakFile: "services/search/pool.go", LeakLine: 12,
			LeakPerDay: 40, LeakStartDay: 1, FixDay: -1,
			DeployEveryDays: 1000, BenignGoroutines: 25, Seed: 2,
		},
		{
			// A clean service.
			Name: "profiles", Instances: 3,
			BenignGoroutines: 25, Seed: 3,
		},
	}
	f := fleet.New(time.Now(), configs)
	for day := 0; day < 3; day++ {
		f.AdvanceDay()
	}

	endpoints, shutdown := f.Serve()
	defer shutdown()
	fmt.Printf("fleet live: %d instances across %d services\n", len(endpoints), len(configs))

	stateDir, err := os.MkdirTemp("", "fleetmonitor-state-")
	if err != nil {
		fmt.Println("state dir:", err)
		return
	}
	defer os.RemoveAll(stateDir)

	// Day one: a fresh pipeline wired to the durable state store. The
	// report and trend sinks share the store's journal-backed bug DB and
	// tracker, so everything they learn survives this process.
	src := leakprof.StaticEndpoints(endpoints...)
	pipe, reportSink, err := buildPipeline(stateDir)
	if err != nil {
		fmt.Println("pipeline:", err)
		return
	}
	sweep, err := pipe.Sweep(context.Background(), src)
	if err != nil {
		fmt.Println("sweep error:", err)
	}
	fmt.Printf("collected %d goroutine profiles over HTTP\n", sweep.Profiles)
	fmt.Printf("suspicious blocked operations: %d\n", len(sweep.Findings))
	for _, alert := range reportSink.LastAlerts() {
		fmt.Println()
		fmt.Print(alert.Render())
	}

	// "Restart": throw the pipeline away and rebuild everything from the
	// state directory, exactly as a redeployed monitor would at startup.
	pipe, reportSink, err = buildPipeline(stateDir)
	if err != nil {
		fmt.Println("pipeline:", err)
		return
	}
	store, _ := pipe.State()
	if last := store.LastSweep(); last != nil {
		fmt.Printf("\nrestarted from %s: journal records a %s sweep of %d profiles\n",
			stateDir, last.Source, last.Profiles)
	}

	// Day two, post-restart: the defect deduplicates against the
	// journaled bug DB instead of re-alerting, and the trend tracker —
	// resumed with day one's moments — now has enough history to call
	// the growing leak.
	f.AdvanceDay()
	if _, err := pipe.Sweep(context.Background(), src); err != nil {
		fmt.Println("sweep error:", err)
	}
	fmt.Printf("next-day sweep after restart: %d new alerts (existing defect deduplicated via journal)\n",
		len(reportSink.LastAlerts()))
	for _, key := range store.Tracker().Growing() {
		fmt.Printf("trend: growing across sweeps (history spans the restart): %q\n", key)
	}
}

// buildPipeline constructs the monitor's pipeline from the durable state
// directory: the startup path, shared by first boot and restart.
func buildPipeline(stateDir string) (*leakprof.Pipeline, *leakprof.ReportSink, error) {
	pipe := leakprof.New(
		leakprof.WithThreshold(2000),
		leakprof.WithParallelism(8),
		leakprof.WithRetry(leakprof.DefaultRetryPolicy),
		leakprof.WithStateDir(stateDir),
	)
	store, err := pipe.State()
	if err != nil {
		return nil, nil, err
	}
	owners := report.NewOwnership(map[string]string{
		"services/payments/": "payments-oncall",
		"services/search/":   "search-oncall",
	})
	store.Tracker().MinObservations = 2
	reportSink := &leakprof.ReportSink{
		Reporter: &leakprof.Reporter{DB: store.BugDB(), Owners: owners, TopN: 5},
	}
	pipe.AddSinks(reportSink, &leakprof.TrendSink{Tracker: store.Tracker()})
	return pipe, reportSink, nil
}
