package main

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary double as the SUT: the generator re-executes
// its own binary with -role=sut.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role=sut" {
		if err := sutMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "sut:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at toy scale through the real generator/SUT
// process split, traced, so one run yields both the end-to-end and the
// per-layer metrics, and requires every check to pass and every metric to
// be reported.
func TestSmoke(t *testing.T) {
	start := time.Now()
	o := runOpts{seed: 7, seconds: 2, trace: true, setups: 2, maxCycles: 1, root: t.TempDir()}
	digests := map[string]map[int]string{}
	for _, w := range workloads {
		r, err := runWorkload(smoke(w), o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, c := range r.res.Checks {
			if !c.OK {
				t.Errorf("%s: check failed: %s %s", w.name, c.Name, c.Detail)
			}
		}
		for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
			if _, ok := r.res.Metrics[d.name]; !ok {
				t.Errorf("%s: metric %s missing", w.name, d.name)
			}
		}
		for _, d := range e2eMetrics {
			if r.res.Metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, r.res.Metrics[d.name])
			}
		}
		if w.mode != "ingest" {
			digests[w.name] = r.res.Digests
		}
	}
	// Sharding must not change answers: the sharded sweep of each day
	// files exactly the single-process sweep's findings.
	daily, sharded := digests["pull-daily"], digests["pull-sharded"]
	if len(daily) == 0 || len(daily) != len(sharded) {
		t.Fatalf("swept %d days single-process, %d sharded", len(daily), len(sharded))
	}
	for day, d := range daily {
		if sharded[day] != d {
			t.Errorf("day %d: sharded findings digest %s, single-process %s", day, sharded[day], d)
		}
	}
	t.Logf("smoke run of %d workloads took %v", len(workloads), time.Since(start))
}

// smoke shrinks a workload to seconds-long scale for the smoke test.
func smoke(w workload) workload {
	w.seedKeys = 500
	switch {
	case w.steady != nil:
		s := *w.steady
		s.services, s.instances, s.leaky, s.negatives, s.benign = 4, 2, 1, 1, 50
		w.steady, w.rate, w.window = &s, 60, 50*time.Millisecond
	case w.wide != nil:
		s := *w.wide
		// A compaction's timing depends on the box (and on -race), so the
		// toy run only requires the windows' shape, not a fold count.
		s.services, s.bodiesPerService, s.sites, s.perDump, s.minFindings, s.minFolds = 4, 2, 256, 20, 10, 0
		w.wide, w.rate, w.window, w.segBytes, w.segMax = &s, 60, 50*time.Millisecond, 2<<10, 2
	default:
		// Two days per deploy cycle; the threshold sits where the slowest
		// hot instance crosses it on the cycle's second day.
		w.pull = pullShape{services: 4, instances: 2, leaky: 2, negatives: 1, benign: 50,
			threshold: 400, deployEvery: 2, growthMin: 600, growthMax: 1800}
	}
	return w
}
