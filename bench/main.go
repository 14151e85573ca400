package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one traffic mix; doc.go says why each exists.
type workload struct {
	name, mode string // mode: pull, shard or ingest

	pull   pullShape
	steady *steadyShape
	wide   *wideShape
	rate   float64 // ingest arrivals per second
	window time.Duration

	topN, parallelism int
	seedKeys          int   // keys in the pre-seeded journal
	segBytes          int64 // journal compaction thresholds (0: defaults)
	segMax            int
}

// threshold is the per-instance bound the SUT flags at, the one the
// generator planted its leaks and hard negatives around.
func (w workload) threshold() int {
	switch {
	case w.steady != nil:
		return w.steady.threshold
	case w.wide != nil:
		return wideThreshold
	}
	return w.pull.threshold
}

func (w workload) services() int {
	switch {
	case w.steady != nil:
		return w.steady.services
	case w.wide != nil:
		return w.wide.services
	}
	return w.pull.services
}

var dailyFleet = pullShape{services: 64, instances: 4, leaky: 16, negatives: 8, benign: 300,
	threshold: 1500, deployEvery: 8, growthMin: 600, growthMax: 1800}

var workloads = []workload{
	{name: "pull-daily", mode: "pull", pull: dailyFleet, topN: 32, parallelism: 2, seedKeys: 20000},
	{name: "pull-sharded", mode: "shard", pull: dailyFleet, topN: 32, parallelism: 1, seedKeys: 20000},
	{name: "ingest-steady", mode: "ingest", rate: 120, window: 50 * time.Millisecond, topN: 10, seedKeys: 20000,
		steady: &steadyShape{services: 64, instances: 8, leaky: 8, negatives: 8, benign: 900, threshold: 300}},
	{name: "ingest-wide", mode: "ingest", rate: 80, window: 125 * time.Millisecond, topN: 1 << 20,
		seedKeys: 20000, segBytes: 512 << 10, segMax: 4,
		wide: &wideShape{services: 64, instances: 4, bodiesPerService: 4, sites: 4096, perDump: 40, minFindings: 300, minFolds: 3}},
}

// runOpts are the settings of one invocation.
type runOpts struct {
	seed      int64
	seconds   float64
	trace     bool
	setups    int    // SUT starts per run; set-up time is their median
	maxCycles int    // pull: deploy cycles per phase (0: as many as fit)
	root      string // where runs and traces are written
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-role=sut" {
		if err := sutMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "sut:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("leakbench", flag.ContinueOnError)
	names := fs.String("workload", "all", "workload to run: a name, a comma-separated list, or all")
	fs.StringVar(names, "workloads", "all", "same as -workload")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 30, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append each run's full result as a JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files: leakbench -compare a.json b.json")
	benchJSON := fs.String("bench-json", "BENCHMARK.json", "with -compare: file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: leakbench -compare a.json b.json")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), *benchJSON, stdout)
	}
	selected, err := selectWorkloads(*names)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "leakbench: bad arguments:", err)
		return 2
	}
	o := runOpts{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, setups: 7, root: ".bench_build"}
	code := 0
	for _, w := range selected {
		r, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakbench: %s: %v\n", w.name, err)
			return 1
		}
		printRun(stdout, r)
		if *out != "" {
			if err := appendResult(*out, r.res); err != nil {
				fmt.Fprintln(os.Stderr, "leakbench:", err)
				return 1
			}
		}
		if !r.res.Correct {
			code = 1
		}
	}
	return code
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == strings.TrimSpace(n) {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// runWorkload runs one workload end to end in a working directory under
// o.root, removed afterwards.
func runWorkload(w workload, o runOpts) (*runState, error) {
	dir, err := filepath.Abs(filepath.Join(o.root, "runs", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runState{w: w, o: o, dir: dir, res: &result{Workload: w.name, Seed: o.seed, Trace: o.trace,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Digests: map[int]string{}}}
	r.sut = sutConfig{mode: w.mode, threshold: w.threshold(), topN: w.topN, parallelism: w.parallelism,
		window: w.window, segBytes: w.segBytes, segMax: w.segMax, traced: o.trace, spans: filepath.Join(dir, "sut-spans.jsonl")}
	if w.mode == "ingest" {
		err = r.runIngest()
	} else {
		err = r.runPull()
	}
	if r.p != nil {
		r.p.kill()
	}
	if err != nil {
		return nil, err
	}
	r.res.Correct = true
	for _, c := range r.res.Checks {
		r.res.Correct = r.res.Correct && c.OK
	}
	return r, nil
}

// printRun prints a run: its checks, each metric as "workload metric value
// unit", the self-time table of a traced run, and last the one-line JSON
// summary.
func printRun(w io.Writer, r *runState) {
	res := r.res
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s %s\n", status, c.Name, c.Detail)
	}
	defs := e2eMetrics
	if res.Trace {
		printLayers(w, res.Workload, r.layers)
		fmt.Fprintf(w, "trace written to %s\n", r.trace)
		defs = append(append([]metricDef(nil), e2eMetrics...), layerMetrics...)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %.6g %s", res.Workload, d.name, res.Metrics[d.name], d.unit)
		if raw, ok := res.Metrics["raw."+d.name]; ok {
			fmt.Fprintf(w, " (raw %.6g)", raw)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s latency_ms.p99 %.6g ms (raw %.6g; reported only: its run-to-run spread is wider than any bound)\n",
		res.Workload, res.Metrics["latency_ms.p99"], res.Metrics["raw.latency_ms.p99"])
	fmt.Fprintf(w, "%s probe_ms %.4g ms, %.4g ms in set-up (times above are scaled to a %g ms probe)\n",
		res.Workload, res.Metrics["probe_ms"], res.Metrics["probe_ms.setup"], probeNominalMS)
	fmt.Fprintf(w, "%s samples: %d latency, %d alert, %d setup, %d probe, %d set-up probe\n", res.Workload,
		res.Samples["latency"], res.Samples["alert"], res.Samples["setup"], res.Samples["probe"], res.Samples["probe.setup"])
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	defs = e2eMetrics
	if res.Trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		summary.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, _ := json.Marshal(summary)
	fmt.Fprintf(w, "%s\n", b)
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, _ := json.Marshal(res)
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
