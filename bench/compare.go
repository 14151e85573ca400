package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Comparing two sets of runs, each an -out file of result lines: for
// every workload and end-to-end metric, each side's median and quartiles,
// the share of run pairs the second side wins, and a verdict against the
// metric's bound in BENCHMARK.json.

// loadResults reads an -out file, grouping untraced runs by workload.
func loadResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4), the "exclusive"
// method, so the spreads printed here match the ones the benchmark's
// acceptance computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies the rule for calling a change: better only when the
// second side wins nine tenths of the pairs and its median moved by more
// than the first side's interquartile range; unresolved when either
// side's spread exceeds the bound (unless every second-side run beats
// every first-side run); worse when the median worsened by more than the
// bound; otherwise within bound.
func verdict(a, b []float64, lowerBetter bool, bound float64) (winFrac float64, v string) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs, wins := len(a), 0
	if len(b) < pairs {
		pairs = len(b)
	}
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		winFrac = float64(wins) / float64(pairs)
	}
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	change := (bm - am) / am
	if !lowerBetter {
		change = -change
	}
	switch {
	case winFrac >= 0.9 && better(bm, am) && math.Abs(bm-am) > a3-a1:
		return winFrac, "better"
	case (a3-a1)/am > bound || (b3-b1)/bm > bound:
		if allBetter {
			return winFrac, "better"
		}
		return winFrac, "unresolved"
	case change > bound:
		return winFrac, "worse"
	}
	return winFrac, "within bound"
}

// compareMain prints the comparison and returns 1 when any metric is
// worse or unresolved.
func compareMain(pathA, pathB, benchJSON string, w io.Writer) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b map[string][]*result
		if b, err = loadResults(pathB); err == nil {
			var bounds map[string]float64
			if bounds, err = loadBounds(benchJSON); err == nil {
				return printComparison(w, a, b, bounds)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "leakbench:", err)
	return 2
}

func printComparison(w io.Writer, a, b map[string][]*result, bounds map[string]float64) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %-28s %-28s %5s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B win", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range e2eMetrics {
			va, vb := values(ra, d.name), values(rb, d.name)
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			win, v := verdict(va, vb, d.better == "lower", bounds[d.name])
			if v == "worse" || v == "unresolved" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %-28s %-28s %5.2f  %s (bound %.0f%%)\n", wl.name, d.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", am, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", bm, b1, b3),
				win, v, bounds[d.name]*100)
		}
	}
	return code
}

func values(rs []*result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name]
	}
	return out
}
