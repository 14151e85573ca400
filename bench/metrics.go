package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are what a user of the system sees; every workload reports
// every one of them on an untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p75", "ms", "lower"},
	{"alert_ms.p50", "ms", "lower"},
	{"cpu_ms_per_dump", "ms", "lower"},
	{"rss_mb.mean", "MB", "lower"},
}

// layerMetrics come from a traced run; a layer a workload bypasses
// reports 0.
var layerMetrics = []metricDef{
	{"gen.lag_ms.p99", "ms", "lower"},
	{"gen.serve_us.p50", "us", "lower"},
	{"fetch.ttfb_ms.p50", "ms", "lower"},
	{"fetch.inflight.mean", "count", "higher"},
	{"scan.self_ms.p50", "ms", "lower"},
	{"scan.self_ms.p90", "ms", "lower"},
	{"scan.body_wait_ms.p50", "ms", "lower"},
	{"scan.mb_per_s", "MB/s", "higher"},
	{"fold.us.p50", "us", "lower"},
	{"fold.count", "count", "higher"},
	{"close.findings_ms.p50", "ms", "lower"},
	{"sink.report_ms.p50", "ms", "lower"},
	{"sink.trend_ms.p50", "ms", "lower"},
	{"state.record_ms.p50", "ms", "lower"},
	{"state.record_ms.p90", "ms", "lower"},
	{"state.journal_kb_per_sweep", "KB", "lower"},
	{"state.segments.max", "count", "lower"},
	{"state.recover_ms", "ms", "lower"},
	{"ingest.handler_us.p50", "us", "lower"},
	{"ingest.handler_us.p99", "us", "lower"},
	{"ingest.body_wait_us.p50", "us", "lower"},
	{"ingest.admit_self_us.p50", "us", "lower"},
	{"ingest.backlog.max", "count", "lower"},
	{"ingest.window_pause_us.mean", "us", "lower"},
	{"ingest.snapshots_per_window.p50", "count", "higher"},
	{"shard.worker_sweep_ms.p50", "ms", "lower"},
	{"shard.skew_ms.p50", "ms", "lower"},
	{"wire.post_ms.p50", "ms", "lower"},
	{"wire.report_kb.p50", "KB", "lower"},
	{"wire.inbox_us.p50", "us", "lower"},
	{"shard.merge_ms.p50", "ms", "lower"},
	{"sut.alloc_mb_per_dump", "MB", "lower"},
	{"sut.gc_cycles", "count", "lower"},
	{"sut.gc_cpu_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.coverage_frac", "frac", "higher"},
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Checks    []check            `json:"checks"`
	Digests   map[int]string     `json:"digests,omitempty"` // pull: findings digest per day
}

func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{name, ok, detail})
}

// quantile is the q-quantile of xs by linear interpolation; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// e2e computes the end-to-end metrics of an untraced run (or of the
// untraced half of a traced one).
func (r *runState) e2e(lat []float64, alert []float64, f *finalMsg) {
	m := r.res.Metrics
	raw := map[string]float64{
		"latency_ms.p50": median(lat),
		"latency_ms.p75": quantile(lat, 0.75),
		"latency_ms.p99": quantile(lat, 0.99),
		"alert_ms.p50":   median(alert),
	}
	if f.Dumps > 0 {
		raw["cpu_ms_per_dump"] = f.CPUms / float64(f.Dumps)
	}
	// Times scale by the mean probe time of the phase they were measured
	// in (see probe.go); memory does not.
	setupProbe, setupN := r.pr.mean(r.setupFrom, r.setupTo)
	probeMS, probeN := r.pr.mean(r.measureFrom, r.measureTo)
	m["probe_ms"], m["probe_ms.setup"] = probeMS, setupProbe
	scale := func(name string, v, by float64) {
		m["raw."+name] = v
		if by > 0 {
			m[name] = v * probeNominalMS / by
		}
	}
	scale("setup_s", median(r.setups), setupProbe)
	for name, v := range raw {
		scale(name, v, probeMS)
	}
	// The resident set swings twofold around each journal compaction; its
	// median jumps with where the samples fall, its mean does not.
	var rss float64
	for _, x := range r.p.rss {
		rss += x
	}
	m["rss_mb.mean"] = rss / float64(len(r.p.rss))
	r.res.Samples["latency"] = len(lat)
	r.res.Samples["alert"] = len(alert)
	r.res.Samples["setup"] = len(r.setups)
	r.res.Samples["probe"] = probeN
	r.res.Samples["probe.setup"] = setupN
	for _, d := range e2eMetrics {
		if m[d.name] <= 0 {
			r.res.check("metric "+d.name+" measured", false, "no samples")
		}
	}
}

// perLayer merges the SUT's and the generator's spans into trace.jsonl and
// derives the per-layer metrics from them.
func (r *runState) perLayer(f *finalMsg, untraced, traced []float64) error {
	spans, err := readSpans(r.sut.spans)
	if err != nil {
		return fmt.Errorf("reading SUT spans: %w", err)
	}
	r.drv.mu.Lock()
	spans = append(spans, r.drv.spans...)
	serve := append([]float64(nil), r.drv.serve...)
	r.drv.mu.Unlock()
	out := filepath.Join(r.o.root, r.w.name, "trace.jsonl")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := writeSpans(out, spans); err != nil {
		return err
	}
	r.trace = out

	by := map[string][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	durMS := func(name string) []float64 {
		var xs []float64
		for _, s := range by[name] {
			xs = append(xs, float64(s.dur())/1e6)
		}
		return xs
	}
	m := r.res.Metrics
	for _, d := range layerMetrics {
		m[d.name] = 0 // a layer the workload bypasses reports 0
	}
	m["gen.lag_ms.p99"] = quantile(r.drv.genLag, 0.99)
	m["gen.serve_us.p50"] = median(serve)
	m["fetch.ttfb_ms.p50"] = median(durMS("fetch"))

	var busy, sweepNS float64
	for _, s := range append(by["fetch"], by["scan"]...) {
		busy += float64(s.dur())
	}
	for _, s := range by["sweep"] {
		sweepNS += float64(s.dur())
	}
	if sweepNS > 0 {
		m["fetch.inflight.mean"] = busy / sweepNS
	}

	// A pull scan is the span from response headers to body close; an
	// ingest scan is the admission handler. Either way its self time
	// excludes the time its reads waited for bytes.
	scans := by["scan"]
	if len(scans) == 0 {
		scans = by["ingest.handler"]
	}
	var self, wait []float64
	var bytes, selfNS float64
	for _, s := range scans {
		self = append(self, float64(s.dur()-s.Wait)/1e6)
		wait = append(wait, float64(s.Wait)/1e6)
		bytes += float64(s.Bytes)
		selfNS += float64(s.dur() - s.Wait)
	}
	m["scan.self_ms.p50"] = median(self)
	m["scan.self_ms.p90"] = quantile(self, 0.9)
	m["scan.body_wait_ms.p50"] = median(wait)
	if selfNS > 0 {
		m["scan.mb_per_s"] = bytes / 1e6 / (selfNS / 1e9)
	}

	var foldUS []float64
	for _, x := range durMS("fold") {
		foldUS = append(foldUS, x*1e3)
	}
	m["fold.us.p50"] = median(foldUS)
	m["fold.count"] = float64(len(foldUS))
	m["close.findings_ms.p50"] = median(durMS("close.findings"))
	m["sink.report_ms.p50"] = median(durMS("sink.report"))
	m["sink.trend_ms.p50"] = median(durMS("sink.trend"))
	rec := durMS("state.record")
	m["state.record_ms.p50"] = median(rec)
	m["state.record_ms.p90"] = quantile(rec, 0.9)
	if len(rec) > 0 {
		m["state.journal_kb_per_sweep"] = f.JournalKB / float64(len(rec))
	}
	m["state.segments.max"] = float64(f.SegmentsMax)
	m["state.recover_ms"] = r.ready.RecoverMS

	var handler, hwait, hself []float64
	for _, s := range by["ingest.handler"] {
		handler = append(handler, float64(s.dur())/1e3)
		hwait = append(hwait, float64(s.Wait)/1e3)
		hself = append(hself, float64(s.dur()-s.Wait)/1e3)
	}
	m["ingest.handler_us.p50"] = median(handler)
	m["ingest.handler_us.p99"] = quantile(handler, 0.99)
	m["ingest.body_wait_us.p50"] = median(hwait)
	m["ingest.admit_self_us.p50"] = median(hself)
	if st := f.Ingest; st != nil {
		m["ingest.backlog.max"] = float64(f.BacklogMax)
		if st.Windows > 0 {
			m["ingest.window_pause_us.mean"] = float64(st.WindowPause.Microseconds()) / float64(st.Windows)
		}
		var per []float64
		for _, w := range f.Windows {
			if !w.Draining {
				per = append(per, float64(w.Profiles))
			}
		}
		m["ingest.snapshots_per_window.p50"] = median(per)
	}

	workers := map[int64][]float64{}
	for _, s := range by["shard.worker"] {
		workers[s.ID] = append(workers[s.ID], float64(s.dur())/1e6)
	}
	var skew []float64
	for _, ws := range workers {
		if len(ws) == 2 {
			skew = append(skew, math.Abs(ws[0]-ws[1]))
		}
	}
	m["shard.worker_sweep_ms.p50"] = median(durMS("shard.worker"))
	m["shard.skew_ms.p50"] = median(skew)
	m["wire.post_ms.p50"] = median(durMS("wire.post"))
	var reportKB, inboxUS []float64
	for _, s := range by["wire.inbox"] {
		reportKB = append(reportKB, float64(s.Bytes)/1024)
		inboxUS = append(inboxUS, float64(s.dur())/1e3)
	}
	m["wire.report_kb.p50"] = median(reportKB)
	m["wire.inbox_us.p50"] = median(inboxUS)
	merge := map[int64]float64{}
	for _, s := range by["merge"] {
		merge[s.ID] += float64(s.dur()) / 1e6
	}
	var merges []float64
	for _, x := range merge {
		merges = append(merges, x)
	}
	m["shard.merge_ms.p50"] = median(merges)

	if f.Dumps > 0 {
		m["sut.alloc_mb_per_dump"] = f.Runtime.AllocBytes / 1e6 / float64(f.Dumps)
	}
	m["sut.gc_cycles"] = f.Runtime.GCCycles
	m["sut.gc_cpu_frac"] = f.Runtime.GCCPUFrac
	if u := median(untraced); u > 0 {
		m["trace.overhead_frac"] = median(traced)/u - 1
	}
	cov := coverage(spans)
	m["trace.coverage_frac"] = cov
	r.res.check("trace covers every sweep and window close (coverage >= 0.9)", cov >= 0.9, fmt.Sprintf("min %.3f", cov))
	r.layers = selfTimes(spans)
	return nil
}

// children returns the spans whose parent is s: named by Parent, of the
// same sweep, inside s's interval.
func children(s span, index map[string][]span) []span {
	var out []span
	for _, c := range index[fmt.Sprintf("%d/%s", s.ID, s.Name)] {
		if c.Start >= s.Start && c.End <= s.End {
			out = append(out, c)
		}
	}
	return out
}

func childIndex(spans []span) map[string][]span {
	index := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := fmt.Sprintf("%d/%s", s.ID, s.Parent)
			index[k] = append(index[k], s)
		}
	}
	return index
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for _, s := range spans {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

// coverage is the smallest share of any sweep or window close that its
// child spans account for.
func coverage(spans []span) float64 {
	index := childIndex(spans)
	min := 1.0
	seen := false
	for _, s := range spans {
		if (s.Name != "sweep" && s.Name != "window.close") || s.dur() <= 0 {
			continue
		}
		seen = true
		if c := float64(covered(children(s, index))) / float64(s.dur()); c < min {
			min = c
		}
	}
	if !seen {
		return 0
	}
	return min
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name            string
	n               int
	totalMS, selfMS float64
}

// selfTimes totals each span name's time and its self time: its
// duration less the time its reads waited and its children covered.
func selfTimes(spans []span) []layerRow {
	index := childIndex(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.totalMS += float64(s.dur()) / 1e6
		r.selfMS += float64(s.dur()-s.Wait-covered(children(s, index))) / 1e6
	}
	var out []layerRow
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMS > out[j].selfMS })
	return out
}

func printLayers(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "%s self time by layer:\n", workload)
	fmt.Fprintf(w, "  %-16s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %8d %12.1f %12.1f\n", r.name, r.n, r.totalMS, r.selfMS)
	}
}
