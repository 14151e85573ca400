package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/leakprof"
)

// The system under test: a separate process the generator starts with
// -role=sut. It wires leakprof's public API the way cmd/leakprof's
// -endpoints, -shard/-merge-reports and -ingest modes do, reports ready
// once its journal is recovered and its listener bound, then takes
// commands on stdin and answers with JSON lines on stdout.

// sutCmd is one generator command.
type sutCmd struct {
	Cmd string `json:"cmd"` // "sweep", "trace" or "stop"
	Day int    `json:"day,omitempty"`
	On  bool   `json:"on,omitempty"`
}

// sutMsg is one SUT reply; exactly one field is set.
type sutMsg struct {
	Ready *readyMsg `json:"ready,omitempty"`
	Sweep *sweepMsg `json:"sweep,omitempty"`
	Final *finalMsg `json:"final,omitempty"`
	OK    bool      `json:"ok,omitempty"`
}

type readyMsg struct {
	Addr      string  `json:"addr"`
	RecoverMS float64 `json:"recover_ms"`
}

// sweepMsg reports one pull sweep.
type sweepMsg struct {
	Day      int      `json:"day"`
	MS       float64  `json:"ms"`       // pipe.Sweep call to return
	AlertMS  float64  `json:"alert_ms"` // collection end to OnSweep
	Profiles int      `json:"profiles"`
	Errors   int      `json:"errors"`
	Digest   string   `json:"digest"`
	Alerts   []string `json:"alerts,omitempty"`
}

// windowMsg reports one closed ingest window.
type windowMsg struct {
	At       int64   `json:"at"`
	CloseMS  float64 `json:"close_ms"` // OnSweep minus (At + window)
	Profiles int     `json:"profiles"`
	Findings int     `json:"findings"`
	Errors   int     `json:"errors"`
	Draining bool    `json:"draining,omitempty"`
}

// finalMsg is the SUT's closing report.
type finalMsg struct {
	CPUms       float64               `json:"cpu_ms"` // user+sys since ready
	Dumps       int                   `json:"dumps"`  // profiles swept or dumps folded
	Windows     []windowMsg           `json:"windows,omitempty"`
	Keys        keySet                `json:"keys"`
	Ingest      *leakprof.IngestStats `json:"ingest,omitempty"`
	SegmentsMax int                   `json:"segments_max"`
	Folds       int                   `json:"folds"`      // journal compactions completed
	JournalKB   float64               `json:"journal_kb"` // bytes the journal grew by, summed over sweeps
	Sweeps      int                   `json:"sweeps"`
	BacklogMax  int                   `json:"backlog_max"`
	Runtime     runtimeDelta          `json:"runtime"`
	Err         string                `json:"err,omitempty"`
}

// sutConfig is what the generator passes on the SUT's command line.
type sutConfig struct {
	mode        string // pull, shard, ingest
	state       string
	endpoints   string // file of leakprof.Endpoint JSON (pull, shard)
	spans       string // trace.jsonl path (traced runs)
	threshold   int
	topN        int
	parallelism int
	window      time.Duration
	segBytes    int64
	segMax      int
	traced      bool
}

func (c sutConfig) args() []string {
	return []string{"-role=sut", "-mode=" + c.mode, "-state=" + c.state, "-endpoints=" + c.endpoints,
		"-spans=" + c.spans, fmt.Sprintf("-threshold=%d", c.threshold), fmt.Sprintf("-topn=%d", c.topN),
		fmt.Sprintf("-parallelism=%d", c.parallelism), "-window=" + c.window.String(),
		fmt.Sprintf("-seg-bytes=%d", c.segBytes), fmt.Sprintf("-seg-max=%d", c.segMax), fmt.Sprintf("-traced=%t", c.traced)}
}

func parseSUT(args []string) (sutConfig, error) {
	var c sutConfig
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	fs.String("role", "sut", "")
	fs.StringVar(&c.mode, "mode", "", "")
	fs.StringVar(&c.state, "state", "", "")
	fs.StringVar(&c.endpoints, "endpoints", "", "")
	fs.StringVar(&c.spans, "spans", "", "")
	fs.IntVar(&c.threshold, "threshold", 0, "")
	fs.IntVar(&c.topN, "topn", 0, "")
	fs.IntVar(&c.parallelism, "parallelism", 0, "")
	fs.DurationVar(&c.window, "window", 0, "")
	fs.Int64Var(&c.segBytes, "seg-bytes", 0, "")
	fs.IntVar(&c.segMax, "seg-max", 0, "")
	fs.BoolVar(&c.traced, "traced", false, "")
	return c, fs.Parse(args)
}

// sut is the running system under test.
type sut struct {
	cfg   sutConfig
	tr    *tracer
	out   *json.Encoder
	pipe  *leakprof.Pipeline
	store *leakprof.StateStore

	mu          sync.Mutex
	onSweepAt   int64
	keys        map[string]bool
	windows     []windowMsg
	draining    bool
	segmentsMax int
	segments    int
	folds       int
	journalKB   float64
	lastJournal int64
	sweeps      int
}

func sutMain(args []string) error {
	cfg, err := parseSUT(args)
	if err != nil {
		return err
	}
	s := &sut{cfg: cfg, out: json.NewEncoder(os.Stdout), keys: map[string]bool{}}
	if cfg.traced {
		s.tr = newTracer(cfg.window)
	}
	switch cfg.mode {
	case "pull", "shard":
		err = s.runPull()
	case "ingest":
		err = s.runIngest()
	default:
		err = fmt.Errorf("unknown SUT mode %q", cfg.mode)
	}
	if err == nil && s.tr != nil {
		err = s.tr.write(cfg.spans)
	}
	return err
}

// options is the pipeline wiring shared by every mode: cmd/leakprof's
// defaults with a durable journal synced every sweep.
func (s *sut) options(clock func() time.Time, client *http.Client) []leakprof.Option {
	c := s.cfg
	opts := []leakprof.Option{
		leakprof.WithThreshold(c.threshold),
		leakprof.WithRanking(leakprof.RankRMS),
		leakprof.WithTimeout(30 * time.Second),
		leakprof.WithParallelism(c.parallelism),
		leakprof.WithRetry(leakprof.RetryPolicy{MaxAttempts: 1}),
		leakprof.WithErrorBudget(0),
		leakprof.WithSharedIntern(0),
		leakprof.WithStateDir(c.state),
		leakprof.WithStateCompaction(c.segBytes, c.segMax),
		leakprof.WithStateSync(leakprof.SyncEverySweep),
		leakprof.WithOnSweep(s.onSweep),
	}
	if clock != nil {
		opts = append(opts, leakprof.WithClock(clock))
	}
	if client != nil {
		opts = append(opts, leakprof.WithHTTPClient(client))
	}
	if c.window > 0 {
		opts = append(opts, leakprof.WithWindow(c.window))
	}
	return opts
}

// open builds the pipeline, recovers the journal and wires the report and
// trend sinks to it; it returns the recovery time.
func (s *sut) open(opts []leakprof.Option, clock func() time.Time) (*leakprof.ReportSink, float64, error) {
	s.pipe = leakprof.New(opts...)
	start := time.Now()
	store, err := s.pipe.State()
	if err != nil {
		return nil, 0, err
	}
	recoverMS := ms(time.Since(start))
	s.store = store
	rs := &leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: store.BugDB(), TopN: s.cfg.topN, Now: clock}}
	ts := &leakprof.TrendSink{Tracker: store.Tracker()}
	if s.tr != nil {
		s.pipe.AddSinks(tracedSink{rs, "sink.report", s.tr}, tracedSink{ts, "sink.trend", s.tr})
	} else {
		s.pipe.AddSinks(rs, ts)
	}
	return rs, recoverMS, nil
}

// onSweep is the pipeline's WithOnSweep hook.
func (s *sut) onSweep(sw *leakprof.Sweep) {
	at := nowNS()
	s.tr.swept(sw, at)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSweepAt = at
	s.sweeps++
	// A compaction folds the live segments into one: the count drops.
	n := s.store.SegmentCount()
	if n < s.segments {
		s.folds++
	}
	s.segments = n
	if n > s.segmentsMax {
		s.segmentsMax = n
	}
	if s.tr.enabled() {
		if size := dirSize(s.store.Dir()); s.lastJournal > 0 && size > s.lastJournal {
			s.journalKB += float64(size-s.lastJournal) / 1024
			s.lastJournal = size
		} else {
			s.lastJournal = size
		}
	}
	if s.cfg.mode != "ingest" {
		return
	}
	for _, f := range sw.Findings {
		s.keys[f.Key()] = true
	}
	s.windows = append(s.windows, windowMsg{
		At: sw.At.UnixNano(), CloseMS: float64(at-sw.At.Add(s.cfg.window).UnixNano()) / 1e6,
		Profiles: sw.Profiles, Findings: len(sw.Findings), Errors: sw.Errors, Draining: s.draining,
	})
}

func dirSize(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// serve binds a loopback listener for h.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, ln.Addr().String(), nil
}

// commands yields the generator's commands; a closed stdin reads as stop.
func commands() <-chan sutCmd {
	ch := make(chan sutCmd)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			var c sutCmd
			if json.Unmarshal(sc.Bytes(), &c) == nil {
				ch <- c
				if c.Cmd == "stop" {
					return
				}
			}
		}
		ch <- sutCmd{Cmd: "stop"}
	}()
	return ch
}

func (s *sut) runPull() error {
	var day time.Time
	var dayMu sync.Mutex
	clock := func() time.Time {
		dayMu.Lock()
		defer dayMu.Unlock()
		return day
	}
	eps, err := readEndpoints(s.cfg.endpoints)
	if err != nil {
		return err
	}
	client := s.client("source")
	rs, recoverMS, err := s.open(s.options(clock, client), clock)
	if err != nil {
		return err
	}
	var (
		inbox    *leakprof.ShardInbox
		inboxURL string
		hs       *http.Server
		workers  []*leakprof.Pipeline
		parts    [][]leakprof.Endpoint
	)
	addr := ""
	if s.cfg.mode == "shard" {
		inbox = leakprof.NewShardInbox(2)
		var h http.Handler = inbox
		if s.tr != nil {
			h = tracedHandler{inbox, s.tr, "wire.inbox"}
		}
		if hs, addr, err = serve(h); err != nil {
			return err
		}
		inboxURL = "http://" + addr + "/reports"
		parts = leakprof.PartitionEndpoints(eps, 2)
		wclient := s.client("shard.worker")
		for range parts {
			workers = append(workers, leakprof.New(
				leakprof.WithThreshold(s.cfg.threshold), leakprof.WithParallelism(1),
				leakprof.WithTimeout(30*time.Second), leakprof.WithRetry(leakprof.RetryPolicy{MaxAttempts: 1}),
				leakprof.WithSharedIntern(0), leakprof.WithClock(clock), leakprof.WithHTTPClient(wclient)))
		}
	}
	cpu0, rt0 := cpuMS(), readRuntime()
	if err := s.out.Encode(sutMsg{Ready: &readyMsg{Addr: addr, RecoverMS: recoverMS}}); err != nil {
		return err
	}
	dumps := 0
	postClient := &http.Client{Timeout: 30 * time.Second}
	for c := range commands() {
		switch c.Cmd {
		case "trace":
			s.setTrace(c.On)
		case "sweep":
			dayMu.Lock()
			day = origin.Add(time.Duration(c.Day) * 24 * time.Hour)
			dayMu.Unlock()
			id := day.UnixNano()
			if s.tr != nil {
				s.tr.cur.Store(id)
			}
			var src *timedSource
			var wg sync.WaitGroup
			var postErrs [2]error
			ctx := context.Background()
			start := nowNS()
			if inbox == nil {
				src = &timedSource{Source: leakprof.StaticEndpoints(eps...), tr: s.tr, id: id, name: "source"}
			} else {
				prev := s.store.LastFailureCounts()
				for k := range workers {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						ws := &timedSource{Source: leakprof.StaticEndpoints(parts[k]...), tr: s.tr, id: id, name: "shard.worker"}
						rep, _ := workers[k].ShardSweep(ctx, ws, fmt.Sprintf("shard-%d", k), prev)
						start := nowNS()
						postErrs[k] = leakprof.PostShardReport(ctx, postClient, inboxURL, rep)
						s.tr.add(span{ID: id, Name: "wire.post", Start: start, End: nowNS()})
					}(k)
				}
				src = &timedSource{Source: leakprof.MergedReports(inbox.Fetch("shard-0"), inbox.Fetch("shard-1")), tr: s.tr, id: id, name: "source"}
			}
			sw, serr := s.pipe.Sweep(ctx, src)
			end := nowNS()
			wg.Wait()
			s.tr.add(span{ID: id, Name: "sweep", Start: start, End: end})
			msg := &sweepMsg{Day: c.Day, MS: float64(end-start) / 1e6, Profiles: sw.Profiles, Errors: sw.Errors}
			s.mu.Lock()
			msg.AlertMS = float64(s.onSweepAt-src.end) / 1e6
			s.mu.Unlock()
			if err := errors.Join(append([]error{serr}, postErrs[:]...)...); err != nil {
				msg.Errors++
				fmt.Fprintln(os.Stderr, "sut: sweep:", err)
			}
			rows := make([]findingRow, len(sw.Findings))
			for i, f := range sw.Findings {
				rows[i] = rowOf(f)
			}
			msg.Digest = digest(rows)
			for _, a := range rs.LastAlerts() {
				msg.Alerts = append(msg.Alerts, a.Bug.Key)
			}
			dumps += sw.Profiles
			if err := s.out.Encode(sutMsg{Sweep: msg}); err != nil {
				return err
			}
		case "stop":
			var errs []error
			for _, w := range workers {
				errs = append(errs, w.Close())
			}
			if hs != nil {
				errs = append(errs, hs.Close())
			}
			errs = append(errs, s.pipe.Close())
			return s.final(cpu0, rt0, dumps, nil, errors.Join(errs...))
		}
	}
	return nil
}

// client is the HTTP client fetches go through, traced when tracing.
func (s *sut) client(parent string) *http.Client {
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if s.tr != nil {
		rt = tracedTransport{base: rt, tr: s.tr, parent: parent}
	}
	return &http.Client{Timeout: 30 * time.Second, Transport: rt}
}

func (s *sut) setTrace(on bool) {
	if s.tr != nil {
		s.tr.on.Store(on)
	}
	s.out.Encode(sutMsg{OK: true})
}

func (s *sut) runIngest() error {
	_, recoverMS, err := s.open(s.options(nil, nil), nil)
	if err != nil {
		return err
	}
	srv := leakprof.NewIngestServer(s.pipe)
	var h http.Handler = srv
	if s.tr != nil {
		h = tracedHandler{srv, s.tr, "ingest.handler"}
	}
	hs, addr, err := serve(h)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()
	// The admission backlog is sampled, when tracing, by a poller that
	// stops with the run.
	backlog := 0
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if s.tr.enabled() {
					if n := srv.Stats().QueueLen; n > backlog {
						backlog = n
					}
				}
			}
		}
	}()
	cpu0, rt0 := cpuMS(), readRuntime()
	if err := s.out.Encode(sutMsg{Ready: &readyMsg{Addr: addr, RecoverMS: recoverMS}}); err != nil {
		return err
	}
	for c := range commands() {
		switch c.Cmd {
		case "trace":
			s.setTrace(c.On)
		case "stop":
			s.mu.Lock()
			s.draining = true
			s.mu.Unlock()
			cancel()
			runErr := <-runDone
			<-pollDone
			if errors.Is(runErr, context.Canceled) {
				runErr = nil
			}
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			herr := hs.Shutdown(sctx)
			scancel()
			st := srv.Stats()
			s.mu.Lock()
			f := &finalMsg{Ingest: &st, BacklogMax: backlog}
			s.mu.Unlock()
			return s.final(cpu0, rt0, int(st.Folded), f, errors.Join(runErr, herr, s.pipe.Close()))
		}
	}
	return nil
}

// final sends the closing report.
func (s *sut) final(cpu0 float64, rt0 runtimeSample, dumps int, f *finalMsg, err error) error {
	if f == nil {
		f = &finalMsg{}
	}
	f.CPUms = cpuMS() - cpu0
	f.Dumps = dumps
	f.Runtime = readRuntime().since(rt0)
	s.mu.Lock()
	f.Windows = s.windows
	f.Keys = setOf(s.keys)
	f.SegmentsMax = s.segmentsMax
	f.Folds = s.folds
	f.JournalKB = s.journalKB
	f.Sweeps = s.sweeps
	s.mu.Unlock()
	if err != nil {
		f.Err = err.Error()
	}
	return s.out.Encode(sutMsg{Final: f})
}

func readEndpoints(path string) ([]leakprof.Endpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var eps []leakprof.Endpoint
	return eps, json.Unmarshal(b, &eps)
}

// cpuMS is the process's user+system CPU time so far.
func cpuMS() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample [5]float64

var runtimeNames = [5]string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out runtimeSample
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	GCCycles   float64 `json:"gc_cycles"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"` // GC CPU over busy CPU
}

func (r runtimeSample) since(r0 runtimeSample) runtimeDelta {
	d := runtimeDelta{GCCycles: r[0] - r0[0], AllocBytes: r[1] - r0[1]}
	if busy := (r[3] - r0[3]) - (r[4] - r0[4]); busy > 0 {
		d.GCCPUFrac = (r[2] - r0[2]) / busy
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
