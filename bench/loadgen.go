package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/leakprof"
)

// proc is a running SUT process.
type proc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	msgs chan sutMsg
	done bool

	// Resident-set samples (MB), taken while sampling is on.
	rssStop, rssDone chan struct{}
	rss              []float64
}

// sampleRSS reads the SUT's resident set size from /proc every interval
// until the SUT is stopped.
func (p *proc) sampleRSS(every time.Duration) {
	p.rssStop, p.rssDone = make(chan struct{}), make(chan struct{})
	path := fmt.Sprintf("/proc/%d/statm", p.cmd.Process.Pid)
	sample := func() {
		var size, resident int64
		if b, err := os.ReadFile(path); err == nil {
			if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
				p.rss = append(p.rss, float64(resident*int64(os.Getpagesize()))/(1<<20))
			}
		}
	}
	go func() {
		defer close(p.rssDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-p.rssStop:
				sample() // a run shorter than the interval still gets one
				return
			case <-tick.C:
				sample()
			}
		}
	}()
}

// stopRSS ends sampling and waits for the sampler.
func (p *proc) stopRSS() {
	if p.rssStop != nil {
		close(p.rssStop)
		<-p.rssDone
		p.rssStop = nil
	}
}

// replyTimeout bounds every wait on the SUT, so a wedged SUT fails the
// run instead of hanging it.
const replyTimeout = 60 * time.Second

// startSUT execs this binary as the SUT and waits for its ready line; the
// returned duration runs from exec to that line.
func startSUT(cfg sutConfig) (*proc, *readyMsg, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, 0, err
	}
	cmd := exec.Command(exe, cfg.args()...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	p := &proc{cmd: cmd, in: in, msgs: make(chan sutMsg, 16)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, err
	}
	go func() {
		defer close(p.msgs)
		dec := json.NewDecoder(out)
		for {
			var m sutMsg
			if dec.Decode(&m) != nil {
				return
			}
			p.msgs <- m
		}
	}()
	m, err := p.recv()
	setup := time.Since(start)
	if err == nil && m.Ready == nil {
		err = errors.New("SUT did not report ready")
	}
	if err != nil {
		p.kill()
		return nil, nil, 0, err
	}
	return p, m.Ready, setup, nil
}

func (p *proc) send(c sutCmd) error {
	b, _ := json.Marshal(c)
	_, err := p.in.Write(append(b, '\n'))
	return err
}

func (p *proc) recv() (sutMsg, error) {
	select {
	case m, ok := <-p.msgs:
		if !ok {
			return sutMsg{}, errors.New("SUT exited")
		}
		return m, nil
	case <-time.After(replyTimeout):
		return sutMsg{}, errors.New("SUT reply timed out")
	}
}

// call sends a command and waits for its reply.
func (p *proc) call(c sutCmd) (sutMsg, error) {
	if err := p.send(c); err != nil {
		return sutMsg{}, err
	}
	return p.recv()
}

// stop asks the SUT to shut down and returns its final report once it
// has exited.
func (p *proc) stop() (*finalMsg, error) {
	p.stopRSS()
	m, err := p.call(sutCmd{Cmd: "stop"})
	if err == nil && m.Final == nil {
		err = errors.New("SUT sent no final report")
	}
	p.in.Close()
	werr := p.cmd.Wait()
	p.done = true
	if err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, fmt.Errorf("SUT: %w", werr)
	}
	if m.Final.Err != "" {
		return nil, fmt.Errorf("SUT: %s", m.Final.Err)
	}
	return m.Final, nil
}

// kill ends a SUT that did not stop cleanly and waits for it.
func (p *proc) kill() {
	if p.done {
		return
	}
	p.done = true
	p.stopRSS()
	p.cmd.Process.Kill()
	p.in.Close()
	p.cmd.Wait()
}

// copyDir copies the flat directory src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runState is one workload run in progress.
type runState struct {
	w      workload
	o      runOpts
	dir    string
	sut    sutConfig
	p      *proc
	ready  *readyMsg
	setups []float64
	res    *result
	drv    genStats
	pr     prober     // speed-probe times
	trace  string     // trace.jsonl of a traced run
	layers []layerRow // its self-time table

	// The set-up and measured phases, each scaled by its own probe times.
	setupFrom, setupTo, measureFrom, measureTo time.Time
}

// genStats are the generator's own measurements.
type genStats struct {
	mu     sync.Mutex
	serve  []float64 // µs per served profile (pull)
	genLag []float64 // ms the generator sent late (ingest)
	spans  []span
}

func (d *genStats) served(id, start, end int64, traced bool) {
	d.mu.Lock()
	d.serve = append(d.serve, float64(end-start)/1e3)
	if traced {
		d.spans = append(d.spans, span{ID: id, Name: "gen.serve", Start: start, End: end})
	}
	d.mu.Unlock()
}

// setupProbes and sweepProbes are how many probes run before each SUT
// start and before each pull sweep, while the SUT idles.
const setupProbes, sweepProbes = 4, 2

// setUp seeds the journal and starts the SUT o.setups times, each on a
// fresh copy of the journal; all but the last are stopped again. Set-up
// time is the median over them.
func (r *runState) setUp(eps []leakprof.Endpoint) error {
	seedDir := filepath.Join(r.dir, "seed")
	rng := rand.New(rand.NewSource(r.o.seed ^ 0x5eed))
	sites := 0
	if r.w.wide != nil {
		sites = r.w.wide.sites
	}
	if err := seedJournal(seedDir, seedKeys(rng, r.w.seedKeys, r.w.services(), r.w.wide != nil, sites), origin); err != nil {
		return fmt.Errorf("seeding journal: %w", err)
	}
	if eps != nil {
		b, _ := json.Marshal(eps)
		r.sut.endpoints = filepath.Join(r.dir, "endpoints.json")
		if err := os.WriteFile(r.sut.endpoints, b, 0o644); err != nil {
			return err
		}
	}
	r.setupFrom = time.Now()
	for i := 0; i < r.o.setups; i++ {
		r.sut.state = filepath.Join(r.dir, fmt.Sprintf("state-%d", i))
		if err := copyDir(seedDir, r.sut.state); err != nil {
			return err
		}
		for j := 0; j < setupProbes; j++ {
			r.pr.take()
		}
		p, ready, d, err := startSUT(r.sut)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d.Seconds())
		if i == r.o.setups-1 {
			r.setupTo = time.Now()
			r.p, r.ready = p, ready
			p.sampleRSS(100 * time.Millisecond)
			return nil
		}
		if _, err := p.stop(); err != nil {
			return err
		}
	}
	return nil
}

// pullServer serves the fleet's profiles for the day being swept.
type pullServer struct {
	f      *pullFleet
	day    atomic.Int64
	traced atomic.Bool
	drv    *genStats
}

func (s *pullServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := nowNS()
	var svc, inst int
	if _, err := fmt.Sscanf(r.URL.Path, "/s/%d/%d", &svc, &inst); err != nil || svc >= len(s.f.services) {
		http.NotFound(w, r)
		return
	}
	day := int(s.day.Load())
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(s.f.bodySize(svc, inst, day)))
	if err := s.f.writeDump(w, svc, inst, day); err != nil {
		return // the client went away; the SUT reports the failed fetch
	}
	s.drv.served(origin.Add(time.Duration(day)*24*time.Hour).UnixNano(), start, nowNS(), s.traced.Load())
}

// runPull drives pull-daily and pull-sharded: a closed loop of
// back-to-back sweeps, one simulated day each, in whole deploy cycles.
func (r *runState) runPull() error {
	w := r.w
	f := newPullFleet(r.o.seed, w.pull)
	srv := &pullServer{f: f, drv: &r.drv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	var eps []leakprof.Endpoint
	for s, svc := range f.services {
		for i := 0; i < w.pull.instances; i++ {
			eps = append(eps, leakprof.Endpoint{Service: svc.name, Instance: instanceName(s, i),
				URL: fmt.Sprintf("http://%s/s/%d/%d?debug=2", ln.Addr(), s, i)})
		}
	}
	if err := r.setUp(eps); err != nil {
		return err
	}
	res := r.res
	var sweepMS, alertMS, tracedMS []float64
	alerted, crossed := map[string]bool{}, map[string]bool{}
	digestsOK, failed := true, 0
	sweep := func(day int, measured, traced bool) error {
		for j := 0; j < sweepProbes; j++ {
			r.pr.take()
		}
		srv.day.Store(int64(day))
		m, err := r.p.call(sutCmd{Cmd: "sweep", Day: day})
		if err != nil {
			return err
		}
		if m.Sweep == nil {
			return errors.New("SUT sent no sweep report")
		}
		sw := m.Sweep
		res.Attempted += w.pull.services * w.pull.instances
		failed += sw.Errors
		want := f.expected(day, w.pull.instances)
		for _, row := range want {
			crossed[row.key] = true
		}
		res.Digests[day] = sw.Digest
		if sw.Digest != digest(want) || sw.Profiles != w.pull.services*w.pull.instances {
			digestsOK = false
			fmt.Fprintf(os.Stderr, "%s: day %d: findings digest %s, want %s (%d profiles)\n", w.name, day, sw.Digest, digest(want), sw.Profiles)
		}
		for _, k := range sw.Alerts {
			alerted[k] = true
		}
		switch {
		case traced:
			tracedMS = append(tracedMS, sw.MS)
		case measured:
			sweepMS = append(sweepMS, sw.MS)
			alertMS = append(alertMS, sw.AlertMS)
		}
		return nil
	}
	// Day 0 warms caches and connections; the measured days follow in
	// whole deploy cycles, so every run weighs each day of the cycle alike.
	// A traced run spends its first half untraced and its second traced.
	if err := sweep(0, false, false); err != nil {
		return err
	}
	day := 0
	budget := r.o.seconds
	phases := []bool{false}
	if r.o.trace {
		budget /= 2
		phases = append(phases, true)
	}
	for _, traced := range phases {
		if traced {
			if _, err := r.p.call(sutCmd{Cmd: "trace", On: true}); err != nil {
				return err
			}
			srv.traced.Store(true)
		}
		start := time.Now()
		for cycles := 1; ; cycles++ {
			cycleStart := time.Now()
			for j := 0; j < w.pull.deployEvery; j++ {
				day++
				if err := sweep(day, true, traced); err != nil {
					return err
				}
			}
			cycle := time.Since(cycleStart).Seconds()
			if cycles == r.o.maxCycles || time.Since(start).Seconds()+cycle > budget {
				break
			}
		}
		if !traced {
			r.measureFrom, r.measureTo = start, time.Now()
		}
	}
	final, err := r.p.stop()
	if err != nil {
		return err
	}
	res.Failed = failed
	planted := map[string]bool{}
	for _, k := range f.plantedLeaks() {
		planted[k] = true
	}
	res.check("findings of every sweep match the generator's closed form", digestsOK, "")
	res.check("every leak over the threshold alerted, no hard negative", sameSet(alerted, crossed),
		fmt.Sprintf("%d alerted, %d crossed", len(alerted), len(crossed)))
	res.check("every planted leak crossed the threshold within a deploy cycle", sameSet(crossed, planted), "")
	res.check("no failed fetch or lost shard", failed == 0, fmt.Sprintf("%d failed", failed))
	r.e2e(sweepMS, alertMS, final)
	if r.o.trace {
		return r.perLayer(final, sweepMS, tracedMS)
	}
	return nil
}

// arrival is one scheduled POST of the open loop.
type arrival struct {
	due      time.Duration // offset from the run start
	body     int
	instance int
	start    int64 // when a sender began it (ns since run start)
	pickup   int64 // when its sender became free for it
	done     int64
	status   int
}

// runIngest drives ingest-steady and ingest-wide: an open loop of
// seeded Poisson arrivals over at most two keep-alive connections, each
// POST timed from its due time so a stall in the SUT charges every
// request it delays.
func (r *runState) runIngest() error {
	w := r.w
	var f *ingestFleet
	if w.wide != nil {
		f = newWideFleet(r.o.seed, *w.wide)
	} else {
		var err error
		if f, err = newSteadyFleet(r.o.seed, *w.steady); err != nil {
			return err
		}
	}
	if err := r.setUp(nil); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.o.seed))
	var arrivals []arrival
	for t := 0.0; t < r.o.seconds; t += rng.ExpFloat64() / w.rate {
		arrivals = append(arrivals, arrival{due: time.Duration(t * float64(time.Second)),
			body: rng.Intn(len(f.bodies)), instance: rng.Intn(f.instances)})
	}
	url := "http://" + r.ready.Addr + "/ingest"
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	haltProber := r.pr.every(100 * time.Millisecond)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := &arrivals[i]
				a.pickup = int64(time.Since(start))
				if d := a.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				a.start = int64(time.Since(start))
				a.status = post(client, url, f, a)
				a.done = int64(time.Since(start))
			}
		}()
	}
	traceAt := time.Duration(math.MaxInt64)
	if r.o.trace {
		traceAt = time.Duration(r.o.seconds / 2 * float64(time.Second))
		time.Sleep(traceAt)
		if _, err := r.p.call(sutCmd{Cmd: "trace", On: true}); err != nil {
			wg.Wait()
			haltProber()
			return err
		}
	}
	wg.Wait()
	haltProber()
	warmup := time.Duration(r.o.seconds * 0.1 * float64(time.Second))
	r.measureFrom, r.measureTo = start.Add(warmup), time.Now()
	if r.o.trace {
		r.measureTo = start.Add(traceAt)
	}
	// Let the last window close on its deadline before the drain.
	time.Sleep(w.window + 100*time.Millisecond)
	final, err := r.p.stop()
	if err != nil {
		return err
	}
	res := r.res
	var admit, tracedAdmit []float64
	want := map[string]bool{}
	accepted := 0
	for _, a := range arrivals {
		res.Attempted++
		if a.status != http.StatusAccepted {
			res.Failed++
			continue
		}
		accepted++
		for _, k := range f.leaks[a.body] {
			want[k] = true
		}
		lat := float64(a.done-int64(a.due)) / 1e6
		switch {
		case a.due >= traceAt:
			tracedAdmit = append(tracedAdmit, lat)
		case a.due >= warmup:
			admit = append(admit, lat)
		}
		free := a.pickup
		if int64(a.due) > free {
			free = int64(a.due)
		}
		r.drv.genLag = append(r.drv.genLag, float64(a.start-free)/1e6)
	}
	// Close latency counts windows that closed under load: a window whose
	// deadline passes after the last arrival waits for the server's idle
	// tick instead of an arrival to notice it.
	var closeMS, findings []float64
	windowErrors := 0
	lastDue := arrivals[len(arrivals)-1].due
	for _, win := range final.Windows {
		windowErrors += win.Errors
		at := time.Duration(win.At - start.UnixNano())
		if !win.Draining && at >= warmup && at < traceAt && at+w.window <= lastDue {
			closeMS = append(closeMS, win.CloseMS)
			findings = append(findings, float64(win.Findings))
		}
	}
	st := final.Ingest
	res.check("every POST admitted (202)", res.Failed == 0, fmt.Sprintf("%d of %d failed", res.Failed, res.Attempted))
	res.check("Folded == Admitted == accepted, ScanErrors == 0",
		st.Folded == st.Admitted && st.Admitted == uint64(accepted) && st.ScanErrors == 0 && windowErrors == 0,
		fmt.Sprintf("folded %d admitted %d accepted %d scan errors %d window errors %d", st.Folded, st.Admitted, accepted, st.ScanErrors, windowErrors))
	res.check("findings are exactly the planted leaks posted, no hard negative", final.Keys == setOf(want),
		fmt.Sprintf("%d finding keys, want %d", final.Keys.N, len(want)))
	res.check("windows closed during the run", len(closeMS) > 0, "")
	if w.wide != nil {
		// The shape ingest-wide exists for: every window files and trends
		// hundreds of findings, and the journal compacts repeatedly.
		res.check(fmt.Sprintf("median window files >= %.0f findings", w.wide.minFindings), median(findings) >= w.wide.minFindings,
			fmt.Sprintf("median %.0f", median(findings)))
		res.check(fmt.Sprintf("journal compacted at least %d times", w.wide.minFolds), final.Folds >= w.wide.minFolds,
			fmt.Sprintf("%d folds, at most %d segments live", final.Folds, final.SegmentsMax))
	}
	lag := quantile(r.drv.genLag, 0.99)
	res.check(fmt.Sprintf("generator lag p99 under %v ms", genLagLimitMS), lag < genLagLimitMS, fmt.Sprintf("p99 %.2f ms", lag))
	r.e2e(admit, closeMS, final)
	if r.o.trace {
		return r.perLayer(final, admit, tracedAdmit)
	}
	return nil
}

// conns is the generator's connection bound: the box's two cores.
const conns = 2

// genLagLimitMS is the generator lateness beyond which the run is
// invalid: the schedule, not the SUT, would be setting the latencies.
const genLagLimitMS = 25

// post sends one dump and drains the reply.
func post(client *http.Client, url string, f *ingestFleet, a *arrival) int {
	svc := f.service(a.body)
	q := fmt.Sprintf("%s?service=svc-%02d&instance=svc-%02d-i%d", url, svc, svc, a.instance)
	req, err := http.NewRequest(http.MethodPost, q, bytes.NewReader(f.bodies[a.body]))
	if err != nil {
		return 0
	}
	if f.gzip {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
