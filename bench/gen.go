package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/patterns"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/leakprof"
)

// The generator: every input the system under test receives is built
// here from the workload seed — goroutine dump bodies, the fleet's
// day-by-day leak growth, the pre-seeded state journal — together with
// the oracle that says which findings those inputs must produce.

// origin is day zero of the simulated calendar pull workloads sweep.
var origin = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// findingKey is leakprof's dedup key for a blocked location.
func findingKey(service, op, location string) string {
	return service + "\x00" + op + "\x00" + location
}

// record renders one goroutine as a debug=2 dump member plus the blank
// line that separates members.
func record(g *stack.Goroutine) []byte { return append([]byte(g.String()), '\n') }

// chunkRecords is how many distinct members a cluster pre-renders; larger
// populations repeat the chunk, so a 30K-goroutine leak costs 30K members
// on the wire but only one chunk of generator memory.
const chunkRecords = 32

// waits are the blocking durations the runtime annotates leaked members
// with; they vary so the scanner's per-dump key set looks like production.
var waits = []time.Duration{5 * time.Minute, 12 * time.Minute, 37 * time.Minute, 90 * time.Minute, 4 * time.Hour}

// cluster is one blocked location: a pre-rendered run of dump members
// that can be written out to any population size.
type cluster struct {
	key   string // finding key of the location
	chunk []byte
	ends  []int // ends[j] is the offset just past member j
}

// newCluster renders chunkRecords members of pattern p relocated to
// file:line in service, with the runtime frames above the blocking call
// and the request-handling frames below it that a real dump carries.
func newCluster(service string, p *patterns.Pattern, file string, line int) *cluster {
	op := p.Kind.ChannelOp()
	c := &cluster{}
	for j := 0; j < chunkRecords; j++ {
		g := patterns.Relocate(p.Stacks(int64(1000+j), 1), file, line)[0]
		leaf := g.Leaf()
		c.key = findingKey(service, op, leaf.SourceLocation())
		g.WaitTime = waits[j%len(waits)]
		frames := []stack.Frame{
			{Function: "runtime.gopark", File: "/usr/local/go/src/runtime/proc.go", Line: 425, Offset: 0xce},
			{Function: runtimeFn(op), File: "/usr/local/go/src/runtime/chan.go", Line: 161, Offset: 0x25},
		}
		frames = append(frames, g.Frames...)
		g.Frames = append(frames,
			stack.Frame{Function: "services/" + service + ".(*Server).handle", File: "services/" + service + "/server.go", Line: 120, Offset: 0x1a5},
			stack.Frame{Function: "net/http.HandlerFunc.ServeHTTP", File: "/usr/local/go/src/net/http/server.go", Line: 2220, Offset: 0x29})
		c.chunk = append(c.chunk, record(g)...)
		c.ends = append(c.ends, len(c.chunk))
	}
	return c
}

func runtimeFn(op string) string {
	switch op {
	case "send":
		return "runtime.chansend1"
	case "receive":
		return "runtime.chanrecv1"
	}
	return "runtime.selectgo"
}

// size is the byte length of n members.
func (c *cluster) size(n int) int {
	s := n / chunkRecords * len(c.chunk)
	if r := n % chunkRecords; r > 0 {
		s += c.ends[r-1]
	}
	return s
}

// write emits n members.
func (c *cluster) write(w io.Writer, n int) error {
	for ; n >= chunkRecords; n -= chunkRecords {
		if _, err := w.Write(c.chunk); err != nil {
			return err
		}
	}
	if n > 0 {
		_, err := w.Write(c.chunk[:c.ends[n-1]])
		return err
	}
	return nil
}

// background renders one service's healthy population: the non-channel
// states of the paper's Table IV plus idle worker pools parked in channel
// receives, which fold into below-threshold groups every sweep.
func background(r *rand.Rand, service string, n, pools, poolSize int) []byte {
	var b bytes.Buffer
	for _, g := range patterns.BenignStacks(r, 1, n) {
		b.Write(record(g))
	}
	for p := 0; p < pools; p++ {
		file := "services/" + service + "/worker.go"
		for j := 0; j < poolSize; j++ {
			b.Write(record(&stack.Goroutine{
				ID:        int64(5000 + p*poolSize + j),
				State:     "chan receive",
				WaitTime:  waits[j%len(waits)],
				Frames:    []stack.Frame{{Function: "services/" + service + ".(*pool).worker", File: file, Line: 30 + 10*p, Offset: 0x3e}},
				CreatedBy: stack.Frame{Function: "services/" + service + ".(*pool).start", File: file, Line: 22, Offset: 0x7c},
				CreatorID: 1,
			}))
		}
	}
	return b.Bytes()
}

// pullFleet is the fleet the pull workloads sweep. Leaks grow daily and a
// deploy every deployEvery days resets them, so the fleet is periodic in
// the day and every day's findings are known in closed form.
type pullFleet struct {
	threshold   int
	deployEvery int
	services    []*pullService
}

type pullService struct {
	name       string
	background []byte
	leak       *cluster // nil: no planted leak
	rates      []int    // per-instance leak growth per day
	neg        *cluster // nil: no hard negative
	negBase    []int    // per-instance hard-negative population
}

// pullShape sizes a pull fleet.
type pullShape struct {
	services, instances, leaky, negatives int
	benign, threshold, deployEvery        int
	growthMin, growthMax                  int // service-wide leak growth per day
}

func newPullFleet(seed int64, sh pullShape) *pullFleet {
	r := rand.New(rand.NewSource(seed))
	f := &pullFleet{threshold: sh.threshold, deployEvery: sh.deployEvery}
	sims := patterns.Simulatable()
	order := r.Perm(sh.services)
	for s := 0; s < sh.services; s++ {
		name := fmt.Sprintf("svc-%02d", s)
		svc := &pullService{name: name, background: background(r, name, sh.benign, 3, 8)}
		// The seed decides which service plays which role; each role's
		// pattern and growth rate are fixed, so the fleet's total work is
		// the same for every seed and runs on different seeds compare.
		switch role := order[s]; {
		case role < sh.leaky:
			p := sims[role%len(sims)]
			svc.leak = newCluster(name, p, fmt.Sprintf("services/%s/handler.go", name), 40+r.Intn(400))
			svc.rates = splitHot(spread(sh.growthMin, sh.growthMax, role, sh.leaky), sh.instances)
		case role < sh.leaky+sh.negatives:
			// A congested pool: a large, steady receive-blocked population
			// that a count-only detector would flag but the per-instance
			// threshold must not.
			svc.neg = newCluster(name, patterns.UnclosedRange, fmt.Sprintf("services/%s/pool.go", name), 60+r.Intn(300))
			for i := 0; i < sh.instances; i++ {
				svc.negBase = append(svc.negBase, sh.threshold*spread(60, 85, i, sh.instances)/100)
			}
		}
		f.services = append(f.services, svc)
	}
	return f
}

// spread is the i-th of n values evenly spaced over [lo, hi].
func spread(lo, hi, i, n int) int {
	if n <= 1 {
		return lo
	}
	return lo + (hi-lo)*i/(n-1)
}

// splitHot spreads a service's daily growth over its instances: the first
// instance takes 40% (the paper's outage-activated hot instance), the rest
// share the remainder.
func splitHot(growth, n int) []int {
	if n == 1 {
		return []int{growth}
	}
	rates := []int{growth * 4 / 10}
	for i := 1; i < n; i++ {
		rates = append(rates, growth*6/10/(n-1))
	}
	return rates
}

// counts returns an instance's leaked and hard-negative populations on day.
func (f *pullFleet) counts(s, i, day int) (leak, neg int) {
	svc := f.services[s]
	if svc.leak != nil {
		leak = svc.rates[i] * (day%f.deployEvery + 1)
	}
	if svc.neg != nil {
		// Day-to-day jitter of up to a tenth of the threshold, downward, so
		// the population never reaches it.
		h := fnv.New32a()
		fmt.Fprintf(h, "%d/%d/%d", s, i, day)
		neg = svc.negBase[i] - int(h.Sum32())%(f.threshold/10+1)
	}
	return leak, neg
}

// bodySize is the byte length of an instance's dump on day.
func (f *pullFleet) bodySize(s, i, day int) int {
	svc := f.services[s]
	leak, neg := f.counts(s, i, day)
	n := len(svc.background)
	if svc.leak != nil {
		n += svc.leak.size(leak)
	}
	if svc.neg != nil {
		n += svc.neg.size(neg)
	}
	return n
}

// writeDump serves an instance's debug=2 dump on day.
func (f *pullFleet) writeDump(w io.Writer, s, i, day int) error {
	svc := f.services[s]
	leak, neg := f.counts(s, i, day)
	if _, err := w.Write(svc.background); err != nil {
		return err
	}
	if svc.leak != nil {
		if err := svc.leak.write(w, leak); err != nil {
			return err
		}
	}
	if svc.neg != nil {
		return svc.neg.write(w, neg)
	}
	return nil
}

func instanceName(s, i int) string { return fmt.Sprintf("svc-%02d-i%d", s, i) }

// expected returns day's findings in closed form: every planted leak with
// at least one instance at or above the threshold, none of the hard
// negatives, none of the idle pools.
func (f *pullFleet) expected(day, instances int) []findingRow {
	var rows []findingRow
	for s, svc := range f.services {
		if svc.leak == nil {
			continue
		}
		row := findingRow{key: svc.leak.key}
		for i := 0; i < instances; i++ {
			n, _ := f.counts(s, i, day)
			if n == 0 {
				continue
			}
			row.total += n
			row.instances++
			if n >= f.threshold {
				row.suspicious++
			}
			if name := instanceName(s, i); n > row.max || (n == row.max && name < row.maxInstance) {
				row.max, row.maxInstance = n, name
			}
		}
		if row.suspicious > 0 {
			rows = append(rows, row)
		}
	}
	return rows
}

// plantedLeaks returns every planted leak key.
func (f *pullFleet) plantedLeaks() []string {
	var keys []string
	for _, svc := range f.services {
		if svc.leak != nil {
			keys = append(keys, svc.leak.key)
		}
	}
	return keys
}

// findingRow is the part of a leakprof.Finding the oracle fixes.
type findingRow struct {
	key                          string
	total, instances, suspicious int
	max                          int
	maxInstance                  string
}

func rowOf(f *leakprof.Finding) findingRow {
	return findingRow{key: f.Key(), total: f.TotalBlocked, instances: f.Instances,
		suspicious: f.SuspiciousInstances, max: f.MaxCount, maxInstance: f.MaxInstance}
}

// digest is an order-independent fingerprint of a sweep's findings.
func digest(rows []findingRow) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprintf("%q|%d|%d|%d|%d|%s", r.key, r.total, r.instances, r.suspicious, r.max, r.maxInstance)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// keySet is an order-independent fingerprint of a set of finding keys:
// its size and the wrapping sum of the keys' hashes.
type keySet struct {
	N   int    `json:"n"`
	Sum uint64 `json:"sum"`
}

func (k *keySet) add(key string) {
	h := fnv.New64a()
	io.WriteString(h, key)
	k.N++
	k.Sum += h.Sum64()
}

func setOf(keys map[string]bool) keySet {
	var k keySet
	for key := range keys {
		k.add(key)
	}
	return k
}

// ingestFleet is the fleet that pushes dumps: one pre-rendered body per
// service (gzip'd for ingest-steady, plain for ingest-wide), each posted
// by any of its instances, and the finding keys each body plants.
type ingestFleet struct {
	services  int
	instances int
	bodies    [][]byte
	gzip      bool
	leaks     [][]string // per body: the finding keys it must raise
}

// steadyShape sizes ingest-steady: services pushing full-size dumps where a
// few carry a leak over the threshold and a few a hard negative below it.
type steadyShape struct {
	services, instances, leaky, negatives, benign, threshold int
}

func newSteadyFleet(seed int64, sh steadyShape) (*ingestFleet, error) {
	r := rand.New(rand.NewSource(seed))
	f := &ingestFleet{services: sh.services, instances: sh.instances, gzip: true}
	sims := patterns.Simulatable()
	order := r.Perm(sh.services)
	for s := 0; s < sh.services; s++ {
		name := fmt.Sprintf("svc-%02d", s)
		var body bytes.Buffer
		body.Write(background(r, name, sh.benign, 3, 8))
		var leaks []string
		// As in the pull fleet, the seed picks each service's role, and the
		// role fixes the pattern and the population.
		switch role := order[s]; {
		case role < sh.leaky:
			c := newCluster(name, sims[role%len(sims)], fmt.Sprintf("services/%s/handler.go", name), 40+r.Intn(400))
			c.write(&body, sh.threshold*spread(120, 200, role, sh.leaky)/100)
			leaks = append(leaks, c.key)
		case role < sh.leaky+sh.negatives:
			c := newCluster(name, patterns.UnclosedRange, fmt.Sprintf("services/%s/pool.go", name), 60+r.Intn(300))
			c.write(&body, sh.threshold*spread(50, 90, role-sh.leaky, sh.negatives)/100)
		}
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		if _, err := zw.Write(body.Bytes()); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		f.bodies = append(f.bodies, z.Bytes())
		f.leaks = append(f.leaks, leaks)
	}
	return f, nil
}

// wideShape sizes ingest-wide: many services each with thousands of
// blocking sites, every dump touching a Zipf-skewed sample of them.
type wideShape struct {
	services, instances, bodiesPerService, sites, perDump int
	minFindings                                           float64 // median findings a window must file
	minFolds                                              int     // journal compactions a run must complete
}

// wideThreshold makes every site a dump holds twice or more a finding;
// sites held once are the hard negatives.
const wideThreshold = 2

// Channel operations and the dump states that block on them, by index.
var (
	siteOps    = [3]string{"send", "receive", "select"}
	siteStates = [3]string{"chan send", "chan receive", "select"}
)

// wideSite names site k of service s and returns its finding key parts.
func wideSite(s, k int) (service, op, function, file string, line int) {
	service = fmt.Sprintf("svc-%02d", s)
	return service, siteOps[k%3], fmt.Sprintf("services/%s/mod%02d.worker%d", service, k/256, k%256),
		fmt.Sprintf("services/%s/mod%02d/site.go", service, k/256), 10 + k%256
}

// wideHardNegative reports whether site k is held below the threshold.
func wideHardNegative(k int) bool { return k%8 == 0 }

func newWideFleet(seed int64, sh wideShape) *ingestFleet {
	r := rand.New(rand.NewSource(seed))
	f := &ingestFleet{services: sh.services, instances: sh.instances}
	zipf := rand.NewZipf(r, 1.1, 4, uint64(sh.sites-1))
	for s := 0; s < sh.services; s++ {
		for b := 0; b < sh.bodiesPerService; b++ {
			picked := map[int]bool{}
			for len(picked) < sh.perDump {
				picked[int(zipf.Uint64())] = true
			}
			sites := make([]int, 0, len(picked))
			for k := range picked {
				sites = append(sites, k)
			}
			sort.Ints(sites)
			var body bytes.Buffer
			var leaks []string
			id := int64(1)
			for _, k := range sites {
				service, op, fn, file, line := wideSite(s, k)
				n := wideThreshold + k%2
				if wideHardNegative(k) {
					n = wideThreshold - 1
				} else {
					leaks = append(leaks, findingKey(service, op, file+":"+strconv.Itoa(line)))
				}
				for j := 0; j < n; j++ {
					body.Write(record(&stack.Goroutine{
						ID: id, State: siteStates[k%3], WaitTime: waits[j%len(waits)],
						Frames:    []stack.Frame{{Function: fn, File: file, Line: line, Offset: 0x4b}},
						CreatedBy: stack.Frame{Function: "services/" + service + ".Start", File: file, Line: 4, Offset: 0x1c},
						CreatorID: 1,
					}))
					id++
				}
			}
			f.bodies = append(f.bodies, body.Bytes())
			f.leaks = append(f.leaks, leaks)
		}
	}
	return f
}

// service returns which service body b belongs to.
func (f *ingestFleet) service(b int) int { return b * f.services / len(f.bodies) }

// seedKeys returns n finding keys of the kind a long-running deployment
// has on record. For ingest-wide they are drawn from the sites its dumps
// hold, so the run's findings re-sight journaled bugs; otherwise they name
// code the workload never blocks in.
func seedKeys(r *rand.Rand, n, services int, wide bool, sites int) []leakprof.Moment {
	seen := map[string]bool{}
	var out []leakprof.Moment
	for len(out) < n {
		s := r.Intn(services)
		var service, op, fn, loc string
		if wide {
			k := r.Intn(sites)
			var file string
			var line int
			service, op, fn, file, line = wideSite(s, k)
			loc = file + ":" + strconv.Itoa(line)
		} else {
			k := r.Intn(1 << 20)
			service = fmt.Sprintf("svc-%02d", s)
			op = siteOps[k%3]
			fn = fmt.Sprintf("services/%s/legacy.f%d", service, k)
			loc = fmt.Sprintf("services/%s/legacy/f%d.go:%d", service, k/64, 10+k%64)
		}
		key := findingKey(service, op, loc)
		if seen[key] {
			continue
		}
		seen[key] = true
		total := 1 + r.Intn(5000)
		out = append(out, leakprof.Moment{
			Service: service, Op: stack.BlockedOp{Op: op, Location: loc, Function: fn},
			Total: total, Instances: 1, ServiceProfiles: 4, SumSquares: float64(total) * float64(total),
			MaxCount: total, MaxInstance: service + "-i0",
		})
	}
	return out
}

// seedJournal writes the history a deployment resumes from: every moment
// filed as a bug and observed by the trend tracker on three past days,
// compacted into one snapshot segment.
func seedJournal(dir string, moments []leakprof.Moment, at time.Time) error {
	store, err := leakprof.OpenStateStore(dir, leakprof.StateClock(func() time.Time { return at }))
	if err != nil {
		return err
	}
	db := store.BugDB()
	for _, m := range moments {
		db.File(report.Bug{
			Key: m.Key(), Service: m.Service, Op: m.Op.Op, Location: m.Op.Location, Function: m.Op.Function,
			Owner: "unowned", BlockedGoroutines: m.Total, Impact: float64(m.Total) / 2, FiledAt: at.Add(-72 * time.Hour),
		})
	}
	for d := 3; d >= 1; d-- {
		store.Tracker().ObserveMoments(at.Add(-time.Duration(d)*24*time.Hour), moments)
	}
	if err := store.Save(); err != nil {
		store.Close()
		return err
	}
	return store.Close()
}
