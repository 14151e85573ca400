// Package fleet simulates a microservice platform of the kind LEAKPROF
// monitors in the paper: services with many instances, each exposing a
// goroutine-profile endpoint, some carrying injected leak defects whose
// blocked-goroutine populations grow over time.
//
// The simulator substitutes for Uber's ~2500 services / ~200K instances.
// Fidelity matters at the interface LEAKPROF sees — goroutine profiles —
// so instances synthesise dump records through the executable pattern
// library (identical state strings and frame shapes to real leaks,
// relocated to per-service source coordinates) rather than spawning
// millions of real goroutines. For end-to-end runs over HTTP, Serve
// mounts one real profile endpoint per instance, with the same handler
// the production services mount, on one net/http listener.
//
// Time is discrete (days, matching LEAKPROF's collection cadence) and all
// randomness is seeded.
package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/gprofile"
	"repro/internal/patterns"
	"repro/internal/stack"
	"repro/leakprof"
)

// ServiceConfig describes one simulated service.
type ServiceConfig struct {
	// Name is the service name.
	Name string
	// Instances is the deployment size.
	Instances int
	// Pattern is the injected leak pattern; nil for a healthy service.
	Pattern *patterns.Pattern
	// LeakFile/LeakLine are the service-local source coordinates of the
	// blocking operation (the LEAKPROF grouping key).
	LeakFile string
	LeakLine int
	// LeakPerDay is the blocked-goroutine growth per affected instance
	// per day.
	LeakPerDay int
	// HotInstances is how many instances leak at HotLeakPerDay instead
	// (the paper's outage-activated concentration: a few instances show
	// huge clusters).
	HotInstances  int
	HotLeakPerDay int
	// LeakStartDay is the day the defect ships; FixDay is the day the
	// fix deploys (negative: never). Fixing clears the backlog at the
	// next deploy; deploys happen every DeployEveryDays (default 2).
	LeakStartDay    int
	FixDay          int
	DeployEveryDays int
	// BenignGoroutines is the healthy background population per
	// instance.
	BenignGoroutines int
	// Seed drives per-instance randomness.
	Seed int64
}

// Service is one simulated service.
type Service struct {
	Cfg       ServiceConfig
	instances []*Instance
}

// Instance is one simulated program instance.
type Instance struct {
	Service string
	Name    string
	hot     bool
	// blocked is atomic because chaos scenarios deploy mid-sweep: a
	// DeployRolling clearing backlogs races benignly with concurrent
	// Stacks/snapshot reads, exactly as a real deploy races a sweep.
	blocked atomic.Int64
	benign  []*stack.Goroutine
	cfg     *ServiceConfig
}

// Blocked returns the instance's current blocked-goroutine count at the
// injected leak location.
func (in *Instance) Blocked() int { return int(in.blocked.Load()) }

// Stacks synthesises the instance's current goroutine population: the
// benign background plus the leaked cluster.
func (in *Instance) Stacks() []*stack.Goroutine {
	blocked := int(in.blocked.Load())
	out := make([]*stack.Goroutine, 0, len(in.benign)+blocked)
	out = append(out, in.benign...)
	if blocked > 0 && in.cfg.Pattern != nil {
		leaked := in.cfg.Pattern.Stacks(int64(1000+len(in.benign)), blocked)
		patterns.Relocate(leaked, in.cfg.LeakFile, in.cfg.LeakLine)
		out = append(out, leaked...)
	}
	return out
}

// Fleet is the whole simulated platform.
type Fleet struct {
	Services []*Service
	Day      int
	origin   time.Time

	// FetchLatency simulates the per-endpoint round trip a real sweep
	// pays to fetch one instance's profile: the in-process sources wait
	// this long per emitted snapshot, in total across a sweep, however
	// coarse the host's timer. Zero (the default) keeps
	// tests instant; benchmarks set it so sweep wall-clock reflects the
	// collection latency that sharding parallelises, independent of how
	// many cores the host happens to expose.
	FetchLatency time.Duration
}

// New builds a fleet at day zero.
func New(origin time.Time, configs []ServiceConfig) *Fleet {
	f := &Fleet{origin: origin}
	for _, cfg := range configs {
		cfg := cfg
		if cfg.DeployEveryDays == 0 {
			cfg.DeployEveryDays = 2
		}
		svc := &Service{Cfg: cfg}
		r := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < cfg.Instances; i++ {
			inst := &Instance{
				Service: cfg.Name,
				Name:    fmt.Sprintf("%s-%04d", cfg.Name, i),
				hot:     i < cfg.HotInstances,
				cfg:     &svc.Cfg,
			}
			n := cfg.BenignGoroutines
			if n == 0 {
				n = 50
			}
			inst.benign = patterns.BenignStacks(r, 1, n)
			svc.instances = append(svc.instances, inst)
		}
		f.Services = append(f.Services, svc)
	}
	return f
}

// Instances returns all instances of all services.
func (f *Fleet) Instances() []*Instance {
	var out []*Instance
	for _, s := range f.Services {
		out = append(out, s.instances...)
	}
	return out
}

// AdvanceDay moves the simulation forward one day, growing leaked
// populations, applying deploy resets, and honouring fixes.
func (f *Fleet) AdvanceDay() {
	f.Day++
	for _, s := range f.Services {
		cfg := s.Cfg
		for _, in := range s.instances {
			// Deploy boundary: the backlog clears.
			if f.Day%cfg.DeployEveryDays == 0 {
				in.blocked.Store(0)
			}
			leakLive := cfg.Pattern != nil &&
				f.Day >= cfg.LeakStartDay &&
				(cfg.FixDay < 0 || f.Day < cfg.FixDay)
			if !leakLive {
				continue
			}
			rate := cfg.LeakPerDay
			if in.hot {
				rate = cfg.HotLeakPerDay
			}
			in.blocked.Add(int64(rate))
		}
	}
}

// DeployRolling rolls the first ceil(frac×n) instances of every service
// immediately — the mid-sweep version skew a rolling deploy causes: a
// sweep in flight observes the rolled instances post-deploy (backlog
// reset to zero) and the rest still on the old version with their full
// clusters. Safe to call while sweeps read the fleet concurrently.
func (f *Fleet) DeployRolling(frac float64) {
	for _, s := range f.Services {
		n := int(math.Ceil(frac * float64(len(s.instances))))
		for i := 0; i < n && i < len(s.instances); i++ {
			s.instances[i].blocked.Store(0)
		}
	}
}

// snapshotAggregated counts this instance the way a scan of its dump
// would: the leaked cluster — thousands of goroutines with the identical
// stack, exactly what a leak produces — as one (operation, location)
// count, and the benign background, none of it channel-blocked, only in
// the total.
func (in *Instance) snapshotAggregated(at time.Time) *gprofile.Snapshot {
	snap := &gprofile.Snapshot{
		Service:         in.Service,
		Instance:        in.Name,
		TakenAt:         at,
		TotalGoroutines: len(in.benign),
	}
	if blocked := int(in.blocked.Load()); blocked > 0 && in.cfg.Pattern != nil {
		snap.TotalGoroutines += blocked
		// One representative record determines the operation kind
		// and location; the count rides alongside.
		rep := in.cfg.Pattern.Stacks(1, 1)
		patterns.Relocate(rep, in.cfg.LeakFile, in.cfg.LeakLine)
		if op, ok := rep[0].BlockedChannelOp(); ok {
			snap.PreAggregated = map[stack.BlockedOp]int{op: blocked}
		}
	}
	return snap
}

// Dump renders the instance's debug=2 dump as it would push it: the
// benign background in full, then the leaked cluster as one
// count-annotated record (gprofile.WriteSnapshot). A scan of it counts
// what the instance's snapshot carries, without expanding the cluster.
func (in *Instance) Dump() []byte {
	var buf bytes.Buffer
	buf.WriteString(stack.Format(in.benign))
	gprofile.WriteSnapshot(&buf, in.snapshotAggregated(time.Time{})) // a bytes.Buffer never fails a write
	return buf.Bytes()
}

// SnapshotsAggregated captures one sweep as counts, materialising the
// per-instance slice. Platform-scale sweeps should sweep Source, which
// streams instances into the pipeline instead.
func (f *Fleet) SnapshotsAggregated() []*gprofile.Snapshot {
	at := f.origin.Add(time.Duration(f.Day) * 24 * time.Hour)
	var out []*gprofile.Snapshot
	for _, in := range f.Instances() {
		out = append(out, in.snapshotAggregated(at))
	}
	return out
}

// Source returns a leakprof.Source sweeping the fleet's current day
// directly (no HTTP), one instance at a time as counts — the simulator
// origin for the unified Pipeline, letting platform-scale simulations
// drive the exact engine production sweeps use. It is the one-shard
// partition, named "fleet".
func (f *Fleet) Source() leakprof.Source {
	return f.ShardSource(0, 1)
}

// Serve stands up a real HTTP profile endpoint per instance and returns
// LEAKPROF endpoints plus a shutdown function. Intended for moderate
// fleet sizes (examples, integration tests).
func (f *Fleet) Serve() ([]leakprof.Endpoint, func()) {
	return f.ServeWith(nil)
}

// ServeWith is Serve with a per-instance handler wrapper — the chaos
// seam. A non-nil wrap receives each instance and its real profile
// handler and returns the handler actually mounted, letting
// fault-injection middleware (delays, hangs, corrupted bodies) sit
// between the sweep and the honest endpoint without the fleet knowing.
// One listener serves the whole fleet, each instance at its own path,
// so a fleet of thousands of instances costs one socket, not thousands.
func (f *Fleet) ServeWith(wrap func(in *Instance, h http.Handler) http.Handler) ([]leakprof.Endpoint, func()) {
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	var endpoints []leakprof.Endpoint
	for _, in := range f.Instances() {
		var h http.Handler = gprofile.Handler{Stacks: in.Stacks}
		if wrap != nil {
			h = wrap(in, h)
		}
		path := "/" + in.Name + "/debug/pprof/goroutine"
		mux.Handle(path, h)
		endpoints = append(endpoints, leakprof.Endpoint{
			Service:  in.Service,
			Instance: in.Name,
			URL:      srv.URL + path + "?debug=2",
		})
	}
	return endpoints, srv.Close
}

// TotalBlocked sums blocked goroutines across a service's instances.
func (s *Service) TotalBlocked() int {
	total := 0
	for _, in := range s.instances {
		total += int(in.blocked.Load())
	}
	return total
}

// MaxBlocked returns the largest single-instance cluster in the service.
func (s *Service) MaxBlocked() (string, int) {
	name, max := "", 0
	for _, in := range s.instances {
		if b := int(in.blocked.Load()); b > max {
			name, max = in.Name, b
		}
	}
	return name, max
}
