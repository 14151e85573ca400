package chaos

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/gprofile"
	"repro/internal/patterns"
	"repro/internal/report"
	"repro/leakprof"
)

// topoConfigs builds a deterministic multi-service fleet: services
// spread across shards by name hash, a few carrying leaks hot enough to
// cross the default threshold.
func topoConfigs(services, instances int) []fleet.ServiceConfig {
	cfgs := make([]fleet.ServiceConfig, services)
	for i := range cfgs {
		cfgs[i] = fleet.ServiceConfig{
			Name:             fmt.Sprintf("svc-%02d", i),
			Instances:        instances,
			BenignGoroutines: 30,
			Seed:             int64(100 + i),
		}
		if i%3 == 0 {
			cfgs[i].Pattern = patterns.TimeoutLeak
			cfgs[i].LeakFile = fmt.Sprintf("services/svc-%02d/worker.go", i)
			cfgs[i].LeakLine = 40 + i
			cfgs[i].LeakPerDay = 500 * (1 + i%4)
			cfgs[i].HotInstances = 1
			cfgs[i].HotLeakPerDay = 12000
			cfgs[i].LeakStartDay = 1
			cfgs[i].FixDay = -1
		}
	}
	return cfgs
}

// driveOne runs one round of sc over f and returns its sweep.
func driveOne(t *testing.T, sc *Scenario, f *fleet.Fleet, opts ...leakprof.Option) *leakprof.Sweep {
	t.Helper()
	out, err := drive(context.Background(), sc, f, sc.rollBodyFault, opts...)
	if err != nil {
		t.Fatalf("%s (shards=%d inbox=%v): %v", sc.Mode, sc.Shards, sc.Inbox, err)
	}
	return out.Sweeps[0]
}

// TestTopologyParity is the distributed-correctness anchor: a sharded
// sweep (workers pulling their endpoint partitions, reports handed off
// through a file or an HTTP inbox, coordinator merging) must produce
// byte-for-byte the moments, findings, and counts of a single-process
// sweep of the same fleet under the same clock.
func TestTopologyParity(t *testing.T) {
	origin := time.Unix(0, 0).UTC()
	clock := leakprof.WithClock(func() time.Time { return origin })
	for _, shards := range []int{2, 3, 4, 8} {
		f := fleet.New(origin, topoConfigs(12, 6))
		for d := 0; d < 3; d++ {
			f.AdvanceDay()
		}

		single := leakprof.New(clock)
		want, err := single.Sweep(context.Background(), f.Source())
		if err != nil {
			t.Fatal(err)
		}

		for _, inbox := range []bool{false, true} {
			got := driveOne(t, &Scenario{Mode: ModeSharded, Shards: shards, Inbox: inbox}, f, clock)

			if got.Profiles != want.Profiles || got.Errors != want.Errors {
				t.Fatalf("shards=%d: profiles/errors = %d/%d, want %d/%d",
					shards, got.Profiles, got.Errors, want.Profiles, want.Errors)
			}
			if !reflect.DeepEqual(got.Moments(), want.Moments()) {
				t.Fatalf("shards=%d: merged moments diverge from the single fold", shards)
			}
			if !reflect.DeepEqual(got.Findings, want.Findings) {
				t.Fatalf("shards=%d: findings diverge\ngot  %+v\nwant %+v",
					shards, got.Findings, want.Findings)
			}
		}
	}
}

// TestTopologyShardCrash loses one shard's report: the sweep must
// complete, carrying the surviving shards' moments and the lost shard in
// the error accounting.
func TestTopologyShardCrash(t *testing.T) {
	origin := time.Unix(0, 0).UTC()
	clock := leakprof.WithClock(func() time.Time { return origin })
	f := fleet.New(origin, topoConfigs(12, 6))
	f.AdvanceDay()

	sweep := driveOne(t, &Scenario{Mode: ModeSharded, Shards: 4, CrashShard: 2}, f, clock)
	if sweep.Errors != 1 {
		t.Fatalf("Errors = %d, want 1 (the lost shard)", sweep.Errors)
	}
	if sweep.FailedByService["shard-1"] != 1 {
		t.Fatalf("FailedByService = %v, want shard-1:1", sweep.FailedByService)
	}
	// The surviving shards' services are all present.
	whole := leakprof.New(clock)
	want, err := whole.Sweep(context.Background(), f.Source())
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Profiles >= want.Profiles || sweep.Profiles == 0 {
		t.Fatalf("Profiles = %d, want partial coverage below %d", sweep.Profiles, want.Profiles)
	}
}

// TestTopologyStragglerDeadline slows every fetch far past the
// coordinator's straggler deadline: each shard is written off as one
// failed instance and the sweep still completes, bounded by the
// deadline instead of the slowest worker.
func TestTopologyStragglerDeadline(t *testing.T) {
	origin := time.Unix(0, 0).UTC()
	clock := leakprof.WithClock(func() time.Time { return origin })
	f := fleet.New(origin, topoConfigs(4, 3))
	f.AdvanceDay()

	// Every fetch stalls a second; the deadline is 30ms.
	sc := &Scenario{
		Mode: ModeSharded, Shards: 2,
		StragglerDeadline: 30 * time.Millisecond,
		Faults:            Faults{SlowProb: 1, SlowFor: time.Second},
	}
	start := time.Now()
	out, err := drive(context.Background(), sc, f, sc.rollBodyFault, clock)
	if err != nil {
		t.Fatalf("stragglers failed the sweep: %v", err)
	}
	sweep := out.Sweeps[0]
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sweep took %v, the deadline never cut the stragglers loose", elapsed)
	}
	if sweep.Errors != 2 || sweep.FailedByService["shard-0"] != 1 || sweep.FailedByService["shard-1"] != 1 {
		t.Fatalf("Errors=%d FailedByService=%v, want both shards written off",
			sweep.Errors, sweep.FailedByService)
	}
}

// parityThreshold is FuzzModeParity's detection threshold; every
// decoded service leaks clearly above it or stays below it for every
// round.
const parityThreshold = 100

// parityCase is one decoded FuzzModeParity input.
type parityCase struct {
	cfgs           []fleet.ServiceConfig
	rounds, shards int
	sync           leakprof.SyncPolicy
	faults         map[string]bodyFault // keyed by round/instance
}

// faultKinds maps a decoded byte to a body fault.
var faultKinds = [4]bodyFault{{}, {torn: true}, {malform: true}, {badGzip: true}}

// floodInstances is the size of the optional flood service: enough
// failed dumps in one round to fill the sweep's 1,000-entry Failures
// cap on their own.
const floodInstances = 1000

// decodeParity turns fuzz bytes into a fleet and a fault plan. Missing
// bytes read as zero. The layout, in order:
//
//	services-1, rounds-1, shards-1 (each modulo its range)
//	flags: bit 0 SyncOnClose, bit 1 a flood service listed first
//	with a flood: its fault (shared by all its instances)
//	per service: bits 0-1 instances-1, bit 2 leaks above the threshold,
//	             bits 3-7 the leak rate's offset
//	per (round, instance), round-major: the instance's fault kind
func decodeParity(data []byte) parityCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	services := 1 + int(next()%8)
	pc := parityCase{
		rounds: 1 + int(next()%3),
		shards: 1 + int(next()%4),
		faults: make(map[string]bodyFault),
	}
	flags := next()
	if flags&1 != 0 {
		pc.sync = leakprof.SyncOnClose
	}
	key := func(round int, instance string) string { return fmt.Sprintf("%d/%s", round, instance) }
	if flags&2 != 0 {
		// A flood input runs one round: a thousand instances in every
		// round of every mode would crowd the other inputs out of a
		// short fuzz run.
		pc.rounds = 1
		pc.cfgs = append(pc.cfgs, fleet.ServiceConfig{
			Name: "flood", Instances: floodInstances, BenignGoroutines: 2, DeployEveryDays: 1 << 20,
		})
		ft := faultKinds[next()%4]
		for i := 0; i < floodInstances; i++ {
			pc.faults[key(0, fmt.Sprintf("flood-%04d", i))] = ft
		}
	}
	sims := patterns.Simulatable()
	var names []string
	for s := 0; s < services; s++ {
		b := next()
		cfg := fleet.ServiceConfig{
			Name:             fmt.Sprintf("svc-%d", s),
			Instances:        1 + int(b%4),
			Pattern:          sims[s%len(sims)],
			LeakFile:         fmt.Sprintf("services/svc-%d/leak.go", s),
			LeakLine:         10 + s,
			LeakStartDay:     1,
			FixDay:           -1,
			DeployEveryDays:  1 << 20,
			BenignGoroutines: 3,
			Seed:             int64(s),
		}
		// Above: past the threshold from the first round. Below: under
		// it through the third (rounds run on days 1 to 3).
		if b&4 != 0 {
			cfg.LeakPerDay = parityThreshold + 1 + int(b>>3)
		} else {
			cfg.LeakPerDay = 1 + int(b>>3)%(parityThreshold/3-1)
		}
		pc.cfgs = append(pc.cfgs, cfg)
		for i := 0; i < cfg.Instances; i++ {
			names = append(names, fmt.Sprintf("%s-%04d", cfg.Name, i))
		}
	}
	for round := 0; round < pc.rounds; round++ {
		for _, name := range names {
			pc.faults[key(round, name)] = faultKinds[next()%4]
		}
	}
	return pc
}

// parityMode is one way FuzzModeParity delivers the fleet.
type parityMode struct {
	name string
	sc   Scenario
}

// failedPairs lists a sweep's failed (service, instance) pairs and
// whether each was salvaged, sorted.
func failedPairs(s *leakprof.Sweep) []string {
	var out []string
	for _, f := range s.Failures {
		out = append(out, fmt.Sprintf("%s/%s salvaged=%v", f.Service, f.Instance, errors.Is(f.Err, gprofile.ErrSalvaged)))
	}
	sort.Strings(out)
	return out
}

// nonZero drops zero counts, so an empty tally reads the same in every
// mode.
func nonZero(m map[string]int) map[string]int {
	out := make(map[string]int)
	for k, n := range m {
		if n != 0 {
			out[k] = n
		}
	}
	return out
}

// verdicts keys each filed bug to its status and sightings.
func verdicts(db *report.DB) map[string]string {
	out := make(map[string]string)
	for _, b := range db.All() {
		out[b.Key] = fmt.Sprintf("%v x%d", b.Status, b.Sightings)
	}
	return out
}

// journaled is the state a journal must give back after a reopen, with
// timestamps in the form the journal decodes them to.
type journaled struct {
	Bugs  []report.Bug
	Trend map[string][]leakprof.TrendObservation
	Last  *leakprof.SweepRecord
}

func journalOf(store *leakprof.StateStore) journaled {
	j := journaled{Bugs: store.BugDB().All(), Trend: store.Tracker().Export(), Last: store.LastSweep()}
	for i := range j.Bugs {
		j.Bugs[i].FiledAt = j.Bugs[i].FiledAt.UTC()
		j.Bugs[i].LastSeen = j.Bugs[i].LastSeen.UTC()
	}
	for key, obs := range j.Trend {
		obs = slices.Clone(obs) // Export's slices are the live history
		for i := range obs {
			obs[i].At = obs[i].At.UTC()
		}
		j.Trend[key] = obs
	}
	if j.Last != nil {
		j.Last.At = j.Last.At.UTC()
	}
	return j
}

// parityInput encodes one FuzzModeParity input in decodeParity's
// layout; the seeds are written with it.
func parityInput(services, rounds, shards int, flags byte, rest ...byte) []byte {
	return append([]byte{byte(services - 1), byte(rounds - 1), byte(shards - 1), flags}, rest...)
}

// FuzzModeParity is differential testing across the delivery modes: the
// same fleet, under the same fake clock, goes through batch pull,
// sharded pull with file handoff, sharded pull with the HTTP inbox, and
// push ingestion, each journaling to its own state dir. Every round
// must agree on its timestamp, Profiles, Errors, FailedByService,
// Findings and Moments; below the Failures cap, on which instances failed and which
// of those were salvaged; at the end, on every bug's status and
// sightings and on the journaled last sweep. Each journal, reopened,
// must give back its live state.
func FuzzModeParity(f *testing.F) {
	const (
		above = 4 | 2<<3 // one instance, leaking past the threshold
		below = 1        // two instances, leaking under it
	)
	// Fault-free: three services over two rounds.
	f.Add(parityInput(3, 2, 2, 0, above, below, above|1))
	// One seed per body fault kind, mixed with clean instances: torn,
	// malformed headers (salvaged), corrupt gzip.
	f.Add(parityInput(2, 2, 3, 0, above|1, below, 1, 0, 0, 0, 0, 1, 0, 1))
	f.Add(parityInput(2, 1, 2, 1, above|2, above, 2, 0, 2, 2))
	f.Add(parityInput(3, 3, 4, 0, above, below, above, 3, 0, 0, 0, 3, 0, 0, 0, 3))
	// 1,000 corrupt-gzip dumps from one service, then one salvaged dump
	// from another, in the same round: the salvage lands past the
	// Failures cap and must still stay out of FailedByService.
	f.Add(parityInput(1, 1, 2, 2, 3, above, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		pc := decodeParity(data)
		modes := []parityMode{
			{"batch", Scenario{Mode: ModeBatch}},
			{"sharded-files", Scenario{Mode: ModeSharded, Shards: pc.shards}},
			{"sharded-inbox", Scenario{Mode: ModeSharded, Shards: pc.shards, Inbox: true}},
			{"ingest", Scenario{Mode: ModeIngest}},
		}
		faults := func(round int, instance string) bodyFault {
			return pc.faults[fmt.Sprintf("%d/%s", round, instance)]
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		outs := make([]*outcome, len(modes))
		for m, mode := range modes {
			sc := mode.sc
			sc.Days, sc.Windows, sc.Threshold = 1, pc.rounds, parityThreshold
			dir := filepath.Join(t.TempDir(), mode.name)
			opts := []leakprof.Option{
				leakprof.WithThreshold(parityThreshold),
				leakprof.WithStateDir(dir),
				leakprof.WithStateSync(pc.sync),
			}
			fl := fleet.New(matrixOrigin, pc.cfgs)
			fl.AdvanceDay()
			out, err := drive(ctx, &sc, fl, faults, opts...)
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			if len(out.Sweeps) != pc.rounds {
				t.Fatalf("%s: %d sweeps, want one per round (%d)", mode.name, len(out.Sweeps), pc.rounds)
			}
			outs[m] = out

			// drive closed the store; its journal must reopen to the
			// state the live store held.
			re, err := leakprof.OpenStateStore(dir, opts...)
			if err != nil {
				t.Fatalf("%s: reopening the journal: %v", mode.name, err)
			}
			got, want := journalOf(re), journalOf(out.Store)
			re.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the reopened journal diverges from the live store\ngot  %+v\nwant %+v", mode.name, got, want)
			}
		}

		ref := outs[0]
		for m := 1; m < len(modes); m++ {
			name := modes[m].name
			for r, want := range ref.Sweeps {
				got := outs[m].Sweeps[r]
				if !got.At.Equal(want.At) {
					t.Fatalf("%s round %d: swept at %v, batch at %v", name, r, got.At, want.At)
				}
				if got.Profiles != want.Profiles || got.Errors != want.Errors {
					t.Fatalf("%s round %d: profiles/errors = %d/%d, batch %d/%d",
						name, r, got.Profiles, got.Errors, want.Profiles, want.Errors)
				}
				if g, w := nonZero(got.FailedByService), nonZero(want.FailedByService); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s round %d: FailedByService = %v, batch %v", name, r, g, w)
				}
				if !reflect.DeepEqual(got.Findings, want.Findings) {
					t.Fatalf("%s round %d: findings diverge\ngot  %+v\nbatch %+v", name, r, got.Findings, want.Findings)
				}
				if !reflect.DeepEqual(got.Moments(), want.Moments()) {
					t.Fatalf("%s round %d: moments diverge from batch", name, r)
				}
				if want.Errors <= len(want.Failures) {
					if g, w := failedPairs(got), failedPairs(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s round %d: failures diverge\ngot  %v\nbatch %v", name, r, g, w)
					}
				}
			}
			if g, w := verdicts(outs[m].Store.BugDB()), verdicts(ref.Store.BugDB()); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: bug DB = %v, batch %v", name, g, w)
			}
			// Ingest's shutdown drain sweeps nothing, so it must leave the
			// last round as the journaled outcome and error-budget seed.
			g, w := outs[m].Store.LastSweep(), ref.Store.LastSweep()
			if g == nil || w == nil || !g.At.Equal(w.At) || g.Profiles != w.Profiles || g.Errors != w.Errors ||
				!reflect.DeepEqual(nonZero(g.FailedByService), nonZero(w.FailedByService)) {
				t.Fatalf("%s: journaled last sweep = %+v, batch %+v", name, g, w)
			}
		}
	})
}
