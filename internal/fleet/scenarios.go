package fleet

import (
	"context"
	"time"

	"repro/internal/patterns"
	"repro/internal/report"
	"repro/leakprof"
)

// Fig6Config reproduces the paper's Fig-6 incident: a leak ships to a
// ~800-instance service; the representative instance spikes toward 16K
// blocked goroutines while the fleet accumulates ~3 million.
func Fig6Config() ServiceConfig {
	return ServiceConfig{
		Name:      "fig6-service",
		Instances: 800,
		Pattern:   patterns.TimeoutLeak,
		LeakFile:  "services/fig6/handler.go",
		LeakLine:  42,
		// Fleet average ~3750/instance at the peak; deploys every 6
		// days during the incident window.
		LeakPerDay:       700,
		HotInstances:     1,
		HotLeakPerDay:    2900,
		LeakStartDay:     1,
		FixDay:           -1,
		DeployEveryDays:  7,
		BenignGoroutines: 40,
		Seed:             6,
	}
}

// Fig6Point is one day of the Fig-6 series.
type Fig6Point struct {
	Day            int
	Representative int // top instance's blocked count
	FleetTotal     int // all instances
	Detected       bool
}

// RunFig6 advances the incident for days days, sweeping with the default
// pipeline (10K threshold, RMS) daily; Detected marks the first day the
// location crosses the reporting threshold.
func RunFig6(days int) []Fig6Point {
	f := New(time.Unix(0, 0).UTC(), []ServiceConfig{Fig6Config()})
	pipe := leakprof.New()
	var series []Fig6Point
	for d := 0; d < days; d++ {
		f.AdvanceDay()
		svc := f.Services[0]
		_, max := svc.MaxBlocked()
		sweep, _ := pipe.Sweep(context.Background(), f.Source())
		series = append(series, Fig6Point{
			Day:            f.Day,
			Representative: max,
			FleetTotal:     svc.TotalBlocked(),
			Detected:       len(sweep.Findings) > 0,
		})
	}
	return series
}

// YearOutcome summarises the §VII one-year production deployment:
// 33 reports filed, 24 acknowledged as real, 21 fixed.
type YearOutcome struct {
	Reports      int
	Acknowledged int
	Fixed        int
	Rejected     int
	// ByPattern counts acknowledged defects per pattern name.
	ByPattern map[string]int
}

// Precision is acknowledged/reports (the paper's 72.7%).
func (y YearOutcome) Precision() float64 {
	if y.Reports == 0 {
		return 0
	}
	return float64(y.Acknowledged) / float64(y.Reports)
}

// RunYear simulates the year-long LEAKPROF deployment: real defects drawn
// from the §VII taxonomy ship to services through the year, and benign
// congestion events (legitimate high-concentration blocking, the false-
// positive source) occur occasionally. Every sweep runs the real
// analyzer/reporter pipeline; triage acknowledges real defects and
// rejects congestion reports; all but three acknowledged defects get
// fixed (the paper's 21 of 24).
func RunYear(seed int64) YearOutcome {
	taxonomy := patterns.LeakprofTaxonomy()

	// The §VII taxonomy weights are integer report counts summing to 24;
	// expanding them yields exactly the paper's defect mix (timeout 5,
	// premature return 4, NCast 4, double send 2, ...).
	var defectPatterns []*patterns.Pattern
	for _, w := range taxonomy.Weights() {
		for i := 0; i < int(w.Weight); i++ {
			defectPatterns = append(defectPatterns, w.Pattern)
		}
	}

	// 24 real defects spread over the year, each on its own service.
	var configs []ServiceConfig
	patternOf := map[string]string{}
	for i := 0; i < 24 && i < len(defectPatterns); i++ {
		p := defectPatterns[i]
		name := serviceName("real", i)
		patternOf[name] = p.Name
		configs = append(configs, ServiceConfig{
			Name:             name,
			Instances:        8,
			Pattern:          p,
			LeakFile:         "services/" + name + "/handler.go",
			LeakLine:         30 + i,
			LeakPerDay:       4000,
			LeakStartDay:     3 + i*15, // staggered through the year
			FixDay:           -1,
			DeployEveryDays:  365, // incident persists until triaged
			BenignGoroutines: 20,
			Seed:             int64(100 + i),
		})
	}
	// 9 congestion events: legitimately blocked fan-out under overload.
	// They exceed the threshold (so LEAKPROF reports them) but triage
	// rejects them.
	for i := 0; i < 9; i++ {
		name := serviceName("busy", i)
		configs = append(configs, ServiceConfig{
			Name:             name,
			Instances:        4,
			Pattern:          patterns.ContractOutsideLoop, // blocked, but by design
			LeakFile:         "services/" + name + "/pool.go",
			LeakLine:         88,
			LeakPerDay:       12000,
			LeakStartDay:     10 + i*38,
			FixDay:           10 + i*38 + 30, // congestion subsides
			DeployEveryDays:  365,
			BenignGoroutines: 20,
			Seed:             int64(500 + i),
		})
	}

	f := New(time.Unix(0, 0).UTC(), configs)
	pipe := leakprof.New()
	db := report.NewDB()
	reporter := &leakprof.Reporter{DB: db, TopN: 50}

	outcome := YearOutcome{ByPattern: map[string]int{}}
	fixedBudgetSkips := 0
	for day := 0; day < 365; day++ {
		f.AdvanceDay()
		if day%7 != 0 {
			continue // weekly sweeps keep the simulation fast
		}
		sweep, _ := pipe.Sweep(context.Background(), f.Source())
		alerts := reporter.Report(sweep.Findings)
		for _, a := range alerts {
			if pat, isReal := patternOf[a.Bug.Service]; isReal {
				db.SetStatus(a.Bug.Key, report.StatusAcknowledged)
				outcome.ByPattern[pat]++
				// All but three acknowledged defects get fixed.
				if fixedBudgetSkips < 3 {
					fixedBudgetSkips++
				} else {
					db.SetStatus(a.Bug.Key, report.StatusFixed)
					fixService(f, a.Bug.Service, day)
				}
			} else {
				db.SetStatus(a.Bug.Key, report.StatusRejected)
			}
		}
	}
	counts := db.CountByStatus()
	outcome.Reports = len(db.All())
	outcome.Acknowledged = counts[report.StatusAcknowledged] + counts[report.StatusFixed]
	outcome.Fixed = counts[report.StatusFixed]
	outcome.Rejected = counts[report.StatusRejected]
	return outcome
}

func fixService(f *Fleet, name string, day int) {
	for _, s := range f.Services {
		if s.Cfg.Name == name {
			s.Cfg.FixDay = day + 1
			s.Cfg.DeployEveryDays = 2 // the fix rolls out promptly
		}
	}
}

func serviceName(kind string, i int) string {
	return kind + string(rune('A'+i%26)) + string(rune('a'+(i/26)%26))
}
