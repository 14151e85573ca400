package leakprof

import (
	"time"

	"repro/internal/report"
)

// Reporter turns analyzer findings into owner alerts: it orders findings
// by perceived impact, takes the top N, resolves ownership, and files them
// into the bug database with dedup (Fig 3: "Deduplication" against the
// bug DB before alerting).
type Reporter struct {
	// DB is the bug database; required.
	DB *report.DB
	// Owners routes source locations to teams; nil routes everything to
	// "unowned".
	Owners *report.Ownership
	// TopN bounds alerts per sweep; zero means 10 (the paper alerts the
	// owners of the top N-most impactful locations).
	TopN int
	// Now supplies filing timestamps; nil means time.Now.
	Now func() time.Time
	// StaticAlarm, when set, annotates each filed bug with the static-
	// analysis verdict for its site: it receives the finding's function
	// and location ("file:line") and returns the alarm summary, or ""
	// when no detector flagged the site. staticindex.Index.AlarmFunc is
	// the standard implementation.
	StaticAlarm func(function, location string) string
}

// Report files the findings and returns the alerts for newly discovered
// defects. Findings must already be impact-ordered (Sweep.Findings
// guarantees this); re-sighted defects update the DB but do not re-alert.
func (r *Reporter) Report(findings []*Finding) []*report.Alert {
	topN := r.TopN
	if topN == 0 {
		topN = 10
	}
	now := r.Now
	if now == nil {
		now = time.Now
	}
	var alerts []*report.Alert
	for _, f := range findings {
		if len(alerts) >= topN {
			break
		}
		owner := "unowned"
		if r.Owners != nil {
			owner = r.Owners.OwnerOf(f.Location)
		}
		alarm := ""
		if r.StaticAlarm != nil {
			alarm = r.StaticAlarm(f.Function, f.Location)
		}
		bug, isNew := r.DB.File(report.Bug{
			Key:               f.Key(),
			Service:           f.Service,
			Op:                f.Op,
			Location:          f.Location,
			Function:          f.Function,
			Owner:             owner,
			BlockedGoroutines: f.TotalBlocked,
			Impact:            f.Impact,
			FiledAt:           now(),
			StaticAlarm:       alarm,
		})
		if !isNew {
			continue
		}
		alerts = append(alerts, &report.Alert{
			Bug:                    *bug,
			RepresentativeInstance: f.MaxInstance,
			RepresentativeCount:    f.MaxCount,
		})
	}
	return alerts
}
