package staticindex

import (
	"fmt"
	"io"
	"path"
	"strings"

	"repro/goleak"
	"repro/internal/atomicfile"
	"repro/leakprof"
)

// Suppressions derives a goleak suppression list from the cross-link:
// the static alarms production evidence argues are false positives.
// Two populations qualify:
//
//   - never-sighted alarms: the fleet ran, the sweep looked, nothing
//     ever blocked there;
//   - confirmed-but-oscillating alarms: production sighted the site,
//     but the blocked count shrinks between sweeps — congestion, not a
//     leak (§VI of the paper: growing counts separate leaks from load).
//
// Each entry's Reason carries the machine-generated evidence so owners
// reviewing the list can see why the alarm was demoted. Function-less
// sites (the line-keyed astcheck lints) are skipped: goleak matches by
// function name, so there is nothing to suppress on.
func (r *Report) Suppressions() *goleak.SuppressionList {
	list := goleak.NewSuppressionList()
	for _, rf := range r.Unsighted {
		if rf.Function == "" {
			continue
		}
		list.Add(goleak.Suppression{
			Function: qualifiedFunction(rf.File, rf.Function),
			Reason: fmt.Sprintf("static alarm (%s) never sighted in production; auto-suppressed by leakrank",
				strings.Join(rf.Detectors, ",")),
		})
	}
	for _, rf := range r.Confirmed {
		if rf.Function == "" || rf.Trend != leakprof.TrendOscillating {
			continue
		}
		list.Add(goleak.Suppression{
			Function: qualifiedFunction(rf.File, rf.Function),
			Reason: fmt.Sprintf("static alarm (%s) sighted %d times but oscillating — congestion, not a leak; auto-suppressed by leakrank",
				strings.Join(rf.Detectors, ","), rf.Sightings),
		})
	}
	return list
}

// qualifiedFunction approximates the runtime's package-qualified name
// for a declaration: the file's directory base is the package name for
// the trees the index scans (internal/synth emits package == dir base).
func qualifiedFunction(file, function string) string {
	pkg := path.Base(path.Dir(file))
	if pkg == "." || pkg == "/" {
		return function
	}
	return pkg + "." + function
}

// WriteSuppressions saves the derived suppression list to path
// atomically (see atomicfile.Write), in the goleak text format.
func (r *Report) WriteSuppressions(p string) error {
	list := r.Suppressions()
	return atomicfile.Write(p, func(w io.Writer) error {
		if _, err := io.WriteString(w, "# Generated by leakrank: static alarms demoted by production evidence.\n"); err != nil {
			return err
		}
		return list.Save(w)
	})
}
