package leakprof

import (
	"time"

	"repro/internal/astcheck"
	"repro/internal/stack"
)

// FilterLocations builds an OpFilter dropping operations at the given
// "file:line" locations. It is the join point for criterion 2 of Section
// V-A: the locations typically come from the AST transient-select
// analysis over the service's source tree.
func FilterLocations(locations map[string]bool) OpFilter {
	return func(op stack.BlockedOp) bool {
		return locations[op.Location]
	}
}

// FilterTransientSelects runs the paper's AST filter over parsed source
// files and returns an OpFilter suppressing goroutines blocked at select
// statements whose every arm is provably transient (time.Tick,
// time.After, timer channels, context.Done).
func FilterTransientSelects(files []*astcheck.File) OpFilter {
	return FilterLocations(astcheck.TransientLocations(files))
}

// FilterTransientSource is FilterTransientSelects over a source tree on
// disk.
func FilterTransientSource(root string) (OpFilter, error) {
	files, err := astcheck.ParseDir(root)
	if err != nil {
		return nil, err
	}
	return FilterTransientSelects(files), nil
}

// FilterMinWait drops goroutines the runtime reports as blocked for less
// than d: an extension of the paper's criterion 2 exploiting the wait
// durations present in debug=2 profiles ("chan send, 5 minutes"). A
// goroutine blocked for days is a far stronger leak signal than one
// blocked for seconds. Operations whose profiles carry no wait
// information (WaitTime zero) are kept.
//
// Note: grouping in CountByLocation folds wait times away, so this
// filter only has effect as a pipeline filter (WithFilters), which runs
// on the per-goroutine BlockedOp before aggregation.
func FilterMinWait(d time.Duration) OpFilter {
	return func(op stack.BlockedOp) bool {
		return op.WaitTime != 0 && time.Duration(op.WaitTime) < d
	}
}
