// Package allocs counts the heap allocations of a piece of code, for the
// tests that pin allocation counts.
//
// runtime.MemStats counts every allocation of the process, so a count
// taken around a closure also takes in whatever else runs meanwhile: a
// collection cycle, the runtime's own goroutines, another test's
// leftovers. Min keeps those out of the count as far as a test can: the
// collector is paused, one P runs Go code, and of several trials the
// fewest allocations count, since noise only ever adds.
package allocs

import (
	"math"
	"runtime"
	"runtime/debug"
)

// Min returns the fewest heap allocations run made over trials trials.
// Each trial builds a fresh fixture, which returns the run to count; the
// fixture's own allocations are not counted. Before each count the
// collector runs collections times — a sync.Pool, for one, keeps its
// items through one collection and drops them at the second.
func Min(trials, collections int, fixture func() (run func())) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range trials {
		run := fixture()
		for range collections {
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}
