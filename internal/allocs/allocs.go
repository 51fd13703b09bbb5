// Package allocs counts the heap allocations of a piece of code, and the
// bytes they take, for the tests that pin them.
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
	return least(trials, collections, fixture, func(m *runtime.MemStats) uint64 { return m.Mallocs })
}

// MinBytes is Min for the bytes run allocated.
func MinBytes(trials, collections int, fixture func() (run func())) uint64 {
	return least(trials, collections, fixture, func(m *runtime.MemStats) uint64 { return m.TotalAlloc })
}

// least is the fewest of count's readings over trials trials.
func least(trials, collections int, fixture func() (run func()), count func(*runtime.MemStats) uint64) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range trials {
		run := fixture()
		for range collections {
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, count(&after)-count(&before))
	}
	return fewest
}
