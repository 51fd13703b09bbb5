package sim

import (
	"time"

	"rbcast/internal/detrand"
)

// Loop is the scheduling surface shared by the sequential Engine and the
// sharded parallel engine. Simulation code (netsim, harness, topologies)
// programs against Loop so a scenario can run on either implementation
// unchanged.
//
// A Loop exposes one or more lanes: independently clocked event queues
// that the sharded engine executes in parallel between conservative
// barriers. The sequential Engine is the one-lane degenerate case, where
// every lane-addressed method collapses onto the single global queue —
// so code written lane-aware runs byte-identically to code written
// against the plain Engine API when the lane count is one.
//
// The global methods (Schedule, Every, Now, Rand) address the
// coordinator context: events scheduled there run at epoch barriers with
// every lane parked, which makes them the right home for topology
// mutations, invariant probes, and monitors. The lane-addressed variants
// (ScheduleOn, EveryOn, NowOf, RandOf) address one lane's private clock
// and PRNG stream; they may only be called while lanes are parked
// (before Run, or between Run calls). ScheduleCross is the only
// scheduling call legal from inside a lane event, and is how work moves
// between lanes.
type Loop interface {
	// Now returns the global virtual time: the last barrier the loop
	// advanced to (for the sequential Engine, simply the clock).
	Now() time.Duration
	// Rand returns the global deterministic random source. From lane
	// events use RandOf with the executing lane instead.
	Rand() *detrand.Rand
	// EventsRun reports the number of events executed so far, summed
	// over every lane and the global queue.
	EventsRun() uint64
	// Pending reports the number of events currently scheduled anywhere
	// (including canceled events not yet popped and undrained mailbox
	// entries).
	Pending() int
	// Schedule runs fn after delay of virtual time in the global
	// (coordinator) context. Must not be called from a lane event.
	Schedule(delay time.Duration, fn Event) Timer
	// Every schedules fn periodically in the global context. Must not be
	// called from a lane event.
	Every(period time.Duration, fn Event) Timer
	// Run executes events until the virtual clock would pass until, then
	// sets the clock to until. Events scheduled exactly at until do
	// fire. It returns ErrStopped if Stop was called.
	Run(until time.Duration) error
	// RunUntilIdle executes events until none remain.
	RunUntilIdle() error
	// Stop makes the in-flight Run/RunUntilIdle return ErrStopped after
	// the current event (sequential) or epoch (sharded) completes. Safe
	// to call from any event context.
	Stop()

	// Lanes reports the number of lanes (1 for the sequential Engine).
	Lanes() int
	// NowOf returns lane's virtual clock. Between Run calls every lane
	// clock equals Now.
	NowOf(lane int) time.Duration
	// RandOf returns lane's deterministic random source. Events running
	// on a lane must draw randomness only from their own lane's stream.
	RandOf(lane int) *detrand.Rand
	// ScheduleOn schedules fn on lane's queue after delay of that lane's
	// virtual time. Must be called with lanes parked.
	ScheduleOn(lane int, delay time.Duration, fn Event) Timer
	// EveryOn schedules fn periodically on lane's queue. Must be called
	// with lanes parked.
	EveryOn(lane int, period time.Duration, fn Event) Timer
	// ScheduleCross schedules fn on lane to, delay after lane from's
	// current time. It is the only scheduling call legal from inside a
	// lane event (with from the executing lane). Cross-lane calls
	// (from != to) require delay >= the loop's lookahead bound; same-lane
	// calls may use any delay.
	ScheduleCross(from, to int, delay time.Duration, fn Event)
}

// Engine's Loop implementation: one lane, every lane-addressed method
// collapses onto the single queue. This keeps lane-aware callers (the
// network simulator, the harness) byte-identical to their pre-sharding
// behavior when running sequentially.

// Lanes reports 1: the sequential engine is a single lane.
func (e *Engine) Lanes() int { return 1 }

// NowOf returns the engine clock; the lane argument is ignored.
func (e *Engine) NowOf(int) time.Duration { return e.now }

// RandOf returns the engine's random source; the lane argument is
// ignored.
func (e *Engine) RandOf(int) *detrand.Rand { return e.rng }

// ScheduleOn schedules on the single queue; the lane argument is
// ignored.
func (e *Engine) ScheduleOn(_ int, delay time.Duration, fn Event) Timer {
	return e.Schedule(delay, fn)
}

// EveryOn schedules on the single queue; the lane argument is ignored.
func (e *Engine) EveryOn(_ int, period time.Duration, fn Event) Timer {
	return e.Every(period, fn)
}

// ScheduleCross schedules on the single queue; the lane arguments are
// ignored. The call returns no Timer, so nobody can cancel the event and
// it takes no cancel cell — the same admission as on a sharded lane.
//
//rblint:hotpath every simulated link traversal is admitted here
func (e *Engine) ScheduleCross(_, _ int, delay time.Duration, fn Event) {
	if fn == nil {
		panic("sim: ScheduleCross called with nil event")
	}
	if delay < 0 {
		delay = 0
	}
	e.pushCross(instantAfter(e.now, delay), fn)
}

var _ Loop = (*Engine)(nil)
var _ Loop = (*Sharded)(nil)
