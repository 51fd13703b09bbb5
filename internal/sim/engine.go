// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of timed
// events. Events scheduled for the same instant fire in the order they
// were scheduled, which — together with a single seeded random source —
// makes every simulation run fully reproducible: the same seed and the
// same scenario produce the same event sequence, byte for byte.
//
// The queue is built for hot-loop throughput. Simulated time is lumpy —
// the protocol runs on periodic timers over fixed-delay links, so
// thousands of events share each instant — and the queue (queue.go)
// exploits both halves: a monotone radix queue keeps the events of one
// instant in one FIFO bucket, and the link hops of a recurring delay,
// which arrive already in instant order, skip it for a FIFO of their own;
// push and pop are O(1), and nothing is re-sorted. Cancellation cells are
// carved from per-engine chunks and recycled through a free list instead
// of allocated per event, and compaction sweeps canceled entries out of
// the queue once they outnumber live ones — so timer-churn-heavy runs
// (backoff scheduling, long recovery soaks) stay allocation-light and
// bounded in memory. None of this affects event order: events always
// fire in strict (time, insertion order) sequence.
package sim

import (
	"errors"
	"fmt"
	"time"

	"rbcast/internal/detrand"
)

// Event is a callback scheduled to run at a virtual instant.
type Event func()

// ErrStopped is returned by Run variants when Stop was called.
var ErrStopped = errors.New("sim: engine stopped")

// cancelCell is the shared state between a Timer and its scheduled
// event. Cells are recycled: gen increments on every release, so a Timer
// holding a stale cell (its event already fired or was compacted away)
// cancels nothing.
type cancelCell struct {
	canceled bool
	// queued reports whether the cell's event currently sits in the event
	// queue; only those cancellations count toward the compaction
	// threshold.
	queued bool
	gen    uint64
}

// Timer is a handle to a scheduled event that can be canceled.
type Timer struct {
	e    *Engine
	cell *cancelCell
	gen  uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled timer is a no-op. Cancel on the zero Timer is a no-op.
// Timer churn (backoff cancel/reschedule) dominates soak profiles, so
// Cancel allocates nothing; TestCancelCompactZeroAllocs holds that.
func (t Timer) Cancel() {
	if t.cell == nil || t.cell.gen != t.gen || t.cell.canceled {
		return
	}
	t.cell.canceled = true
	if t.cell.queued && t.e != nil {
		t.e.canceledPending++
		t.e.maybeCompact()
	}
}

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	rng     *detrand.Rand
	stopped bool
	ran     uint64

	// canceledPending counts canceled events still in the queue;
	// maybeCompact sweeps them once they outnumber live entries.
	canceledPending int
	freeCells       []*cancelCell
	// cells is the rest of the chunk new cells are carved from.
	cells []cancelCell

	q eventQueue // last: its slot table is large
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: detrand.New(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. All randomness
// in a simulation must come from here to preserve reproducibility.
func (e *Engine) Rand() *detrand.Rand { return e.rng }

// EventsRun reports the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports the number of events currently scheduled (including
// canceled events not yet popped or compacted away).
func (e *Engine) Pending() int { return e.q.n }

// cellChunk is how many cancel cells one allocation makes: a 1 KiB
// chunk, so the thousands of cold Schedule calls of a scenario's set-up
// cost one allocation per 64 of them.
const cellChunk = 64

// getCell returns a recycled cell, or a new one.
func (e *Engine) getCell() *cancelCell {
	if n := len(e.freeCells); n > 0 {
		c := e.freeCells[n-1]
		e.freeCells[n-1] = nil
		e.freeCells = e.freeCells[:n-1]
		c.canceled = false
		return c
	}
	return e.newCell()
}

// newCell carves a fresh cell from the engine's chunk, taking a new chunk
// when the last is used up.
func (e *Engine) newCell() *cancelCell {
	if len(e.cells) == 0 {
		e.cells = make([]cancelCell, cellChunk)
	}
	c := &e.cells[0]
	e.cells = e.cells[1:]
	return c
}

// releaseCell retires a cell once its event left the queue. Bumping gen
// invalidates every outstanding Timer for it before reuse.
// Recycling cells is what keeps timer churn allocation-free;
// TestScheduleRunZeroAllocs and TestCancelCompactZeroAllocs hold that.
func (e *Engine) releaseCell(c *cancelCell) {
	c.queued = false
	c.gen++
	e.freeCells = append(e.freeCells, c)
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero, and an instant past the largest time.Duration is
// that largest instant. It returns a Timer that can cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn Event) Timer {
	if fn == nil {
		panic("sim: Schedule called with nil event")
	}
	if delay < 0 {
		delay = 0
	}
	cell := e.getCell()
	cell.queued = true
	e.q.push(e.now, instantAfter(e.now, delay), fn, cell)
	return Timer{e: e, cell: cell, gen: cell.gen}
}

// pushCross admits an event at an absolute instant without allocating a
// cancel cell; the event cannot be canceled. This is the admission seam
// for ScheduleCross on both engines — a link traversal nobody holds a
// Timer for — and for the sharded engine's mailbox drain: cross-lane
// events arrive with a precomputed absolute time and must not touch the
// cell free list (getCell may allocate, and drains run on the hot barrier
// path). An instant in the engine's past is clamped to now. Only these
// events can join a fixed-delay FIFO (eventQueue.admit).
// Every link traversal and every epoch barrier's mailbox drain comes
// through here; TestScheduleCrossTakesNoCell and
// TestMailboxEnqueueDrainZeroAllocs hold it allocation-free.
func (e *Engine) pushCross(at time.Duration, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.q.push(e.now, at, fn, nil)
}

// compactMin is the queue size below which compaction is not worth the
// sweep; small queues drain canceled entries quickly on their own.
const compactMin = 64

// maybeCompact sweeps canceled events out of the queue once they exceed
// half of it. Without it, workloads that schedule and cancel timers en
// masse (exponential backoff across many peers) grow the queue without
// bound. Pop order is unaffected: live events keep their slots and their
// order within them.
// It runs on every Cancel of a queued timer and allocates nothing;
// TestCancelCompactZeroAllocs holds that.
func (e *Engine) maybeCompact() {
	if e.q.n < compactMin || 2*e.canceledPending <= e.q.n {
		return
	}
	e.sweep()
	e.canceledPending = 0
}

// Stop makes the currently running Run/RunUntilIdle return after the
// in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// peekMin reports the instant of the earliest scheduled event. Canceled
// entries are included: the sharded coordinator uses this as a barrier
// bound, and a bound that is slightly early is merely conservative.
func (e *Engine) peekMin() (time.Duration, bool) {
	if e.q.n == 0 {
		return 0, false
	}
	return e.q.min(), true
}

// step pops and executes the next event dated at most limit (maxInstant
// for an unbounded run). It reports whether an event ran.
func (e *Engine) step(limit time.Duration) (bool, error) {
	for e.q.n > 0 {
		at, fn, cell, ok := e.q.pop(limit)
		if !ok {
			return false, nil
		}
		if cell != nil {
			if cell.canceled {
				e.canceledPending--
				e.releaseCell(cell)
				continue
			}
			e.releaseCell(cell)
		}
		if at > e.now {
			e.now = at
		}
		e.ran++
		fn()
		if e.stopped {
			return true, ErrStopped
		}
		return true, nil
	}
	return false, nil
}

// Run executes events until the virtual clock would pass until, then sets
// the clock to until. Events scheduled exactly at until do fire. It
// returns ErrStopped if Stop was called.
//
// A Stop that arrives outside a run (or raced the end of the previous
// one) is honored before any event executes: Run returns ErrStopped and
// leaves the clock untouched rather than advancing it to until.
func (e *Engine) Run(until time.Duration) error {
	if e.stopped {
		e.stopped = false
		return ErrStopped
	}
	if until < e.now {
		return fmt.Errorf("sim: Run until %v is before now %v", until, e.now)
	}
	for {
		ran, err := e.step(until)
		if err != nil {
			e.stopped = false
			return err
		}
		if !ran {
			e.now = until
			return nil
		}
	}
}

// Every schedules fn to run at the given period, starting one period
// from now, until the returned timer is canceled. The callback runs once
// per period regardless of how long it takes (virtual time is free).
func (e *Engine) Every(period time.Duration, fn Event) Timer {
	if fn == nil {
		panic("sim: Every called with nil event")
	}
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with period %v", period))
	}
	// The cell is private to this periodic chain (never enters the queue,
	// never recycled), so the returned Timer stays valid for the chain's
	// whole lifetime.
	cell := e.newCell()
	var tick Event
	tick = func() {
		if cell.canceled {
			return
		}
		fn()
		if !cell.canceled {
			e.Schedule(period, tick)
		}
	}
	e.Schedule(period, tick)
	return Timer{e: e, cell: cell, gen: cell.gen}
}

// RunUntilIdle executes events until none remain. It returns ErrStopped
// if Stop was called. Use with care: periodic timers that reschedule
// themselves never drain.
//
// Like Run, a Stop pending from outside a run is honored before any
// event executes.
func (e *Engine) RunUntilIdle() error {
	if e.stopped {
		e.stopped = false
		return ErrStopped
	}
	for {
		ran, err := e.step(maxInstant)
		if err != nil {
			e.stopped = false
			return err
		}
		if !ran {
			return nil
		}
	}
}
