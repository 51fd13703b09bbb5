// Package lane is lanelint's testdata: events scheduled onto lanes
// that reach illegal Loop operations (global clocks, parked-only
// scheduling, wrong-lane addressing, map-ordered fan-out), alongside
// the clean counterparts and every exemption the analyzer honors.
// Checked as rbcast/internal/sim so the local Loop mirror lands in
// lanelint's scope.
package lane

import "time"

// Event, Timer, Rand and Loop mirror the real sim package's scheduling
// surface; lanelint recognizes the operations by method name and
// package path, so the mirror exercises exactly the production rules.
type Event func()

type Timer struct{}

type Rand struct{}

type Loop interface {
	Now() time.Duration
	Rand() *Rand
	Schedule(delay time.Duration, fn Event) Timer
	Every(period time.Duration, fn Event) Timer
	NowOf(lane int) time.Duration
	RandOf(lane int) *Rand
	ScheduleOn(lane int, delay time.Duration, fn Event) Timer
	EveryOn(lane int, period time.Duration, fn Event) Timer
	ScheduleCross(from, to int, delay time.Duration, fn Event)
}

func noop() {}

// globalFromLane smuggles global-context operations into a lane event:
// the exact determinism break the sharded engine's runtime checks only
// catch on executed paths.
func globalFromLane(l Loop) {
	l.ScheduleOn(1, time.Millisecond, func() {
		l.Schedule(time.Millisecond, noop) // want `sim\.Loop\.Schedule addresses the global coordinator context but is reachable from a lane event \(scheduled at lane\.go:\d+\)`
		_ = l.Now()                        // want `sim\.Loop\.Now addresses the global coordinator context`
	})
}

// helperFromLane reaches the global source through a helper call — the
// interprocedural case the effect summaries exist for.
func helperFromLane(l Loop) {
	l.ScheduleOn(2, time.Millisecond, func() { tickHelper(l) })
}

func tickHelper(l Loop) {
	_ = l.Rand() // want `sim\.Loop\.Rand addresses the global coordinator context but is reachable from a lane event \(scheduled at lane\.go:\d+\)`
}

// parkedFromLane calls a parked-only operation from inside an event.
func parkedFromLane(l Loop) {
	l.ScheduleOn(3, time.Millisecond, func() {
		l.EveryOn(3, time.Second, noop) // want `sim\.Loop\.EveryOn may only be called with lanes parked but is reachable from a lane event`
	})
}

// wrongConstLane addresses a different constant lane than the one the
// event executes on; the matching-constant read is legal.
func wrongConstLane(l Loop) {
	l.ScheduleOn(4, time.Millisecond, func() {
		_ = l.NowOf(5) // want `sim\.Loop\.NowOf addresses lane 5 but the executing lane of this event is lane 4`
		_ = l.NowOf(4)
	})
}

// varLanes tracks lane identity through captured variables: reads of
// the scheduled lane are legal, reads of a different variable are not,
// and ScheduleCross from the executing lane is the sanctioned way out.
func varLanes(l Loop, lane, other int) {
	l.ScheduleOn(lane, time.Millisecond, func() {
		_ = l.RandOf(lane)
		_ = l.RandOf(other) // want `sim\.Loop\.RandOf addresses lane variable other but the executing lane of this event is lane variable lane`
		l.ScheduleCross(lane, other, time.Millisecond, noop)
	})
}

// crossWrongFrom names another lane as the crossing origin.
func crossWrongFrom(l Loop, lane, other int) {
	l.ScheduleOn(lane, time.Millisecond, func() {
		l.ScheduleCross(other, lane, time.Millisecond, noop) // want `sim\.Loop\.ScheduleCross addresses lane variable other but the executing lane of this event is lane variable lane`
	})
}

// rebound follows the lane id through a static call: crossTo's `from`
// parameter is the executing lane, so the crossing is clean but the
// read of `to` is provably wrong.
func rebound(l Loop, lane int) {
	l.ScheduleOn(lane, time.Millisecond, func() { crossTo(l, lane, lane+1) })
}

func crossTo(l Loop, from, to int) {
	l.ScheduleCross(from, to, time.Millisecond, noop)
	_ = l.NowOf(to) // want `sim\.Loop\.NowOf addresses lane variable to but the executing lane of this event is lane variable from`
}

// crossLanding checks the event on the far side of a ScheduleCross
// against its landing lane, not its origin.
func crossLanding(l Loop, from, to int) {
	l.ScheduleCross(from, to, time.Millisecond, func() {
		_ = l.NowOf(from) // want `sim\.Loop\.NowOf addresses lane variable from but the executing lane of this event is lane variable to`
		_ = l.NowOf(to)
	})
}

// opaqueLane stays silent: a lane id reloaded from a field is beyond
// the provenance domain, and unproved is not reported.
type opaqueNode struct{ lane int }

func (s *opaqueNode) opaqueLane(l Loop) {
	l.ScheduleOn(s.lane, time.Millisecond, func() {
		_ = l.NowOf(s.lane)
	})
}

// record is the pooled-record shape of netsim's flight: its event is a
// struct field bound once to a method value (or set in a literal), and
// every scheduling site passes the field. lanelint resolves the field
// to every function the package stores in it, so both bodies below are
// seen to run on a lane. The lane variable of the scheduling site is
// not in scope inside hop, so hop's own read of its lane stays silent.
type record struct {
	l    Loop
	lane int
	run  Event
}

func newRecord(l Loop) *record {
	r := &record{l: l}
	r.run = r.hop
	return r
}

func keyedRecord(l Loop) *record {
	return &record{l: l, run: func() {
		_ = l.Now() // want `sim\.Loop\.Now addresses the global coordinator context but is reachable from a lane event`
	}}
}

func (r *record) hop() {
	lane := r.lane
	_ = r.l.NowOf(lane)
	r.l.Schedule(time.Millisecond, noop) // want `sim\.Loop\.Schedule addresses the global coordinator context but is reachable from a lane event \(scheduled at lane\.go:\d+\)`
}

func fieldBound(r *record, from, to int) {
	r.l.ScheduleCross(from, to, time.Millisecond, r.run)
}

// mapFanout schedules inside a map iteration, making queue insertion
// order follow map order; the slice-driven fan-out below is the fix.
func mapFanout(l Loop, lanes map[int]bool, sorted []int) {
	for lane := range lanes {
		l.ScheduleOn(lane, time.Millisecond, noop) // want `sim\.Loop\.ScheduleOn inside a map iteration`
	}
	for _, lane := range sorted {
		l.ScheduleOn(lane, time.Millisecond, noop)
	}
}

// dispatch calls a bare func() value — the event-dispatch shape whose
// dynamic edges lanelint deliberately does not follow, so scheduling a
// handler through it raises nothing here.
func dispatch(fn Event) { fn() }

// engine is a Loop implementation: its methods legitimately collapse
// lane operations onto a single queue (ScheduleOn calls Schedule), so
// lanelint neither reports their sites nor traverses into them.
type engine struct{ now time.Duration }

func (e *engine) Now() time.Duration      { return e.now }
func (e *engine) Rand() *Rand             { return nil }
func (e *engine) NowOf(int) time.Duration { return e.now }
func (e *engine) RandOf(int) *Rand        { return nil }

func (e *engine) Schedule(delay time.Duration, fn Event) Timer { return Timer{} }
func (e *engine) Every(period time.Duration, fn Event) Timer   { return Timer{} }

func (e *engine) ScheduleOn(_ int, delay time.Duration, fn Event) Timer {
	return e.Schedule(delay, fn)
}

func (e *engine) EveryOn(_ int, period time.Duration, fn Event) Timer {
	return e.Every(period, fn)
}

func (e *engine) ScheduleCross(_, _ int, delay time.Duration, fn Event) {
	e.Schedule(delay, fn)
}
