package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Pop order is the engine's whole contract: strict (instant, insertion
// order), with cancellation, compaction, bounded runs and Stop changing
// nothing about it. The tests here run one program of scheduling calls
// against the real queue and against refEngine — a slice scanned for its
// earliest, first-inserted entry, which is what a stable sort by instant
// yields — and require the same firings at the same instants, the same
// Pending after every call and at every firing, and the same errors.

// orderEngine is what an order program drives.
type orderEngine interface {
	now() time.Duration // the clock an event sees while it runs
	pending() int
	eventsRun() uint64
	// schedule is a cancelable Schedule from outside any event.
	schedule(d time.Duration, fn Event) (cancel func())
	// spawn schedules from inside an event. On a sharded lane that is
	// ScheduleCross, which hands out no timer: cancel does nothing.
	spawn(d time.Duration, fn Event) (cancel func())
	// crossAt admits an uncancelable event at an absolute instant; one in
	// the past is clamped to the clock.
	crossAt(at time.Duration, fn Event)
	run(until time.Duration) error
	runUntilIdle() error
	stop()
}

type seqOrder struct{ e *Engine }

func newSeqOrder() orderEngine { return seqOrder{NewEngine(1)} }

func (o seqOrder) String() string     { return "engine" }
func (o seqOrder) now() time.Duration { return o.e.Now() }
func (o seqOrder) pending() int       { return o.e.Pending() }
func (o seqOrder) eventsRun() uint64  { return o.e.EventsRun() }
func (o seqOrder) schedule(d time.Duration, fn Event) func() {
	return o.e.Schedule(d, fn).Cancel
}
func (o seqOrder) spawn(d time.Duration, fn Event) func() { return o.schedule(d, fn) }
func (o seqOrder) crossAt(at time.Duration, fn Event) {
	o.e.ScheduleCross(0, 0, at-o.e.Now(), fn)
}
func (o seqOrder) run(until time.Duration) error { return o.e.Run(until) }
func (o seqOrder) runUntilIdle() error           { return o.e.RunUntilIdle() }
func (o seqOrder) stop()                         { o.e.Stop() }

// laneOrder drives lane 0 of a two-lane, two-worker Sharded engine. The
// other lane stays idle; the short lookahead makes the coordinator stop
// the lane between instants over and over, which is the bounded-step
// path a sequential Run only takes once per call.
type laneOrder struct{ s *Sharded }

func newLaneOrder() orderEngine {
	s := NewSharded(1, 2)
	s.SetLanes([]int{1, 1}, 3*time.Millisecond)
	return laneOrder{s}
}

func (o laneOrder) String() string     { return "sharded lane" }
func (o laneOrder) now() time.Duration { return o.s.NowOf(0) }
func (o laneOrder) pending() int       { return o.s.Pending() }
func (o laneOrder) eventsRun() uint64  { return o.s.EventsRun() }
func (o laneOrder) schedule(d time.Duration, fn Event) func() {
	return o.s.ScheduleOn(0, d, fn).Cancel
}
func (o laneOrder) spawn(d time.Duration, fn Event) func() {
	o.s.ScheduleCross(0, 0, d, fn)
	return func() {}
}
func (o laneOrder) crossAt(at time.Duration, fn Event) {
	o.s.ScheduleCross(0, 0, at-o.s.NowOf(0), fn)
}
func (o laneOrder) run(until time.Duration) error { return o.s.Run(until) }
func (o laneOrder) runUntilIdle() error           { return o.s.RunUntilIdle() }
func (o laneOrder) stop()                         { o.s.Stop() }

// refEngine is the reference: Engine's documented behaviour written the
// slow, obvious way.
type refEngine struct {
	lane     bool // spawn is uncancelable, as on a sharded lane
	clock    time.Duration
	events   []*refEvent // insertion order
	canceled int         // canceled entries still in events
	ran      uint64
	stopped  bool
}

type refEvent struct {
	at             time.Duration
	fn             Event
	canceled, gone bool
}

func (r *refEngine) now() time.Duration { return r.clock }
func (r *refEngine) pending() int       { return len(r.events) }
func (r *refEngine) eventsRun() uint64  { return r.ran }
func (r *refEngine) stop()              { r.stopped = true }

func (r *refEngine) add(at time.Duration, fn Event) *refEvent {
	ev := &refEvent{at: at, fn: fn}
	r.events = append(r.events, ev)
	return ev
}

func (r *refEngine) schedule(d time.Duration, fn Event) func() {
	if d < 0 {
		d = 0
	}
	ev := r.add(addSat(r.clock, d), fn)
	return func() {
		if ev.gone || ev.canceled {
			return
		}
		ev.canceled = true
		r.canceled++
		// Engine.maybeCompact's rule.
		if len(r.events) >= compactMin && 2*r.canceled > len(r.events) {
			kept := r.events[:0]
			for _, ev := range r.events {
				if ev.canceled {
					ev.gone = true
				} else {
					kept = append(kept, ev)
				}
			}
			r.events = kept
			r.canceled = 0
		}
	}
}

func (r *refEngine) spawn(d time.Duration, fn Event) func() {
	if !r.lane {
		return r.schedule(d, fn)
	}
	r.schedule(d, fn)
	return func() {}
}

func (r *refEngine) crossAt(at time.Duration, fn Event) {
	if at < r.clock {
		at = r.clock
	}
	r.add(at, fn)
}

func (r *refEngine) step(limit time.Duration, bounded bool) (bool, error) {
	for len(r.events) > 0 {
		first := 0
		for i, ev := range r.events {
			if ev.at < r.events[first].at {
				first = i
			}
		}
		ev := r.events[first]
		if bounded && ev.at > limit {
			return false, nil
		}
		r.events = append(r.events[:first], r.events[first+1:]...)
		ev.gone = true
		if ev.canceled {
			r.canceled--
			continue
		}
		if ev.at > r.clock {
			r.clock = ev.at
		}
		r.ran++
		ev.fn()
		if r.stopped {
			r.stopped = false
			return true, ErrStopped
		}
		return true, nil
	}
	return false, nil
}

func (r *refEngine) run(until time.Duration) error {
	if r.stopped {
		r.stopped = false
		return ErrStopped
	}
	for {
		ran, err := r.step(until, true)
		if err != nil {
			return err
		}
		if !ran {
			r.clock = until
			return nil
		}
	}
}

func (r *refEngine) runUntilIdle() error {
	if r.stopped {
		r.stopped = false
		return ErrStopped
	}
	for {
		ran, err := r.step(0, false)
		if err != nil || !ran {
			return err
		}
	}
}

// orderDelays is what programs draw delays from: zero, a few constants
// that many events share, a cluster of neighbours, jittered values that
// collide with nothing, hours, and both sides of every digit boundary of
// the radix queue (the top ones saturate the clock after a few steps).
// The first orderShortDelays entries stay well below a second.
var orderDelays = func() []time.Duration {
	const ms = time.Millisecond
	d := []time.Duration{
		0, 0, ms, ms, 5 * ms, 5 * ms, 100 * ms,
		2 * ms, 3 * ms, 4 * ms,
		ms + 1, ms + 17, ms + 333, 5*ms - 7, 100*ms + 4099,
		time.Hour, 3 * time.Hour,
	}
	for k := 1; k <= 10; k++ {
		b := time.Duration(1) << (6 * k)
		d = append(d, b-1, b, b+1)
	}
	return d
}()

const orderShortDelays = 15

func addSat(now, d time.Duration) time.Duration {
	if at := now + d; at >= now {
		return at
	}
	return math.MaxInt64
}

// orderEntry is one line of a run's log: a firing (id ≥ 0) or the state
// after a top-level call (id = -1 - its index in the program).
type orderEntry struct {
	id      int
	at      time.Duration
	pending int
	ran     uint64
	stopped bool
}

// orderRun interprets a program against one engine.
type orderRun struct {
	eng     orderEngine
	lane    bool
	log     []orderEntry
	cancels []func()
	nextID  int
}

const orderMaxDepth = 3

// event makes a fresh event. When it fires it logs itself and then, as
// behave says, schedules children (one at delay 0 — into the instant
// that is draining — and one later), cancels an earlier timer, or stops
// the run.
func (r *orderRun) event(depth int, behave byte) Event {
	id := r.nextID
	r.nextID++
	return func() {
		r.log = append(r.log, orderEntry{id: id, at: r.eng.now(), pending: r.eng.pending()})
		if depth == orderMaxDepth {
			return
		}
		child := behave*37 + 11
		if behave&1 != 0 {
			r.cancels = append(r.cancels, r.eng.spawn(0, r.event(depth+1, child)))
		}
		if behave&2 != 0 {
			d := orderDelays[int(behave>>2)%len(orderDelays)]
			r.cancels = append(r.cancels, r.eng.spawn(d, r.event(depth+1, child+1)))
		}
		if behave&0x40 != 0 && len(r.cancels) > 0 {
			r.cancels[int(behave>>2)%len(r.cancels)]()
		}
		if behave >= 0xf8 && !r.lane {
			r.eng.stop()
		}
	}
}

// exec runs the program: three bytes per call — what to do and two
// arguments.
func (r *orderRun) exec(prog []byte) {
	for pc := 0; pc+2 < len(prog); pc += 3 {
		op, a, b := prog[pc], prog[pc+1], prog[pc+2]
		delay := orderDelays[int(a)%len(orderDelays)]
		short := orderDelays[int(a)%orderShortDelays]
		var err error
		switch op % 8 {
		case 0, 1:
			r.cancels = append(r.cancels, r.eng.schedule(delay, r.event(0, b)))
		case 2:
			for k := 0; k <= int(a%16); k++ {
				d := orderDelays[(int(b)+k)%orderShortDelays]
				r.cancels = append(r.cancels, r.eng.schedule(d, r.event(1, b+byte(k))))
			}
		case 3:
			if len(r.cancels) > 0 {
				r.cancels[int(a)%len(r.cancels)]()
			}
		case 4:
			for k := len(r.cancels) - 1; k >= 0 && k >= len(r.cancels)-int(a); k-- {
				if k%8 != int(b%8) {
					r.cancels[k]()
				}
			}
		case 5:
			err = r.eng.run(addSat(r.eng.now(), short))
		case 6:
			r.eng.crossAt(addSat(r.eng.now(), delay)-time.Millisecond, r.event(0, b))
		case 7:
			switch {
			case b%4 == 0 && !r.lane:
				// Sharded.RunUntilIdle parks the clock a lookahead window
				// past the last event, where Engine leaves it on the event;
				// on a lane the program takes a long Run instead.
				err = r.eng.runUntilIdle()
			case b%4 == 1 && !r.lane:
				r.eng.stop()
			default:
				err = r.eng.run(addSat(r.eng.now(), delay))
			}
		}
		r.log = append(r.log, orderEntry{id: -1 - pc/3, at: r.eng.now(), pending: r.eng.pending(),
			ran: r.eng.eventsRun(), stopped: err != nil})
	}
}

// checkOrder runs prog on the engine newEng makes and on the reference,
// and fails on the first log entry that differs.
func checkOrder(t *testing.T, prog []byte, newEng func() orderEngine, lane bool) {
	t.Helper()
	got := &orderRun{eng: newEng(), lane: lane}
	want := &orderRun{eng: &refEngine{lane: lane}, lane: lane}
	got.exec(prog)
	want.exec(prog)
	for i := 0; i < len(got.log) || i < len(want.log); i++ {
		var g, w orderEntry
		if i < len(got.log) {
			g = got.log[i]
		}
		if i < len(want.log) {
			w = want.log[i]
		}
		if i >= len(got.log) || i >= len(want.log) || g != w {
			t.Fatalf("%v: log entry %d of %d/%d: got %+v, reference %+v\nprogram: %x",
				got.eng, i, len(got.log), len(want.log), g, w, prog)
		}
	}
}

func checkOrderBoth(t *testing.T, prog []byte) {
	t.Helper()
	checkOrder(t, prog, newSeqOrder, false)
	checkOrder(t, prog, newLaneOrder, true)
}

// orderSeedPrograms are hand-made programs for the places where the
// queue's reference instant and the engine clock part company.
var orderSeedPrograms = [][]byte{
	// Three events of one instant, the first spawning at delay 0.
	{0, 2, 1, 0, 2, 0, 0, 2, 0, 5, 4, 0},
	// A canceled head dated after the horizon's end, then earlier work.
	{0, 6, 0, 3, 0, 0, 7, 0, 0, 0, 2, 0, 7, 0, 0},
	// A Run that ends between two instants, then a schedule before the next.
	{0, 2, 0, 0, 6, 0, 5, 4, 0, 0, 2, 0, 7, 0, 0},
	// Bursts over every level, mass cancel (compaction), then drain.
	{2, 15, 0, 2, 15, 7, 0, 15, 0, 0, 16, 0, 0, 40, 0, 2, 15, 3, 2, 15, 9, 4, 200, 1, 5, 2, 0, 4, 200, 2, 7, 0, 0},
	// Digit boundaries and saturation.
	{0, 44, 3, 0, 45, 3, 0, 46, 3, 7, 45, 2, 0, 46, 3, 7, 46, 2, 7, 46, 2, 7, 46, 2, 7, 46, 2, 7, 46, 2, 7, 46, 2, 7, 46, 2, 0, 2, 3, 7, 0, 0},
}

// TestEngineOrderModel checks seeded random programs, short and long,
// against the reference, on the engine and on a sharded lane.
func TestEngineOrderModel(t *testing.T) {
	for i, prog := range orderSeedPrograms {
		prog := prog
		t.Run(fmt.Sprintf("seed-program-%d", i), func(t *testing.T) { checkOrderBoth(t, prog) })
	}
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		size := 30 + rng.Intn(600)
		if seed%25 == 0 {
			size = 6000 // a deep queue: thousands pending over many levels
		}
		prog := make([]byte, size)
		rng.Read(prog)
		checkOrderBoth(t, prog)
	}
}

// FuzzEngineOrder lets the fuzzer write the program.
func FuzzEngineOrder(f *testing.F) {
	for _, prog := range orderSeedPrograms {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 768 {
			prog = prog[:768] // the reference is quadratic; keep each run short
		}
		checkOrderBoth(t, prog)
	})
}

// The named cases: each spells out one situation and the order it must
// produce, on the engine and on a sharded lane.

func forOrderEngines(t *testing.T, f func(t *testing.T, eng orderEngine)) {
	t.Run("engine", func(t *testing.T) { f(t, newSeqOrder()) })
	t.Run("sharded-lane", func(t *testing.T) { f(t, newLaneOrder()) })
}

func wantOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// A delay-0 event scheduled while its own instant drains runs after
// everything already queued for that instant.
func TestZeroDelayJoinsEndOfDrainingInstant(t *testing.T) {
	forOrderEngines(t, func(t *testing.T, eng orderEngine) {
		var got []string
		note := func(s string) Event { return func() { got = append(got, s) } }
		eng.schedule(time.Millisecond, func() {
			got = append(got, "a")
			eng.spawn(0, note("d"))
		})
		eng.schedule(time.Millisecond, note("b"))
		eng.schedule(time.Millisecond, func() {
			got = append(got, "c")
			eng.spawn(0, note("e"))
		})
		eng.schedule(time.Millisecond+1, note("f"))
		if err := eng.run(time.Second); err != nil {
			t.Fatal(err)
		}
		wantOrder(t, got, "a", "b", "c", "d", "e", "f")
	})
}

// A bounded run pops a canceled head while the clock is still behind it —
// the queue's reference instant runs ahead of the clock — and then parks
// the clock at its limit. What is scheduled next, at the clock and just
// after it, fires in order ahead of what was queued behind the head.
func TestScheduleAfterPoppedCanceledHead(t *testing.T) {
	forOrderEngines(t, func(t *testing.T, eng orderEngine) {
		var got []string
		var at []time.Duration
		note := func(s string) Event {
			return func() { got = append(got, s); at = append(at, eng.now()) }
		}
		eng.schedule(10*time.Millisecond, note("canceled"))()
		eng.schedule(20*time.Millisecond, note("late"))
		// Pops the canceled head (10 ms); the clock stops at 12 ms.
		if err := eng.run(12 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if eng.pending() != 1 {
			t.Fatalf("pending = %d after the canceled head popped, want 1", eng.pending())
		}
		eng.schedule(time.Millisecond, note("early")) // 13 ms
		eng.crossAt(0, note("now"))                   // clamped to 12 ms
		if err := eng.run(time.Second); err != nil {
			t.Fatal(err)
		}
		wantOrder(t, got, "now", "early", "late")
		if at[0] != 12*time.Millisecond || at[1] != 13*time.Millisecond || at[2] != 20*time.Millisecond {
			t.Fatalf("fired at %v", at)
		}
	})
}

// With nothing left behind the canceled head, RunUntilIdle returns with
// the clock still before the popped instant, and the next schedule is
// dated earlier than the queue's reference instant was.
func TestScheduleAfterIdleOnCanceledTail(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*time.Millisecond, func() { t.Error("canceled event ran") }).Cancel()
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("now %v pending %d after draining a canceled tail, want 0 and 0", e.Now(), e.Pending())
	}
	var at time.Duration
	e.Schedule(time.Millisecond, func() { at = e.Now() })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != time.Millisecond {
		t.Fatalf("event fired at %v, want 1ms", at)
	}
}

// A bounded run that stops between two instants must leave the queue
// able to take an event dated before the next pending one.
func TestScheduleBetweenInstantsAfterBoundedRun(t *testing.T) {
	forOrderEngines(t, func(t *testing.T, eng orderEngine) {
		var got []string
		note := func(s string) Event { return func() { got = append(got, s) } }
		eng.schedule(10*time.Millisecond, note("a"))
		eng.schedule(30*time.Millisecond, note("d"))
		eng.schedule(30*time.Millisecond, note("e"))
		eng.schedule(time.Hour, note("f"))
		if err := eng.run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		eng.schedule(5*time.Millisecond, note("b"))  // 25 ms
		eng.schedule(10*time.Millisecond, note("x")) // 30 ms, after d and e
		eng.schedule(0, note("now"))                 // 20 ms
		if err := eng.run(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		wantOrder(t, got, "a", "now", "b", "d", "e", "x", "f")
	})
}

// Compaction sweeps every level in place: with events spread from
// level 0 to hours away and most of them canceled at once, the
// survivors keep their (instant, insertion) order and the queue shrinks.
func TestCompactionWithUpperLevelsOccupied(t *testing.T) {
	forOrderEngines(t, func(t *testing.T, eng orderEngine) {
		var got, want []int
		spread := []time.Duration{
			64 * time.Millisecond, 64*time.Millisecond + 1, 64*time.Millisecond + 63, 65 * time.Millisecond,
			time.Second, time.Second, time.Minute, time.Hour, 3 * time.Hour, 1 << 54,
		}
		// Run to 64 ms first so that the instants around it land on
		// level 0 and the rest on the levels above.
		eng.schedule(64*time.Millisecond, func() {})
		if err := eng.run(64 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		base := eng.now()
		type rec struct {
			at time.Duration
			id int
		}
		var live []rec
		var cancels []func()
		for i := 0; i < 400; i++ {
			i := i
			d := spread[i%len(spread)] - 64*time.Millisecond
			cancels = append(cancels, eng.schedule(d, func() { got = append(got, i) }))
			if i%5 == 0 {
				live = append(live, rec{base + d, i})
			}
		}
		for i, c := range cancels {
			if i%5 != 0 {
				c()
			}
		}
		if p := eng.pending(); p >= 200 || p < len(live) {
			t.Fatalf("pending = %d after canceling 320 of 400, want compaction to [%d, 200)", p, len(live))
		}
		if err := eng.run(1 << 55); err != nil {
			t.Fatal(err)
		}
		// Expected: stable by instant, i.e. by (instant, insertion).
		for len(live) > 0 {
			first := 0
			for j, r := range live {
				if r.at < live[first].at {
					first = j
				}
			}
			want = append(want, live[first].id)
			live = append(live[:first], live[first+1:]...)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("survivors fired %v, want %v", got, want)
		}
	})
}

// Schedule's instant saturates at the end of time instead of wrapping
// into the past: a huge delay at a positive clock used to fire at once.
func TestScheduleSaturates(t *testing.T) {
	e := NewEngine(1)
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	var at []time.Duration
	e.Schedule(math.MaxInt64, func() { at = append(at, e.Now()) })
	e.Schedule(math.MaxInt64-1, func() { at = append(at, e.Now()) })
	e.ScheduleCross(0, 0, math.MaxInt64, func() { at = append(at, e.Now()) })
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(at) != 0 || e.Pending() != 3 {
		t.Fatalf("after Run(1h): fired at %v, pending %d; want nothing fired, 3 pending", at, e.Pending())
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 || at[0] != math.MaxInt64 || at[2] != math.MaxInt64 || e.Now() != math.MaxInt64 {
		t.Fatalf("fired at %v, clock %v; want three firings at the largest Duration", at, e.Now())
	}
}

// The sharded engine's ScheduleCross saturates the same way, on both its
// same-lane and its mailbox path, and the end of time is reachable.
func TestShardedScheduleCrossSaturates(t *testing.T) {
	s := NewSharded(1, 2)
	s.SetLanes([]int{1, 1}, time.Millisecond)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	fired := make([]time.Duration, 2)
	s.ScheduleCross(0, 0, math.MaxInt64, func() { fired[0] = s.NowOf(0) })
	s.ScheduleCross(0, 1, math.MaxInt64, func() { fired[1] = s.NowOf(1) })
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if fired[0] != 0 || fired[1] != 0 || s.Pending() != 2 {
		t.Fatalf("after Run(1h): fired at %v, pending %d; want nothing fired, 2 pending", fired, s.Pending())
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired[0] != math.MaxInt64 || fired[1] != math.MaxInt64 {
		t.Fatalf("fired at %v, want both at the largest Duration", fired)
	}
}
