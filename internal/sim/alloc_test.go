package sim

import (
	"slices"
	"testing"
	"time"
)

// The event queue's allocation guarantee: once the heap and the
// cancel-cell free list have grown to working size, a schedule/run cycle
// performs no heap allocation — timer-churn-heavy soaks stay
// garbage-free. The doc comment of each queue operation names the test
// here that holds it.

func TestScheduleRunZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	fn := Event(func() { ran++ })
	// Warm the heap and the free list past the working set.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		runErr = e.RunUntilIdle()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if ran == 0 {
		t.Fatal("no events ran")
	}
	if allocs != 0 {
		t.Errorf("schedule/run cycle: %.1f allocs/op, want 0", allocs)
	}
}

// ScheduleCross hands out no Timer, so on the sequential engine too it
// takes no cancel cell: a warm engine's free list is as long after the
// call as before, and after the event ran. Cross and cancelable events of
// one instant still fire in the order they were scheduled, a canceled one
// between them skipped.
func TestScheduleCrossTakesNoCell(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	note := func(i int) Event { return func() { fired = append(fired, i) } }
	// Warm: two cells come back to the free list.
	e.Schedule(0, note(-1))
	e.Schedule(0, note(-2))
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	fired = fired[:0]
	cells := len(e.freeCells)
	if cells != 2 {
		t.Fatalf("%d cells on the warm free list, want 2", cells)
	}
	e.ScheduleCross(0, 0, time.Millisecond, note(0))
	if got := len(e.freeCells); got != cells {
		t.Errorf("ScheduleCross took a cancel cell: %d on the free list, was %d", got, cells)
	}
	e.Schedule(time.Millisecond, note(1))
	e.Schedule(time.Millisecond, note(2)).Cancel()
	e.ScheduleCross(0, 0, time.Millisecond, note(3))
	e.Schedule(time.Millisecond, note(4))
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 3, 4}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if got := len(e.freeCells); got != 3 {
		t.Errorf("%d cells on the free list after the run, want the 3 that Schedule took", got)
	}
	// Warm: enough crossings at 1 ms in a row to give that delay a FIFO,
	// which the measured ones then join.
	ev := note(5)
	for i := 0; i < promoteAfter; i++ {
		e.ScheduleCross(0, 0, time.Millisecond, ev)
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if e.q.nfifo != 1 {
		t.Fatalf("%d FIFOs after %d crossings at one delay, want 1", e.q.nfifo, promoteAfter)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleCross(0, 0, time.Millisecond, ev)
		if err := e.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ScheduleCross + run: %.1f allocs/op, want 0", allocs)
	}
}

func TestCancelCompactZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := Event(func() {})
	timers := make([]Timer, 0, 256)
	// Warm: drive one full schedule/cancel/compact/run cycle so the
	// heap, free list, and timer slice reach steady capacity.
	cycle := func() {
		timers = timers[:0]
		for i := 0; i < 200; i++ {
			timers = append(timers, e.Schedule(time.Duration(i)*time.Microsecond, fn))
		}
		// Cancel enough to cross the compaction threshold (canceled >
		// half of a heap of at least compactMin entries).
		for _, tm := range timers[:150] {
			tm.Cancel()
		}
		if err := e.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("schedule/cancel/compact cycle: %.1f allocs/op, want 0", allocs)
	}
}

// The cross-lane mailbox contract: once rows and destination heaps have
// reached working capacity, an enqueue (ScheduleCross) / drain / run
// cycle performs no heap allocation — the barrier path of the sharded
// engine stays garbage-free no matter how much traffic crosses lanes. Each
// cycle also crosses each lane to itself at one delay often enough that
// the lanes give it a FIFO.
func TestMailboxEnqueueDrainZeroAllocs(t *testing.T) {
	s := NewSharded(1, 1)
	s.SetLanes([]int{1, 1}, time.Millisecond)
	ran := 0
	fn := Event(func() { ran++ })
	cycle := func() {
		for i := 0; i < 32; i++ {
			s.ScheduleCross(0, 1, time.Duration(i+1)*time.Millisecond, fn)
			s.ScheduleCross(1, 0, time.Duration(i+1)*time.Millisecond, fn)
			s.ScheduleCross(0, 0, time.Duration(i)*time.Microsecond, fn)
		}
		for i := 0; i < 2*promoteAfter; i++ {
			s.ScheduleCross(i%2, i%2, time.Millisecond, fn)
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm rows, heaps, and the lane engines past the working set.
	for i := 0; i < 4; i++ {
		cycle()
	}
	for _, l := range s.lanes {
		if l.eng.q.nfifo == 0 {
			t.Fatalf("lane %d gave no delay a FIFO", l.id)
		}
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if ran == 0 {
		t.Fatal("no events ran")
	}
	if allocs != 0 {
		t.Errorf("enqueue/drain/run cycle: %.1f allocs/op, want 0", allocs)
	}
}

// The same guarantee at depth: with 64 Ki events pending — bunched on 16
// instants, or every one on an instant of its own — a warm queue pops,
// redistributes and re-admits them without allocating. Each event
// re-schedules itself one period ahead, so the depth and the shape of the
// instants hold while the clock moves through every level of the queue.
// The last case holds link hops instead: half the events cross at 1 ms
// and half at 30 ms, each re-crossing at its own delay, so both delays
// get a FIFO and the rings hold nearly every event.
func TestDeepQueueZeroAllocs(t *testing.T) {
	const depth = 1 << 16
	for _, tc := range []struct {
		name     string
		instants int
	}{
		{"16-instants", 16},
		{"all-distinct", depth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			const step = 977 * time.Microsecond // not a power of two: instants cross digit boundaries
			period := time.Duration(tc.instants) * step
			var fn Event
			fn = func() { e.Schedule(period, fn) }
			for i := 0; i < depth; i++ {
				e.Schedule(time.Duration(i%tc.instants)*step, fn)
			}
			// One full period warms the slab, the cell free list and every
			// slot the instants pass through.
			if err := e.Run(e.Now() + period); err != nil {
				t.Fatal(err)
			}
			before := e.EventsRun()
			var runErr error
			allocs := testing.AllocsPerRun(5, func() {
				if err := e.Run(e.Now() + period/4); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if e.Pending() != depth {
				t.Fatalf("Pending() = %d, want %d held", e.Pending(), depth)
			}
			if ran := e.EventsRun() - before; ran < depth {
				t.Fatalf("only %d events ran while measuring", ran)
			}
			if allocs != 0 {
				t.Errorf("deep queue hold cycle: %.1f allocs/op, want 0", allocs)
			}
		})
	}
	t.Run("two-fifo-delays", func(t *testing.T) {
		e := NewEngine(1)
		var fast, slow Event
		fast = func() { e.ScheduleCross(0, 0, time.Millisecond, fast) }
		slow = func() { e.ScheduleCross(0, 0, 30*time.Millisecond, slow) }
		for i := 0; i < depth; i++ {
			fn := fast
			if i >= depth/2 {
				fn = slow
			}
			// A different delay each time: nothing is promoted until the
			// events start re-crossing.
			e.ScheduleCross(0, 0, time.Duration(i%30)*time.Millisecond, fn)
		}
		if err := e.Run(e.Now() + 60*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if e.q.nfifo != 2 || e.q.fifos[0].n+e.q.fifos[1].n != depth {
			t.Fatalf("%d FIFOs holding %d and %d events after warming, want 2 holding all %d",
				e.q.nfifo, e.q.fifos[0].n, e.q.fifos[1].n, depth)
		}
		before := e.EventsRun()
		var runErr error
		allocs := testing.AllocsPerRun(5, func() {
			if err := e.Run(e.Now() + 10*time.Millisecond); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if e.Pending() != depth {
			t.Fatalf("Pending() = %d, want %d held", e.Pending(), depth)
		}
		if ran := e.EventsRun() - before; ran < depth {
			t.Fatalf("only %d events ran while measuring", ran)
		}
		if allocs != 0 {
			t.Errorf("two-delay hop hold cycle: %.1f allocs/op, want 0", allocs)
		}
	})
}
