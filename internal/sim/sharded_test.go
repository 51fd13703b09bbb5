package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runShardedSynthetic drives a fixed synthetic workload — per-lane tick
// chains drawing lane randomness, cross-lane sends honoring the
// lookahead, and a periodic global observer — on a 4-lane partition
// executed by the given worker count, and returns the full merged trace.
func runShardedSynthetic(t *testing.T, seed int64, workers int) string {
	t.Helper()
	const lanes = 4
	const delta = 5 * time.Millisecond
	s := NewSharded(seed, workers)
	s.SetLanes([]int{3, 1, 2, 2}, delta)

	// Per-lane trace buffers: each is appended to only by its own lane's
	// events (or the parked coordinator), so the workload is race-free
	// by lane confinement.
	traces := make([][]string, lanes)
	var global []string
	for l := 0; l < lanes; l++ {
		l := l
		s.EveryOn(l, time.Millisecond, func() {
			v := s.RandOf(l).Int63n(1000)
			traces[l] = append(traces[l], fmt.Sprintf("lane%d tick@%v v=%d", l, s.NowOf(l), v))
			if v%3 == 0 {
				to := int(v % lanes)
				d := delta + time.Duration(v)*time.Microsecond
				s.ScheduleCross(l, to, d, func() {
					traces[to] = append(traces[to], fmt.Sprintf("lane%d recv@%v from=%d v=%d", to, s.NowOf(to), l, v))
				})
			}
		})
	}
	// Global observer: runs at barriers with lanes parked, so reading
	// cross-lane state (EventsRun sums every lane) is legal and must be
	// deterministic at every sample point.
	s.Every(20*time.Millisecond, func() {
		global = append(global, fmt.Sprintf("global@%v events=%d pending=%d", s.Now(), s.EventsRun(), s.Pending()))
	})
	if err := s.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for l, tr := range traces {
		fmt.Fprintf(&b, "== lane %d ==\n", l)
		for _, line := range tr {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	b.WriteString("== global ==\n")
	for _, line := range global {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "final now=%v events=%d\n", s.Now(), s.EventsRun())
	return b.String()
}

// TestShardedWorkerCountIdentity pins the engine's core contract: the
// trace of a seeded run depends on the lane partition, never on the
// worker count. Workers are a pure throughput knob, and one a run gives
// back: once Run returns, the pool's goroutines have exited.
func TestShardedWorkerCountIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ref := runShardedSynthetic(t, seed, 1)
			if !strings.Contains(ref, "recv@") {
				t.Fatal("no cross-lane deliveries; the identity check is vacuous")
			}
			for _, workers := range []int{2, 3, 4, 8} {
				got := runShardedSynthetic(t, seed, workers)
				if got != ref {
					t.Fatalf("workers=%d diverged from workers=1:\n--- 1 worker ---\n%s--- %d workers ---\n%s",
						workers, ref, workers, got)
				}
				if n := waitForGoroutines(baseline, 5*time.Second); n > baseline {
					t.Fatalf("goroutines at %d after a %d-worker run, baseline %d: the pool outlived its run", n, workers, baseline)
				}
			}
		})
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline or the budget elapses, returning the final count: a worker
// sees its job channel close a scheduling moment after Run returns.
func waitForGoroutines(baseline int, budget time.Duration) int {
	deadline := time.Now().Add(budget)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Different seeds must produce different traces: per-lane streams derive
// from the run seed, so seed changes reach every lane.
func TestShardedSeedsDiverge(t *testing.T) {
	a := runShardedSynthetic(t, 1, 2)
	b := runShardedSynthetic(t, 2, 2)
	if a == b {
		t.Fatal("different seeds produced identical traces")
	}
}

// Global events run at their exact scheduled instant with every lane
// parked there — the property topology mutations and probes rely on.
func TestShardedGlobalEventExactInstant(t *testing.T) {
	s := NewSharded(1, 4)
	s.SetLanes([]int{1, 1, 1}, 2*time.Millisecond)
	for l := 0; l < 3; l++ {
		s.EveryOn(l, time.Millisecond, func() {})
	}
	const at = 7500 * time.Microsecond
	checked := false
	s.Schedule(at, func() {
		checked = true
		if s.Now() != at {
			t.Errorf("global event sees Now=%v, want %v", s.Now(), at)
		}
		for l := 0; l < s.Lanes(); l++ {
			if s.NowOf(l) != at {
				t.Errorf("lane %d clock = %v during global event, want %v", l, s.NowOf(l), at)
			}
		}
	})
	if err := s.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("global event never ran")
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("final clock %v, want 20ms", s.Now())
	}
	for l := 0; l < s.Lanes(); l++ {
		if s.NowOf(l) != s.Now() {
			t.Errorf("lane %d parked at %v, want %v", l, s.NowOf(l), s.Now())
		}
	}
}

// The sharded engine honors the same pending-Stop contract as the
// sequential one: ErrStopped before any event runs, clock untouched.
func TestShardedStopPending(t *testing.T) {
	s := NewSharded(3, 2)
	s.SetLanes([]int{1, 1}, time.Millisecond)
	fired := false
	s.ScheduleOn(0, 5*time.Millisecond, func() { fired = true })
	s.Stop()
	if err := s.Run(10 * time.Millisecond); err != ErrStopped {
		t.Fatalf("Run with pending Stop returned %v, want ErrStopped", err)
	}
	if fired || s.Now() != 0 {
		t.Errorf("fired=%t now=%v after ErrStopped, want false/0", fired, s.Now())
	}
	if err := s.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event did not run after the Stop was consumed")
	}
}

// Stop from inside a lane event takes effect at the next barrier and
// Run resumes cleanly afterwards.
func TestShardedStopFromLaneEvent(t *testing.T) {
	s := NewSharded(5, 2)
	s.SetLanes([]int{1, 1}, time.Millisecond)
	ticks := 0
	s.EveryOn(0, time.Millisecond, func() {
		ticks++
		if ticks == 5 {
			s.Stop()
		}
	})
	if err := s.Run(time.Second); err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if s.Now() >= time.Second {
		t.Errorf("clock ran to the horizon (%v) despite Stop", s.Now())
	}
	stoppedAt := s.Now()
	if err := s.Run(stoppedAt + 10*time.Millisecond); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if ticks <= 5 {
		t.Errorf("ticks = %d after resume, want > 5", ticks)
	}
}

// Events scheduled exactly at the horizon fire, matching Run's contract
// on the sequential engine — including same-instant chains they spawn.
func TestShardedRunHorizonInclusive(t *testing.T) {
	s := NewSharded(1, 2)
	s.SetLanes([]int{1, 1}, time.Millisecond)
	var atHorizon, chained bool
	s.ScheduleOn(1, 10*time.Millisecond, func() {
		atHorizon = true
		s.ScheduleCross(1, 1, 0, func() { chained = true })
	})
	if err := s.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !atHorizon || !chained {
		t.Errorf("atHorizon=%t chained=%t, want both true", atHorizon, chained)
	}
}

// DESIGN.md's "Lane discipline" table, held at run time: each row makes
// one call from a lane-0 event of a two-lane engine run by one worker,
// where the engine knows the executing lane. A call the table forbids
// must panic, naming itself; a legal one must not. A break of the
// discipline is a bug in the caller, and the engine fails loudly instead
// of reading another lane's clock mid-epoch or delivering a cross-lane
// event late.
func TestShardedScheduleFromLaneEventPanics(t *testing.T) {
	const delta = time.Millisecond
	noop := func() {}
	for _, tc := range []struct {
		name string
		call func(s *Sharded)
		want string // a substring of the panic; empty: must not panic
	}{
		{"Schedule", func(s *Sharded) { s.Schedule(delta, noop) }, "Schedule called from a lane event"},
		{"Every", func(s *Sharded) { s.Every(delta, noop) }, "Every called from a lane event"},
		{"Now", func(s *Sharded) { s.Now() }, "Now called from a lane event"},
		{"Rand", func(s *Sharded) { s.Rand() }, "Rand called from a lane event"},
		{"ScheduleOn(0)", func(s *Sharded) { s.ScheduleOn(0, delta, noop) }, "ScheduleOn called from a lane event"},
		{"EveryOn(0)", func(s *Sharded) { s.EveryOn(0, delta, noop) }, "EveryOn called from a lane event"},
		{"NowOf(1)", func(s *Sharded) { s.NowOf(1) }, "NowOf addresses lane 1 from a lane-0 event"},
		{"RandOf(1)", func(s *Sharded) { s.RandOf(1) }, "RandOf addresses lane 1 from a lane-0 event"},
		{"ScheduleCross(1,0,δ)", func(s *Sharded) { s.ScheduleCross(1, 0, delta, noop) }, "ScheduleCross addresses lane 1 from a lane-0 event"},
		{"ScheduleCross(0,1,δ/2)", func(s *Sharded) { s.ScheduleCross(0, 1, delta/2, noop) }, "ScheduleCross from lane 0 to lane 1 with delay 500µs, below the lookahead 1ms"},
		{"ScheduleCross(0,1,δ,nil)", func(s *Sharded) { s.ScheduleCross(0, 1, delta, nil) }, "ScheduleCross called with nil event"},
		{"NowOf(0)", func(s *Sharded) { s.NowOf(0) }, ""},
		{"RandOf(0)", func(s *Sharded) { s.RandOf(0) }, ""},
		{"ScheduleCross(0,1,δ)", func(s *Sharded) { s.ScheduleCross(0, 1, delta, noop) }, ""},
		{"ScheduleCross(0,0,0)", func(s *Sharded) { s.ScheduleCross(0, 0, 0, noop) }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSharded(1, 1)
			s.SetLanes([]int{1, 1}, delta)
			ran := false
			var got any
			s.ScheduleOn(0, time.Millisecond, func() {
				ran = true
				defer func() { got = recover() }()
				tc.call(s)
			})
			// Contain the run: a call the engine let through may leave a
			// nil or misplaced event behind.
			func() {
				defer func() { recover() }()
				_ = s.Run(5 * delta)
			}()
			switch {
			case !ran:
				t.Fatal("lane event never ran")
			case tc.want == "" && got != nil:
				t.Fatalf("panicked: %v", got)
			case tc.want != "" && got == nil:
				t.Fatalf("did not panic; want %q", tc.want)
			case tc.want != "" && !strings.Contains(fmt.Sprint(got), tc.want):
				t.Fatalf("panic %q does not name the call; want %q", got, tc.want)
			}
		})
	}
}

// SetLanes after lane events exist would orphan them; it must refuse.
func TestShardedSetLanesAfterScheduleOnPanics(t *testing.T) {
	s := NewSharded(1, 2)
	s.SetLanes([]int{1, 1}, time.Millisecond)
	s.ScheduleOn(0, time.Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetLanes after ScheduleOn did not panic")
		}
	}()
	s.SetLanes([]int{1, 1, 1}, time.Millisecond)
}

// RunUntilIdle drains lane heaps, mailboxes, and the global queue.
func TestShardedRunUntilIdle(t *testing.T) {
	s := NewSharded(9, 2)
	s.SetLanes([]int{1, 1}, 2*time.Millisecond)
	var order []string
	s.ScheduleOn(0, time.Millisecond, func() {
		order = append(order, "a") // lane 0; coordinator merges post-run
		s.ScheduleCross(0, 1, 2*time.Millisecond, func() {
			order = append(order, "b")
			s.ScheduleCross(1, 0, 3*time.Millisecond, func() { order = append(order, "c") })
		})
	})
	s.Schedule(4*time.Millisecond, func() { order = append(order, "g") })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, "")
	if got != "abgc" {
		t.Fatalf("execution order %q, want %q", got, "abgc")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after RunUntilIdle, want 0", s.Pending())
	}
}
