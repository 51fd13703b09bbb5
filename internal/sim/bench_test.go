package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineTimerChurn measures the event queue under backoff-style
// timer churn: a burst of scheduled events, most of which are canceled
// before they fire — the pattern long recovery soaks produce.
func BenchmarkEngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	const burst = 4096
	timers := make([]Timer, 0, burst)
	for i := 0; i < b.N; i++ {
		eng := NewEngine(1)
		timers = timers[:0]
		for j := 0; j < burst; j++ {
			timers = append(timers, eng.Schedule(time.Duration(j)*time.Microsecond, func() {}))
		}
		for j, t := range timers {
			if j%8 != 0 {
				t.Cancel()
			}
		}
		if err := eng.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "timers/s")
}

// BenchmarkEngineQueueDepth measures the event queue at depth with the
// classic hold model: 65 536 events stay pending, and every operation
// pops the earliest and schedules it again a random increment ahead.
// Clustered increments are whole milliseconds, 1 to 16 — the protocol's
// shape, thousands of events per instant; jittered ones add a random
// number of nanoseconds, so that nearly every event has an instant of
// its own. Both are timers (Schedule) and stay in the radix levels.
// Fixed delays are link hops (ScheduleCross) in the 512-host run's mix,
// 1 ms for 44 % and 30 ms for 56 %, which the queue gives a FIFO each.
// ns/op is the cost of one pop and one push, the engine's dispatch and
// one PRNG draw included.
func BenchmarkEngineQueueDepth(b *testing.B) {
	b.Run("clustered", func(b *testing.B) { benchQueueDepth(b, clustered) })
	b.Run("jittered", func(b *testing.B) { benchQueueDepth(b, jittered) })
	b.Run("fixed-delays", func(b *testing.B) { benchQueueDepth(b, fixedDelays) })
}

const (
	clustered = iota
	jittered
	fixedDelays
)

func benchQueueDepth(b *testing.B, shape int) {
	const depth = 1 << 16
	eng := NewEngine(1)
	rng := eng.Rand()
	var hold Event
	push := func() {
		switch shape {
		case fixedDelays:
			d := 30 * time.Millisecond
			if rng.Intn(100) < 44 {
				d = time.Millisecond
			}
			eng.ScheduleCross(0, 0, d, hold)
		case jittered:
			eng.Schedule(time.Duration(1+rng.Intn(16))*time.Millisecond+time.Duration(rng.Intn(int(time.Millisecond))), hold)
		default:
			eng.Schedule(time.Duration(1+rng.Intn(16))*time.Millisecond, hold)
		}
	}
	left := 0
	hold = func() {
		push()
		if left--; left == 0 {
			eng.Stop()
		}
	}
	for i := 0; i < depth; i++ {
		push()
	}
	// Warm: one full turnover brings the queue to its steady shape.
	left = depth
	if err := eng.RunUntilIdle(); err != ErrStopped {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	if err := eng.RunUntilIdle(); err != ErrStopped {
		b.Fatalf("hold loop: %v", err)
	}
	b.StopTimer()
	if eng.Pending() != depth {
		b.Fatalf("Pending() = %d, want %d held", eng.Pending(), depth)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
