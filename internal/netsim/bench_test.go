package netsim

import (
	"runtime"
	"testing"
	"time"

	"rbcast/internal/sim"
)

// buildGrid wires a g×g server grid with hosts on the diagonal.
func buildGrid(b testing.TB, g int) (*sim.Engine, *Network) {
	b.Helper()
	eng := sim.NewEngine(1)
	n := New(eng)
	ids := make([][]ServerID, g)
	for r := 0; r < g; r++ {
		ids[r] = make([]ServerID, g)
		for c := 0; c < g; c++ {
			ids[r][c] = n.AddServer()
			if c > 0 {
				if _, err := n.AddLink(ids[r][c-1], ids[r][c], LinkConfig{Jitter: 0}); err != nil {
					b.Fatal(err)
				}
			}
			if r > 0 {
				if _, err := n.AddLink(ids[r-1][c], ids[r][c], LinkConfig{Jitter: 0}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < g; i++ {
		if err := n.AttachHost(HostID(i+1), ids[i][i], LinkConfig{Jitter: 0}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= g; i++ {
		if err := n.Handle(HostID(i), func(time.Duration, Envelope) {}); err != nil {
			b.Fatal(err)
		}
	}
	return eng, n
}

// BenchmarkRoutingRecompute measures a cold Dijkstra sweep after every
// topology change on a 100-server grid — the adaptive-routing cost.
func BenchmarkRoutingRecompute(b *testing.B) {
	eng, n := buildGrid(b, 10)
	link := n.Links()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Flip a link to invalidate caches, then force a route lookup via
		// a corner-to-corner send.
		if err := n.SetLinkUp(link, i%2 == 0); err != nil {
			b.Fatal(err)
		}
		if err := n.Send(1, 10, i); err != nil {
			b.Fatal(err)
		}
		if err := eng.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendWarmRoutes measures steady-state message forwarding with
// warm routing caches.
func BenchmarkSendWarmRoutes(b *testing.B) {
	eng, n := buildGrid(b, 10)
	if err := n.Send(1, 10, 0); err != nil {
		b.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Send(1, 10, i); err != nil {
			b.Fatal(err)
		}
		if err := eng.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimHop measures the transmit path alone: one warm Send from
// corner to corner of the 10×10 server grid — two access links and
// eighteen server links — run to delivery on the sequential engine, with
// no protocol above it. It reports the wall time and the heap
// allocations of one link traversal (route lookup, loss/jitter draw, one
// event through the queue); the payload is boxed once, outside the loop,
// so the allocation figure is the transmit path's own.
func BenchmarkNetsimHop(b *testing.B) {
	const from, to = HostID(1), HostID(10)
	eng, n := buildGrid(b, 10)
	delivered := 0
	if err := n.Handle(to, func(time.Duration, Envelope) { delivered++ }); err != nil {
		b.Fatal(err)
	}
	var payload any = "payload"
	traverse := func() {
		if err := n.Send(from, to, payload); err != nil {
			b.Fatal(err)
		}
		if err := eng.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	traverse() // warm the route tables, the event heap and the flight pool
	n.ResetStats()
	delivered = 0
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traverse()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if delivered != b.N {
		b.Fatalf("delivered %d of %d messages", delivered, b.N)
	}
	var hops uint64
	for _, v := range n.Stats().LinkTransmissions {
		hops += v
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(hops), "allocs/hop")
}
