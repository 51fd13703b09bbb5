package netsim

import (
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
