package udp

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/node"
	"rbcast/internal/seqset"
)

// TestPeerAddressSpellings: sockets bound on 127.0.0.1 are AF_INET, and
// every way of writing a peer's address must end as an address such a
// socket will send to. The resolver returns IPv4 addresses in their
// 16-byte form whatever the spelling; sent to by value and unmapped, each
// of these groups loses every datagram.
func TestPeerAddressSpellings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spell func(*net.UDPAddr) string
	}{
		{"127.0.0.1:p", (*net.UDPAddr).String},
		{"localhost:p", func(a *net.UDPAddr) string { return fmt.Sprintf("localhost:%d", a.Port) }},
		{"[::ffff:127.0.0.1]:p", func(a *net.UDPAddr) string { return fmt.Sprintf("[::ffff:127.0.0.1]:%d", a.Port) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := startGroup(3, core.Params{}, tc.spell)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Stop()
			var last seqset.Seq
			for i := 0; i < 20; i++ {
				if last, err = g.Broadcast([]byte("spelled")); err != nil {
					t.Fatal(err)
				}
			}
			if !g.WaitAll(last, 20*time.Second) {
				t.Error("burst not delivered everywhere")
			}
			for id, n := range g.Nodes {
				if _, _, _, sendErrs := n.Stats(); sendErrs != 0 {
					t.Errorf("node %d: %d sends failed", id, sendErrs)
				}
			}
		})
	}
}

// loopbackPair is a sending socket that knows host 2's address, and host
// 2's receiving socket.
func loopbackPair(t *testing.T) (from, to socket) {
	t.Helper()
	listen := func() *net.UDPConn {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}
	from, to = socket{conn: listen()}, socket{conn: listen()}
	addr, err := resolvePeer(to.conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	from.addrs = map[core.HostID]netip.AddrPort{2: addr}
	return from, to
}

// TestDatagramPathAllocatesNothing: one socket.Send and the readLoop turn
// that receives it — stamp, write, read, classify, copy into a reused
// envelope — allocate nothing once the envelope free list is warm, under
// the race detector too.
func TestDatagramPathAllocatesNothing(t *testing.T) {
	from, to := loopbackPair(t)
	frame := make([]byte, 100)
	buf := make([]byte, maxDatagram)
	turn := func() {
		env := node.NewEnvelope()
		*env = append(*env, frame...)
		if err := from.Send(2, env); err != nil {
			t.Fatal(err)
		}
		got, costBit, err := to.receive(buf, time.Second)
		if err != nil || got == nil || len(*got) != len(frame) || costBit {
			t.Fatalf("received %v (cost bit %v, err %v), want the %d bytes sent", got, costBit, err, len(frame))
		}
		got.Release()
	}
	if got := testing.AllocsPerRun(200, turn); got != 0 {
		t.Errorf("a datagram sent and received allocates %v times, want 0", got)
	}
}

// BenchmarkLoopbackDelivery is the allocation microscope for the
// real-socket path: six nodes on loopback, b.N broadcasts from the
// source, at most a window of them outstanding. -memprofile on it shows
// what the repository benchmark's udp-loopback workload cannot; the
// reported allocs/delivery counts every malloc in the process per
// (receiver, message) delivery.
func BenchmarkLoopbackDelivery(b *testing.B) {
	const hosts, window = 6, 256
	g, err := StartGroup(hosts, core.Params{})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Stop()
	payload := make([]byte, 64)
	settle := func(last seqset.Seq) {
		if !g.WaitAll(last, 20*time.Second) {
			b.Fatalf("broadcasts up to %d not delivered everywhere", last)
		}
	}
	// The tree forms behind the first broadcast.
	first, err := g.Broadcast(payload)
	if err != nil {
		b.Fatal(err)
	}
	settle(first)

	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err := g.Broadcast(payload)
		if err != nil {
			b.Fatal(err)
		}
		if (i+1)%window == 0 || i == b.N-1 {
			settle(last)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*(hosts-1)), "allocs/delivery")
}
