package udp_test

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/node"
	"rbcast/internal/seqset"
	"rbcast/internal/udp"
	"rbcast/internal/wire"
)

// datagram crafts what udp nodes exchange (layout in the package doc):
// the frame's envelope on the given stream, then the send stamp.
func datagram(t *testing.T, stream core.HostID, sentAt time.Time, frame wire.Frame) []byte {
	t.Helper()
	env, err := node.EncodeEnvelope(stream, frame)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.AppendUint64(*env, uint64(sentAt.UnixNano()))
}

// sendRaw sends one crafted datagram on stream 1 to addr.
func sendRaw(t *testing.T, addr string, sentAt time.Time, frame wire.Frame) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(datagram(t, 1, sentAt, frame)); err != nil {
		t.Fatal(err)
	}
}

// waitClusterContains polls the node's cluster view.
func waitClusterContains(t *testing.T, n *udp.Node, peer core.HostID, want bool, timeout time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var got bool
		if err := n.Inspect(func(h *core.Host) {
			for _, c := range h.Cluster() {
				if c == peer {
					got = true
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got == want {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// TestTransitTimeCostClassification verifies the paper's §2 timestamp
// alternative: a message whose observed transit time exceeds the
// threshold is treated as expensively delivered (peer leaves the cluster
// view), a fresh one as cheap (peer joins it).
func TestTransitTimeCostClassification(t *testing.T) {
	// A single node with a phantom peer 2 we impersonate by raw socket.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	params := udp.DefaultNodeParams()
	node, err := udp.StartNode(udp.NodeConfig{
		ID:     1,
		Source: 1,
		Peers: map[core.HostID]string{
			1: conn.LocalAddr().String(),
			2: "127.0.0.1:1", // never actually contacted in this test
		},
		Params:             params,
		ExpensiveThreshold: 50 * time.Millisecond,
		Conn:               conn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	info := wire.Frame{From: 2, Message: core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(1, 3), Parent: core.Nil,
	}}

	// Fresh timestamp → transit ≈ 0 → cheap → peer 2 joins the cluster.
	sendRaw(t, node.Addr(), time.Now(), info)
	if !waitClusterContains(t, node, 2, true, 5*time.Second) {
		t.Fatal("cheaply delivered message did not admit the peer to the cluster")
	}

	// Stale timestamp → transit >> threshold → expensive → peer evicted.
	sendRaw(t, node.Addr(), time.Now().Add(-time.Second), info)
	if !waitClusterContains(t, node, 2, false, 5*time.Second) {
		t.Fatal("expensively delivered message did not evict the peer from the cluster")
	}
}

// TestRawGarbageIgnored confirms hostile datagrams only bump the decode
// counter.
func TestRawGarbageIgnored(t *testing.T) {
	g, err := udp.StartGroup(2, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	target := g.Nodes[1]
	conn, err := net.Dial("udp", target.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, payload := range [][]byte{
		{},
		{1, 2, 3},
		make([]byte, 2000),
		binary.BigEndian.AppendUint64([]byte{0, 0, 0, 1, 0xFF, 0xFF}, uint64(time.Now().UnixNano())),
	} {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	// The node keeps working.
	seq, err := g.Broadcast([]byte("still alive"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.WaitAll(seq, 15*time.Second) {
		t.Fatal("broadcast failed after garbage datagrams")
	}
}

// forgedInfo is a routine-looking INFO frame claiming to come from a
// host outside the participant set and naming the victim as its parent
// — over UDP, From is whatever the datagram says.
func forgedInfo(from, victim core.HostID) wire.Frame {
	return wire.Frame{From: from, Message: core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(1, 3), Parent: victim,
	}}
}

// expectNoOutsiderState fails the test if the node's host holds anything
// about IDs at or above 1000 (none of which participate in these tests).
func expectNoOutsiderState(t *testing.T, n *udp.Node, forged int) {
	t.Helper()
	var children, members, records int
	if err := n.Inspect(func(h *core.Host) {
		for _, c := range h.Children() {
			if c >= 1000 {
				children++
			}
		}
		for _, c := range h.Cluster() {
			if c >= 1000 {
				members++
			}
		}
		for j := core.HostID(1000); j < core.HostID(1000+forged); j++ {
			if h.PeerHealthOf(j).EverHeard || !h.MapOf(j).Empty() || h.ParentView(j) != core.Nil {
				records++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if children+members+records != 0 {
		t.Errorf("forged senders left state behind: %d children, %d cluster members, %d peer records",
			children, members, records)
	}
}

// TestForgedSenderIgnored: datagrams whose From names no participant are
// received and decoded, and then change nothing — the host adopts no
// child, admits no cluster member, keeps no record — and the group still
// converges with such traffic in flight.
func TestForgedSenderIgnored(t *testing.T) {
	const forged = 50

	// A lone node (its one peer is a phantom that never talks), so the
	// received counter counts the forged datagrams exactly.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	lone, err := udp.StartNode(udp.NodeConfig{
		ID:     1,
		Source: 1,
		Peers:  map[core.HostID]string{1: conn.LocalAddr().String(), 2: "127.0.0.1:1"},
		Params: udp.DefaultNodeParams(),
		Conn:   conn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Stop()
	for i := 0; i < forged; i++ {
		sendRaw(t, lone.Addr(), time.Now(), forgedInfo(core.HostID(1000+i), 1))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, received, decodeErrs, _ := lone.Stats()
		if received == forged && decodeErrs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d forged datagrams (%d decode errors)", received, forged, decodeErrs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	expectNoOutsiderState(t, lone, forged)

	// A live group, forged frames interleaved with its own traffic.
	g, err := udp.StartGroup(3, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	victim := g.Nodes[2]
	for i := 0; i < forged; i++ {
		sendRaw(t, victim.Addr(), time.Now(), forgedInfo(core.HostID(1000+i), 2))
	}
	seq, err := g.Broadcast([]byte("despite the forgeries"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.WaitAll(seq, waitBudget) {
		t.Fatal("group did not converge with forged-sender traffic in flight")
	}
	expectNoOutsiderState(t, victim, forged)
}
