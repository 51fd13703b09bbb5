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
