package udp_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
	"rbcast/internal/udp"
)

// TestOnDeliverMayReadItsNode: an OnDeliver that reads its own node —
// HasAll, Delivered, Stats, InboxDrops — returns, at the source, which
// delivers inside Broadcast, and at a receiver, which delivers what the
// socket brought. The callback runs on the node goroutine, so a read that
// waited on a lock the delivery path holds would deadlock it, and -race
// does not report that. A failure leaves the nodes running: stopping them
// would wait for the deadlocked goroutine.
func TestOnDeliverMayReadItsNode(t *testing.T) {
	const hosts = 2
	peers := make(map[core.HostID]string, hosts)
	conns := make(map[core.HostID]*net.UDPConn, hosts)
	for id := core.HostID(1); id <= hosts; id++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[id], peers[id] = conn, conn.LocalAddr().String()
	}
	var nodes [hosts + 1]atomic.Pointer[udp.Node]
	returned := make(chan core.HostID, hosts)
	for id := core.HostID(1); id <= hosts; id++ {
		n, err := udp.StartNode(udp.NodeConfig{
			ID: id, Source: 1, Peers: peers, Conn: conns[id],
			OnDeliver: func(seq seqset.Seq, _ []byte) {
				n := nodes[id].Load()
				n.HasAll(seq)
				n.Delivered()
				n.Stats()
				n.InboxDrops()
				returned <- id
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id].Store(n)
	}
	go nodes[1].Load().Broadcast([]byte("re-entrant"))
	deadline := time.After(waitBudget)
	for range hosts {
		select {
		case <-returned:
		case <-deadline:
			t.Fatal("an OnDeliver reading its own node did not return")
		}
	}
	for id := core.HostID(1); id <= hosts; id++ {
		nodes[id].Load().Stop()
	}
}
