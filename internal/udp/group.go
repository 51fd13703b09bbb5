package udp

import (
	"fmt"
	"net"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// Group is a set of UDP nodes on one machine, for tests and demos.
type Group struct {
	Nodes map[core.HostID]*Node
	// Source is the broadcasting node's ID.
	Source core.HostID
}

// StartGroup binds n loopback sockets on ephemeral ports and starts one
// node per host ID 1..n, with host 1 as the source. Passing params ==
// core.Params{} uses DefaultNodeParams.
func StartGroup(n int, params core.Params) (*Group, error) {
	return startGroup(n, params, (*net.UDPAddr).String)
}

// startGroup is StartGroup with the spelling of each bound address in
// Peers left to the caller.
func startGroup(n int, params core.Params, spell func(*net.UDPAddr) string) (*Group, error) {
	if n < 1 {
		return nil, fmt.Errorf("udp: group size %d", n)
	}
	conns := make(map[core.HostID]*net.UDPConn, n)
	peers := make(map[core.HostID]string, n)
	cleanup := func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}
	for i := 1; i <= n; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("udp: binding node %d: %w", i, err)
		}
		conns[core.HostID(i)] = conn
		peers[core.HostID(i)] = spell(conn.LocalAddr().(*net.UDPAddr))
	}
	g := &Group{Nodes: make(map[core.HostID]*Node, n), Source: 1}
	for id, conn := range conns {
		node, err := StartNode(NodeConfig{
			ID:     id,
			Source: g.Source,
			Peers:  peers,
			Params: params,
			Conn:   conn,
		})
		if err != nil {
			g.Stop()
			cleanup()
			return nil, err
		}
		g.Nodes[id] = node
	}
	return g, nil
}

// Broadcast injects one message at the source.
func (g *Group) Broadcast(payload []byte) (seqset.Seq, error) {
	return g.Nodes[g.Source].Broadcast(payload)
}

// WaitAll polls until every node has delivered 1..max or the timeout
// elapses.
func (g *Group) WaitAll(max seqset.Seq, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, node := range g.Nodes {
			if !node.HasAll(max) {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stop stops every node.
func (g *Group) Stop() {
	for _, node := range g.Nodes {
		node.Stop()
	}
}
