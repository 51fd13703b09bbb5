package netsim

import (
	"fmt"
	"time"
)

// Topology-aware shard assignment. Lanes are the connected components of
// the server graph restricted to cheap links — the paper's clusters, up
// to repair state — with every host following its server. Two properties
// make this the right partition for conservative parallel simulation:
//
//  1. Every cross-lane server link is expensive (a cheap link would have
//     merged its endpoints into one lane), so the minimum cross-lane
//     delay — the lookahead bound δ — is large: 30ms by default, against
//     1ms cheap-link delays inside a lane. Wide epochs mean few barriers.
//  2. The partition is a static property of the *built* topology:
//     links are classified by construction, not by up/down state, so
//     runtime failures and repairs never re-partition the simulation and
//     the lane layout (hence the per-lane PRNG stream assignment) is a
//     pure function of (seed, scenario).
//
// Host links never cross lanes, and intra-lane traffic — the cheap-path
// bulk of any clustered workload — runs entirely inside one lane's
// epoch, at full sequential-engine speed.

// ShardPlan is a topology-derived lane partition, consumable by
// sim.Sharded.SetLanes and ApplyShardPlan.
type ShardPlan struct {
	// Lanes is the number of lanes (cheap-link components).
	Lanes int
	// ServerLane and HostLane map every server and host to its lane.
	ServerLane map[ServerID]int
	// HostLane maps every host to its server's lane.
	HostLane map[HostID]int
	// Weights counts hosts per lane; used to balance lanes across
	// workers.
	Weights []int
	// Lookahead is the minimum configured Delay over links joining
	// different lanes, or 0 when no link crosses lanes (unbounded
	// epochs). Jitter is additive in this simulator, so Delay is a true
	// lower bound on every cross-lane hop.
	Lookahead time.Duration
}

// ComputeShardPlan derives the lane partition from the current topology.
// Call it after the topology is fully built; the plan embeds no up/down
// state, so subsequent failures and repairs do not invalidate it.
func (n *Network) ComputeShardPlan() *ShardPlan {
	// Union-find over servers joined by any cheap link, up or down.
	parent := make([]ServerID, len(n.servers))
	for i := range parent {
		parent[i] = ServerID(i)
	}
	find := func(s ServerID) ServerID {
		for parent[s] != s {
			parent[s] = parent[parent[s]]
			s = parent[s]
		}
		return s
	}
	for _, l := range n.links[1:] {
		if l.cfg.Class != Cheap {
			continue
		}
		ra, rb := find(l.a), find(l.b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Number lanes densely by ascending lowest member server ID.
	p := &ShardPlan{
		ServerLane: make(map[ServerID]int, len(n.servers)-1),
		HostLane:   make(map[HostID]int, len(n.hosts)),
	}
	rootLane := make(map[ServerID]int)
	for _, srv := range n.servers[1:] {
		id := srv.id
		r := find(id)
		lane, ok := rootLane[r]
		if !ok {
			lane = p.Lanes
			p.Lanes++
			rootLane[r] = lane
		}
		p.ServerLane[id] = lane
	}
	p.Weights = make([]int, p.Lanes)
	for _, h := range n.Hosts() {
		lane := p.ServerLane[n.hosts[h].srv.id]
		p.HostLane[h] = lane
		p.Weights[lane]++
	}

	// Lookahead: the smallest configured delay on any lane-crossing
	// link. By construction such links are all expensive-class.
	for _, l := range n.links[1:] {
		if p.ServerLane[l.a] == p.ServerLane[l.b] {
			continue
		}
		if p.Lookahead == 0 || l.cfg.Delay < p.Lookahead {
			p.Lookahead = l.cfg.Delay
		}
	}
	return p
}

// ApplyShardPlan partitions the network's mutable state (stats, route
// and cluster caches, PRNG draws) by the plan's lanes and freezes the
// topology: no servers, links, or hosts may be added afterwards (link
// and host up/down toggles remain legal from parked contexts). The
// driving loop must already expose exactly the plan's lanes — for
// sim.Sharded, call SetLanes(p.Weights, p.Lookahead) first.
//
// Call order: build topology → ComputeShardPlan → SetLanes →
// ApplyShardPlan → attach handlers and schedule lane events.
func (n *Network) ApplyShardPlan(p *ShardPlan) error {
	if p == nil || p.Lanes < 1 {
		return fmt.Errorf("netsim: invalid shard plan")
	}
	if n.planFrozen {
		return fmt.Errorf("netsim: shard plan already applied")
	}
	if got := n.eng.Lanes(); got != p.Lanes {
		return fmt.Errorf("netsim: engine has %d lanes, plan has %d (call SetLanes with the plan's weights first)", got, p.Lanes)
	}
	if len(p.ServerLane) != len(n.servers)-1 || len(p.HostLane) != len(n.hosts) {
		return fmt.Errorf("netsim: shard plan covers %d servers/%d hosts, topology has %d/%d (recompute after building)",
			len(p.ServerLane), len(p.HostLane), len(n.servers)-1, len(n.hosts))
	}
	n.lanes = p.Lanes
	for _, srv := range n.servers[1:] {
		srv.lane = p.ServerLane[srv.id]
	}
	for id, hp := range n.hosts {
		hp.lane = p.HostLane[id]
	}
	n.perLane = make([]*laneState, p.Lanes+1)
	for i := range n.perLane {
		n.perLane[i] = &laneState{}
	}
	n.planFrozen = true
	return nil
}

// Lanes reports the network's lane count (1 without a shard plan).
func (n *Network) Lanes() int { return n.lanes }

// LaneOfHost reports the lane executing host h's traffic (0 without a
// shard plan).
func (n *Network) LaneOfHost(h HostID) int {
	if hp, ok := n.hosts[h]; ok {
		return hp.lane
	}
	return 0
}
