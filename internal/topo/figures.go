package topo

import (
	"rbcast/internal/netsim"
	"rbcast/internal/sim"
)

// The paper's figures, reconstructed as executable topologies.

// Figure31 builds the paper's Figure 3.1: three hosts h1, h2, h3 on
// servers s1, s2, s3, with a fourth pure-switch server s4 in the middle
// (links s1–s4, s4–s2, s4–s3). Host 1 is the source.
//
// The figure's point is that the cost-optimal broadcast — s4 duplicating
// the message once for s2 and once for s3, each link traversed exactly
// once — is unattainable with nonprogrammable servers: h1 must send two
// separately addressed copies, so link s1–s4 is traversed twice. All
// links are expensive here, putting each host in its own cluster, so the
// paper's inter-cluster cost metric applies directly. The switch s4 is
// cluster 3, a cluster without hosts.
func Figure31(eng sim.Loop) (*Topology, error) {
	n := netsim.New(eng)
	servers := []netsim.ServerID{n.AddServer(), n.AddServer(), n.AddServer(), n.AddServer()}
	exp := netsim.LinkConfig{Class: netsim.Expensive}
	t := &Topology{
		Net:              n,
		Source:           1,
		Hosts:            []netsim.HostID{1, 2, 3},
		HostsByCluster:   [][]netsim.HostID{{1}, {2}, {3}},
		ServersByCluster: [][]netsim.ServerID{{servers[0]}, {servers[1]}, {servers[2]}, {servers[3]}},
	}
	for _, pair := range [][2]int{{0, 3}, {3, 1}, {3, 2}} {
		id, err := n.AddLink(servers[pair[0]], servers[pair[1]], exp)
		if err != nil {
			return nil, err
		}
		t.WANLinks = append(t.WANLinks, id)
		t.WANBetween = append(t.WANBetween, pair)
	}
	hostLink := netsim.LinkConfig{Class: netsim.Cheap}
	for i, h := range t.Hosts {
		if err := n.AttachHost(h, servers[i], hostLink); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Figure32 builds the paper's Figure 3.2 situation: a source cluster S
// and three further clusters C′, C″, and C, where C can reach both C′
// and C″ over expensive links — so the attachment procedure must choose
// C's parent cluster — and C′/C″ connect to S.
//
// Clusters: S = {1, 2}, C′ = {3, 4}, C″ = {5, 6}, C = {7, 8, 9}.
// WAN: S–C′, S–C″, C′–C, C″–C. Host 1 is the source.
//
// The returned topology also supports the paper's cluster-merge
// discussion (§4.1): MergeFigure32Clusters adds a cheap path between C″
// and C, merging them, after which the host parent graph no longer
// induces a cluster tree until the procedure re-converges.
func Figure32(eng sim.Loop) (*Topology, error) {
	n := netsim.New(eng)
	t := &Topology{Net: n, Source: 1}
	cheap := netsim.LinkConfig{Class: netsim.Cheap}
	exp := netsim.LinkConfig{Class: netsim.Expensive}
	sizes := []int{2, 2, 2, 3} // S, C′, C″, C
	hubs := make([]netsim.ServerID, len(sizes))
	next := netsim.HostID(1)
	for c, size := range sizes {
		var servers []netsim.ServerID
		var hosts []netsim.HostID
		for i := 0; i < size; i++ {
			s := n.AddServer()
			servers = append(servers, s)
			if i == 0 {
				hubs[c] = s
			} else if _, err := n.AddLink(hubs[c], s, cheap); err != nil {
				return nil, err
			}
			if err := n.AttachHost(next, s, cheap); err != nil {
				return nil, err
			}
			hosts = append(hosts, next)
			t.Hosts = append(t.Hosts, next)
			next++
		}
		t.HostsByCluster = append(t.HostsByCluster, hosts)
		t.ServersByCluster = append(t.ServersByCluster, servers)
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		id, err := n.AddLink(hubs[pair[0]], hubs[pair[1]], exp)
		if err != nil {
			return nil, err
		}
		t.WANLinks = append(t.WANLinks, id)
		t.WANBetween = append(t.WANBetween, pair)
	}
	return t, nil
}

// MergeFigure32Clusters adds a cheap link between clusters C″ (index 2)
// and C (index 3), reproducing the §4.1 example where a high-bandwidth
// path repair joins two clusters into one.
func MergeFigure32Clusters(t *Topology) (netsim.LinkID, error) {
	return t.Net.AddLink(
		t.ServersByCluster[2][0],
		t.ServersByCluster[3][0],
		netsim.LinkConfig{Class: netsim.Cheap},
	)
}

// Figure41 builds the paper's Figure 4.1: the source s (host 1) and two
// hosts i (host 2) and j (host 3), each in its own cluster, pairwise
// connected by expensive links. Cutting the two links at the source's
// server isolates s while leaving i–j connected — the configuration in
// which only non-neighbour gap filling can reconcile i's and j's
// complementary gaps.
func Figure41(eng sim.Loop) (*Topology, error) {
	n := netsim.New(eng)
	servers := []netsim.ServerID{n.AddServer(), n.AddServer(), n.AddServer()}
	exp := netsim.LinkConfig{Class: netsim.Expensive}
	cheap := netsim.LinkConfig{Class: netsim.Cheap}
	t := &Topology{
		Net:              n,
		Source:           1,
		Hosts:            []netsim.HostID{1, 2, 3},
		HostsByCluster:   [][]netsim.HostID{{1}, {2}, {3}},
		ServersByCluster: [][]netsim.ServerID{{servers[0]}, {servers[1]}, {servers[2]}},
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		id, err := n.AddLink(servers[pair[0]], servers[pair[1]], exp)
		if err != nil {
			return nil, err
		}
		t.WANLinks = append(t.WANLinks, id)
		t.WANBetween = append(t.WANBetween, pair)
	}
	for i, h := range t.Hosts {
		if err := n.AttachHost(h, servers[i], cheap); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// IsolateFigure41Source cuts the two links touching the source's server,
// leaving hosts 2 and 3 connected to each other but not to the source.
func IsolateFigure41Source(t *Topology) ([]netsim.LinkID, error) {
	cut := []netsim.LinkID{t.WANLinks[0], t.WANLinks[1]}
	for _, id := range cut {
		if err := t.Net.SetLinkUp(id, false); err != nil {
			return nil, err
		}
	}
	return cut, nil
}
