// Package topo builds simulated network topologies: the clustered
// long-haul-plus-LAN networks the paper's model assumes, and the exact
// configurations of the paper's Figures 3.1, 3.2, and 4.1.
package topo

import (
	"fmt"

	"rbcast/internal/netsim"
	"rbcast/internal/sim"
)

// Topology is a built network plus the bookkeeping experiments need.
type Topology struct {
	// Net is the simulated network, fully wired.
	Net *netsim.Network
	// Hosts lists all host IDs in ascending order.
	Hosts []netsim.HostID
	// Source is the broadcast source host.
	Source netsim.HostID
	// HostsByCluster groups hosts by the cluster they were generated in.
	HostsByCluster [][]netsim.HostID
	// ServersByCluster groups servers likewise.
	ServersByCluster [][]netsim.ServerID
	// WANLinks are the expensive inter-cluster links, in creation order.
	WANLinks []netsim.LinkID
	// WANBetween is parallel to WANLinks: the (clusterA, clusterB) pair
	// of ServersByCluster indices each WAN link joins.
	WANBetween [][2]int
}

// WANShape selects how clusters are interconnected by expensive links.
type WANShape int

const (
	// WANStar connects every cluster hub to cluster 0's hub.
	WANStar WANShape = iota + 1
	// WANChain connects cluster i to cluster i+1.
	WANChain
	// WANTree connects cluster i to cluster (i-1)/2 (a binary tree).
	WANTree
	// WANMesh connects every pair of cluster hubs.
	WANMesh
	// WANRing connects cluster i to cluster (i+1) mod k.
	WANRing
)

// String implements fmt.Stringer.
func (s WANShape) String() string {
	switch s {
	case WANStar:
		return "star"
	case WANChain:
		return "chain"
	case WANTree:
		return "tree"
	case WANMesh:
		return "mesh"
	case WANRing:
		return "ring"
	default:
		return fmt.Sprintf("WANShape(%d)", int(s))
	}
}

// ClusteredConfig parameterizes Clustered.
type ClusteredConfig struct {
	// Clusters is the number of clusters (k ≥ 1).
	Clusters int
	// HostsPerCluster is the number of hosts in each cluster (m ≥ 1).
	HostsPerCluster int
	// Shape is the WAN interconnect; default WANTree.
	Shape WANShape
	// Cheap configures intra-cluster links; zero value uses netsim
	// defaults (1 ms, no loss).
	Cheap netsim.LinkConfig
	// Expensive configures inter-cluster links; zero value uses netsim
	// defaults (30 ms, no loss). Class is forced to Expensive.
	Expensive netsim.LinkConfig
	// HostLink configures host access links; zero value uses netsim
	// defaults.
	HostLink netsim.LinkConfig
}

func (c ClusteredConfig) withDefaults() (ClusteredConfig, error) {
	if c.Clusters < 1 {
		return c, fmt.Errorf("topo: Clusters = %d, want ≥ 1", c.Clusters)
	}
	if c.HostsPerCluster < 1 {
		return c, fmt.Errorf("topo: HostsPerCluster = %d, want ≥ 1", c.HostsPerCluster)
	}
	if c.Shape == 0 {
		c.Shape = WANTree
	}
	c.Cheap.Class = netsim.Cheap
	c.Expensive.Class = netsim.Expensive
	c.HostLink.Class = netsim.Cheap
	return c, nil
}

// Clustered builds k clusters of m hosts each. Within a cluster every
// host has its own server; cluster servers form a cheap star around the
// cluster's hub (the first server). Hubs are interconnected by expensive
// links per the chosen shape. Host 1 (in cluster 0) is the source.
// Construction is fully deterministic.
func Clustered(eng sim.Loop, cfg ClusteredConfig) (*Topology, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := netsim.New(eng)
	t := &Topology{Net: n, Source: 1}
	hubs := make([]netsim.ServerID, cfg.Clusters)
	nextHost := netsim.HostID(1)
	for c := 0; c < cfg.Clusters; c++ {
		var servers []netsim.ServerID
		var hosts []netsim.HostID
		for i := 0; i < cfg.HostsPerCluster; i++ {
			s := n.AddServer()
			servers = append(servers, s)
			if i == 0 {
				hubs[c] = s
			} else {
				if _, err := n.AddLink(hubs[c], s, cfg.Cheap); err != nil {
					return nil, err
				}
			}
			if err := n.AttachHost(nextHost, s, cfg.HostLink); err != nil {
				return nil, err
			}
			hosts = append(hosts, nextHost)
			t.Hosts = append(t.Hosts, nextHost)
			nextHost++
		}
		t.HostsByCluster = append(t.HostsByCluster, hosts)
		t.ServersByCluster = append(t.ServersByCluster, servers)
	}
	addWAN := func(a, b int) error {
		id, err := n.AddLink(hubs[a], hubs[b], cfg.Expensive)
		if err != nil {
			return err
		}
		t.WANLinks = append(t.WANLinks, id)
		t.WANBetween = append(t.WANBetween, [2]int{a, b})
		return nil
	}
	switch cfg.Shape {
	case WANStar:
		for c := 1; c < cfg.Clusters; c++ {
			if err := addWAN(0, c); err != nil {
				return nil, err
			}
		}
	case WANChain:
		for c := 1; c < cfg.Clusters; c++ {
			if err := addWAN(c-1, c); err != nil {
				return nil, err
			}
		}
	case WANTree:
		for c := 1; c < cfg.Clusters; c++ {
			if err := addWAN((c-1)/2, c); err != nil {
				return nil, err
			}
		}
	case WANMesh:
		for a := 0; a < cfg.Clusters; a++ {
			for b := a + 1; b < cfg.Clusters; b++ {
				if err := addWAN(a, b); err != nil {
					return nil, err
				}
			}
		}
	case WANRing:
		for c := 0; c < cfg.Clusters && cfg.Clusters > 1; c++ {
			if err := addWAN(c, (c+1)%cfg.Clusters); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("topo: unknown WAN shape %v", cfg.Shape)
	}
	return t, nil
}

// ClusterOf returns the generation-time cluster index of a host, or -1.
func (t *Topology) ClusterOf(h netsim.HostID) int {
	for c, hosts := range t.HostsByCluster {
		for _, x := range hosts {
			if x == h {
				return c
			}
		}
	}
	return -1
}

// WANLinksOfCluster returns the expensive links touching cluster c.
func (t *Topology) WANLinksOfCluster(c int) []netsim.LinkID {
	var out []netsim.LinkID
	for i, p := range t.WANBetween {
		if p[0] == c || p[1] == c {
			out = append(out, t.WANLinks[i])
		}
	}
	return out
}

// IsolateCluster cuts every WAN link touching cluster c, partitioning it
// from the rest of the network. It returns the cut links so callers can
// repair them later.
func (t *Topology) IsolateCluster(c int) ([]netsim.LinkID, error) {
	links := t.WANLinksOfCluster(c)
	for _, id := range links {
		if err := t.Net.SetLinkUp(id, false); err != nil {
			return nil, err
		}
	}
	return links, nil
}

// RestoreLinks brings the given links back up.
func (t *Topology) RestoreLinks(links []netsim.LinkID) error {
	for _, id := range links {
		if err := t.Net.SetLinkUp(id, true); err != nil {
			return err
		}
	}
	return nil
}
