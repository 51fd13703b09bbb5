package netsim

import (
	"cmp"
	"slices"
)

// Adaptive shortest-path routing. Each server forwards hop by hop using
// the current topology: routes are recomputed lazily whenever the
// topology version changes, which models the ARPANET-style adaptive
// routing the paper's communication-transitivity assumption rests on.
// Cheap links weigh 1, expensive links weigh 1000, so routing crosses an
// expensive link only when no cheap path exists — matching the paper's
// cluster model, where intra-cluster communication is cheap.

// hop is one forwarding decision: the neighbour to hand the message to
// and the link to cross — the best up link joining the two servers
// (cheapest first — parallel links can differ in class after a repair
// adds a cheap path next to an old expensive one — then lowest ID). A
// nil link means the destination is unreachable.
type hop struct {
	next *server
	link *link
}

type spItem struct {
	dist   int
	server ServerID
}

func (a spItem) less(b spItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.server < b.server // deterministic tie-break
}

// spHeap is Dijkstra's frontier: a binary min-heap of spItems.
type spHeap []spItem

func (q *spHeap) push(it spItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *spHeap) pop() spItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < last && h[l].less(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < last && h[r].less(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return top
}

// routesFrom returns the forwarding table at src over currently-up
// links, indexed by destination ServerID. Tables are cached per topology
// version, per lane: each lane lazily recomputes its own view after a
// topology change, so concurrent lanes never share a mutable cache.
func (n *Network) routesFrom(lane int, src *server) []hop {
	c := n.perLane[lane]
	if c.routeVer != n.version {
		if len(c.routes) == len(n.servers) {
			clear(c.routes)
		} else {
			c.routes = make([][]hop, len(n.servers))
		}
		c.routeVer = n.version
	}
	t := c.routes[src.id]
	if t == nil {
		t = n.dijkstra(c, src)
		c.routes[src.id] = t
	}
	return t
}

// dijkstra returns the forwarding decisions at src, indexed by
// destination ServerID. A server's links are visited in ascending ID order —
// the order AddLink appended them — so among equal-cost paths the choice
// is deterministic; relaxing src's own links in that order also leaves
// each neighbour's hop holding the best link to it, since only a
// strictly cheaper parallel link replaces an earlier one. Its distances,
// marks and frontier are the lane's scratch, so the table it returns is
// all it allocates once the lane is warm.
func (n *Network) dijkstra(c *laneState, src *server) []hop {
	table := make([]hop, len(n.servers))
	if len(c.spDist) != len(n.servers) {
		c.spDist, c.spDone = make([]int, len(n.servers)), make([]bool, len(n.servers))
	}
	dist, done := c.spDist, c.spDone
	for i := range dist {
		dist[i] = -1 // not reached
	}
	clear(done)
	dist[src.id] = 0
	q := append(c.spHeap[:0], spItem{server: src.id})
	for len(q) > 0 {
		it := q.pop()
		if done[it.server] {
			continue
		}
		done[it.server] = true
		cur := n.servers[it.server]
		for _, l := range cur.links {
			if !l.up {
				continue
			}
			nb := l.other(cur.id)
			nd := it.dist + l.weight()
			if d := dist[nb]; d < 0 || nd < d {
				dist[nb] = nd
				if cur == src {
					table[nb] = hop{next: n.servers[nb], link: l}
				} else {
					table[nb] = table[cur.id]
				}
				q.push(spItem{server: nb, dist: nd})
			}
		}
	}
	c.spHeap = q // empty, keeping what it grew to
	return table
}

// PathExists reports whether a route currently exists between the servers
// of two hosts (and both host links are up). Callable from parked
// contexts only; lane events (e.g. OnSend observers) must use
// PathExistsOf with their executing lane.
func (n *Network) PathExists(a, b HostID) bool {
	return n.PathExistsOf(n.globalLane(), a, b)
}

// PathExistsOf is PathExists evaluated against the given lane's private
// route cache, making it legal from that lane's events.
func (n *Network) PathExistsOf(lane int, a, b HostID) bool {
	ha, hb := n.host(a), n.host(b)
	if ha == nil || hb == nil || !ha.up || !hb.up {
		return false
	}
	if ha.srv == hb.srv {
		return true
	}
	return n.routesFrom(lane, ha.srv)[hb.srv.id].link != nil
}

// TrueClusters returns the ground-truth clustering of hosts: connected
// components of the up-cheap-link server graph, restricted to hosts whose
// (cheap) access link is up. Hosts with a down or expensive access link,
// or unreachable cheaply, form singleton clusters. This is simulator
// ground truth used for generation and metrics only — protocol hosts
// never see it.
//
// Callable from parked contexts only; lane events use trueClustersOf
// via the transmit path.
func (n *Network) TrueClusters() *Clustering {
	c := &Clustering{net: n, of: n.trueClustersOf(n.globalLane())}
	ports := slices.Clone(n.hosts)
	slices.SortStableFunc(ports, func(a, b *hostPort) int { return cmp.Compare(c.of[a.idx], c.of[b.idx]) })
	hosts := make([]HostID, len(ports))
	start := 0
	for i, hp := range ports {
		hosts[i] = hp.id
		if i+1 == len(ports) || c.of[ports[i+1].idx] != c.of[hp.idx] {
			c.Clusters = append(c.Clusters, TrueCluster{ID: c.of[hp.idx], Hosts: hosts[start : i+1 : i+1]})
			start = i + 1
		}
	}
	return c
}

// Clustering is the true clustering at one topology version, as
// TrueClusters found it; it goes on describing that version after the
// topology changes, until a host is attached.
type Clustering struct {
	// Clusters lists every true cluster that contains a host, in
	// cluster-number order.
	Clusters []TrueCluster

	net *Network
	of  []int // cluster number by hostPort.idx
}

// TrueCluster is one true cluster: its number and its hosts.
type TrueCluster struct {
	// ID is the cluster number: components are numbered from 1 in order
	// of their lowest host ID, and singletons above every component,
	// again in host order. Numbers are stable for a topology version.
	ID int
	// Hosts lists the members, ascending.
	Hosts []HostID
}

// Of returns host h's cluster number, 0 for a host not attached.
func (c *Clustering) Of(h HostID) int {
	if hp := c.net.host(h); hp != nil {
		return c.of[hp.idx]
	}
	return 0
}

// trueClustersOf returns the clustering memoized in lane's private
// cache slot, indexed by hostPort.idx.
func (n *Network) trueClustersOf(lane int) []int {
	c := n.perLane[lane]
	if c.clusterVer == n.version && c.clusterOf != nil {
		return c.clusterOf
	}
	// Union-find over servers via up cheap links.
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
		if l.up && l.cfg.Class == Cheap {
			ra, rb := find(l.a), find(l.b)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	// Number the components densely in order of their lowest host ID.
	rootNum := make([]int, len(n.servers))
	next := 1
	clusters := make([]int, len(n.hosts))
	singles := next + len(n.servers) - 1 // singleton IDs start above component IDs
	for _, hp := range n.hosts {
		if !hp.up || hp.cfg.Class != Cheap {
			clusters[hp.idx] = singles
			singles++
			continue
		}
		root := find(hp.srv.id)
		if rootNum[root] == 0 {
			rootNum[root] = next
			next++
		}
		clusters[hp.idx] = rootNum[root]
	}
	c.clusterOf = clusters
	c.clusterVer = n.version
	return clusters
}

// ClusterCount returns the number of distinct true clusters that contain
// at least one host.
func (n *Network) ClusterCount() int { return len(n.TrueClusters().Clusters) }
