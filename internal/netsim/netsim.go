// Package netsim simulates an ARPA-like point-to-point communication
// subnetwork with nonprogrammable servers.
//
// The simulated network consists of servers (switches) joined by
// bidirectional links and hosts attached to servers via host links. The
// only service offered to hosts is single-destination message delivery —
// there is no multicast, exactly as the paper assumes. Servers route
// hop by hop using adaptive shortest-path routing recomputed whenever
// topology changes (standing in for the ARPANET SPF routing the paper's
// transitivity assumption relies on).
//
// Links are cheap (high bandwidth, LAN-like) or expensive (low bandwidth,
// long haul). A message that traverses at least one expensive link is
// delivered with its cost bit set — the single piece of dynamic
// information the paper grants hosts. Links fail and recover silently;
// messages can be lost, duplicated, and reordered (via delay jitter), and
// none of this is reported to hosts.
package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"rbcast/internal/sim"
)

// HostID identifies a participating host. Valid IDs are positive; 0 is
// the nil host.
type HostID int

// Nil is the zero HostID, used as "no host" (e.g. a nil parent pointer).
const Nil HostID = 0

// ServerID identifies a communication server. Valid IDs are positive.
type ServerID int

// LinkID identifies a server-to-server link.
type LinkID int

// LinkClass classifies link bandwidth per the paper: cheap links are
// LAN-like and expensive links are long-haul.
type LinkClass int

const (
	// Cheap is a high-bandwidth (intra-cluster) link.
	Cheap LinkClass = iota + 1
	// Expensive is a low-bandwidth (inter-cluster) link.
	Expensive
)

// String implements fmt.Stringer.
func (c LinkClass) String() string {
	switch c {
	case Cheap:
		return "cheap"
	case Expensive:
		return "expensive"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// routing weights: shortest-path routing strongly prefers cheap links, so
// intra-cluster traffic stays on cheap paths whenever one exists.
const (
	weightCheap     = 1
	weightExpensive = 1000
)

// LinkConfig describes a link's behaviour.
type LinkConfig struct {
	// Class is Cheap or Expensive. The zero value defaults to Cheap.
	Class LinkClass
	// Delay is the base per-traversal latency. Defaults to 1ms for cheap
	// and 30ms for expensive links when zero.
	Delay time.Duration
	// Jitter adds a uniform random [0, Jitter) to each traversal,
	// producing reordering. Defaults to Delay/2 when negative; zero means
	// no jitter.
	Jitter time.Duration
	// LossProb is the probability a traversal silently drops the message.
	LossProb float64
	// DupProb is the probability a traversal delivers a second copy.
	DupProb float64
}

func (c LinkConfig) withDefaults() (LinkConfig, error) {
	if c.Class == 0 {
		c.Class = Cheap
	}
	if c.Class != Cheap && c.Class != Expensive {
		return c, fmt.Errorf("netsim: invalid link class %d", c.Class)
	}
	if c.Delay == 0 {
		if c.Class == Cheap {
			c.Delay = time.Millisecond
		} else {
			c.Delay = 30 * time.Millisecond
		}
	}
	if c.Delay < 0 {
		return c, fmt.Errorf("netsim: negative delay %v", c.Delay)
	}
	if c.Jitter < 0 {
		c.Jitter = c.Delay / 2
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return c, fmt.Errorf("netsim: loss probability %v out of range", c.LossProb)
	}
	if c.DupProb < 0 || c.DupProb > 1 {
		return c, fmt.Errorf("netsim: duplication probability %v out of range", c.DupProb)
	}
	return c, nil
}

type link struct {
	id   LinkID
	a, b ServerID
	cfg  LinkConfig
	up   bool
}

func (l *link) weight() int {
	if l.cfg.Class == Expensive {
		return weightExpensive
	}
	return weightCheap
}

func (l *link) other(s ServerID) ServerID {
	if s == l.a {
		return l.b
	}
	return l.a
}

type server struct {
	id    ServerID
	lane  int     // owning lane; 0 without a shard plan
	links []*link // attached links, in creation order (ascending link ID)
}

type hostPort struct {
	id       HostID
	idx      int // index in Network.hosts; indexes the per-lane cluster memo
	srv      *server
	lane     int // srv's lane; 0 without a shard plan
	cfg      LinkConfig
	up       bool
	handler  Handler
	transmit TransmitHook
}

// Envelope is a host-to-host message in flight or as delivered.
type Envelope struct {
	// From and To are the endpoint hosts.
	From, To HostID
	// CostBit reports whether the message traversed an expensive link,
	// per the paper's cost-bit service.
	CostBit bool
	// Class is what Network.Classify made of the payload when the message
	// entered the network, 0 without a classifier. It lets the per-hop
	// observers tell traffic apart without opening the payload.
	Class uint8
	// Payload is the opaque host-level message: the value Send was given,
	// or a pointer to the value SendValue was given, valid until the
	// handler returns.
	Payload any
	// SentAt is the virtual time the source host handed the message to
	// its server.
	SentAt time.Duration
	// Hops counts link traversals so far (including host links).
	Hops int
}

// Handler receives messages delivered to a host.
type Handler func(now time.Duration, env Envelope)

// Outbound is one transmission produced by a TransmitHook: the (possibly
// rewritten) payload, its destination, and whether the cost bit is
// forced on regardless of the path taken. Forcing the bit off is not
// offered — the network sets it on any expensive traversal, exactly as
// the paper's model dictates — so a hostile host can claim a cheap path
// was expensive but never the reverse.
type Outbound struct {
	To           HostID
	Payload      any
	ForceCostBit bool
}

// TransmitHook intercepts one host-level Send at the transmit seam,
// before the message enters the network: it receives the intended
// destination and payload and returns the transmissions that actually
// happen — zero (silent drop), one (possibly rewritten), or several
// (duplication, equivocation to extra destinations). The fault-injection
// layer (internal/adversary) installs these to model hostile hosts
// without touching protocol code; the host above the hook keeps running
// the correct algorithm and never learns its traffic was rewritten. The
// network has read the returned list by the time it calls the hook again,
// so a hook may return the same backing array every time.
//
// A payload sent by value (SendValue) reaches the hook as a pointer, as
// it reaches a handler, valid until the hook returns; the hook returns a
// pointer of the same type for each value it sends — the one it was
// handed, or one into storage of its own, which the network has copied
// by the time it calls the hook again.
type TransmitHook func(to HostID, payload any) []Outbound

// Stats aggregates network-level counters for a run.
type Stats struct {
	// HostSends counts host-level Send calls.
	HostSends uint64
	// Delivered counts messages handed to destination hosts.
	Delivered uint64
	// LinkTransmissions counts traversals per link class, indexed by
	// LinkClass (slot 0 is unused), including host links, which are
	// classed by their config.
	LinkTransmissions [3]uint64
	// InterClusterSends counts host-level sends whose endpoints were in
	// different true clusters at send time — the paper's §5 cost metric.
	InterClusterSends uint64
	// Lost counts messages dropped by link loss probability.
	Lost uint64
	// Duplicated counts extra copies injected by duplication.
	Duplicated uint64
	// DroppedLinkDown counts messages dropped because a link on their
	// path was down at traversal time.
	DroppedLinkDown uint64
	// DroppedNoRoute counts messages dropped because no up path existed.
	DroppedNoRoute uint64
}

// laneStats is one lane's share of the run's counters, bumped on every
// send and traversal; Stats sums them over the lanes.
type laneStats struct {
	hostSends, delivered, interClusterSends uint64
	lost, duplicated                        uint64
	droppedLinkDown, droppedNoRoute         uint64
	// byClass counts traversals per LinkClass (slot 0 is unused).
	byClass [3]uint64
}

// laneState is one execution context's private slice of the network's
// mutable state: counters, the free list of in-flight records, and the
// routing and clustering memos. Sharded runs give every lane its own
// (plus one for the parked/global context, which only ever uses the
// memos) so lanes never share mutable state; each is allocated
// separately so two lanes' counters never share a cache line.
type laneState struct {
	stats laneStats

	// free heads the lane's list of idle flights, chunk is what is left of
	// the lane's latest allocation of records, and made counts the flights
	// ever carved from a chunk of this lane (see flight).
	free  *flight
	chunk []flight
	made  int
	// boxes is the lane's latest chunk of payload boxes, a *boxes[P] for
	// the P last sent by value from this lane (see place).
	boxes any

	// routes[src][dst] is the forwarding decision at server src for
	// traffic to server dst; a source's table is built on first use and
	// all are dropped when the topology version moves past routeVer.
	routes   [][]hop
	routeVer uint64
	// spDist, spDone and spHeap are dijkstra's scratch.
	spDist []int
	spDone []bool
	spHeap spHeap

	// clusterOf maps hostPort.idx to the host's true cluster at topology
	// version clusterVer. A recomputation replaces the slice, so one
	// handed out is never written again.
	clusterOf  []int
	clusterVer uint64
}

// Network is the simulated communication subnetwork. It is driven by a
// sim.Loop — the sequential engine or the sharded parallel engine. With
// a shard plan applied (see ApplyShardPlan), transmissions run
// concurrently on per-lane worker goroutines; every mutable piece of
// network state is then either owned by one lane (counters, free lists,
// caches, PRNG draws, the flight a hop is working on) or frozen
// (topology), so the network needs no locks. Topology mutations (Set*Up)
// and topology construction remain legal only from parked contexts:
// build time, global events, or between Run calls.
type Network struct {
	eng sim.Loop
	// servers and links are indexed by ID; IDs are assigned densely from
	// 1, so slot 0 is nil.
	servers []*server
	links   []*link
	// hosts holds every attached host in ascending ID order, which is
	// attach order for every topology package topo makes; host finds one.
	hosts []*hostPort

	// version increments on every topology change; routing tables and the
	// true-cluster map are cached per version, per lane.
	version uint64

	// perLane has one slot per lane plus a final slot for the
	// parked/global context; before a shard plan is applied it is a
	// single shared slot.
	perLane    []*laneState
	lanes      int
	planFrozen bool

	// Classify, if set, maps each message's payload to Envelope.Class. It
	// runs once per transmission, on the sending host's lane, after any
	// transmit hook has decided what is sent.
	Classify func(payload any) uint8
	// OnSend, if set, observes every host-level send once its envelope is
	// made and its endpoints' true clusters are compared (for
	// metrics/tracing). lane is the executing lane (0 without a shard
	// plan); observers must confine mutable state per lane or synchronize
	// it themselves.
	OnSend func(lane int, env Envelope, interCluster bool)
	// OnLinkTransmit, if set, observes every server-to-server link
	// traversal (after loss is decided, before delay), on the executing
	// lane.
	OnLinkTransmit func(lane int, link LinkID, class LinkClass, env Envelope)
	// OnHostLinkTransmit, if set, observes every host access-link
	// traversal (in either direction), on the executing lane.
	OnHostLinkTransmit func(lane int, h HostID, env Envelope)
}

// New returns an empty network driven by eng.
func New(eng sim.Loop) *Network {
	if eng == nil {
		panic("netsim: nil engine")
	}
	return &Network{
		eng:     eng,
		servers: make([]*server, 1),
		links:   make([]*link, 1),
		version: 1,
		perLane: []*laneState{{}},
		lanes:   1,
	}
}

// Engine returns the driving simulation loop.
func (n *Network) Engine() sim.Loop { return n.eng }

// Stats returns a snapshot of the run's counters, merged over every
// lane. Valid to call from parked contexts only; call it again for
// fresh numbers.
func (n *Network) Stats() *Stats {
	st := &Stats{}
	for _, ls := range n.perLane {
		c := &ls.stats
		st.HostSends += c.hostSends
		st.Delivered += c.delivered
		st.InterClusterSends += c.interClusterSends
		st.Lost += c.lost
		st.Duplicated += c.duplicated
		st.DroppedLinkDown += c.droppedLinkDown
		st.DroppedNoRoute += c.droppedNoRoute
		for class, v := range c.byClass {
			st.LinkTransmissions[class] += v
		}
	}
	return st
}

// ResetStats zeroes all counters (topology is unchanged).
func (n *Network) ResetStats() {
	for _, ls := range n.perLane {
		ls.stats = laneStats{}
	}
}

// globalLane indexes the perLane slot reserved for parked/global-context
// queries (the last slot; slot 0 before a shard plan is applied).
func (n *Network) globalLane() int { return len(n.perLane) - 1 }

// serverByID returns the server with the given ID, or nil.
func (n *Network) serverByID(id ServerID) *server {
	if id <= 0 || int(id) >= len(n.servers) {
		return nil
	}
	return n.servers[id]
}

// host returns the port of host h, or nil. Like core.Host.index it tries
// the offset from the smallest ID first, which finds every host of a
// topology built with dense IDs, and falls back to binary search.
// Every send resolves its two endpoints here.
func (n *Network) host(h HostID) *hostPort {
	if len(n.hosts) == 0 {
		return nil
	}
	if i := int(h - n.hosts[0].id); i >= 0 && i < len(n.hosts) && n.hosts[i].id == h {
		return n.hosts[i]
	}
	if i, ok := slices.BinarySearchFunc(n.hosts, h, byHostID); ok {
		return n.hosts[i]
	}
	return nil
}

func byHostID(hp *hostPort, h HostID) int { return cmp.Compare(hp.id, h) }

// linkByID returns the link with the given ID, or nil.
func (n *Network) linkByID(id LinkID) *link {
	if id <= 0 || int(id) >= len(n.links) {
		return nil
	}
	return n.links[id]
}

// AddServer creates a new server and returns its ID.
func (n *Network) AddServer() ServerID {
	n.checkNotFrozen()
	id := ServerID(len(n.servers))
	n.servers = append(n.servers, &server{id: id})
	n.bump()
	return id
}

// checkNotFrozen panics when topology construction is attempted after a
// shard plan froze the partition; lanes are derived from the built
// topology, so growing it afterwards would silently misroute work.
func (n *Network) checkNotFrozen() {
	if n.planFrozen {
		panic("netsim: topology change after shard plan was applied")
	}
}

// AddLink joins servers a and b with a bidirectional link. The link
// starts up.
func (n *Network) AddLink(a, b ServerID, cfg LinkConfig) (LinkID, error) {
	n.checkNotFrozen()
	sa := n.serverByID(a)
	if sa == nil {
		return 0, fmt.Errorf("netsim: unknown server %d", a)
	}
	sb := n.serverByID(b)
	if sb == nil {
		return 0, fmt.Errorf("netsim: unknown server %d", b)
	}
	if a == b {
		return 0, fmt.Errorf("netsim: self-link on server %d", a)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return 0, err
	}
	l := &link{id: LinkID(len(n.links)), a: a, b: b, cfg: cfg, up: true}
	n.links = append(n.links, l)
	sa.links = append(sa.links, l)
	sb.links = append(sb.links, l)
	n.bump()
	return l.id, nil
}

// AttachHost connects host h to server s with the given host-link
// behaviour. Host IDs must be unique and positive.
func (n *Network) AttachHost(h HostID, s ServerID, cfg LinkConfig) error {
	n.checkNotFrozen()
	if h <= 0 {
		return fmt.Errorf("netsim: invalid host id %d", h)
	}
	i, dup := slices.BinarySearchFunc(n.hosts, h, byHostID)
	if dup {
		return fmt.Errorf("netsim: host %d already attached", h)
	}
	srv := n.serverByID(s)
	if srv == nil {
		return fmt.Errorf("netsim: unknown server %d", s)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	n.hosts = slices.Insert(n.hosts, i, &hostPort{id: h, srv: srv, cfg: cfg, up: true})
	for ; i < len(n.hosts); i++ {
		n.hosts[i].idx = i
	}
	n.bump()
	return nil
}

// Hosts returns all attached host IDs in ascending order.
func (n *Network) Hosts() []HostID {
	out := make([]HostID, len(n.hosts))
	for i, hp := range n.hosts {
		out[i] = hp.id
	}
	return out
}

// HostServer returns the server a host is attached to.
func (n *Network) HostServer(h HostID) (ServerID, error) {
	hp := n.host(h)
	if hp == nil {
		return 0, fmt.Errorf("netsim: unknown host %d", h)
	}
	return hp.srv.id, nil
}

// Handle registers the delivery handler for host h, replacing any
// previous handler.
func (n *Network) Handle(h HostID, fn Handler) error {
	hp := n.host(h)
	if hp == nil {
		return fmt.Errorf("netsim: unknown host %d", h)
	}
	hp.handler = fn
	return nil
}

// SetTransmitHook installs (or, with nil, removes) the transmit-seam
// interceptor for host h. Every subsequent Send from h is routed through
// the hook; see TransmitHook for the contract.
func (n *Network) SetTransmitHook(h HostID, hook TransmitHook) error {
	hp := n.host(h)
	if hp == nil {
		return fmt.Errorf("netsim: unknown host %d", h)
	}
	hp.transmit = hook
	return nil
}

// SetLinkUp changes a server link's state. Routing adapts on the next
// forwarding decision.
func (n *Network) SetLinkUp(id LinkID, up bool) error {
	l := n.linkByID(id)
	if l == nil {
		return fmt.Errorf("netsim: unknown link %d", id)
	}
	if l.up != up {
		l.up = up
		n.bump()
	}
	return nil
}

// SetHostLinkUp changes a host's access-link state. Cutting it simulates
// a host crash, per the paper's §2 argument.
func (n *Network) SetHostLinkUp(h HostID, up bool) error {
	hp := n.host(h)
	if hp == nil {
		return fmt.Errorf("netsim: unknown host %d", h)
	}
	if hp.up != up {
		hp.up = up
		n.bump()
	}
	return nil
}

// Links returns all link IDs in ascending order.
func (n *Network) Links() []LinkID {
	out := make([]LinkID, 0, len(n.links)-1)
	for _, l := range n.links[1:] {
		out = append(out, l.id)
	}
	return out
}

func (n *Network) bump() {
	n.version++
}
