package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rbcast/internal/sim"
)

// lineNet builds h1 - s1 - s2 - s3 - h2 with configurable middle links.
func lineNet(t *testing.T, mid LinkConfig) (*sim.Engine, *Network, []ServerID, []LinkID) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := New(eng)
	s1, s2, s3 := n.AddServer(), n.AddServer(), n.AddServer()
	l1, err := n.AddLink(s1, s2, mid)
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	l2, err := n.AddLink(s2, s3, mid)
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatalf("AttachHost: %v", err)
	}
	if err := n.AttachHost(2, s3, LinkConfig{Jitter: 0}); err != nil {
		t.Fatalf("AttachHost: %v", err)
	}
	return eng, n, []ServerID{s1, s2, s3}, []LinkID{l1, l2}
}

func collect(t *testing.T, n *Network, h HostID) *[]Envelope {
	t.Helper()
	var got []Envelope
	if err := n.Handle(h, func(_ time.Duration, env Envelope) {
		got = append(got, env)
	}); err != nil {
		t.Fatalf("Handle: %v", err)
	}
	return &got
}

// countLinkHops counts server-link traversals per link from the
// OnLinkTransmit hook, on a sequential engine.
func countLinkHops(n *Network) map[LinkID]uint64 {
	hops := map[LinkID]uint64{}
	n.OnLinkTransmit = func(_ int, l LinkID, _ LinkClass, _ Envelope) { hops[l]++ }
	return hops
}

func TestDeliveryBasic(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{Jitter: 0})
	got := collect(t, n, 2)
	if err := n.Send(1, 2, "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
	env := (*got)[0]
	if env.Payload != "hello" || env.From != 1 || env.To != 2 {
		t.Errorf("envelope = %+v", env)
	}
	if env.CostBit {
		t.Error("cost bit set on all-cheap path")
	}
	if env.Hops != 4 { // host link, s1-s2, s2-s3, host link
		t.Errorf("hops = %d, want 4", env.Hops)
	}
	if n.Stats().Delivered != 1 || n.Stats().HostSends != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestCostBitOnExpensivePath(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{Class: Expensive, Jitter: 0})
	got := collect(t, n, 2)
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	if !(*got)[0].CostBit {
		t.Error("cost bit not set despite expensive links on path")
	}
}

func TestRoutingPrefersCheapPath(t *testing.T) {
	// Square: s1-s2 cheap-cheap via s4 (s1-s4, s4-s2 cheap), and a direct
	// expensive s1-s2 link. Routing must take the two-hop cheap path.
	eng := sim.NewEngine(1)
	n := New(eng)
	s1, s2, s4 := n.AddServer(), n.AddServer(), n.AddServer()
	exp, err := n.AddLink(s1, s2, LinkConfig{Class: Expensive, Jitter: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(s1, s4, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(s4, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, n, 2)
	hops := countLinkHops(n)
	if err := n.Send(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	if (*got)[0].CostBit {
		t.Error("message took expensive link despite cheap path")
	}
	if hops[exp] != 0 {
		t.Errorf("expensive link used %d times, want 0", hops[exp])
	}

	// Cut the cheap path: routing must adapt to the expensive link.
	if err := n.SetLinkUp(n.Links()[1], false); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 {
		t.Fatalf("delivered %d after reroute, want 2", len(*got))
	}
	if !(*got)[1].CostBit {
		t.Error("rerouted message should carry cost bit")
	}
}

// TestRouteRecomputationAllocatesOnlyItsTable: a warm lane recomputes a
// source's routes after a topology change into the lane's own scratch,
// so the table it caches is its one allocation, and the routes are the
// ones a cold lane computes.
func TestRouteRecomputationAllocatesOnlyItsTable(t *testing.T) {
	n := New(sim.NewEngine(1))
	servers := make([]ServerID, 32)
	for i := range servers {
		servers[i] = n.AddServer()
	}
	for i, s := range servers { // a ring with chords, cheap and expensive
		for _, step := range []int{1, 5} {
			cfg := LinkConfig{Class: Cheap}
			if step == 5 {
				cfg.Class = Expensive
			}
			if _, err := n.AddLink(s, servers[(i+step)%len(servers)], cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := n.servers[servers[3]]
	cold := slices.Clone(n.routesFrom(0, src))
	if got := testing.AllocsPerRun(100, func() {
		n.version++ // what every topology change does
		n.routesFrom(0, src)
	}); got != 1 {
		t.Errorf("a warm recomputation allocates %v times, want 1 (its table)", got)
	}
	if warm := n.routesFrom(0, src); !slices.Equal(warm, cold) {
		t.Errorf("a warm lane's routes differ from a cold lane's")
	}
}

func TestLinkDownDropsSilently(t *testing.T) {
	eng, n, _, links := lineNet(t, LinkConfig{Jitter: 0})
	got := collect(t, n, 2)
	if err := n.SetLinkUp(links[1], false); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatalf("Send returned error %v; drops must be silent", err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Errorf("delivered %d across a partition, want 0", len(*got))
	}
	if n.Stats().DroppedNoRoute == 0 {
		t.Error("no-route drop not counted")
	}
	// Repair and retry.
	if err := n.SetLinkUp(links[1], true); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, "y"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Errorf("delivered %d after repair, want 1", len(*got))
	}
}

func TestHostLinkDownSimulatesCrash(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{Jitter: 0})
	got := collect(t, n, 2)
	if err := n.SetHostLinkUp(2, false); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Error("delivered to crashed host")
	}
	// The crashed host cannot send either.
	if err := n.SetHostLinkUp(1, false); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, "y"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Delivered != 0 {
		t.Error("crashed host managed to send")
	}
}

func TestLoss(t *testing.T) {
	eng := sim.NewEngine(7)
	n := New(eng)
	s1, s2 := n.AddServer(), n.AddServer()
	if _, err := n.AddLink(s1, s2, LinkConfig{LossProb: 0.5, Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, n, 2)
	const total = 1000
	for i := 0; i < total; i++ {
		if err := n.Send(1, 2, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) == 0 || len(*got) == total {
		t.Errorf("delivered %d of %d with 50%% loss; want strictly between", len(*got), total)
	}
	if int(n.Stats().Lost)+len(*got) != total {
		t.Errorf("lost(%d) + delivered(%d) != %d", n.Stats().Lost, len(*got), total)
	}
	// Roughly half should arrive (generous bounds).
	if len(*got) < total/4 || len(*got) > 3*total/4 {
		t.Errorf("delivered %d of %d, want ≈ half", len(*got), total)
	}
}

func TestDuplication(t *testing.T) {
	eng := sim.NewEngine(7)
	n := New(eng)
	s1, s2 := n.AddServer(), n.AddServer()
	if _, err := n.AddLink(s1, s2, LinkConfig{DupProb: 1, Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, n, 2)
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 {
		t.Errorf("delivered %d copies with DupProb=1 on one link, want 2", len(*got))
	}
	if n.Stats().Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", n.Stats().Duplicated)
	}
}

func TestReorderingViaJitter(t *testing.T) {
	eng := sim.NewEngine(3)
	n := New(eng)
	s1, s2 := n.AddServer(), n.AddServer()
	if _, err := n.AddLink(s1, s2, LinkConfig{Delay: time.Millisecond, Jitter: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, n, 2)
	for i := 0; i < 50; i++ {
		if err := n.Send(1, 2, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 50 {
		t.Fatalf("delivered %d, want 50", len(*got))
	}
	inOrder := true
	for i, env := range *got {
		if env.Payload.(int) != i {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("50 jittered messages arrived in exact order; reordering expected")
	}
}

func TestTrueClusters(t *testing.T) {
	// Two cheap islands joined by an expensive link.
	eng := sim.NewEngine(1)
	n := New(eng)
	s1, s2, s3, s4 := n.AddServer(), n.AddServer(), n.AddServer(), n.AddServer()
	if _, err := n.AddLink(s1, s2, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(s3, s4, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	wan, err := n.AddLink(s2, s3, LinkConfig{Class: Expensive})
	if err != nil {
		t.Fatal(err)
	}
	for h, s := range map[HostID]ServerID{1: s1, 2: s2, 3: s3, 4: s4} {
		if err := n.AttachHost(h, s, LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	c := n.TrueClusters()
	if c.Of(1) != c.Of(2) || c.Of(3) != c.Of(4) {
		t.Errorf("intra-island hosts in different clusters: %v", c.Clusters)
	}
	if c.Of(1) == c.Of(3) {
		t.Errorf("islands share a cluster despite expensive-only path: %v", c.Clusters)
	}
	wantClusters(t, c, []TrueCluster{{1, []HostID{1, 2}}, {2, []HostID{3, 4}}})
	if got := n.ClusterCount(); got != 2 {
		t.Errorf("ClusterCount = %d, want 2", got)
	}

	// Upgrading the WAN link to cheap merges the clusters.
	if err := n.SetLinkUp(wan, false); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(s2, s3, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	c = n.TrueClusters()
	if c.Of(1) != c.Of(4) {
		t.Errorf("cheap repair did not merge clusters: %v", c.Clusters)
	}
	wantClusters(t, c, []TrueCluster{{1, []HostID{1, 2, 3, 4}}})

	// A host with a down access link is a singleton.
	if err := n.SetHostLinkUp(4, false); err != nil {
		t.Fatal(err)
	}
	c = n.TrueClusters()
	if c.Of(4) == c.Of(1) || c.Of(4) == c.Of(2) || c.Of(4) == c.Of(3) {
		t.Errorf("crashed host still clustered: %v", c.Clusters)
	}
	// Singletons are numbered above every possible component: past the
	// four servers.
	wantClusters(t, c, []TrueCluster{{1, []HostID{1, 2, 3}}, {5, []HostID{4}}})
	if got := c.Of(9); got != 0 {
		t.Errorf("unattached host 9 is in cluster %d, want 0", got)
	}
}

// wantClusters checks a clustering's groups: their numbers in order, and
// each one's hosts ascending.
func wantClusters(t *testing.T, c *Clustering, want []TrueCluster) {
	t.Helper()
	if !slices.EqualFunc(c.Clusters, want, func(a, b TrueCluster) bool {
		return a.ID == b.ID && slices.Equal(a.Hosts, b.Hosts)
	}) {
		t.Errorf("clusters %v, want %v", c.Clusters, want)
	}
}

func TestInterClusterSendCounting(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	s1, s2 := n.AddServer(), n.AddServer()
	if _, err := n.AddLink(s1, s2, LinkConfig{Class: Expensive, Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(3, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	for _, h := range []HostID{2, 3} {
		if err := n.Handle(h, func(time.Duration, Envelope) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Send(1, 2, "intra"); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 3, "inter"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().InterClusterSends; got != 1 {
		t.Errorf("InterClusterSends = %d, want 1", got)
	}
}

func TestSendValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	s := n.AddServer()
	if err := n.AttachHost(1, s, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 99, "x"); err == nil {
		t.Error("Send to unknown host succeeded")
	}
	if err := n.Send(99, 1, "x"); err == nil {
		t.Error("Send from unknown host succeeded")
	}
	if err := n.Send(1, 1, "x"); err == nil {
		t.Error("Send to self succeeded")
	}
}

func TestTopologyValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	s := n.AddServer()
	if _, err := n.AddLink(s, s, LinkConfig{}); err == nil {
		t.Error("self-link accepted")
	}
	if _, err := n.AddLink(s, 99, LinkConfig{}); err == nil {
		t.Error("link to unknown server accepted")
	}
	if _, err := n.AddLink(s, s+1, LinkConfig{LossProb: 1.5}); err == nil {
		t.Error("invalid loss probability accepted")
	}
	if err := n.AttachHost(0, s, LinkConfig{}); err == nil {
		t.Error("host id 0 accepted")
	}
	if err := n.AttachHost(1, 99, LinkConfig{}); err == nil {
		t.Error("attach to unknown server accepted")
	}
	if err := n.AttachHost(1, s, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s, LinkConfig{}); err == nil {
		t.Error("duplicate host accepted")
	}
	// Sparse IDs attached out of order are found, by offset or by search,
	// and listed in ascending order; the gaps between them are not hosts.
	for _, h := range []HostID{7, 3, 12, 5} {
		if err := n.AttachHost(h, s, LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AttachHost(7, s, LinkConfig{}); err == nil {
		t.Error("duplicate out-of-order host accepted")
	}
	if got := fmt.Sprint(n.Hosts()); got != "[1 3 5 7 12]" {
		t.Errorf("Hosts() = %s, want [1 3 5 7 12]", got)
	}
	for _, h := range []HostID{-1, 0, 2, 4, 6, 8, 11, 13} {
		if _, err := n.HostServer(h); err == nil {
			t.Errorf("HostServer(%d) found a host that was never attached", h)
		}
	}
	for _, h := range n.Hosts() {
		if srv, err := n.HostServer(h); err != nil || srv != s {
			t.Errorf("HostServer(%d) = %d, %v; want %d", h, srv, err, s)
		}
	}
}

func TestPathExists(t *testing.T) {
	eng, n, _, links := lineNet(t, LinkConfig{Jitter: 0})
	_ = eng
	if !n.PathExists(1, 2) {
		t.Error("PathExists = false on connected net")
	}
	if err := n.SetLinkUp(links[0], false); err != nil {
		t.Fatal(err)
	}
	if n.PathExists(1, 2) {
		t.Error("PathExists = true across a cut")
	}
	if err := n.SetLinkUp(links[0], true); err != nil {
		t.Fatal(err)
	}
	if err := n.SetHostLinkUp(2, false); err != nil {
		t.Fatal(err)
	}
	if n.PathExists(1, 2) {
		t.Error("PathExists = true to crashed host")
	}
}

func TestSameServerHosts(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	s := n.AddServer()
	if err := n.AttachHost(1, s, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, n, 2)
	if err := n.Send(1, 2, "local"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	if (*got)[0].Hops != 2 {
		t.Errorf("hops = %d, want 2 (two host links)", (*got)[0].Hops)
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []int {
		eng := sim.NewEngine(11)
		n := New(eng)
		s1, s2 := n.AddServer(), n.AddServer()
		if _, err := n.AddLink(s1, s2, LinkConfig{Jitter: 5 * time.Millisecond, LossProb: 0.2}); err != nil {
			t.Fatal(err)
		}
		if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
			t.Fatal(err)
		}
		if err := n.AttachHost(2, s2, LinkConfig{Jitter: 0}); err != nil {
			t.Fatal(err)
		}
		var order []int
		if err := n.Handle(2, func(_ time.Duration, env Envelope) {
			order = append(order, env.Payload.(int))
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := n.Send(1, 2, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}
