package netsim

import (
	"testing"
	"time"

	"rbcast/internal/sim"
)

// flightCounts reports how many flights sit on the lanes' free lists and
// how many were ever allocated.
func flightCounts(n *Network) (idle, made int) {
	for _, ls := range n.perLane {
		made += ls.made
		for f := ls.free; f != nil; f = f.next {
			idle++
		}
	}
	return idle, made
}

// assertFlightsRecycled checks that an idle network holds every flight
// it ever allocated on a free list: no terminal point leaked one.
func assertFlightsRecycled(t *testing.T, n *Network) {
	t.Helper()
	idle, made := flightCounts(n)
	if made == 0 {
		t.Fatal("no flight was ever allocated; the check is vacuous")
	}
	if idle != made {
		t.Errorf("free lists hold %d flights, %d were allocated", idle, made)
	}
}

// The transmit path's alloc budget, pinned: once free lists, route
// tables and the event heap are warm, a Send and every hop it causes —
// access link, two server links, access link, handler — allocate
// nothing. The payload is boxed once outside the loop, as a host's
// message would be.
func TestSendZeroAllocsSequential(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{Jitter: 0})
	assertSendZeroAllocs(t, eng, n)
}

// The same pin on the sharded engine, with the middle hop crossing lanes
// through the mailbox: the flight is handed from one lane's free list to
// the other's and back without allocating.
func TestSendZeroAllocsSharded(t *testing.T) {
	s := sim.NewSharded(1, 1)
	n := New(s)
	s1, s2, s3 := n.AddServer(), n.AddServer(), n.AddServer()
	if _, err := n.AddLink(s1, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(s2, s3, LinkConfig{Class: Expensive, Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s3, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	plan := n.ComputeShardPlan()
	if plan.Lanes != 2 {
		t.Fatalf("plan has %d lanes, want 2", plan.Lanes)
	}
	s.SetLanes(plan.Weights, plan.Lookahead)
	if err := n.ApplyShardPlan(plan); err != nil {
		t.Fatal(err)
	}
	assertSendZeroAllocs(t, s, n)
}

// assertSendZeroAllocs pins Send + RunUntilIdle between hosts 1 and 2,
// in both directions so that every lane's free list is exercised.
func assertSendZeroAllocs(t *testing.T, eng sim.Loop, n *Network) {
	t.Helper()
	delivered := 0
	for _, h := range []HostID{1, 2} {
		if err := n.Handle(h, func(time.Duration, Envelope) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	var payload any = "boxed once"
	var err error
	cycle := func() {
		if e := n.Send(1, 2, payload); e != nil {
			err = e
		}
		if e := n.Send(2, 1, payload); e != nil {
			err = e
		}
		if e := eng.RunUntilIdle(); e != nil {
			err = e
		}
	}
	cycle() // warm free lists, route tables, heap and mailboxes
	allocs := testing.AllocsPerRun(100, cycle)
	if err != nil {
		t.Fatal(err)
	}
	// One warm-up cycle here, one inside AllocsPerRun, then the 100.
	if want := 2 * 102; delivered != want {
		t.Fatalf("delivered %d messages, want %d", delivered, want)
	}
	if allocs != 0 {
		t.Errorf("Send + RunUntilIdle: %.1f allocs/op, want 0", allocs)
	}
	assertFlightsRecycled(t, n)
}

// A handler that sends from inside delivery reuses the flight that just
// carried its own message (it is released before the handler runs), so
// the envelope the handler holds must be a copy, not a view of the
// record.
func TestHandlerSendKeepsItsEnvelope(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{Class: Expensive, Jitter: 0})
	var after Envelope
	var sentAt time.Duration
	if err := n.Handle(2, func(_ time.Duration, env Envelope) {
		if err := n.Send(2, 1, "reply"); err != nil {
			t.Errorf("nested Send: %v", err)
		}
		after = env
	}); err != nil {
		t.Fatal(err)
	}
	replies := collect(t, n, 1)
	eng.Schedule(7*time.Millisecond, func() {
		sentAt = eng.Now()
		if err := n.Send(1, 2, "request"); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := Envelope{From: 1, To: 2, CostBit: true, Payload: "request", SentAt: sentAt, Hops: 4}
	if after != want {
		t.Errorf("envelope after nested Send = %+v, want %+v", after, want)
	}
	if len(*replies) != 1 || (*replies)[0].Payload != "reply" || (*replies)[0].From != 2 {
		t.Errorf("replies = %+v, want one reply from host 2", *replies)
	}
	if _, made := flightCounts(n); made != 1 {
		t.Errorf("%d flights allocated, want 1: the reply should reuse the request's", made)
	}
	assertFlightsRecycled(t, n)
}

// Duplication clones the in-flight record: two consecutive links that
// always duplicate yield four deliveries, each with its own hop count.
func TestDuplicationClonesFlight(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{DupProb: 1, Jitter: 0})
	got := collect(t, n, 2)
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 4 {
		t.Fatalf("delivered %d copies, want 4", len(*got))
	}
	for i, env := range *got {
		if env.Hops != 4 || env.Payload != "x" || env.From != 1 || env.To != 2 {
			t.Errorf("copy %d = %+v, want 4 hops of x from 1 to 2", i, env)
		}
	}
	if st := n.Stats(); st.Duplicated != 3 || st.Delivered != 4 {
		t.Errorf("Duplicated = %d, Delivered = %d, want 3 and 4", st.Duplicated, st.Delivered)
	}
	assertFlightsRecycled(t, n)
}

// Every way a copy's journey can end without delivery returns its flight
// to a free list.
func TestDropPathsRecycleFlights(t *testing.T) {
	cases := []struct {
		name  string
		mid   LinkConfig
		setup func(n *Network, links []LinkID) error
		check func(st *Stats) bool
	}{
		{"loss", LinkConfig{LossProb: 1, Jitter: 0},
			func(*Network, []LinkID) error { return nil },
			func(st *Stats) bool { return st.Lost == 1 }},
		{"sender host link down", LinkConfig{Jitter: 0},
			func(n *Network, _ []LinkID) error { return n.SetHostLinkUp(1, false) },
			func(st *Stats) bool { return st.DroppedLinkDown == 1 }},
		{"receiver host link down", LinkConfig{Jitter: 0},
			func(n *Network, _ []LinkID) error { return n.SetHostLinkUp(2, false) },
			func(st *Stats) bool { return st.DroppedLinkDown == 1 }},
		{"server link down", LinkConfig{Jitter: 0},
			func(n *Network, links []LinkID) error { return n.SetLinkUp(links[1], false) },
			func(st *Stats) bool { return st.DroppedNoRoute == 1 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng, n, _, links := lineNet(t, tc.mid)
			got := collect(t, n, 2)
			if err := tc.setup(n, links); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(1, 2, "x"); err != nil {
				t.Fatal(err)
			}
			if err := eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			if st := n.Stats(); len(*got) != 0 || !tc.check(st) {
				t.Errorf("delivered %d, stats %+v", len(*got), st)
			}
			assertFlightsRecycled(t, n)
		})
	}
}

// A link that fails while a message is on its way leaves a server with
// no route at all: the copy is dropped there, mid-path.
func TestNoRouteMidPathRecyclesFlight(t *testing.T) {
	eng, n, _, links := lineNet(t, LinkConfig{Jitter: 0})
	got := collect(t, n, 2)
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	// The message reaches s2 at 2ms; cut s2-s3 just before.
	eng.Schedule(1500*time.Microsecond, func() {
		if err := n.SetLinkUp(links[1], false); err != nil {
			t.Error(err)
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); len(*got) != 0 || st.DroppedNoRoute != 1 || st.PerLink[links[0]] != 1 {
		t.Errorf("delivered %d, stats %+v", len(*got), st)
	}
	assertFlightsRecycled(t, n)
}

// Adaptive routing can loop while the topology flaps: here the two ways
// to the destination's server alternate faster than a message can take
// either, so it bounces between the other two servers until the hop
// budget drops it.
func TestHopBudgetDropsLoopingMessage(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a, b, d := n.AddServer(), n.AddServer(), n.AddServer()
	cfg := LinkConfig{Jitter: 0} // 1ms per traversal
	if _, err := n.AddLink(a, b, cfg); err != nil {
		t.Fatal(err)
	}
	viaA, err := n.AddLink(a, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaB, err := n.AddLink(b, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, d, cfg); err != nil {
		t.Fatal(err)
	}
	got := collect(t, n, 2)
	// The message is at a server at every whole millisecond; half a
	// millisecond before, the direct link from that server goes down and
	// the other one comes up.
	for i := 0; i < 16; i++ {
		aUp := i%2 == 1
		eng.Schedule(time.Duration(i)*time.Millisecond+500*time.Microsecond, func() {
			if err := n.SetLinkUp(viaA, aUp); err != nil {
				t.Error(err)
			}
			if err := n.SetLinkUp(viaB, !aUp); err != nil {
				t.Error(err)
			}
		})
	}
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if len(*got) != 0 || st.DroppedNoRoute != 1 {
		t.Errorf("delivered %d, DroppedNoRoute = %d; want the hop budget to drop the message", len(*got), st.DroppedNoRoute)
	}
	// Budget 4+2*3 = 10: the access link plus ten bounces, then the drop.
	if hops := st.LinkTransmissions[Cheap]; hops != 11 {
		t.Errorf("%d link traversals before the drop, want 11", hops)
	}
	assertFlightsRecycled(t, n)
}

// ResetStats clears the per-link and per-host slots along with the lane
// counters, and Stats lists only links and hosts that carried traffic.
func TestResetStatsAndNonZeroKeys(t *testing.T) {
	eng, n, _, links := lineNet(t, LinkConfig{Jitter: 0})
	collect(t, n, 2)
	idle := n.AddServer()
	if err := n.AttachHost(3, idle, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(idle, idle-1, LinkConfig{Class: Expensive}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if len(st.PerLink) != 2 || st.PerLink[links[0]] != 1 || st.PerLink[links[1]] != 1 {
		t.Errorf("PerLink = %v, want one traversal of each line link and no other key", st.PerLink)
	}
	if len(st.HostLinkTransmissions) != 2 || st.HostLinkTransmissions[1] != 1 || st.HostLinkTransmissions[2] != 1 {
		t.Errorf("HostLinkTransmissions = %v, want hosts 1 and 2 only", st.HostLinkTransmissions)
	}
	if len(st.LinkTransmissions) != 1 || st.LinkTransmissions[Cheap] != 4 {
		t.Errorf("LinkTransmissions = %v, want 4 cheap traversals and no other key", st.LinkTransmissions)
	}
	n.ResetStats()
	st = n.Stats()
	if st.HostSends != 0 || st.Delivered != 0 || len(st.PerLink) != 0 ||
		len(st.HostLinkTransmissions) != 0 || len(st.LinkTransmissions) != 0 {
		t.Errorf("stats after reset = %+v, want all zero and no keys", st)
	}
}

// Dijkstra visits a server's links in slice order and relies on that
// being ascending link-ID order; AddLink is the only writer.
func TestServerLinksAscendingByID(t *testing.T) {
	_, n := buildGrid(t, 5)
	for _, s := range n.servers[1:] {
		for i := 1; i < len(s.links); i++ {
			if s.links[i-1].id >= s.links[i].id {
				t.Fatalf("server %d: link %d listed before link %d", s.id, s.links[i-1].id, s.links[i].id)
			}
		}
	}
}
