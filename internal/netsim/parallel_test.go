package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rbcast/internal/sim"
)

// Regression test: when two parallel links of different classes join the
// same pair of servers (a cheap path repaired next to an old expensive
// link), forwarding must use the cheap one — otherwise messages carry a
// spurious cost bit and protocol hosts never merge their cluster views.
func TestParallelLinksPreferCheap(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	s1, s2 := n.AddServer(), n.AddServer()
	expLink, err := n.AddLink(s1, s2, LinkConfig{Class: Expensive, Jitter: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s2, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	var got []Envelope
	if err := n.Handle(2, func(_ time.Duration, env Envelope) { got = append(got, env) }); err != nil {
		t.Fatal(err)
	}
	hops := countLinkHops(n)

	// Only the expensive link exists: the cost bit must be set.
	if err := n.Send(1, 2, "a"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].CostBit {
		t.Fatalf("expected one expensive delivery, got %+v", got)
	}

	// A cheap parallel link appears (higher link ID). Both routing and
	// forwarding must now prefer it.
	cheapLink, err := n.AddLink(s1, s2, LinkConfig{Class: Cheap, Jitter: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("second message not delivered")
	}
	if got[1].CostBit {
		t.Error("message crossed the expensive parallel link despite a cheap one existing")
	}
	if hops[cheapLink] == 0 {
		t.Error("cheap parallel link unused")
	}

	// Cheap link fails: traffic falls back to the expensive one.
	if err := n.SetLinkUp(cheapLink, false); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, "c"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[2].CostBit {
		t.Fatalf("fallback to expensive link failed: %+v", got)
	}
	if hops[expLink] != 2 {
		t.Errorf("expensive link used %d times, want 2", hops[expLink])
	}
}

// TestTransmitHookTraceIdentity pins the property the adversary layer
// is built on: installing a transmit hook — even one that drops,
// rewrites, or fans out traffic — costs nothing in determinism. The
// same seed must yield a byte-identical delivery trace across runs for
// every hook shape, because soak replay and shrinking depend on it.
func TestTransmitHookTraceIdentity(t *testing.T) {
	cases := []struct {
		name    string
		install func(n *Network) error
	}{
		{"no-hook", func(n *Network) error { return nil }},
		{"silence", func(n *Network) error {
			// Host 2 silently withholds everything addressed to host 4.
			return n.SetTransmitHook(2, func(to HostID, payload any) []Outbound {
				if to == 4 {
					return nil
				}
				return []Outbound{{To: to, Payload: payload}}
			})
		}},
		{"equivocate", func(n *Network) error {
			// Host 2 tells every destination a different story.
			return n.SetTransmitHook(2, func(to HostID, payload any) []Outbound {
				return []Outbound{{To: to, Payload: fmt.Sprintf("forged-for-%d:%v", to, payload)}}
			})
		}},
		{"forge-cost-fanout", func(n *Network) error {
			// Host 5 duplicates each send to two fixed peers and lies
			// about the path class on the copies.
			return n.SetTransmitHook(5, func(to HostID, payload any) []Outbound {
				return []Outbound{
					{To: to, Payload: payload},
					{To: 1, Payload: payload, ForceCostBit: true},
					{To: 3, Payload: payload, ForceCostBit: true},
				}
			})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, err := runHookTrace(t, 7, tc.install)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runHookTrace(t, 7, tc.install)
			if err != nil {
				t.Fatal(err)
			}
			if a == "" {
				t.Fatal("empty delivery trace; the comparison is vacuous")
			}
			if a != b {
				t.Fatalf("same seed, diverging traces:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
			}
			other, err := runHookTrace(t, 8, tc.install)
			if err != nil {
				t.Fatal(err)
			}
			if a == other {
				t.Fatal("different seeds produced identical traces; jitter/loss draws are not live")
			}
		})
	}
}

// runHookTrace drives fixed traffic over a lossy, jittery three-server
// topology with the given hook installed and returns the full delivery
// trace plus closing network stats.
func runHookTrace(t *testing.T, seed int64, install func(n *Network) error) (string, error) {
	t.Helper()
	eng := sim.NewEngine(seed)
	n := New(eng)
	s := []ServerID{n.AddServer(), n.AddServer(), n.AddServer()}
	lan := LinkConfig{Class: Cheap, Delay: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, LossProb: 0.05, DupProb: 0.02}
	wan := LinkConfig{Class: Expensive, Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, LossProb: 0.10}
	for _, pair := range [][2]ServerID{{s[0], s[1]}, {s[1], s[2]}, {s[0], s[2]}} {
		cfg := lan
		if pair[0] == s[0] && pair[1] == s[2] {
			cfg = wan
		}
		if _, err := n.AddLink(pair[0], pair[1], cfg); err != nil {
			return "", err
		}
	}
	const hosts = 6
	var trace strings.Builder
	for h := HostID(1); h <= hosts; h++ {
		if err := n.AttachHost(h, s[int(h-1)%len(s)], LinkConfig{Class: Cheap, Delay: time.Millisecond, Jitter: time.Millisecond}); err != nil {
			return "", err
		}
		h := h
		if err := n.Handle(h, func(at time.Duration, env Envelope) {
			fmt.Fprintf(&trace, "%v %d->%d(%d) cost=%t %v\n", at, env.From, env.To, h, env.CostBit, env.Payload)
		}); err != nil {
			return "", err
		}
	}
	if err := install(n); err != nil {
		return "", err
	}
	for round := 0; round < 5; round++ {
		for from := HostID(1); from <= hosts; from++ {
			round, from := round, from
			to := from%hosts + 1
			eng.Schedule(time.Duration(round*3+int(from))*time.Millisecond, func() {
				if err := n.Send(from, to, fmt.Sprintf("m%d-%d", from, round)); err != nil {
					t.Errorf("Send(%d→%d): %v", from, to, err)
				}
			})
		}
	}
	if err := eng.RunUntilIdle(); err != nil {
		return "", err
	}
	st := n.Stats()
	fmt.Fprintf(&trace, "stats sends=%d delivered=%d lost=%d dup=%d\n",
		st.HostSends, st.Delivered, st.Lost, st.Duplicated)
	return trace.String(), nil
}

// runShardedNetTrace drives clustered traffic — lossy, jittery links,
// intra- and inter-cluster sends, plus a mid-run link failure and repair
// injected from the global context — on the sharded engine with the
// given worker count, and returns the complete delivery trace.
func runShardedNetTrace(t *testing.T, seed int64, workers int) string {
	t.Helper()
	s := sim.NewSharded(seed, workers)
	n := New(s)

	// Four clusters of three servers each: cheap chains inside, an
	// expensive ring (plus one chord) between cluster heads.
	const clusters, perCluster = 4, 3
	heads := make([]ServerID, 0, clusters)
	var allHosts []HostID
	lan := LinkConfig{Class: Cheap, Delay: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, LossProb: 0.05, DupProb: 0.02}
	hostLink := LinkConfig{Class: Cheap, Delay: time.Millisecond, Jitter: time.Millisecond}
	wan := LinkConfig{Class: Expensive, Delay: 25 * time.Millisecond, Jitter: 10 * time.Millisecond, LossProb: 0.10}
	next := HostID(1)
	for c := 0; c < clusters; c++ {
		var srv []ServerID
		for i := 0; i < perCluster; i++ {
			srv = append(srv, n.AddServer())
		}
		for i := 1; i < perCluster; i++ {
			if _, err := n.AddLink(srv[i-1], srv[i], lan); err != nil {
				t.Fatal(err)
			}
		}
		heads = append(heads, srv[0])
		for i := 0; i < perCluster; i++ {
			if err := n.AttachHost(next, srv[i], hostLink); err != nil {
				t.Fatal(err)
			}
			allHosts = append(allHosts, next)
			next++
		}
	}
	var wanLinks []LinkID
	for c := 0; c < clusters; c++ {
		id, err := n.AddLink(heads[c], heads[(c+1)%clusters], wan)
		if err != nil {
			t.Fatal(err)
		}
		wanLinks = append(wanLinks, id)
	}
	if _, err := n.AddLink(heads[0], heads[2], wan); err != nil {
		t.Fatal(err)
	}

	plan := n.ComputeShardPlan()
	if plan.Lanes != clusters {
		t.Fatalf("plan has %d lanes, want %d", plan.Lanes, clusters)
	}
	if plan.Lookahead != wan.Delay {
		t.Fatalf("plan lookahead %v, want %v", plan.Lookahead, wan.Delay)
	}
	s.SetLanes(plan.Weights, plan.Lookahead)
	if err := n.ApplyShardPlan(plan); err != nil {
		t.Fatal(err)
	}

	// Per-lane delivery traces: a host's handler runs on its own lane.
	traces := make([]*strings.Builder, plan.Lanes)
	for i := range traces {
		traces[i] = &strings.Builder{}
	}
	for _, h := range allHosts {
		h := h
		lane := n.LaneOfHost(h)
		if err := n.Handle(h, func(at time.Duration, env Envelope) {
			fmt.Fprintf(traces[lane], "%v %d->%d cost=%t hops=%d %v\n", at, env.From, env.To, env.CostBit, env.Hops, env.Payload)
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Workload: every host ticks on its lane, alternating an
	// intra-cluster send with an inter-cluster one.
	for _, h := range allHosts {
		h := h
		lane := n.LaneOfHost(h)
		round := 0
		s.EveryOn(lane, 5*time.Millisecond, func() {
			round++
			var to HostID
			if round%2 == 0 {
				// Neighbor in the same cluster.
				base := (int(h-1)/perCluster)*perCluster + 1
				to = HostID(base + (int(h-1)+1)%perCluster)
			} else {
				to = HostID((int(h-1)+perCluster)%len(allHosts) + 1)
			}
			if to == h {
				return
			}
			if err := n.Send(h, to, fmt.Sprintf("m%d-%d", h, round)); err != nil {
				t.Errorf("Send(%d->%d): %v", h, to, err)
			}
		})
	}

	// Global-context fault injection: a WAN link fails mid-run and
	// recovers, exercising barrier-time topology mutation and per-lane
	// cache invalidation.
	s.Schedule(60*time.Millisecond, func() {
		if err := n.SetLinkUp(wanLinks[0], false); err != nil {
			t.Error(err)
		}
	})
	s.Schedule(140*time.Millisecond, func() {
		if err := n.SetLinkUp(wanLinks[0], true); err != nil {
			t.Error(err)
		}
	})

	if err := s.Run(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for lane, tr := range traces {
		fmt.Fprintf(&b, "== lane %d ==\n%s", lane, tr.String())
	}
	st := n.Stats()
	fmt.Fprintf(&b, "stats sends=%d delivered=%d inter=%d lost=%d dup=%d downdrop=%d noroute=%d\n",
		st.HostSends, st.Delivered, st.InterClusterSends, st.Lost, st.Duplicated, st.DroppedLinkDown, st.DroppedNoRoute)
	return b.String()
}

// TestShardTraceIdentity pins the tentpole invariant at the network
// layer: a seeded trace is bit-identical at any shard (worker) count,
// because the lane partition derives from the topology and workers are
// pure executors. Runs with loss, duplication, jitter, cross-cluster
// routing, and mid-run failures all active.
func TestShardTraceIdentity(t *testing.T) {
	for _, seed := range []int64{3, 5, 9} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := runShardedNetTrace(t, seed, 1)
			if !strings.Contains(ref, "cost=true") {
				t.Fatal("no inter-cluster deliveries; the identity check is vacuous")
			}
			for _, workers := range []int{2, 4, 8} {
				got := runShardedNetTrace(t, seed, workers)
				if got != ref {
					t.Fatalf("seed %d: workers=%d trace diverged from workers=1 (len %d vs %d)",
						seed, workers, len(got), len(ref))
				}
			}
		})
	}
}

// TestShardPlanAllCheapSingleLane: a topology whose servers are all
// cheaply connected is one lane — correct (no parallelism available,
// no lookahead constraint) rather than an error.
func TestShardPlanAllCheapSingleLane(t *testing.T) {
	s := sim.NewSharded(1, 4)
	n := New(s)
	a, b, c := n.AddServer(), n.AddServer(), n.AddServer()
	for _, pair := range [][2]ServerID{{a, b}, {b, c}} {
		if _, err := n.AddLink(pair[0], pair[1], LinkConfig{Class: Cheap}); err != nil {
			t.Fatal(err)
		}
	}
	for h := HostID(1); h <= 3; h++ {
		if err := n.AttachHost(h, []ServerID{a, b, c}[h-1], LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	plan := n.ComputeShardPlan()
	if plan.Lanes != 1 {
		t.Fatalf("all-cheap topology computed %d lanes, want 1", plan.Lanes)
	}
	if plan.Lookahead != 0 {
		t.Errorf("lookahead %v with no cross-lane links, want 0", plan.Lookahead)
	}
	if plan.Weights[0] != 3 {
		t.Errorf("weights %v, want [3]", plan.Weights)
	}
}

// TestShardPlanFreezesTopology: growing the topology after the plan is
// applied must fail loudly — the partition would silently misroute.
func TestShardPlanFreezesTopology(t *testing.T) {
	s := sim.NewSharded(1, 2)
	n := New(s)
	a, b := n.AddServer(), n.AddServer()
	if _, err := n.AddLink(a, b, LinkConfig{Class: Expensive}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, a, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, b, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	plan := n.ComputeShardPlan()
	s.SetLanes(plan.Weights, plan.Lookahead)
	if err := n.ApplyShardPlan(plan); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddServer after ApplyShardPlan did not panic")
		}
	}()
	n.AddServer()
}
