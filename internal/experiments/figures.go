package experiments

import (
	"fmt"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/metrics"
	"rbcast/internal/netsim"
	"rbcast/internal/topo"
)

// Fig31 reproduces Figure 3.1: in the diamond topology (h1 behind s1; s4
// fanning out to s2/s3) the cost-optimal broadcast traverses each of the
// three server links exactly once (3 traversals per message). With
// nonprogrammable servers that is unattainable: every implementable
// protocol addresses copies host-to-host and pays at least 4 traversals
// per message. The experiment measures data-message link traversals for
// the tree protocol and the basic algorithm against the optimum.
func Fig31(seed int64) (Report, error) {
	rep := newReport("F3.1", "optimal broadcast cost is unattainable with nonprogrammable servers")
	const optimal = 3.0
	const messages = 40

	results := map[string]*harness.Result{}
	for _, proto := range []harness.Protocol{harness.ProtocolTree, harness.ProtocolBasic} {
		res, err := harness.Run(harness.Scenario{
			Name:             "fig31-" + proto.String(),
			Seed:             seed,
			Build:            topo.Figure31,
			Protocol:         proto,
			Messages:         messages,
			MsgInterval:      200 * time.Millisecond,
			Drain:            30 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			return nil, err
		}
		results[proto.String()] = res
	}

	t := metrics.NewTable("protocol", "link traversals/msg", "vs optimal", "complete")
	t.AddRow("optimal (programmable servers)", optimal, "1.0×", "—")
	for _, name := range []string{"tree", "basic"} {
		res := results[name]
		per := res.DataLinkTraversalsPerMessage()
		t.AddRow(name, per, metrics.Ratio(per, optimal), res.Complete)
	}
	rep.addTable(t)
	rep.note("every link traversal counted once per data/gap-fill message crossing a server link")

	tree, basicRes := results["tree"], results["basic"]
	rep.expect(tree.Complete, "tree protocol did not complete (%d/%d)", tree.DeliveredCount, tree.ExpectedCount)
	rep.expect(basicRes.Complete, "basic did not complete (%d/%d)", basicRes.DeliveredCount, basicRes.ExpectedCount)
	// The impossibility claim: both implementable protocols exceed the
	// server-multicast optimum.
	rep.expect(tree.DataLinkTraversalsPerMessage() > optimal+0.5,
		"tree traversals/msg %.2f not above the unattainable optimum %.1f",
		tree.DataLinkTraversalsPerMessage(), optimal)
	rep.expect(basicRes.DataLinkTraversalsPerMessage() > optimal+0.5,
		"basic traversals/msg %.2f not above the unattainable optimum %.1f",
		basicRes.DataLinkTraversalsPerMessage(), optimal)
	// Neither grossly exceeds the host-level optimum of 4 in this tiny net.
	rep.expect(tree.DataLinkTraversalsPerMessage() < 8,
		"tree traversals/msg %.2f unexpectedly high", tree.DataLinkTraversalsPerMessage())
	return rep, nil
}

// Fig32 reproduces Figure 3.2: on the four-cluster topology the
// attachment procedure must organize the host parent graph so that it
// induces a cluster tree — one leader per cluster, everyone else a direct
// child of their leader, and cluster C parented into C′ or C″. Then a
// cheap link is added between C″ and C (the §4.1 merge example): the two
// clusters become one, and the procedure must re-converge to a cluster
// tree of the merged network.
func Fig32(seed int64) (Report, error) {
	rep := newReport("F3.2", "attachment converges to an induced cluster tree, including after a cluster merge")
	rt, err := harness.Prepare(harness.Scenario{
		Name:        "fig32",
		Seed:        seed,
		Build:       topo.Figure32,
		Protocol:    harness.ProtocolTree,
		Messages:    120,
		MsgInterval: 250 * time.Millisecond,
		WarmUp:      2 * time.Second,
		Drain:       40 * time.Second,
	})
	if err != nil {
		return nil, err
	}

	beforeOK, beforeAt, beforeWhy := waitForClusterTree(rt, 25*time.Second)
	cOfLeaderParent := -1
	if beforeOK {
		// Identify cluster C's leader and its parent's cluster.
		leader := leaderOfGeneratedCluster(rt, 3)
		if leader != core.Nil {
			p := rt.TreeHost(leader).Parent()
			cOfLeaderParent = rt.Topo.ClusterOf(netsim.HostID(p))
		}
	}

	if _, err := topo.MergeFigure32Clusters(rt.Topo); err != nil {
		return nil, err
	}
	mergeAt := rt.Engine.Now()
	afterOK, afterAt, afterWhy := waitForClusterTree(rt, mergeAt+30*time.Second)

	t := metrics.NewTable("phase", "true clusters", "induces cluster tree", "at")
	t.AddRow("before merge", 4, beforeOK, beforeAt)
	t.AddRow("after C″–C merge", rt.Net.ClusterCount(), afterOK, afterAt)
	rep.addTable(t)
	if cOfLeaderParent >= 0 {
		rep.note("cluster C's leader attached into cluster %d (0 = S, 1 = C′, 2 = C″);", cOfLeaderParent)
		rep.note("the procedure legitimately prefers the freshest INFO set, which the source itself")
		rep.note("has — the figure's C′-vs-C″ choice arises when the source is not directly visible")
	}

	rep.expect(beforeOK, "no induced cluster tree before merge: %s", beforeWhy)
	rep.expect(afterOK, "no induced cluster tree after merge: %s", afterWhy)
	rep.expect(rt.Net.ClusterCount() == 3, "merge should leave 3 true clusters, got %d", rt.Net.ClusterCount())
	// C's leader must have re-parented OUT of its own cluster (it is a
	// leader) and to a host whose INFO was not smaller — any of S, C′, C″.
	rep.expect(cOfLeaderParent >= 0 && cOfLeaderParent != 3,
		"cluster C's leader parented into cluster %d, want a different cluster", cOfLeaderParent)
	return rep, nil
}

// waitForClusterTree advances the simulation until the parent graph
// induces a cluster tree or the deadline passes.
func waitForClusterTree(rt *harness.Runtime, deadline time.Duration) (bool, time.Duration, string) {
	const step = 500 * time.Millisecond
	why := ""
	for rt.Engine.Now() < deadline {
		next := rt.Engine.Now() + step
		if next > deadline {
			next = deadline
		}
		if err := rt.Engine.Run(next); err != nil {
			return false, rt.Engine.Now(), err.Error()
		}
		ok, reason := rt.InducesClusterTree()
		if ok {
			return true, rt.Engine.Now(), ""
		}
		why = reason
	}
	return false, rt.Engine.Now(), why
}

// leaderOfGeneratedCluster returns the unique leader among the hosts of
// generated cluster c, or Nil.
func leaderOfGeneratedCluster(rt *harness.Runtime, c int) core.HostID {
	truth := rt.Net.TrueClusters()
	for _, h := range rt.Topo.HostsByCluster[c] {
		id := core.HostID(h)
		p := rt.TreeHost(id).Parent()
		if p == core.Nil || truth.Of(netsim.HostID(p)) != truth.Of(h) {
			return id
		}
	}
	return core.Nil
}

// Fig41 reproduces Figure 4.1: the source s broadcasts 1, 2, 3 such that
// i misses 2 and j misses 1; then s is partitioned away while i and j can
// still talk. Since neither INFO set dominates, neither host can
// re-parent, and they are not parent-graph neighbours — so neighbour-only
// gap filling stalls forever. The paper's §4.4 extension (periodic
// non-neighbour gap filling across cluster boundaries) is exactly what
// heals them. The experiment runs both variants.
func Fig41(seed int64) (Report, error) {
	rep := newReport("F4.1", "complementary gaps across a partition require non-neighbour gap filling")

	run := func(withGlobal bool) (*harness.Result, error) {
		params := core.DefaultParams()
		// Keep the parent's periodic fills towards its (remote) children
		// slow so the staged gaps survive until the partition; the staging
		// window is under a second.
		params.GapRemotePeriod = 30 * time.Second
		params.InfoRemotePeriod = 30 * time.Second
		params.ParentTimeout = 31 * time.Second // silence tolerance ≥ exchange period
		params.DisableNonNeighborGapFill = !withGlobal
		events := []harness.TimedEvent{
			// A priming broadcast at t=1s lets i and j discover the source
			// and attach well before staging starts.
			{At: time.Second, Do: func(rt *harness.Runtime) error {
				return rt.BroadcastNow([]byte("prime"))
			}},
			// Host 3 (j) misses message 2.
			{At: 4900 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(3, false)
			}},
			{At: 5 * time.Second, Do: func(rt *harness.Runtime) error {
				return rt.BroadcastNow([]byte("m2"))
			}},
			{At: 5300 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(3, true)
			}},
			// Host 2 (i) misses message 3.
			{At: 5350 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(2, false)
			}},
			{At: 5450 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.BroadcastNow([]byte("m3"))
			}},
			{At: 5750 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(2, true)
			}},
			// Message 4 reaches both, so both INFO maxima equal 4 and
			// neither set dominates.
			{At: 5850 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.BroadcastNow([]byte("m4"))
			}},
			// Partition the source away; i and j can still communicate.
			{At: 6 * time.Second, Do: func(rt *harness.Runtime) error {
				_, err := topo.IsolateFigure41Source(rt.Topo)
				return err
			}},
		}
		return harness.Run(harness.Scenario{
			Name:     fmt.Sprintf("fig41-global=%v", withGlobal),
			Seed:     seed,
			Build:    topo.Figure41,
			Protocol: harness.ProtocolTree,
			Params:   params,
			Messages: 0,
			WarmUp:   time.Second,
			Drain:    40 * time.Second,
			Events:   events,
		})
	}

	with, err := run(true)
	if err != nil {
		return nil, err
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}

	missing := func(res *harness.Result) string {
		return fmt.Sprintf("i:%v j:%v", res.MissingAt(2), res.MissingAt(3))
	}
	healed := func(res *harness.Result) bool {
		return len(res.MissingAt(2)) == 0 && len(res.MissingAt(3)) == 0
	}

	t := metrics.NewTable("variant", "gaps healed", "remaining gaps")
	t.AddRow("with non-neighbour gap fill (§4.4)", healed(with), missing(with))
	t.AddRow("neighbour-only gap fill", healed(without), missing(without))
	rep.addTable(t)
	rep.note("source partitioned at t=6s; i and j stay mutually reachable")

	rep.expect(len(with.EventErrors) == 0, "events failed: %v", with.EventErrors)
	rep.expect(len(without.EventErrors) == 0, "events failed: %v", without.EventErrors)
	// Stage check: the gaps must actually have been staged.
	rep.expect(healed(with), "global gap filling did not heal the partition gaps (%s)", missing(with))
	rep.expect(!healed(without),
		"gaps healed even without non-neighbour gap filling — scenario failed to isolate the mechanism")
	return rep, nil
}
