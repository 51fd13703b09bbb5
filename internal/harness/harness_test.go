package harness_test

import (
	"testing"
	"time"

	"rbcast/internal/harness"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

func clusteredBuild(clusters, hostsPer int, shape topo.WANShape) func(sim.Loop) (*topo.Topology, error) {
	return func(eng sim.Loop) (*topo.Topology, error) {
		return topo.Clustered(eng, topo.ClusteredConfig{
			Clusters:        clusters,
			HostsPerCluster: hostsPer,
			Shape:           shape,
		})
	}
}

func TestTreeBroadcastCompletes(t *testing.T) {
	res, err := harness.Run(harness.Scenario{
		Name:             "tree-3x3",
		Seed:             1,
		Build:            clusteredBuild(3, 3, topo.WANTree),
		Protocol:         harness.ProtocolTree,
		Messages:         10,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("broadcast incomplete: %d/%d delivered\n%s",
			res.DeliveredCount, res.ExpectedCount, res.Summary())
	}
	if res.DuplicateDeliveries != 0 {
		t.Errorf("duplicate deliveries = %d, want 0", res.DuplicateDeliveries)
	}
	if res.SendErrors != 0 {
		t.Errorf("send errors = %d, want 0", res.SendErrors)
	}
}

func TestBasicBroadcastCompletes(t *testing.T) {
	res, err := harness.Run(harness.Scenario{
		Name:             "basic-3x3",
		Seed:             1,
		Build:            clusteredBuild(3, 3, topo.WANTree),
		Protocol:         harness.ProtocolBasic,
		Messages:         10,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("basic broadcast incomplete: %d/%d delivered",
			res.DeliveredCount, res.ExpectedCount)
	}
}

func TestTreeConvergesToClusterTree(t *testing.T) {
	rt, err := harness.Prepare(harness.Scenario{
		Name:     "convergence-4x3",
		Seed:     7,
		Build:    clusteredBuild(4, 3, topo.WANTree),
		Protocol: harness.ProtocolTree,
		Messages: 20,
		WarmUp:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After warm-up plus traffic, the parent graph must induce a cluster
	// tree.
	if err := rt.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ok, why := rt.InducesClusterTree(); !ok {
		t.Errorf("parent graph does not induce a cluster tree: %s", why)
		for _, h := range rt.TreeHosts {
			t.Logf("host %d: parent=%d cluster=%v info=%v leader=%v",
				h.ID(), h.Parent(), h.Cluster(), h.Info(), h.IsLeader())
		}
	}
	if ok, cycle := rt.ParentGraphAcyclic(); !ok {
		t.Errorf("parent graph has a cycle: %v", cycle)
	}
}

// TestTreeHostsShareOneRoster: a run's membership is built and checked
// once — every tree host reads its participants from one roster — and
// Scenario.Order, a row in HostList order, is held to the participants
// before any host is built.
func TestTreeHostsShareOneRoster(t *testing.T) {
	sc := harness.Scenario{
		Name:     "roster-3x3",
		Seed:     1,
		Build:    clusteredBuild(3, 3, topo.WANTree),
		Protocol: harness.ProtocolTree,
		Messages: 1,
		Order:    []int{9, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	rt, err := harness.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.TreeHosts) != 9 {
		t.Fatalf("%d tree hosts, want 9", len(rt.TreeHosts))
	}
	for _, h := range rt.TreeHosts[1:] {
		if !h.SharesRoster(rt.TreeHosts[0]) {
			t.Errorf("host %d has a roster of its own", h.ID())
		}
	}
	sc.Order = sc.Order[:8]
	if _, err := harness.Prepare(sc); err == nil || err.Error() != "harness: core: 8 orders for 9 peers" {
		t.Errorf("an order row one short: %v, want it refused", err)
	}
}

func TestTreeCompletesUnderLoss(t *testing.T) {
	res, err := harness.Run(harness.Scenario{
		Name: "lossy-3x3",
		Seed: 3,
		Build: func(eng sim.Loop) (*topo.Topology, error) {
			return topo.Clustered(eng, topo.ClusteredConfig{
				Clusters:        3,
				HostsPerCluster: 3,
				Shape:           topo.WANChain,
				Cheap:           lossy(0.05),
				Expensive:       lossyExpensive(0.10),
			})
		},
		Protocol:         harness.ProtocolTree,
		Messages:         15,
		Drain:            60 * time.Second,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("broadcast incomplete under loss: %d/%d\n%s",
			res.DeliveredCount, res.ExpectedCount, res.Summary())
	}
	if res.DuplicateDeliveries != 0 {
		t.Errorf("duplicate deliveries = %d", res.DuplicateDeliveries)
	}
}

func TestTreeCompletesUnderDuplication(t *testing.T) {
	res, err := harness.Run(harness.Scenario{
		Name: "dup-2x3",
		Seed: 5,
		Build: func(eng sim.Loop) (*topo.Topology, error) {
			cheap := lossy(0)
			cheap.DupProb = 0.2
			exp := lossyExpensive(0)
			exp.DupProb = 0.2
			return topo.Clustered(eng, topo.ClusteredConfig{
				Clusters:        2,
				HostsPerCluster: 3,
				Cheap:           cheap,
				Expensive:       exp,
			})
		},
		Protocol:         harness.ProtocolTree,
		Messages:         10,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("broadcast incomplete under duplication: %d/%d",
			res.DeliveredCount, res.ExpectedCount)
	}
	if res.DuplicateDeliveries != 0 {
		t.Errorf("network duplicates leaked to the application: %d", res.DuplicateDeliveries)
	}
}

func TestPartitionHealsAndDeliveryResumes(t *testing.T) {
	// The schedule written out by hand, as six call sites had it before
	// harness.PartitionWindow; the helper must produce the same run.
	byHand := []harness.TimedEvent{
		{
			At: 4 * time.Second,
			Do: func(rt *harness.Runtime) error {
				_, err := rt.Topo.IsolateCluster(2)
				return err
			},
		},
		{
			At: 20 * time.Second,
			Do: func(rt *harness.Runtime) error {
				return rt.Topo.RestoreLinks(rt.Topo.WANLinksOfCluster(2))
			},
		},
	}
	run := func(events []harness.TimedEvent) *harness.Result {
		res, err := harness.Run(harness.Scenario{
			Name:             "partition-3x2",
			Seed:             11,
			Build:            clusteredBuild(3, 2, topo.WANChain),
			Protocol:         harness.ProtocolTree,
			Messages:         30,
			MsgInterval:      300 * time.Millisecond,
			Events:           events,
			Drain:            60 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(harness.PartitionWindow(2, 4*time.Second, 20*time.Second))
	if len(res.EventErrors) != 0 {
		t.Fatalf("event errors: %v", res.EventErrors)
	}
	if !res.Complete {
		for h := range res.DeliveredAt {
			if missing := res.MissingAt(h); len(missing) > 0 {
				t.Logf("host %d missing %v", h, missing)
			}
		}
		t.Fatalf("delivery did not resume after partition repair: %d/%d",
			res.DeliveredCount, res.ExpectedCount)
	}
	if !(res.CompletionAt > 20*time.Second) {
		t.Errorf("completion at %v, expected after the 20s repair", res.CompletionAt)
	}
	if res.UnreachableSends == 0 {
		t.Error("no send toward an unreachable host: the partition never took effect")
	}
	if want := run(byHand); res.Summary() != want.Summary() || res.WireBytes != want.WireBytes {
		t.Errorf("PartitionWindow and the hand-written schedule ran differently:\n%s(%d wire bytes)\nvs\n%s(%d wire bytes)",
			res.Summary(), res.WireBytes, want.Summary(), want.WireBytes)
	}
}

func TestHostCrashViaAccessLink(t *testing.T) {
	// Cut a mid-tree host's access link ("host crash"), repair later; the
	// host must catch up on everything it missed.
	events := []harness.TimedEvent{
		{
			At: 4 * time.Second,
			Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(rt.Topo.HostsByCluster[1][0], false)
			},
		},
		{
			At: 15 * time.Second,
			Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(rt.Topo.HostsByCluster[1][0], true)
			},
		},
	}
	res, err := harness.Run(harness.Scenario{
		Name:             "crash-3x2",
		Seed:             13,
		Build:            clusteredBuild(3, 2, topo.WANStar),
		Protocol:         harness.ProtocolTree,
		Messages:         25,
		MsgInterval:      300 * time.Millisecond,
		Events:           events,
		Drain:            60 * time.Second,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("crashed host did not catch up: %d/%d delivered",
			res.DeliveredCount, res.ExpectedCount)
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() string {
		res, err := harness.Run(harness.Scenario{
			Seed:     21,
			Build:    clusteredBuild(3, 2, topo.WANTree),
			Messages: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different results:\n%s\nvs\n%s", a, b)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := harness.Run(harness.Scenario{}); err == nil {
		t.Error("nil Build accepted")
	}
	if _, err := harness.Run(harness.Scenario{
		Build:    clusteredBuild(1, 1, topo.WANStar),
		Messages: -1,
	}); err == nil {
		t.Error("negative Messages accepted")
	}
}

func TestSingleClusterNoExpensiveTraffic(t *testing.T) {
	res, err := harness.Run(harness.Scenario{
		Seed:             2,
		Build:            clusteredBuild(1, 5, topo.WANStar),
		Messages:         10,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("single-cluster broadcast incomplete: %d/%d", res.DeliveredCount, res.ExpectedCount)
	}
	if n := res.NetStats.LinkTransmissions[2]; n != 0 { // netsim.Expensive
		t.Errorf("expensive transmissions = %d in an all-cheap net", n)
	}
	var inter uint64
	for _, n := range res.InterClusterByKind {
		inter += n
	}
	if inter != 0 {
		t.Errorf("inter-cluster sends = %d with one cluster", inter)
	}
}
