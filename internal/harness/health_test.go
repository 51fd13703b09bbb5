package harness_test

import (
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/topo"
)

// partitionScenario builds a 3×2 WANStar run that cuts cluster 2 off for
// [cut, heal) while the source keeps broadcasting.
func partitionScenario(name string, params core.Params, cut, heal time.Duration) harness.Scenario {
	return harness.Scenario{
		Name:     name,
		Seed:     47,
		Build:    clusteredBuild(3, 2, topo.WANStar),
		Protocol: harness.ProtocolTree,
		Params:   params,
		Messages: 30,
		WarmUp:   2 * time.Second,
		Events: []harness.TimedEvent{
			{At: cut, Do: func(rt *harness.Runtime) error {
				_, err := rt.Topo.IsolateCluster(2)
				return err
			}},
			{At: heal, Do: func(rt *harness.Runtime) error {
				return rt.Topo.RestoreLinks(rt.Topo.WANLinksOfCluster(2))
			}},
		},
		Drain:            90 * time.Second,
		StopWhenComplete: true,
	}
}

// TestBackoffReducesPartitionWaste is the tentpole's harness-level claim:
// during a long partition, the health layer suspects the unreachable
// cluster and backs its probes off, so far less traffic is wasted into
// the partition — and delivery still completes after the heal.
func TestBackoffReducesPartitionWaste(t *testing.T) {
	cut, heal := 4*time.Second, 34*time.Second
	fixed, err := harness.Run(partitionScenario("fixed", core.DefaultParams(), cut, heal))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := harness.Prepare(partitionScenario("backoff", core.DefaultParams().WithBackoff(), cut, heal))
	if err != nil {
		t.Fatal(err)
	}
	mon := rt.MonitorHealth(100 * time.Millisecond)
	backoff, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*harness.Result{fixed, backoff} {
		if !res.Complete {
			t.Fatalf("%s run incomplete: %d/%d", res.Name, res.DeliveredCount, res.ExpectedCount)
		}
	}
	if backoff.UnreachableSends >= fixed.UnreachableSends {
		t.Errorf("backoff wasted %d sends into the partition, fixed wasted %d — no saving",
			backoff.UnreachableSends, fixed.UnreachableSends)
	}
	if backoff.SuppressedSends == 0 {
		t.Error("backoff run suppressed no sends despite 30s partition")
	}
	if mon.PeakSuspectedPairs() == 0 {
		t.Error("monitor never observed a suspected pair during the partition")
	}
	if backoff.ResyncBursts == 0 {
		t.Error("no fast-resync bursts after the heal")
	}
	// Post-heal convergence must not regress past one InfoRemotePeriod.
	slack := core.DefaultParams().InfoRemotePeriod
	if backoff.CompletionAt > fixed.CompletionAt+slack {
		t.Errorf("backoff completed at %v, fixed at %v — slower than the %v allowance",
			backoff.CompletionAt, fixed.CompletionAt, slack)
	}
	// The liveness invariant holds at the (healed, settled) end state.
	for _, v := range rt.CheckInvariants(harness.InvariantOptions{}) {
		t.Errorf("invariant violated: %v", v)
	}
}

// TestBackoffLivenessInvariantDuringPartition checks the invariant bundle
// mid-partition too: suppression toward the unreachable cluster must stay
// inside the BackoffMax cap at every instant.
func TestBackoffLivenessInvariantDuringPartition(t *testing.T) {
	cut, heal := 4*time.Second, 34*time.Second
	rt, err := harness.Prepare(partitionScenario("mid", core.DefaultParams().WithBackoff(), cut, heal))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		if err := rt.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		for _, v := range rt.CheckInvariants(harness.InvariantOptions{}) {
			t.Errorf("t=%v: invariant violated: %v", at, v)
		}
	}
	if rt.SuspectedPairs() == 0 {
		t.Error("no suspicions in force 30s into the partition")
	}
	if _, err := rt.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthArcOnCrossPartitionPair follows the source's view of the cut
// cluster's leader (host 5) through the full arc. Pre-cut, 5's periodic
// global INFO keeps resetting the source's failure count, so 5 is never
// suspected; mid-partition it must be; after the heal, traffic resumes
// and the suspicion clears at message latency.
func TestHealthArcOnCrossPartitionPair(t *testing.T) {
	cut, heal := 4*time.Second, 24*time.Second
	rt, err := harness.Prepare(partitionScenario("arc", core.DefaultParams().WithBackoff(), cut, heal))
	if err != nil {
		t.Fatal(err)
	}
	mon := rt.MonitorHealth(100 * time.Millisecond)
	if err := rt.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	// The cut cluster's leader is the member whose parent lies outside it.
	var leader core.HostID
	members := map[core.HostID]bool{}
	for _, h := range rt.Topo.HostsByCluster[2] {
		members[core.HostID(h)] = true
	}
	for m := range members {
		if p := rt.TreeHost(m).Parent(); p == core.Nil || !members[p] {
			leader = m
		}
	}
	if leader == core.Nil {
		t.Fatal("cluster 2 has no leader at cut time")
	}
	// The observer must be a main-net leader that globally probes the cut
	// leader — i.e. not its parent-graph neighbor (neighbors talk over
	// the remote-neighbor schedule instead).
	var observer core.HostID
	for _, h := range rt.TreeHosts {
		id := h.ID()
		if members[id] || !h.IsLeader() {
			continue
		}
		if rt.TreeHost(leader).Parent() == id {
			continue
		}
		if observer == core.Nil || id < observer {
			observer = id
		}
	}
	if observer == core.Nil {
		t.Fatal("no non-neighbor main-net leader to observe with")
	}
	if ph := rt.TreeHost(observer).PeerHealthOf(leader); ph.Suspected {
		t.Errorf("host %d suspects talking leader %d before the cut: %+v", observer, leader, ph)
	}
	if err := rt.RunUntil(cut + 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if ph := rt.TreeHost(observer).PeerHealthOf(leader); !ph.Suspected {
		t.Errorf("host %d does not suspect cut leader %d 15s into the partition: %+v", observer, leader, ph)
	}
	if _, err := rt.Finish(); err != nil {
		t.Fatal(err)
	}
	// Give the (gated, ≤ BackoffMax apart) probes time to cross after the
	// heal; hearing the leader again must clear the suspicion.
	if err := rt.Settle(2 * core.DefaultParams().WithBackoff().BackoffMax); err != nil {
		t.Fatal(err)
	}
	if ph := rt.TreeHost(observer).PeerHealthOf(leader); ph.Suspected {
		t.Errorf("suspicion of leader %d survived the heal: %+v", leader, ph)
	}
	if mon.PeakSuspectedPairs() == 0 {
		t.Error("monitor observed no suspected pairs at all")
	}
}
