package harness_test

import (
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

// TestSourceCrashSharedResponsibility is the paper's §1 motivating
// scenario: "the broadcasting host gets disconnected from the network
// after delivering the message only to a portion of all hosts. [...] the
// hosts that successfully received the message from the source could
// then propagate it to others."
//
// We crash the source (cut its access link) immediately after a burst of
// broadcasts, early enough that remote clusters have not yet received
// the tail of the burst, and require every surviving host to obtain every
// message anyway — from peers, with the source gone for good.
func TestSourceCrashSharedResponsibility(t *testing.T) {
	burstAt := 5 * time.Second
	events := []harness.TimedEvent{
		// A burst of 10 extra messages, then the source dies 5ms later —
		// long enough for its own cluster to hear them (1ms links), too
		// short for the 30ms WAN links to deliver them remotely.
		{At: burstAt, Do: func(rt *harness.Runtime) error {
			for i := 0; i < 10; i++ {
				if err := rt.BroadcastNow([]byte("burst")); err != nil {
					return err
				}
			}
			return nil
		}},
		{At: burstAt + 5*time.Millisecond, Do: func(rt *harness.Runtime) error {
			return rt.Net.SetHostLinkUp(rt.Topo.Source, false)
		}},
	}
	rt, err := harness.Prepare(harness.Scenario{
		Name:        "source-crash",
		Seed:        17,
		Build:       clusteredBuild(3, 3, topo.WANStar),
		Protocol:    harness.ProtocolTree,
		Messages:    5, // pre-burst traffic so the tree is formed
		MsgInterval: 200 * time.Millisecond,
		WarmUp:      3 * time.Second,
		Events:      events,
		Drain:       60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EventErrors) != 0 {
		t.Fatalf("event errors: %v", res.EventErrors)
	}
	// Every host except the crashed source must hold all 15 messages.
	total := res.TotalMessages()
	source := core.HostID(rt.Topo.Source)
	for _, id := range res.HostList {
		if id == source {
			continue
		}
		if missing := res.MissingAt(id); len(missing) != 0 {
			t.Errorf("host %d still missing %v after source crash", id, missing)
		}
	}
	if t.Failed() {
		t.Logf("total messages: %d", total)
		for i, h := range rt.TreeHosts {
			t.Logf("host %d: parent=%d info=%v", res.HostList[i], h.Parent(), h.Info())
		}
	}
}

// TestFlappingWANLink subjects the protocol to a link that cycles up and
// down through the whole run; delivery must still complete once the flap
// schedule leaves the link up.
func TestFlappingWANLink(t *testing.T) {
	var events []harness.TimedEvent
	// Flap the only WAN link of cluster 1 off/on every second until t=12s.
	for i := 0; i < 6; i++ {
		at := time.Duration(i)*2*time.Second + 2*time.Second
		events = append(events,
			harness.TimedEvent{At: at, Do: func(rt *harness.Runtime) error {
				_, err := rt.Topo.IsolateCluster(1)
				return err
			}},
			harness.TimedEvent{At: at + time.Second, Do: func(rt *harness.Runtime) error {
				return rt.Topo.RestoreLinks(rt.Topo.WANLinksOfCluster(1))
			}},
		)
	}
	res, err := harness.Run(harness.Scenario{
		Name:             "flapping",
		Seed:             19,
		Build:            clusteredBuild(2, 3, topo.WANStar),
		Protocol:         harness.ProtocolTree,
		Messages:         40,
		MsgInterval:      250 * time.Millisecond,
		WarmUp:           2 * time.Second,
		Events:           events,
		Drain:            60 * time.Second,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EventErrors) != 0 {
		t.Fatalf("event errors: %v", res.EventErrors)
	}
	if !res.Complete {
		t.Fatalf("delivery incomplete under flapping link: %d/%d",
			res.DeliveredCount, res.ExpectedCount)
	}
	if res.DuplicateDeliveries != 0 {
		t.Errorf("duplicate deliveries = %d", res.DuplicateDeliveries)
	}
}

// TestRepeatedPartitions cycles a cluster in and out of the network
// several times with traffic in every phase.
func TestRepeatedPartitions(t *testing.T) {
	var events []harness.TimedEvent
	for i := 0; i < 3; i++ {
		cut := time.Duration(i)*8*time.Second + 4*time.Second
		heal := cut + 4*time.Second
		events = append(events,
			harness.TimedEvent{At: cut, Do: func(rt *harness.Runtime) error {
				_, err := rt.Topo.IsolateCluster(2)
				return err
			}},
			harness.TimedEvent{At: heal, Do: func(rt *harness.Runtime) error {
				return rt.Topo.RestoreLinks(rt.Topo.WANLinksOfCluster(2))
			}},
		)
	}
	res, err := harness.Run(harness.Scenario{
		Name:             "repeated-partitions",
		Seed:             23,
		Build:            clusteredBuild(3, 2, topo.WANChain),
		Protocol:         harness.ProtocolTree,
		Messages:         100,
		MsgInterval:      250 * time.Millisecond,
		WarmUp:           2 * time.Second,
		Events:           events,
		Drain:            90 * time.Second,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("delivery incomplete across repeated partitions: %d/%d",
			res.DeliveredCount, res.ExpectedCount)
	}
}

// TestLossyEverything pushes loss and duplication on every link class at
// once; the gap-filling machinery must still converge.
func TestLossyEverything(t *testing.T) {
	res, err := harness.Run(harness.Scenario{
		Name: "lossy-everything",
		Seed: 29,
		Build: func(eng sim.Loop) (*topo.Topology, error) {
			return topo.Clustered(eng, topo.ClusteredConfig{
				Clusters:        3,
				HostsPerCluster: 3,
				Shape:           topo.WANTree,
				Cheap:           netsim.LinkConfig{Class: netsim.Cheap, LossProb: 0.10, DupProb: 0.10},
				Expensive:       netsim.LinkConfig{Class: netsim.Expensive, LossProb: 0.20, DupProb: 0.10},
				HostLink:        netsim.LinkConfig{Class: netsim.Cheap, LossProb: 0.05},
			})
		},
		Protocol:         harness.ProtocolTree,
		Messages:         30,
		MsgInterval:      200 * time.Millisecond,
		Drain:            120 * time.Second,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("delivery incomplete under heavy loss+dup: %d/%d",
			res.DeliveredCount, res.ExpectedCount)
	}
	if res.DuplicateDeliveries != 0 {
		t.Errorf("network duplicates leaked to the application: %d", res.DuplicateDeliveries)
	}
}

// TestBasicStallsWhileSourceDown contrasts the baseline: with the source
// crashed, no basic host can help another, so hosts that missed a
// message stay missing it until the source returns.
func TestBasicStallsWhileSourceDown(t *testing.T) {
	events := []harness.TimedEvent{
		// Crash the source right after the burst below.
		{At: 2 * time.Second, Do: func(rt *harness.Runtime) error {
			for i := 0; i < 5; i++ {
				if err := rt.BroadcastNow([]byte("x")); err != nil {
					return err
				}
			}
			return nil
		}},
		{At: 2*time.Second + 5*time.Millisecond, Do: func(rt *harness.Runtime) error {
			return rt.Net.SetHostLinkUp(rt.Topo.Source, false)
		}},
		// Return at t=30s.
		{At: 30 * time.Second, Do: func(rt *harness.Runtime) error {
			return rt.Net.SetHostLinkUp(rt.Topo.Source, true)
		}},
	}
	rt, err := harness.Prepare(harness.Scenario{
		Name:     "basic-source-down",
		Seed:     31,
		Build:    clusteredBuild(3, 2, topo.WANStar),
		Protocol: harness.ProtocolBasic,
		Messages: 0,
		WarmUp:   time.Second,
		Events:   events,
		Drain:    60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At t=20s (source down since 2s), remote hosts must be missing the
	// burst: the WAN links are slower than the 5ms crash window.
	if err := rt.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	remote := core.HostID(rt.Topo.HostsByCluster[2][0])
	missingMid := len(rt.Result().MissingAt(remote))
	if missingMid == 0 {
		t.Skip("burst reached remote cluster before the crash; timing assumption broken")
	}
	res, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// After the source returns, its retransmissions finish the job.
	if missing := res.MissingAt(remote); len(missing) != 0 {
		t.Errorf("basic never completed after source returned: host %d missing %v", remote, missing)
	}
	if res.Complete && res.CompletionAt < 30*time.Second {
		t.Errorf("baseline completed at %v while the source was down — impossible", res.CompletionAt)
	}
}
