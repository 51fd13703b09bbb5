package harness_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/replica"
	"rbcast/internal/topo"
)

// replicaPayloads returns a PayloadFor that broadcasts encoded replica
// updates over a bounded key space, so every host's store converges to
// the same winners and snapshots carry real state.
func replicaPayloads(keys int) func(i int) []byte {
	return func(i int) []byte {
		u := replica.Update{
			Key:   fmt.Sprintf("k%02d", i%keys),
			Value: fmt.Sprintf("v%04d", i),
			Stamp: uint64(i + 1),
		}
		enc, err := replica.EncodeUpdate(u)
		if err != nil {
			panic(err)
		}
		return enc
	}
}

// catchupParams is the reference catch-up tuning on top of pruning.
func catchupParams() core.Params {
	p := core.DefaultParams().WithCatchupSync()
	p.PruneStable = true
	return p
}

// TestCatchupLateJoiner is the tentpole end-to-end check: a host that is
// down for the entire broadcast history — long enough that liberated
// pruning has dropped the prefix everywhere — joins late and must still
// converge, via snapshot transfer for the pruned prefix plus range sync
// for the tail, in work proportional to what it missed.
func TestCatchupLateJoiner(t *testing.T) {
	const messages = 120
	joiner := core.HostID(6)
	joinAt := 32 * time.Second
	res, err := harness.Run(harness.Scenario{
		Name:        "catchup-late-joiner",
		Seed:        7,
		Build:       clusteredBuild(2, 3, topo.WANTree),
		Protocol:    harness.ProtocolTree,
		Params:      catchupParams(),
		Messages:    messages,
		Replicate:   true,
		PayloadFor:  replicaPayloads(16),
		MsgInterval: 200 * time.Millisecond,
		Events: []harness.TimedEvent{
			{At: 1 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(6, false)
			}},
			{At: joinAt, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(6, true)
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("late joiner never converged: %d/%d delivered, missing at %d: %v\n%s",
			res.DeliveredCount, res.ExpectedCount, joiner, res.MissingAt(joiner), res.Summary())
	}
	if res.DuplicateDeliveries != 0 {
		t.Errorf("duplicate deliveries = %d, want 0", res.DuplicateDeliveries)
	}
	// The joiner's history must have been pruned out from under it, and
	// healed by snapshot transfer — otherwise this test is not exercising
	// the liberation path at all.
	if res.SnapInstalls == 0 {
		t.Fatalf("no snapshot installs; liberation/catch-up path not exercised\n%s", res.Summary())
	}
	if res.SnapshotDeliveries < 32 {
		t.Errorf("snapshot deliveries = %d, want a substantial pruned prefix (≥ 32)", res.SnapshotDeliveries)
	}
	// Convergence must be O(missing), not O(history): the joiner missed
	// everything, so its range-sync work is bounded by the un-snapshotted
	// tail over the batch size, plus retry/failover slack.
	if res.SyncRounds > uint64(3*(messages/catchupParams().SyncBatch+2)) {
		t.Errorf("sync rounds = %d, want O(missing/batch)", res.SyncRounds)
	}
}

// TestCatchupReplicaConvergence checks the state-transfer contract end
// to end: after a late joiner catches up (snapshot + range sync), every
// replica store — including the joiner's — has the same fingerprint.
func TestCatchupReplicaConvergence(t *testing.T) {
	rt, err := harness.Prepare(harness.Scenario{
		Name:        "catchup-replica-convergence",
		Seed:        11,
		Build:       clusteredBuild(2, 3, topo.WANTree),
		Protocol:    harness.ProtocolTree,
		Params:      catchupParams(),
		Messages:    100,
		Replicate:   true,
		PayloadFor:  replicaPayloads(8),
		MsgInterval: 200 * time.Millisecond,
		Events: []harness.TimedEvent{
			{At: 1 * time.Millisecond, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(5, false)
			}},
			{At: 28 * time.Second, Do: func(rt *harness.Runtime) error {
				return rt.Net.SetHostLinkUp(5, true)
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete: %d/%d\n%s", res.DeliveredCount, res.ExpectedCount, res.Summary())
	}
	src, _ := slices.BinarySearch(res.HostList, core.HostID(rt.Topo.Source))
	want := rt.Replicas[src].Fingerprint()
	for i, st := range rt.Replicas {
		if got := st.Fingerprint(); got != want {
			t.Errorf("host %d replica fingerprint %s, want %s", res.HostList[i], got, want)
		}
	}
}

// TestCatchupZeroKnobsInert pins the compatibility claim: with the sync
// knobs at their zero values the wire traffic contains no catch-up
// kinds and no snapshots exist, even with Replicate on.
func TestCatchupZeroKnobsInert(t *testing.T) {
	p := core.DefaultParams()
	p.PruneStable = true
	res, err := harness.Run(harness.Scenario{
		Name:             "catchup-off",
		Seed:             3,
		Build:            clusteredBuild(2, 3, topo.WANTree),
		Protocol:         harness.ProtocolTree,
		Params:           p,
		Messages:         20,
		Replicate:        true,
		PayloadFor:       replicaPayloads(8),
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete: %s", res.Summary())
	}
	if res.CatchupWireBytes != 0 || res.SyncRounds != 0 || res.SnapInstalls != 0 {
		t.Errorf("catch-up layer active with zero knobs: bytes=%d rounds=%d installs=%d",
			res.CatchupWireBytes, res.SyncRounds, res.SnapInstalls)
	}
	for _, kind := range []core.MsgKind{core.MsgSyncReq, core.MsgSyncResp, core.MsgSnapReq, core.MsgSnapChunk} {
		if n := res.SendsByKind[harness.SendKind(kind)]; n != 0 {
			t.Errorf("sends[%s] = %d, want 0", kind, n)
		}
	}
}
