package experiments

import (
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/metrics"
	"rbcast/internal/topo"
)

// BackoffRecovery (E12) measures the peer-health layer against the
// paper's fixed-frequency scheduling. §6 sets every exchange frequency
// as a static reliability/cost knob; the health layer keeps those
// frequencies for responsive peers but suspects peers whose probes go
// repeatedly unanswered, backing global probes toward them off
// exponentially. During a long partition that should save most of the
// control traffic wasted into the cut; because any message from a
// suspected peer triggers an immediate fast-resync burst — and
// parent/child remote traffic is never gated — post-heal convergence
// must stay within one InfoRemotePeriod of the fixed-rate run.
func BackoffRecovery(seed int64) (Report, error) {
	rep := newReport("E12", "health layer — fixed-rate vs. backoff probing across a 30s partition")
	cutAt, healAt := 4*time.Second, 34*time.Second
	t := metrics.NewTable("variant", "unreachable sends", "suppressed", "resync bursts", "complete at", "complete")
	type outcome struct {
		res *harness.Result
		mon *harness.HealthMonitor
	}
	var results [2]outcome
	for i, backoff := range []bool{false, true} {
		params := core.DefaultParams()
		name := "fixed"
		if backoff {
			params = params.WithBackoff()
			name = "backoff"
		}
		rt, err := harness.Prepare(harness.Scenario{
			Name:             "e12-" + name,
			Seed:             seed,
			Build:            clusteredBuild(topo.ClusteredConfig{Clusters: 3, HostsPerCluster: 2, Shape: topo.WANStar}),
			Protocol:         harness.ProtocolTree,
			Params:           params,
			Messages:         30,
			MsgInterval:      200 * time.Millisecond,
			WarmUp:           2 * time.Second,
			Events:           harness.PartitionWindow(2, cutAt, healAt),
			Drain:            90 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			return nil, err
		}
		mon := rt.MonitorHealth(100 * time.Millisecond)
		res, err := rt.Finish()
		if err != nil {
			return nil, err
		}
		results[i] = outcome{res: res, mon: mon}
		t.AddRow(name, res.UnreachableSends, res.SuppressedSends, res.ResyncBursts,
			res.CompletionAt, res.Complete)
	}
	rep.addTable(t)
	rep.note("3 clusters × 2 hosts, cluster 2 cut t=4s..34s, 30 messages; unreachable sends")
	rep.note("is control traffic that died inside the partition, suppressed is probes the")
	rep.note("health layer withheld while the peer was inside its backoff window")

	fixed, backoff := results[0].res, results[1].res
	rep.expect(len(fixed.EventErrors) == 0 && len(backoff.EventErrors) == 0, "event errors")
	rep.expect(fixed.Complete, "fixed run did not complete after heal")
	rep.expect(backoff.Complete, "backoff run did not complete after heal")
	// Parent/child remote traffic is never gated (that is what bounds the
	// post-heal latency), so the saving shows up in the global-probe share
	// of the waste: ≥ 25% overall (measured ~40% across seeds).
	rep.expect(backoff.UnreachableSends < fixed.UnreachableSends*3/4,
		"backoff wasted %d sends into the partition, not measurably below fixed's %d",
		backoff.UnreachableSends, fixed.UnreachableSends)
	rep.expect(backoff.SuppressedSends > 0, "health layer suppressed nothing")
	rep.expect(results[1].mon.PeakSuspectedPairs() > 0, "no peer was ever suspected")
	rep.expect(backoff.ResyncBursts > 0, "no fast-resync burst after the heal")
	slack := core.DefaultParams().InfoRemotePeriod
	rep.expect(backoff.CompletionAt <= fixed.CompletionAt+slack,
		"backoff completed at %v, fixed at %v — more than %v slower",
		backoff.CompletionAt, fixed.CompletionAt, slack)
	return rep, nil
}
