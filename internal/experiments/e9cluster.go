package experiments

import (
	"fmt"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/metrics"
	"rbcast/internal/netsim"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

// ClusterKnowledge (E9) reproduces the §6 discussion of cluster
// information: the protocol runs with dynamic cost-bit inference (the
// paper's design), with static knowledge supplied at start, and with no
// knowledge at all (every host a singleton cluster). All three must
// deliver; their costs differ exactly as the paper predicts —
// "less satisfying performance" for static once the network drifts, and
// the singleton assumption works but forfeits the cluster-tree economy.
//
// The scenario broadcasts continuously while, mid-run, a cheap link
// merges two clusters. Dynamic inference adapts (one leader for the
// merged cluster → fewer expensive transmissions per message); static
// knowledge keeps the stale structure; no knowledge never had one.
func ClusterKnowledge(seed int64) (Report, error) {
	rep := newReport("E9", "cluster knowledge: dynamic vs. static vs. none (§6)")
	const (
		mergeAt = 18 * time.Second
		endAt   = 50 * time.Second
	)
	type phase struct {
		interData uint64
		messages  int
	}
	t := metrics.NewTable("mode", "pre-merge cost/msg", "post-merge cost/msg", "delivered", "complete")
	costs := map[core.ClusterMode][2]float64{}
	for _, mode := range []core.ClusterMode{core.ClusterDynamic, core.ClusterStatic, core.ClusterNone} {
		params := core.DefaultParams()
		params.ClusterMode = mode
		rt, err := harness.Prepare(harness.Scenario{
			Name: fmt.Sprintf("e9-%s", mode),
			Seed: seed,
			Build: func(eng sim.Loop) (*topo.Topology, error) {
				return topo.Clustered(eng, topo.ClusteredConfig{
					Clusters:        4,
					HostsPerCluster: 3,
					Shape:           topo.WANStar,
				})
			},
			Protocol:    harness.ProtocolTree,
			Params:      params,
			Messages:    120,
			MsgInterval: 250 * time.Millisecond,
			WarmUp:      3 * time.Second,
			Drain:       20 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		interData := func() uint64 {
			res := rt.Result()
			return res.InterClusterByKind[harness.KindData] + res.InterClusterByKind[harness.KindGapFill]
		}
		msgsBy := func(at time.Duration) int {
			n := 0
			for _, ts := range rt.Result().BroadcastAt {
				if ts <= at {
					n++
				}
			}
			return n
		}
		if err := rt.RunUntil(mergeAt); err != nil {
			return nil, err
		}
		pre := phase{interData: interData(), messages: msgsBy(mergeAt)}
		// Merge generated clusters 2 and 3 with a cheap inter-hub link.
		if _, err := rt.Net.AddLink(
			rt.Topo.ServersByCluster[2][0],
			rt.Topo.ServersByCluster[3][0],
			netsim.LinkConfig{Class: netsim.Cheap},
		); err != nil {
			return nil, err
		}
		if err := rt.RunUntil(endAt); err != nil {
			return nil, err
		}
		res, err := rt.Finish()
		if err != nil {
			return nil, err
		}
		post := phase{
			interData: interData() - pre.interData,
			messages:  res.Messages - pre.messages,
		}
		preCost := float64(pre.interData) / float64(max(pre.messages, 1))
		postCost := float64(post.interData) / float64(max(post.messages, 1))
		costs[mode] = [2]float64{preCost, postCost}
		t.AddRow(mode.String(), preCost, postCost,
			fmt.Sprintf("%d/%d", res.DeliveredCount, res.ExpectedCount), res.Complete)
		rep.expect(res.Complete, "%s mode incomplete (%d/%d)", mode, res.DeliveredCount, res.ExpectedCount)
	}
	rep.addTable(t)
	rep.note("4 clusters × 3 hosts (star); at t=%v a cheap link merges clusters 2 and 3,", mergeAt)
	rep.note("dropping the achievable optimum from k−1=3 to k−1=2 inter-cluster sends/msg")

	dyn, sta, non := costs[core.ClusterDynamic], costs[core.ClusterStatic], costs[core.ClusterNone]
	// Before the merge, correct static knowledge performs like dynamic
	// inference, and no knowledge costs substantially more.
	rep.expect(sta[0] <= 1.4*dyn[0] && dyn[0] <= 1.4*sta[0],
		"pre-merge dynamic (%.2f) and static (%.2f) should be close", dyn[0], sta[0])
	rep.expect(non[0] > 1.3*dyn[0],
		"no-knowledge cost %.2f not well above dynamic %.2f pre-merge", non[0], dyn[0])
	// After the merge, dynamic adapts; stale static does not.
	rep.expect(dyn[1] < 0.85*sta[1],
		"post-merge dynamic cost %.2f did not adapt below stale static %.2f", dyn[1], sta[1])
	return rep, nil
}
