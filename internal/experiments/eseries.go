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

func clusteredBuild(cfg topo.ClusteredConfig) func(sim.Loop) (*topo.Topology, error) {
	return func(eng sim.Loop) (*topo.Topology, error) {
		return topo.Clustered(eng, cfg)
	}
}

// CostSweep (E1) measures the paper's §5 headline: with the cluster-tree
// arrangement a data message needs only k−1 inter-cluster transmissions
// for k clusters — the optimum — while the basic algorithm pays one
// transmission per host outside the source's cluster, i.e. (k−1)·m.
func CostSweep(seed int64) (Report, error) {
	rep := newReport("E1", "inter-cluster data transmissions per message (k clusters × m hosts)")
	const m = 3
	t := metrics.NewTable(
		"clusters k", "hosts", "tree (meas.)", "tree opt k-1", "basic (meas.)", "basic pred (k-1)m", "basic/tree")
	for _, k := range []int{2, 4, 6, 8} {
		var got [2]float64
		var complete [2]bool
		for i, proto := range []harness.Protocol{harness.ProtocolTree, harness.ProtocolBasic} {
			res, err := harness.Run(harness.Scenario{
				Name:     fmt.Sprintf("e1-k%d-%s", k, proto),
				Seed:     seed,
				Build:    clusteredBuild(topo.ClusteredConfig{Clusters: k, HostsPerCluster: m, Shape: topo.WANStar}),
				Protocol: proto,
				Messages: 60,
				// Long enough for the tree to amortize formation cost.
				MsgInterval:      150 * time.Millisecond,
				WarmUp:           4 * time.Second,
				StopWhenComplete: true,
			})
			if err != nil {
				return nil, err
			}
			got[i] = res.InterClusterDataPerMessage()
			complete[i] = res.Complete
		}
		tree, basicCost := got[0], got[1]
		optTree := float64(k - 1)
		predBasic := float64((k - 1) * m)
		t.AddRow(k, k*m, tree, optTree, basicCost, predBasic, metrics.Ratio(basicCost, tree))
		rep.expect(complete[0], "tree incomplete at k=%d", k)
		rep.expect(complete[1], "basic incomplete at k=%d", k)
		rep.expect(tree < basicCost, "k=%d: tree cost %.2f not below basic %.2f", k, tree, basicCost)
		// Tree tracks its optimum closely (≤ 50% overhead from formation
		// and occasional gap fills).
		rep.expect(tree <= 1.5*optTree,
			"k=%d: tree cost %.2f exceeds 1.5×(k−1)=%.1f", k, tree, 1.5*optTree)
		// Basic matches its prediction (lossless network: exactly one copy
		// per outside host, acks excluded from the data metric).
		rep.expect(basicCost >= predBasic-0.01 && basicCost <= predBasic*1.1,
			"k=%d: basic cost %.2f far from prediction %.1f", k, basicCost, predBasic)
	}
	rep.addTable(t)
	rep.note("m = %d hosts per cluster; star WAN; lossless; 60 messages", m)
	return rep, nil
}

// DelaySweep (E2) compares delivery delay. §5 argues the tree's delay is
// comparable to the basic algorithm's, which always uses network-shortest
// paths: the attachment procedure's freshest-parent chasing keeps the
// tree shallow.
func DelaySweep(seed int64) (Report, error) {
	rep := newReport("E2", "delivery delay, tree vs. basic (chain of clusters)")
	t := metrics.NewTable("protocol", "mean", "p50", "p99", "max", "complete")
	results := map[harness.Protocol]*harness.Result{}
	// Per-cluster-distance breakdown: the chain puts cluster c at c WAN
	// hops from the source.
	depth := metrics.NewTable("protocol", "cluster 0 (local)", "cluster 1", "cluster 2", "cluster 3")
	byDepth := map[harness.Protocol][]time.Duration{}
	for _, proto := range []harness.Protocol{harness.ProtocolTree, harness.ProtocolBasic} {
		rt, err := harness.Prepare(harness.Scenario{
			Name:             "e2-" + proto.String(),
			Seed:             seed,
			Build:            clusteredBuild(topo.ClusteredConfig{Clusters: 4, HostsPerCluster: 3, Shape: topo.WANChain}),
			Protocol:         proto,
			Messages:         60,
			MsgInterval:      150 * time.Millisecond,
			WarmUp:           4 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			return nil, err
		}
		res, err := rt.Finish()
		if err != nil {
			return nil, err
		}
		results[proto] = res
		t.AddRow(proto.String(), res.Delays.Mean(), res.Delays.Median(),
			res.Delays.Quantile(0.99), res.Delays.Max(), res.Complete)
		var row []any
		row = append(row, proto.String())
		var means []time.Duration
		for c := 0; c < 4; c++ {
			var d metrics.Durations
			for _, h := range rt.Topo.HostsByCluster[c] {
				for seq, at := range res.DeliveredAt[core.HostID(h)] {
					if sent, ok := res.BroadcastAt[seq]; ok {
						d.Add(at - sent)
					}
				}
			}
			means = append(means, d.Mean())
			row = append(row, d.Mean())
		}
		byDepth[proto] = means
		depth.AddRow(row...)
	}
	rep.addTable(t)
	rep.addTable(depth)
	rep.note("4 clusters × 3 hosts in a chain (worst case for tree depth); lossless;")
	rep.note("cluster c sits c expensive hops from the source")

	tree, basicRes := results[harness.ProtocolTree], results[harness.ProtocolBasic]
	rep.expect(tree.Complete && basicRes.Complete, "incomplete runs")
	// "Comparable": same order of magnitude, not better — basic rides
	// network shortest paths.
	rep.expect(tree.Delays.Mean() <= 5*basicRes.Delays.Mean(),
		"tree mean delay %v not comparable to basic %v",
		tree.Delays.Mean(), basicRes.Delays.Mean())
	rep.expect(basicRes.Delays.Mean() > 0, "basic measured no delays")
	// Delay grows with cluster distance for both protocols, and at the
	// farthest cluster the tree stays within a small factor of basic.
	td, bd := byDepth[harness.ProtocolTree], byDepth[harness.ProtocolBasic]
	rep.expect(td[3] > td[0] && bd[3] > bd[0], "delay does not grow with distance")
	rep.expect(td[3] <= 5*bd[3],
		"tree delay at depth 3 (%v) not comparable to basic (%v)", td[3], bd[3])
	return rep, nil
}

// Recovery (E3) reproduces §5's recovery argument: when a message is
// lost, the tree protocol redelivers it from a cluster neighbour or the
// parent cluster — nearby — while the basic algorithm always retransmits
// from the source across the whole network. On a lossy chain the tree
// pays far fewer expensive-link traversals per delivered message.
func Recovery(seed int64) (Report, error) {
	rep := newReport("E3", "redelivery locality under loss (25% WAN loss, chain)")
	t := metrics.NewTable(
		"protocol", "delivered", "exp. traversals/delivery", "mean delay", "p99 delay", "complete")
	results := map[harness.Protocol]*harness.Result{}
	for _, proto := range []harness.Protocol{harness.ProtocolTree, harness.ProtocolBasic} {
		res, err := harness.Run(harness.Scenario{
			Name: "e3-" + proto.String(),
			Seed: seed,
			Build: clusteredBuild(topo.ClusteredConfig{
				Clusters:        4,
				HostsPerCluster: 2,
				Shape:           topo.WANChain,
				Cheap:           netsim.LinkConfig{Class: netsim.Cheap, LossProb: 0.02},
				Expensive:       netsim.LinkConfig{Class: netsim.Expensive, LossProb: 0.25},
			}),
			Protocol:         proto,
			Messages:         40,
			MsgInterval:      200 * time.Millisecond,
			WarmUp:           4 * time.Second,
			Drain:            90 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			return nil, err
		}
		results[proto] = res
		perDelivery := float64(res.DataExpensiveTraversals) / float64(max(res.DeliveredCount, 1))
		t.AddRow(proto.String(),
			fmt.Sprintf("%d/%d", res.DeliveredCount, res.ExpectedCount),
			perDelivery, res.Delays.Mean(), res.Delays.Quantile(0.99), res.Complete)
	}
	rep.addTable(t)
	rep.note("expensive traversals include retransmissions; chain length 3 WAN hops")

	tree, basicRes := results[harness.ProtocolTree], results[harness.ProtocolBasic]
	rep.expect(tree.Complete, "tree incomplete under loss (%d/%d)", tree.DeliveredCount, tree.ExpectedCount)
	rep.expect(basicRes.Complete, "basic incomplete under loss (%d/%d)", basicRes.DeliveredCount, basicRes.ExpectedCount)
	treeCost := float64(tree.DataExpensiveTraversals) / float64(max(tree.DeliveredCount, 1))
	basicCost := float64(basicRes.DataExpensiveTraversals) / float64(max(basicRes.DeliveredCount, 1))
	rep.expect(treeCost < basicCost,
		"tree expensive traversals per delivery %.2f not below basic %.2f", treeCost, basicCost)
	return rep, nil
}

// Partition (E4) reproduces §5's partition argument: the basic source
// keeps pumping copies at hosts it cannot reach, while in the tree
// protocol each fragment organizes into a tree and only leaders probe.
func Partition(seed int64) (Report, error) {
	rep := newReport("E4", "traffic sent toward unreachable hosts during a 20s partition")
	cutAt, healAt := 5*time.Second, 25*time.Second
	events := harness.PartitionWindow(2, cutAt, healAt)
	t := metrics.NewTable("protocol", "unreachable sends", "of which data", "complete after heal")
	results := map[harness.Protocol]*harness.Result{}
	for _, proto := range []harness.Protocol{harness.ProtocolTree, harness.ProtocolBasic} {
		res, err := harness.Run(harness.Scenario{
			Name:        "e4-" + proto.String(),
			Seed:        seed,
			Build:       clusteredBuild(topo.ClusteredConfig{Clusters: 3, HostsPerCluster: 2, Shape: topo.WANChain}),
			Protocol:    proto,
			Messages:    40,
			MsgInterval: 250 * time.Millisecond,
			WarmUp:      4 * time.Second,
			Events:      events,
			Drain:       60 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		results[proto] = res
		t.AddRow(proto.String(), res.UnreachableSends,
			res.UnreachableSendsByKind[harness.KindData], res.Complete)
	}
	rep.addTable(t)
	rep.note("cluster 2 (2 hosts) isolated from t=5s to t=25s; messages flow throughout")

	tree, basicRes := results[harness.ProtocolTree], results[harness.ProtocolBasic]
	rep.expect(len(tree.EventErrors) == 0 && len(basicRes.EventErrors) == 0, "event errors")
	rep.expect(tree.Complete, "tree did not complete after heal")
	rep.expect(basicRes.Complete, "basic did not complete after heal")
	rep.expect(basicRes.UnreachableSendsByKind[harness.KindData] > 2*tree.UnreachableSendsByKind[harness.KindData],
		"basic wasted data sends (%d) not well above tree's (%d)",
		basicRes.UnreachableSendsByKind[harness.KindData], tree.UnreachableSendsByKind[harness.KindData])
	return rep, nil
}

// Congestion (E5) reproduces §5's congestion argument: under the basic
// algorithm every copy and every ack crosses the source's single access
// link; the tree spreads dissemination across all hosts.
func Congestion(seed int64) (Report, error) {
	rep := newReport("E5", "source access-link load (24 hosts, 6 clusters)")
	t := metrics.NewTable("protocol", "source-link total", "data+acks", "data+acks/msg", "complete")
	results := map[harness.Protocol]*harness.Result{}
	for _, proto := range []harness.Protocol{harness.ProtocolTree, harness.ProtocolBasic} {
		res, err := harness.Run(harness.Scenario{
			Name:             "e5-" + proto.String(),
			Seed:             seed,
			Build:            clusteredBuild(topo.ClusteredConfig{Clusters: 6, HostsPerCluster: 4, Shape: topo.WANStar}),
			Protocol:         proto,
			Messages:         40,
			MsgInterval:      200 * time.Millisecond,
			WarmUp:           4 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			return nil, err
		}
		results[proto] = res
		dissem := res.SourceLinkByKind[harness.KindData] + res.SourceLinkByKind[harness.KindGapFill] + res.SourceLinkByKind[harness.KindAck]
		t.AddRow(proto.String(), res.SourceHostLinkTransmissions, dissem,
			float64(dissem)/float64(res.Messages), res.Complete)
	}
	rep.addTable(t)
	rep.note("basic must push one copy per destination plus receive one ack each through this link;")
	rep.note("the tree column's total also includes its periodic (rate-independent) control exchange")

	tree, basicRes := results[harness.ProtocolTree], results[harness.ProtocolBasic]
	dissem := func(r *harness.Result) uint64 {
		return r.SourceLinkByKind[harness.KindData] + r.SourceLinkByKind[harness.KindGapFill] + r.SourceLinkByKind[harness.KindAck]
	}
	rep.expect(tree.Complete && basicRes.Complete, "incomplete runs")
	rep.expect(tree.SourceHostLinkTransmissions < basicRes.SourceHostLinkTransmissions,
		"tree source-link load %d not below basic %d",
		tree.SourceHostLinkTransmissions, basicRes.SourceHostLinkTransmissions)
	// The dissemination load itself (copies + acks) differs dramatically:
	// basic pays ≈ 2(n−1) per message, the tree pays its child count.
	rep.expect(dissem(tree)*2 < dissem(basicRes),
		"tree dissemination load %d not well below basic %d", dissem(tree), dissem(basicRes))
	return rep, nil
}

// ControlOverhead (E6) reproduces the §5/§6 claim that the tree
// protocol's control traffic is independent of the number of data
// messages (it is purely periodic), while the basic algorithm's control
// traffic (acks) grows linearly with data volume.
func ControlOverhead(seed int64) (Report, error) {
	rep := newReport("E6", "control traffic vs. data volume over a fixed 40s horizon")
	const horizon = 40 * time.Second
	const interval = 200 * time.Millisecond
	counts := []int{0, 25, 75, 150}
	t := metrics.NewTable("messages", "tree control sends", "basic ack sends")
	var treeControls []float64
	var basicAcks []float64
	for _, n := range counts {
		drain := horizon - time.Duration(n)*interval
		var treeControl, acks uint64
		for _, proto := range []harness.Protocol{harness.ProtocolTree, harness.ProtocolBasic} {
			res, err := harness.Run(harness.Scenario{
				Name:        fmt.Sprintf("e6-%s-%d", proto, n),
				Seed:        seed,
				Build:       clusteredBuild(topo.ClusteredConfig{Clusters: 3, HostsPerCluster: 3, Shape: topo.WANTree}),
				Protocol:    proto,
				Messages:    n,
				MsgInterval: interval,
				WarmUp:      2 * time.Second,
				Drain:       drain,
			})
			if err != nil {
				return nil, err
			}
			if proto == harness.ProtocolTree {
				treeControl = res.ControlSends()
			} else {
				acks = res.SendsByKind[harness.KindAck]
			}
		}
		treeControls = append(treeControls, float64(treeControl))
		basicAcks = append(basicAcks, float64(acks))
		t.AddRow(n, treeControl, acks)
	}
	rep.addTable(t)
	rep.note("equal virtual horizon for every row, so periodic traffic is directly comparable")

	// Tree control varies little across a 150-message spread.
	minC, maxC := treeControls[0], treeControls[0]
	for _, c := range treeControls {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	rep.expect(maxC <= 1.3*minC,
		"tree control traffic varies %.0f–%.0f across data volumes (>30%%)", minC, maxC)
	// Basic acks grow roughly linearly: ~ (hosts−1) per message.
	rep.expect(basicAcks[0] == 0, "basic sent acks with zero messages (%v)", basicAcks[0])
	rep.expect(basicAcks[3] > 4*basicAcks[1],
		"basic acks not growing with data volume: %v", basicAcks)

	// §6 also suggests shrinking the periodic exchanges themselves. The
	// delta INFO optimization (Params.DeltaInfo) sends only the runs
	// gained since the last exchange to each peer; measure its effect on
	// INFO-channel wire bytes at the heaviest data volume.
	dt := metrics.NewTable("arm", "INFO wire bytes", "control sends", "complete")
	var infoBytes [2]uint64
	for arm, deltaOn := range []bool{false, true} {
		p := core.DefaultParams()
		p.DeltaInfo = deltaOn
		res, err := harness.Run(harness.Scenario{
			Name:        fmt.Sprintf("e6-delta-%v", deltaOn),
			Seed:        seed,
			Build:       clusteredBuild(topo.ClusteredConfig{Clusters: 3, HostsPerCluster: 3, Shape: topo.WANTree}),
			Protocol:    harness.ProtocolTree,
			Params:      p,
			Messages:    150,
			MsgInterval: interval,
			WarmUp:      2 * time.Second,
			Drain:       horizon - 150*interval,
		})
		if err != nil {
			return nil, err
		}
		infoBytes[arm] = res.InfoWireBytes
		label := "full INFO"
		if deltaOn {
			label = "delta INFO"
		}
		dt.AddRow(label, res.InfoWireBytes, res.ControlSends(), res.Complete)
		rep.expect(res.Complete, "%s arm did not complete delivery", label)
	}
	rep.addTable(dt)
	rep.note("delta frames are sent only when strictly smaller than the full set, so the byte total can only shrink")
	rep.expect(infoBytes[1] < infoBytes[0],
		"delta INFO bytes %d not below full INFO bytes %d", infoBytes[1], infoBytes[0])
	return rep, nil
}

// Tradeoff (E7) reproduces §6's reliability/cost trade-off. Reliability
// is the ability to exploit communication opportunities: a partitioned
// cluster misses a backlog of messages, the partition heals, and the time
// until the cluster catches up is governed by the exchange periods — a
// reconnection window shorter than that recovery time would be missed
// entirely. Scaling every cross-cluster period shows recovery time rising
// and control cost falling together, exactly the paper's trade-off.
func Tradeoff(seed int64) (Report, error) {
	rep := newReport("E7", "recovery time after reconnection vs. control-traffic cost")
	cutAt := 2 * time.Second
	healAt := 10 * time.Second
	drain := 60 * time.Second
	t := metrics.NewTable("period scale", "recovered", "recovery time", "control sends", "control/s")
	type point struct {
		scale     float64
		recovered float64
		recovery  time.Duration
		control   uint64
	}
	var points []point
	for _, scale := range []float64{0.25, 1, 4, 8} {
		params := core.DefaultParams()
		mul := func(d time.Duration) time.Duration {
			return time.Duration(float64(d) * scale)
		}
		params.AttachPeriod = mul(params.AttachPeriod)
		params.InfoRemotePeriod = mul(params.InfoRemotePeriod)
		params.InfoGlobalPeriod = mul(params.InfoGlobalPeriod)
		params.GapRemotePeriod = mul(params.GapRemotePeriod)
		params.GapGlobalPeriod = mul(params.GapGlobalPeriod)
		if pt := mul(params.ParentTimeout); pt > params.ParentTimeout {
			params.ParentTimeout = pt
		}
		events := harness.PartitionWindow(1, cutAt, healAt)
		res, err := harness.Run(harness.Scenario{
			Name:        fmt.Sprintf("e7-scale-%.2f", scale),
			Seed:        seed,
			Build:       clusteredBuild(topo.ClusteredConfig{Clusters: 2, HostsPerCluster: 2, Shape: topo.WANStar}),
			Protocol:    harness.ProtocolTree,
			Params:      params,
			Messages:    10,
			MsgInterval: 200 * time.Millisecond,
			WarmUp:      3 * time.Second, // broadcasts happen inside the partition
			Events:      events,
			Drain:       drain,
		})
		if err != nil {
			return nil, err
		}
		// Cluster 1 holds hosts 3 and 4 (2 clusters × 2 hosts).
		cutHosts := []core.HostID{3, 4}
		var gotten, want int
		recoveredAt := time.Duration(0)
		for _, h := range cutHosts {
			want += res.Messages
			gotten += res.Messages - len(res.MissingAt(h))
			for _, at := range res.DeliveredAt[h] {
				if at > recoveredAt {
					recoveredAt = at
				}
			}
		}
		recovered := float64(gotten) / float64(max(want, 1))
		recovery := recoveredAt - healAt
		if recovered < 1 {
			recovery = drain // never fully recovered within the horizon
		}
		horizon := healAt + drain
		points = append(points, point{scale: scale, recovered: recovered, recovery: recovery, control: res.ControlSends()})
		t.AddRow(fmt.Sprintf("%.2f×", scale),
			fmt.Sprintf("%.0f%%", 100*recovered),
			recovery,
			res.ControlSends(),
			float64(res.ControlSends())/horizon.Seconds())
	}
	rep.addTable(t)
	rep.note("cluster 1 partitioned before the 10 broadcasts; partition heals at t=%v", healAt)
	rep.note("a reconnection window shorter than the recovery time would be missed entirely")

	first, last := points[0], points[len(points)-1]
	rep.expect(first.recovered > 0.99, "fastest setting failed to recover the backlog (%.2f)", first.recovered)
	rep.expect(last.recovered > 0.99, "slowest setting never recovered within %v", drain)
	rep.expect(first.recovery < last.recovery,
		"recovery time not increasing with slower exchange: %v (fast) vs %v (slow)",
		first.recovery, last.recovery)
	rep.expect(first.recovery*4 < last.recovery,
		"recovery times %v vs %v do not reflect the 32× period spread", first.recovery, last.recovery)
	rep.expect(first.control > last.control,
		"faster exchanges did not cost more control traffic (%d vs %d)", first.control, last.control)
	return rep, nil
}

// Scalability (E8) checks completion and cost across network sizes.
func Scalability(seed int64) (Report, error) {
	rep := newReport("E8", "completion across network sizes (tree protocol)")
	t := metrics.NewTable("clusters", "hosts", "complete", "completion", "inter-cluster data/msg", "events simulated")
	type size struct{ k, m int }
	for _, sz := range []size{{2, 2}, {4, 3}, {6, 4}, {8, 6}} {
		rt, err := harness.Prepare(harness.Scenario{
			Name:             fmt.Sprintf("e8-%dx%d", sz.k, sz.m),
			Seed:             seed,
			Build:            clusteredBuild(topo.ClusteredConfig{Clusters: sz.k, HostsPerCluster: sz.m, Shape: topo.WANTree}),
			Protocol:         harness.ProtocolTree,
			Messages:         30,
			MsgInterval:      150 * time.Millisecond,
			WarmUp:           4 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			return nil, err
		}
		res, err := rt.Finish()
		if err != nil {
			return nil, err
		}
		t.AddRow(sz.k, sz.k*sz.m, res.Complete, res.CompletionAt,
			res.InterClusterDataPerMessage(), rt.Engine.EventsRun())
		rep.expect(res.Complete, "%dx%d incomplete (%d/%d)", sz.k, sz.m, res.DeliveredCount, res.ExpectedCount)
	}
	rep.addTable(t)
	return rep, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
