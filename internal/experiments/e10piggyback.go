package experiments

import (
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/metrics"
	"rbcast/internal/netsim"
	"rbcast/internal/topo"
)

// Piggyback (E10) measures the §6 packet optimization: "some control
// messages that are dispatched by the same host at about the same time
// can be piggybacked in one packet". With bundling on, everything a host
// emits to one destination within a single activation travels as one
// packet — the attach-time gap fill being the extreme case (accept + a
// batch of missing messages in a single packet). Packets must drop while
// total bytes stay essentially the same and delivery stays complete.
func Piggyback(seed int64) (Report, error) {
	rep := newReport("E10", "§6 piggybacking — packets vs. logical messages")
	t := metrics.NewTable("variant", "packets", "logical msgs", "msgs/packet", "wire bytes", "complete")
	type outcome struct {
		packets uint64
		logical uint64
		bytes   uint64
		ok      bool
	}
	var results [2]outcome
	for i, on := range []bool{false, true} {
		params := core.DefaultParams()
		params.Piggyback = on
		// Piggybacking pays when many messages head for one destination at
		// once: lossy links force gap-fill batches, and a partition forces
		// a big attach-time catch-up (the §4.4 fill of a whole backlog
		// rides in one packet).
		res, err := harness.Run(harness.Scenario{
			Name: map[bool]string{false: "e10-off", true: "e10-on"}[on],
			Seed: seed,
			Build: clusteredBuild(topo.ClusteredConfig{
				Clusters:        4,
				HostsPerCluster: 3,
				Shape:           topo.WANTree,
				Cheap:           netsim.LinkConfig{Class: netsim.Cheap, LossProb: 0.05},
				Expensive:       netsim.LinkConfig{Class: netsim.Expensive, LossProb: 0.25},
			}),
			Protocol:         harness.ProtocolTree,
			Params:           params,
			Messages:         60,
			MsgInterval:      150 * time.Millisecond,
			WarmUp:           3 * time.Second,
			Events:           harness.PartitionWindow(3, 4*time.Second, 11*time.Second),
			Drain:            90 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			return nil, err
		}
		results[i] = outcome{
			packets: res.TotalSends(),
			logical: res.LogicalSends,
			bytes:   res.WireBytes,
			ok:      res.Complete,
		}
		name := "separate packets"
		if on {
			name = "piggybacked"
		}
		t.AddRow(name, res.TotalSends(), res.LogicalSends,
			float64(res.LogicalSends)/float64(max(int(res.TotalSends()), 1)),
			res.WireBytes, res.Complete)
	}
	rep.addTable(t)
	rep.note("4 clusters × 3 hosts, 60 messages, 25%% WAN / 5%% LAN loss, one 7s partition;")
	rep.note("msgs/packet is measured within each run, so it is robust to the different")
	rep.note("loss/recovery trajectories the two runs take")

	off, on := results[0], results[1]
	rep.expect(off.ok && on.ok, "incomplete runs")
	// Without bundling every logical message is its own packet.
	rep.expect(off.logical == off.packets,
		"baseline run bundled (%d logical vs %d packets)", off.logical, off.packets)
	// With bundling, a meaningful share of messages piggyback: ≥ 5% fewer
	// packets than logical messages (measured 1.08–1.12 across seeds).
	compression := float64(on.logical) / float64(max(int(on.packets), 1))
	rep.expect(compression > 1.05,
		"piggybacking compressed only %.2f logical msgs/packet", compression)
	return rep, nil
}
