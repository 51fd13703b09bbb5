// Tuning example: the §6 reliability/cost dial, explored via the public
// API.
//
// The paper ends on a trade-off: INFO exchange, parent-pointer exchange,
// and gap-filling frequencies can be "tuned according to specific
// cost-reliability requirements". This example sweeps a single scale
// factor over all cross-cluster exchange periods and reports, for a
// partition-then-heal scenario, how quickly the cut-off cluster recovers
// its backlog and what the control traffic costs — letting an operator
// pick a point on the curve.
package main

import (
	"fmt"
	"log"
	"time"

	"rbcast"
)

func main() {
	const healAt = 10 * time.Second
	fmt.Println("2 clusters × 3 hosts; cluster 1 partitioned during all 12 broadcasts,")
	fmt.Printf("healed at t=%v; sweeping exchange-period scale\n\n", healAt)
	fmt.Printf("%-8s %-14s %-16s %s\n", "scale", "recovery time", "control sends", "verdict")

	for _, scale := range []float64{0.25, 0.5, 1, 2, 4} {
		p := rbcast.DefaultParams()
		mul := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
		p.AttachPeriod = mul(p.AttachPeriod)
		p.InfoRemotePeriod = mul(p.InfoRemotePeriod)
		p.InfoGlobalPeriod = mul(p.InfoGlobalPeriod)
		p.GapRemotePeriod = mul(p.GapRemotePeriod)
		p.GapGlobalPeriod = mul(p.GapGlobalPeriod)
		if pt := mul(p.ParentTimeout); pt > p.ParentTimeout {
			p.ParentTimeout = pt
		}

		res, err := rbcast.Simulate(rbcast.SimulationConfig{
			Clusters:        2,
			HostsPerCluster: 3,
			Messages:        12,
			MsgInterval:     200 * time.Millisecond,
			Seed:            5,
			Params:          p,
			Partition: &rbcast.PartitionSpec{
				Cluster: 1,
				At:      2 * time.Second,
				HealAt:  healAt,
			},
			Drain:          60 * time.Second,
			RunFullHorizon: false,
		})
		if err != nil {
			log.Fatal(err)
		}

		// Recovery time: when the last cut-off host (cluster 1 = hosts
		// 4..6) obtained the last backlog message, relative to the heal.
		var last time.Duration
		for _, h := range []rbcast.HostID{4, 5, 6} {
			for _, at := range res.Deliveries(h).Times {
				if at > last {
					last = at
				}
			}
		}
		verdict := "missed a 1s reconnection window"
		recovery := last - healAt
		if !res.Complete {
			fmt.Printf("%-8s %-14s %-16d %s\n",
				fmt.Sprintf("%.2fx", scale), "never", res.ControlSends(), "did not recover in time")
			continue
		}
		if recovery <= time.Second {
			verdict = "would catch a 1s reconnection window"
		}
		fmt.Printf("%-8s %-14v %-16d %s\n",
			fmt.Sprintf("%.2fx", scale), recovery.Round(time.Millisecond), res.ControlSends(), verdict)
	}

	fmt.Println("\nfaster exchange ⇒ shorter exposure to partitions, at a proportionally")
	fmt.Println("higher steady control-message cost — the paper's §6 trade-off")
}
