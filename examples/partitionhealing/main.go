// Partition healing example: the §5 partition argument, measured.
//
// A three-cluster network loses its farthest cluster for twenty seconds
// of virtual time while the source keeps broadcasting. The example runs
// the same scenario under the paper's protocol and under the basic
// algorithm and prints what each wasted during the outage and how both
// recover after the repair — the tree shares redelivery among hosts,
// while the basic source pounds the partition with futile copies.
package main

import (
	"fmt"
	"log"
	"time"

	"rbcast"
)

func main() {
	fmt.Println("3 clusters × 2 hosts; cluster 2 unreachable from t=5s to t=25s; 40 messages")
	fmt.Println()
	for _, alg := range []struct {
		name string
		algo rbcast.Algorithm
	}{
		{"tree (paper protocol)", rbcast.AlgorithmTree},
		{"basic (per-host copies)", rbcast.AlgorithmBasic},
	} {
		res, err := rbcast.Simulate(rbcast.SimulationConfig{
			Clusters:        3,
			HostsPerCluster: 2,
			Shape:           rbcast.WANChain,
			Algorithm:       alg.algo,
			Messages:        40,
			MsgInterval:     250 * time.Millisecond,
			Seed:            11,
			Partition: &rbcast.PartitionSpec{
				Cluster: 2,
				At:      5 * time.Second,
				HealAt:  25 * time.Second,
			},
			Drain: 60 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", alg.name)
		fmt.Printf("  delivered:                 %d/%d (complete=%v)\n",
			res.DeliveredCount, res.ExpectedCount, res.Complete)
		fmt.Printf("  sends into the partition:  %d (of which %d were data copies)\n",
			res.UnreachableSends, res.UnreachableSendsByKind[rbcast.SendData])
		if res.Complete {
			fmt.Printf("  final catch-up finished:   t=%v (partition healed at t=25s)\n",
				res.CompletionAt)
		}
		// When did the cut-off hosts (5 and 6) get the first message that
		// was broadcast while they were unreachable?
		var probe rbcast.Seq
		for seq, at := range res.BroadcastAt {
			if at >= 5*time.Second && (probe == 0 || seq < probe) {
				probe = seq
			}
		}
		for _, h := range []rbcast.HostID{5, 6} {
			if at, ok := res.DeliveredAt[h][probe]; ok {
				fmt.Printf("  host %d received mid-outage message #%d at t=%v\n", h, probe, at)
			}
		}
		fmt.Println()
	}
	fmt.Println("both algorithms eventually deliver everything; the tree does it without")
	fmt.Println("hammering the partition, because fragments organize into their own trees")
	fmt.Println("and only roots probe for the repair (paper §5)")
}
