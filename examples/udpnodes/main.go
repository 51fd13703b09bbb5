// UDP nodes example: the protocol on real sockets.
//
// Six hosts run on loopback UDP datagrams — genuine loss/reordering
// semantics, binary wire frames, and the paper's §2 timestamp-based cost
// classification standing in for a network cost bit. The source streams
// updates; a randomly chosen node is stopped cold mid-stream ("host
// crash": its socket goes silent) and the rest keep completing the
// broadcast among themselves.
package main

import (
	"fmt"
	"log"
	"time"

	"rbcast"
)

func main() {
	group, err := rbcast.StartUDPGroup(6, rbcast.Params{})
	if err != nil {
		log.Fatal(err)
	}
	defer group.Stop()

	fmt.Println("6 UDP nodes on loopback:")
	for id, node := range group.Nodes {
		fmt.Printf("  host %d at %s\n", id, node.Addr())
	}

	var last rbcast.Seq
	for i := 0; i < 15; i++ {
		seq, err := group.Broadcast([]byte(fmt.Sprintf("update-%d", i+1)))
		if err != nil {
			log.Fatal(err)
		}
		last = seq
	}
	if !group.WaitAll(last, 10*time.Second) {
		log.Fatal("broadcast incomplete")
	}
	fmt.Printf("all %d updates at every node\n", last)

	// Crash a non-source node mid-stream; the rest must still finish.
	victim := group.Nodes[4]
	fmt.Printf("stopping host %d cold…\n", victim.ID())
	victim.Stop()
	delete(group.Nodes, victim.ID())

	for i := 0; i < 10; i++ {
		if last, err = group.Broadcast([]byte("post-crash")); err != nil {
			log.Fatal(err)
		}
	}
	if !group.WaitAll(last, 10*time.Second) {
		log.Fatal("survivors did not complete the broadcast")
	}
	fmt.Printf("surviving nodes all reached message %d\n", last)

	for id, node := range group.Nodes {
		sent, received, decodeErrs, _ := node.Stats()
		fmt.Printf("  host %d: %d datagrams sent, %d received, %d decode errors, %d dropped at a full inbox\n",
			id, sent, received, decodeErrs, node.InboxDrops())
	}
}
