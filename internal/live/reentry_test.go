package live_test

import (
	"sync/atomic"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/live"
	"rbcast/internal/seqset"
)

// TestOnDeliverMayReadItsFleet: an OnDeliver that reads the fleet it
// belongs to — Delivered, DuplicateDeliveries, NodeStats — returns, at
// the source, which delivers inside Broadcast, and at every receiver.
// The callback runs on the host's node goroutine, so a read that waited
// on a lock the delivery path holds (the recorder's) would deadlock it,
// and -race does not report that. A failure leaves the fleet running:
// Stop would wait for the deadlocked goroutine.
func TestOnDeliverMayReadItsFleet(t *testing.T) {
	hosts := []core.HostID{1, 2, 3}
	var fleet atomic.Pointer[live.Fleet]
	returned := make(chan core.HostID, len(hosts))
	f, err := live.StartFleet(live.FleetConfig{
		Hosts: hosts, Source: 1, Seed: 1,
		OnDeliver: func(host, _ core.HostID, _ seqset.Seq, _ []byte) {
			f := fleet.Load()
			f.Delivered(host)
			f.DuplicateDeliveries()
			f.NodeStats()
			returned <- host
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Store(f)
	go f.Broadcast([]byte("re-entrant"))
	deadline := time.After(waitBudget)
	for range hosts {
		select {
		case <-returned:
		case <-deadline:
			t.Fatal("an OnDeliver reading its own fleet did not return")
		}
	}
	f.Stop()
}
