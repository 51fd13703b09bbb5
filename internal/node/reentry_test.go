package node

import (
	"sync/atomic"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/multi"
	"rbcast/internal/seqset"
)

// TestOnDeliverMayReadItsDriver: an OnDeliver that reads its own driver's
// Stats returns, at the source, which delivers inside Broadcast, and at a
// receiver, which delivers what Offer brought. The callback runs on the
// node goroutine; Broadcast and Inspect from it would wait on that
// goroutine forever (Config.OnDeliver), but a read must not. A failure
// leaves the drivers running: Stop would wait for the stuck goroutine.
func TestOnDeliverMayReadItsDriver(t *testing.T) {
	peers := []core.HostID{1, 2}
	var toSink, toSource pipe
	var drivers [3]atomic.Pointer[Driver]
	returned := make(chan core.HostID, len(peers))
	for _, id := range peers {
		tr := &toSink
		if id == 2 {
			tr = &toSource
		}
		d, err := Start(Config{
			Bus: multi.Config{ID: id, Peers: peers, Sources: []core.HostID{1}, Params: fastParams()},
			OnDeliver: func(core.HostID, seqset.Seq, []byte) {
				drivers[id].Load().Stats()
				returned <- id
			},
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		drivers[id].Store(d)
	}
	toSink.peer.Store(drivers[2].Load())
	toSource.peer.Store(drivers[1].Load())
	go drivers[1].Load().Broadcast([]byte("re-entrant"))
	deadline := time.After(15 * time.Second)
	for range peers {
		select {
		case <-returned:
		case <-deadline:
			t.Fatal("an OnDeliver reading its own driver did not return")
		}
	}
	drivers[1].Load().Stop()
	drivers[2].Load().Stop()
}
