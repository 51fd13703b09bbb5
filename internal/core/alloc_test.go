package core

import (
	"testing"

	"rbcast/internal/seqset"
)

// TestPruneStableSteadyStateAllocs: pruneStable runs on every Tick of a
// pruning host and, between advances of the stable prefix, only reads the
// first run of each peer's confirmed set. That read must not copy the
// set's interval list.
func TestPruneStableSteadyStateAllocs(t *testing.T) {
	p := DefaultParams()
	p.PruneStable = true
	peers := []HostID{1, 2, 3, 4, 5}
	h, err := NewHost(Config{ID: 1, Source: 1, Peers: peers, Params: p}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	for i := 0; i < 10; i++ {
		h.Broadcast(0, []byte("x"))
	}
	for _, j := range peers[1:] {
		h.HandleMessage(0, j, false, Message{Kind: MsgInfo, Info: seqset.FromRange(1, 10)})
	}
	h.pruneStable()
	if h.prunedTo != 9 {
		t.Fatalf("prunedTo = %d after everyone confirmed 1..10, want 9", h.prunedTo)
	}
	if got := testing.AllocsPerRun(100, h.pruneStable); got != 0 {
		t.Errorf("pruneStable with an unmoved prefix allocates %v times, want 0", got)
	}
}

// TestPiggybackFlushAllocs: once the outbox and the grouping scratch are
// warm, flushing an activation allocates exactly one Parts slice per
// destination that gets a bundle — here seven messages to four
// destinations, two of which (3 and 4) get more than one.
func TestPiggybackFlushAllocs(t *testing.T) {
	p := DefaultParams()
	p.Piggyback = true
	h, err := NewHost(Config{ID: 1, Source: 1, Peers: []HostID{1, 2, 3, 4, 5}, Params: p}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	dests := []HostID{3, 4, 3, 5, 4, 3, 2}
	activation := func() {
		h.begin()
		for _, to := range dests {
			h.emit(to, Message{Kind: MsgDetach})
		}
		h.end()
	}
	activation()
	if got := testing.AllocsPerRun(100, activation); got != 2 {
		t.Errorf("flushing %d messages with 2 bundled destinations allocates %v times, want 2", len(dests), got)
	}
}

// TestDataAcceptAllocs: a thousand data messages accepted from the parent
// — duplicate check, INFO, the payload copy, the store, Deliver — cost a
// payload chunk and a doubling of the store's ring, not a thousand copies.
func TestDataAcceptAllocs(t *testing.T) {
	h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3}, Params: DefaultParams()}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	h.parent = h.lookup(1)
	payload := make([]byte, 64)
	next := seqset.Seq(1)
	thousand := func() {
		for i := 0; i < 1000; i++ {
			h.HandleMessage(0, 1, false, Message{Kind: MsgData, Seq: next, Payload: payload})
			next++
		}
	}
	got := testing.AllocsPerRun(1, thousand) // after one warm-up thousand
	if h.store.Len() != 2000 {
		t.Fatalf("store holds %d payloads after 2000 data messages from the parent", h.store.Len())
	}
	if got > 8 {
		t.Errorf("1000 accepted 64-byte data messages allocate %v times, want at most 8", got)
	}
}
