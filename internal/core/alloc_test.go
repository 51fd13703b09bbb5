package core

import (
	"testing"

	"rbcast/internal/allocs"
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
// warm, flushing an activation allocates nothing per activation — here
// seven messages to four destinations, two of which (3 and 4) get a
// bundle: the bundles' Parts are carved from the host's chunk, which
// takes a new allocation once every few hundred parts.
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
	if got := testing.AllocsPerRun(100, activation); got != 0 {
		t.Errorf("flushing %d messages with 2 bundled destinations allocates %v times, want 0", len(dests), got)
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

// sharingNopEnv is nopEnv declaring SharedPayloads.
type sharingNopEnv struct{ nopEnv }

func (sharingNopEnv) SharedPayloads() {}

// TestSharedPayloadsAllocateNoPayloadBytes: on a warm host whose Env
// declares SharedPayloads, a thousand accepted 256-byte data messages are
// stored as they arrive, so they cost no payload bytes; a host on a plain
// Env copies each, at least 256 000 bytes more. The store's ring is sized
// beforehand, so neither host grows it in the measured stretch.
func TestSharedPayloadsAllocateNoPayloadBytes(t *testing.T) {
	const size, n = 256, 1000
	arena := make([]byte, 2*n*size)
	bytesFor := func(env Env) uint64 {
		var h *Host
		accept := func(seq seqset.Seq) {
			off := int(seq-1) % (2 * n) * size
			h.HandleMessage(0, 1, false, Message{Kind: MsgData, Seq: seq, Payload: arena[off : off+size]})
		}
		// The warm-up ends a copying host's chunk exactly — 127 payloads
		// fill the doubling chunks, 128 each 32 KiB one after — and grows
		// the store's ring to 4 096 slots, which hold warm+n.
		const warm = 127 + 17*128
		bytes := allocs.MinBytes(3, 1, func() func() {
			var err error
			if h, err = NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3}, Params: DefaultParams()}, env); err != nil {
				t.Fatal(err)
			}
			h.Start(0)
			h.parent = h.lookup(1)
			for seq := seqset.Seq(1); seq <= warm; seq++ {
				accept(seq)
			}
			return func() {
				for seq := seqset.Seq(warm + 1); seq <= warm+n; seq++ {
					accept(seq)
				}
			}
		})
		if h.store.Len() != warm+n {
			t.Fatalf("store holds %d payloads after %d data messages from the parent", h.store.Len(), warm+n)
		}
		return bytes
	}
	shared := bytesFor(sharingNopEnv{})
	copied := bytesFor(nopEnv{})
	if shared >= size {
		t.Errorf("%d accepted %d-byte messages on a sharing host allocate %d bytes, want less than one payload", n, size, shared)
	}
	if copied < shared+n*size {
		t.Errorf("%d accepted %d-byte messages allocate %d bytes on a copying host, %d on a sharing one: want at least %d more",
			n, size, copied, shared, n*size)
	}
}
