package core

import (
	"runtime"
	"testing"
	"time"

	"rbcast/internal/seqset"
)

// White-box coverage of the dense per-sequence state (Host.store,
// Host.echo): what a hostile sequence number may cost, and what pruning
// gives back.

// allocatedBytes is what f allocated, from the runtime's cumulative
// counter.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileSeq is the sequence number a Byzantine parent claims: a dense
// index that followed it would be an allocation of exabytes.
const hostileSeq = seqset.Seq(1) << 62

// TestHostileSeqCostsConstantMemory: a data frame from the parent with
// Seq = 1<<62 is, by §4.1, a new maximum from the parent — the host
// accepts it, delivers it and forwards it to its child, as it always
// did — and its cost is the payload copy and a few small records, with
// or without echo/ready voting. The stores are then still dense for the
// honest sequence numbers that follow.
func TestHostileSeqCostsConstantMemory(t *testing.T) {
	payload := make([]byte, 64)
	for _, tc := range []struct {
		name      string
		echoReady bool
		// limit is the frame's budget in bytes: the payload copy, the
		// spill entry, an INFO run and a MAP mark per neighbour, and under
		// EchoReady the per-sequence voting record with its vote maps.
		limit uint64
	}{
		{"plain", false, 768},
		{"EchoReady", true, 1536},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// prepare builds a host mid-stream: host 3 is its parent (set
			// directly: the handshake is not what is under test), host 4 a
			// child, and three frames already accepted.
			prepare := func() (*Host, *hostileEnv) {
				p := DefaultParams()
				p.EchoReady = tc.echoReady
				env := &hostileEnv{}
				h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4}, Params: p}, env)
				if err != nil {
					t.Fatal(err)
				}
				h.Start(0)
				h.parent = h.lookup(3)
				h.HandleMessage(0, 4, false, Message{Kind: MsgInfo, Parent: 2})
				for q := seqset.Seq(1); q <= 3; q++ {
					h.HandleMessage(0, 3, false, Message{Kind: MsgData, Seq: q, Payload: payload})
				}
				env.forwarded, env.delivered = nil, nil
				return h, env
			}
			// TotalAlloc is process-wide, so one background allocation can
			// land inside a measurement. The frame is measured on three
			// identically prepared hosts and the cheapest is budgeted: a real
			// regression raises all three.
			hosts, envs := [3]*Host{}, [3]*hostileEnv{}
			for i := range hosts {
				hosts[i], envs[i] = prepare()
			}
			storeCap, echoCap := hosts[0].store.Cap(), hosts[0].echo.Cap()
			hostile := Message{Kind: MsgData, Seq: hostileSeq, Payload: payload}
			var got [3]uint64
			for i, h := range hosts {
				got[i] = allocatedBytes(func() { h.HandleMessage(time.Second, 3, false, hostile) })
			}
			least := min(got[0], got[1], got[2])
			t.Logf("the hostile frame allocated %v bytes on three hosts", got)
			if least > tc.limit {
				t.Errorf("the hostile frame allocated at least %d bytes, budget %d", least, tc.limit)
			}
			h, env := hosts[0], envs[0]
			if h.store.Cap() != storeCap || h.echo.Cap() != echoCap {
				t.Errorf("dense capacity moved: store %d -> %d, echo %d -> %d",
					storeCap, h.store.Cap(), echoCap, h.echo.Cap())
			}
			if len(env.forwarded) != 1 || env.forwarded[0] != hostileSeq {
				t.Errorf("forwarded %v to the child, want the hostile frame once", env.forwarded)
			}
			if tc.echoReady {
				// Delivery waits for a quorum nobody will give; the payload
				// is pending and this host has cast its echo.
				if st, ok := h.echo.Get(hostileSeq); !ok || !st.havePayload || !st.echoed {
					t.Errorf("no pending voting round for the hostile frame: %+v", st)
				}
				if len(env.delivered) != 0 {
					t.Errorf("delivered %v without a ready quorum", env.delivered)
				}
			} else {
				if len(env.delivered) != 1 || env.delivered[0] != hostileSeq || !h.info.Contains(hostileSeq) {
					t.Errorf("delivered %v, INFO %v: the parent's new maximum must be accepted", env.delivered, h.info)
				}
				if _, ok := h.store.Get(hostileSeq); !ok {
					t.Error("the accepted payload is not in the store")
				}
			}
			// A gap fill below the (now absurd) maximum is still stored
			// densely.
			h.HandleMessage(time.Second, 3, false, Message{Kind: MsgData, Seq: 4, Payload: payload, GapFill: true})
			if h.store.Cap() != storeCap || h.echo.Cap() != echoCap {
				t.Errorf("an honest frame after the hostile one moved the dense capacity: store %d -> %d, echo %d -> %d",
					storeCap, h.store.Cap(), echoCap, h.echo.Cap())
			}
		})
	}
}

// TestPruneFloorIgnoresStaleConfirmedView drives the reorder pruneStable
// guards against: once the source has pruned 1..3, an older full INFO
// from a peer, overtaken in flight by the one that allowed the prune,
// shrinks that peer's confirmed view to 1..2. The floor must stay where
// it was, or a late copy of 3 — no longer in INFO — would be delivered a
// second time.
func TestPruneFloorIgnoresStaleConfirmedView(t *testing.T) {
	p := DefaultParams()
	p.PruneStable = true
	var events []Event
	env := &hostileEnv{}
	h, err := NewHost(Config{
		ID: 1, Source: 1, Peers: []HostID{1, 2, 3}, Params: p,
		Observer: func(e Event) { events = append(events, e) },
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	for i := 0; i < 5; i++ {
		h.Broadcast(0, []byte("x"))
	}
	for _, j := range []HostID{2, 3} {
		h.HandleMessage(0, j, false, Message{Kind: MsgInfo, Info: seqset.FromRange(1, 4)})
	}
	h.Tick(time.Second)
	if h.prunedTo != 3 {
		t.Fatalf("prunedTo = %d after both peers confirmed 1..4, want 3", h.prunedTo)
	}

	h.HandleMessage(time.Second, 2, false, Message{Kind: MsgInfo, Info: seqset.FromRange(1, 2)})
	h.Tick(2 * time.Second)
	if h.prunedTo != 3 {
		t.Errorf("prunedTo = %d after a stale confirmed view, want 3: the floor moved back", h.prunedTo)
	}

	env.delivered, events = nil, nil
	h.HandleMessage(2*time.Second, 2, false, Message{Kind: MsgData, Seq: 3, Payload: []byte("x"), GapFill: true})
	if len(env.delivered) != 0 {
		t.Errorf("pruned seq 3 delivered again: %v", env.delivered)
	}
	if len(events) != 1 || events[0].Kind != EvDuplicate || events[0].Seq != 3 {
		t.Errorf("a late copy of pruned seq 3 drew %v, want one EvDuplicate", events)
	}
}

// hostileEnv notes data sent to the child and deliveries.
type hostileEnv struct {
	forwarded []seqset.Seq
	delivered []seqset.Seq
}

func (e *hostileEnv) Send(to HostID, m Message) {
	if to == 4 && m.Kind == MsgData {
		e.forwarded = append(e.forwarded, m.Seq)
	}
}

func (e *hostileEnv) Deliver(seq seqset.Seq, _ []byte) { e.delivered = append(e.delivered, seq) }

// fleetEnv queues one host's sends on the fleet's shared FIFO.
type fleetEnv struct {
	id    HostID
	queue *[]fleetMsg
}

type fleetMsg struct {
	from, to HostID
	m        Message
}

func (e fleetEnv) Send(to HostID, m Message) {
	*e.queue = append(*e.queue, fleetMsg{e.id, to, m})
}
func (fleetEnv) Deliver(seqset.Seq, []byte) {}

// TestStoreFootprintPlateaus: three hosts, PruneStable on, 10⁵
// broadcasts over a lossless in-memory network. On every host the store
// must retain no more slots than its unpruned span asks for (doubling
// overshoots by less than 2×): released slots are reused, not left
// behind a sliding slice. A host whose pruning follows the stream — its
// span stays in the tens — therefore keeps a flat footprint however long
// the stream runs. (Not every host's does: a peer that has pruned no
// longer advertises an INFO set starting at 1, which holds the others'
// stable prefix at zero — see ROADMAP. Those hosts keep everything, and
// the bound is then the whole history.)
func TestStoreFootprintPlateaus(t *testing.T) {
	broadcasts := 100_000
	if testing.Short() {
		broadcasts = 10_000
	}
	p := DefaultParams()
	p.PruneStable = true
	var queue []fleetMsg
	peers := []HostID{1, 2, 3}
	hosts := make([]*Host, len(peers))
	for i, id := range peers {
		h, err := NewHost(Config{ID: id, Source: 1, Peers: peers, Params: p}, fleetEnv{id: id, queue: &queue})
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
		hosts[i] = h
	}
	now := time.Duration(0)
	step := func() {
		now += 5 * time.Millisecond
		for _, h := range hosts {
			h.Tick(now)
		}
		for len(queue) > 0 {
			msg := queue[0]
			queue = queue[1:]
			hosts[msg.to-1].HandleMessage(now, msg.from, false, msg.m)
		}
	}
	payload := make([]byte, 32)
	hosts[0].Broadcast(now, payload) // something to attach for
	for i := 0; i < 400; i++ {       // 2 s: the tree forms
		step()
	}
	if hosts[1].Parent() == Nil || hosts[2].Parent() == Nil {
		t.Fatalf("no tree after warm-up: parents %d, %d", hosts[1].Parent(), hosts[2].Parent())
	}
	maxSpan, maxCap := make([]int, len(hosts)), make([]int, len(hosts))
	for i := 1; i < broadcasts; i++ {
		hosts[0].Broadcast(now, payload)
		step()
		for k, h := range hosts {
			maxSpan[k] = max(maxSpan[k], int(h.info.Max()-h.prunedTo))
			maxCap[k] = max(maxCap[k], h.store.Cap())
		}
	}
	following := 0
	for k, h := range hosts {
		t.Logf("host %d: pruned to %d of %d, unpruned span ≤ %d, store capacity ≤ %d slots",
			h.id, h.prunedTo, broadcasts, maxSpan[k], maxCap[k])
		if h.info.Max() != seqset.Seq(broadcasts) {
			t.Errorf("host %d holds up to %d of %d", h.id, h.info.Max(), broadcasts)
		}
		if got := h.store.Len(); got > maxSpan[k] {
			t.Errorf("host %d stores %d payloads with at most %d unpruned", h.id, got, maxSpan[k])
		}
		if limit := max(2*maxSpan[k], 8); maxCap[k] > limit {
			t.Errorf("host %d: store capacity reached %d slots for an unpruned span of at most %d", h.id, maxCap[k], maxSpan[k])
		}
		if maxSpan[k] <= 200 {
			following++
		}
	}
	if following == 0 {
		t.Error("no host's pruning followed the stream, so no footprint was seen to plateau")
	}
}
