package node

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/multi"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

// fastParams scales the protocol for in-process paths, like the live
// runtime's defaults.
func fastParams() core.Params {
	return core.Params{
		TickInterval:      2 * time.Millisecond,
		AttachPeriod:      20 * time.Millisecond,
		InfoClusterPeriod: 8 * time.Millisecond,
		InfoRemotePeriod:  30 * time.Millisecond,
		InfoGlobalPeriod:  60 * time.Millisecond,
		GapClusterPeriod:  12 * time.Millisecond,
		GapRemotePeriod:   40 * time.Millisecond,
		GapGlobalPeriod:   90 * time.Millisecond,
		AttachTimeout:     25 * time.Millisecond,
		ParentTimeout:     120 * time.Millisecond,
		GapFillBatch:      64,
	}
}

type discardEnv struct{}

func (discardEnv) Send(core.HostID, core.Message) {}
func (discardEnv) Deliver(seqset.Seq, []byte)     {}

var allKinds = []core.MsgKind{
	core.MsgData, core.MsgInfo, core.MsgAttachReq, core.MsgAttachAccept,
	core.MsgAttachReject, core.MsgDetach, core.MsgBundle, core.MsgInfoDelta,
	core.MsgEcho, core.MsgReady, core.MsgSyncReq, core.MsgSyncResp,
	core.MsgSnapReq, core.MsgSnapChunk,
}

// randomMessage fills every field the wire carries for the kind, with a
// non-empty multi-run Info and a non-empty Payload.
func randomMessage(rng *rand.Rand, kind core.MsgKind, peers []core.HostID) core.Message {
	var info seqset.Set
	lo := seqset.Seq(rng.Intn(40) + 1)
	for i, runs := 0, rng.Intn(5)+1; i < runs; i++ {
		hi := lo + seqset.Seq(rng.Intn(30))
		info.AddRange(lo, hi)
		lo = hi + 2 + seqset.Seq(rng.Intn(50))
	}
	payload := make([]byte, rng.Intn(40)+1)
	rng.Read(payload)
	m := core.Message{
		Kind:     kind,
		Seq:      seqset.Seq(rng.Intn(80) + 1),
		Payload:  payload,
		GapFill:  rng.Intn(2) == 0,
		Info:     info,
		Parent:   peers[rng.Intn(len(peers))],
		CheckLen: uint64(rng.Intn(200)),
	}
	if kind == core.MsgBundle || kind == core.MsgSyncResp {
		partKinds := []core.MsgKind{core.MsgData, core.MsgInfo, core.MsgAttachAccept, core.MsgInfoDelta, core.MsgDetach}
		for i, n := 0, rng.Intn(3)+1; i < n; i++ {
			m.Parts = append(m.Parts, randomMessage(rng, partKinds[rng.Intn(len(partKinds))], peers))
		}
	}
	return m
}

// TestReusedDecoderMatchesFreshDecode is the decoder-aliasing
// differential: two hosts see the same seeded soup of frames of every
// kind, one through DecodeEnvelope over one reused decoder — the
// driver's receive path — the other through a fresh wire.Decode per
// frame, whose storage nothing overwrites. After every frame their
// protocol state must agree. A host that retains Info aliasing the
// decoder (a Snapshot where core should Assign) sees a peer's MAP entry
// rewritten by the next frame from anyone, and diverges.
func TestReusedDecoderMatchesFreshDecode(t *testing.T) {
	const self, source = core.HostID(1), core.HostID(2)
	peers := []core.HostID{1, 2, 3, 4, 5}
	params := fastParams()
	params.DeltaInfo = true
	params.SyncBatch, params.SyncWindow = 16, 2
	params.SyncTimeout, params.SyncPeriod = 50*time.Millisecond, 25*time.Millisecond
	newHost := func() *core.Host {
		h, err := core.NewHost(core.Config{ID: self, Source: source, Peers: peers, Params: params}, discardEnv{})
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
		return h
	}
	reused, fresh := newHost(), newHost()

	rng := rand.New(rand.NewSource(7))
	var dec wire.Decoder
	var now time.Duration
	for i := 0; i < 5000; i++ {
		now += time.Duration(rng.Intn(3000)) * time.Microsecond
		if i%5 == 0 {
			reused.Tick(now)
			fresh.Tick(now)
		}
		frame := wire.Frame{
			From:    peers[1+rng.Intn(len(peers)-1)],
			Message: randomMessage(rng, allKinds[rng.Intn(len(allKinds))], peers),
		}
		env, err := EncodeEnvelope(source, frame)
		if err != nil {
			t.Fatalf("frame %d (%v): encode: %v", i, frame.Message.Kind, err)
		}
		data := slices.Clone(*env)
		env.Release()
		costBit := rng.Intn(4) == 0

		_, got, err := DecodeEnvelope(&dec, data)
		if err != nil {
			t.Fatalf("frame %d (%v): DecodeEnvelope: %v", i, frame.Message.Kind, err)
		}
		want, err := wire.Decode(data[streamLen:])
		if err != nil {
			t.Fatalf("frame %d (%v): Decode: %v", i, frame.Message.Kind, err)
		}
		reused.HandleMessage(now, got.From, costBit, got.Message)
		fresh.HandleMessage(now, want.From, costBit, want.Message)

		for _, p := range peers {
			if a, b := reused.MapOf(p), fresh.MapOf(p); !a.Equal(b) {
				t.Fatalf("after frame %d (%v from %d): MapOf(%d) = %v through the reused decoder, %v through fresh decodes",
					i, frame.Message.Kind, frame.From, p, a, b)
			}
		}
		if a, b := reused.Info(), fresh.Info(); !a.Equal(b) {
			t.Fatalf("after frame %d (%v): Info %v vs %v", i, frame.Message.Kind, a, b)
		}
		if a, b := reused.Parent(), fresh.Parent(); a != b {
			t.Fatalf("after frame %d (%v): Parent %d vs %d", i, frame.Message.Kind, a, b)
		}
		if a, b := reused.Children(), fresh.Children(); !slices.Equal(a, b) {
			t.Fatalf("after frame %d (%v): Children %v vs %v", i, frame.Message.Kind, a, b)
		}
	}
	if reused.Parent() == core.Nil && len(reused.Children()) == 0 {
		t.Error("soup never attached the host either way; the attach kinds went unexercised")
	}
}

// pipe is a two-host Transport: once connected it offers what one
// driver sends straight to the other, cheaply.
type pipe struct{ peer atomic.Pointer[Driver] }

func (p *pipe) Send(_ core.HostID, env *Envelope) error {
	if d := p.peer.Load(); d != nil {
		d.Offer(env, false)
	} else {
		env.Release()
	}
	return nil
}

// TestInboxOverflowDropsWithoutBlocking pins the inbox policy: with the
// node goroutine held inside an Inspect callback, envelopes beyond the
// inbox's capacity are dropped and counted, no offerer blocks, and the
// host still converges once released.
func TestInboxOverflowDropsWithoutBlocking(t *testing.T) {
	const extra = 37
	peers := []core.HostID{1, 2}
	var toSink, toSource pipe
	delivered := make(chan seqset.Seq, 64)
	start := func(id core.HostID, tr Transport, onDeliver func(core.HostID, seqset.Seq, []byte)) *Driver {
		d, err := Start(Config{
			Bus:       multi.Config{ID: id, Peers: peers, Sources: []core.HostID{1}, Params: fastParams()},
			OnDeliver: onDeliver,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		return d
	}
	src := start(1, &toSink, nil)
	sink := start(2, &toSource, func(_ core.HostID, seq seqset.Seq, _ []byte) { delivered <- seq })
	toSource.peer.Store(src)

	// The source is not connected to the sink yet: with the sink's
	// goroutine parked, only this test fills its inbox.
	held, parked := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(parked) })
	t.Cleanup(release) // before the drivers' Stop, which waits for the goroutine
	inspected := make(chan error, 1)
	go func() {
		inspected <- sink.Inspect(1, func(*core.Host) {
			close(held)
			<-parked
		})
	}()
	<-held
	room := inboxDepth - len(sink.inbox)

	offered := make(chan struct{})
	go func() {
		defer close(offered)
		for i := 0; i < room+extra; i++ {
			env, err := EncodeEnvelope(1, wire.Frame{From: 1, Message: core.Message{Kind: core.MsgInfo}})
			if err != nil {
				t.Error(err)
				return
			}
			sink.Offer(env, false)
		}
	}()
	select {
	case <-offered:
	case <-time.After(10 * time.Second):
		t.Fatal("Offer blocked on a full inbox")
	}
	if got := sink.Stats().InboxDrops; got != extra {
		t.Errorf("InboxDrops = %d after offering capacity+%d, want %d", got, extra, extra)
	}

	release()
	if err := <-inspected; err != nil {
		t.Fatal(err)
	}
	toSink.peer.Store(sink)
	const msgs = 5
	for i := 0; i < msgs; i++ {
		if _, err := src.Broadcast([]byte("after the flood")); err != nil {
			t.Fatal(err)
		}
	}
	got := seqset.Set{}
	deadline := time.After(15 * time.Second)
	for got.Len() < msgs {
		select {
		case seq := <-delivered:
			got.Add(seq)
		case <-deadline:
			t.Fatalf("sink delivered %v of 1..%d after the overflow", got, msgs)
		}
	}
	if s := sink.Stats(); s.InboxDrops != extra || s.DecodeErrors != 0 || s.Received < uint64(inboxDepth) {
		t.Errorf("sink stats after release: %+v", s)
	}
}
