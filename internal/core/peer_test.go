package core

import (
	"slices"
	"testing"
	"time"

	"rbcast/internal/seqset"
)

// White-box coverage of the per-peer table: who gets a record, and in
// what order the table is walked.

// everyKindFrom builds one frame of every message kind as a hostile
// outsider would: claiming self as parent, voting, asking for data.
func everyKindFrom(self HostID) []Message {
	info := seqset.FromRange(1, 9)
	frames := []Message{
		{Kind: MsgData, Seq: 1, Payload: []byte("forged")},
		{Kind: MsgData, Seq: 1, Payload: []byte("forged"), GapFill: true},
		{Kind: MsgInfo, Info: info, Parent: self},
		{Kind: MsgInfoDelta, Info: info, Parent: self, Seq: 9, CheckLen: 9},
		{Kind: MsgAttachReq, Info: info},
		{Kind: MsgAttachAccept, Info: info},
		{Kind: MsgAttachReject},
		{Kind: MsgDetach},
		{Kind: MsgEcho, Seq: 1, CheckLen: PayloadDigest([]byte("forged"))},
		{Kind: MsgReady, Seq: 1, CheckLen: PayloadDigest([]byte("forged"))},
		{Kind: MsgSyncReq, Seq: 1, Info: info},
		{Kind: MsgSyncResp, Seq: 1, Parts: []Message{{Kind: MsgData, Seq: 1, Payload: []byte("forged"), GapFill: true}}},
		{Kind: MsgSnapReq},
		{Kind: MsgSnapChunk, Payload: []byte("forged"), CheckLen: 6, Info: info},
	}
	return append(frames, Message{Kind: MsgBundle, Parts: slices.Clone(frames)})
}

// TestForeignSenderTouchesNothing: a frame whose sender is not in Peers
// is rejected before any handler runs. Before the peer table, such a
// sender got MAP, health and parent-view entries forever, became a child
// by saying "Parent: you", and had its echo/ready votes counted.
func TestForeignSenderTouchesNothing(t *testing.T) {
	p := DefaultParams()
	p.EchoReady = true
	p.DeltaInfo = true
	p.BackoffBase = time.Second
	p.BackoffMax = 8 * time.Second
	p.BackoffMultiplier = 2
	p.SuspicionAfter = 2
	env := &recEnv{}
	var events []Event
	h, err := NewHost(Config{
		ID: 2, Source: 1, Peers: []HostID{1, 2, 3}, Params: p,
		Observer: func(e Event) { events = append(events, e) },
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)

	frames := everyKindFrom(h.ID())
	for i, m := range frames {
		h.HandleMessage(time.Second, HostID(1000+i), false, m)
	}

	if len(events) != len(frames) {
		t.Errorf("%d events for %d foreign frames", len(events), len(frames))
	}
	for _, e := range events {
		if e.Kind != EvRejected || e.Peer < 1000 {
			t.Errorf("event %v from %d, want only EvRejected naming the outsider", e.Kind, e.Peer)
		}
	}
	if c := h.Children(); len(c) != 0 {
		t.Errorf("Children() = %v after foreign 'Parent: self' frames, want none", c)
	}
	if c := h.Cluster(); !slices.Equal(c, []HostID{2}) {
		t.Errorf("Cluster() = %v, want only self", c)
	}
	if s := h.SuspectedPeers(); len(s) != 0 {
		t.Errorf("SuspectedPeers() = %v", s)
	}
	for i := range frames {
		j := HostID(1000 + i)
		if !h.MapOf(j).Empty() || h.ParentView(j) != Nil || h.PeerHealthOf(j) != (PeerHealth{Peer: j}) {
			t.Errorf("outsider %d left state: MAP %v, parent view %d, health %+v",
				j, h.MapOf(j), h.ParentView(j), h.PeerHealthOf(j))
		}
	}
	if !h.Info().Empty() || h.Parent() != Nil || h.attach.inProgress {
		t.Errorf("host state moved: INFO %v, parent %d, attaching %v", h.Info(), h.Parent(), h.attach.inProgress)
	}
	if h.echo.Len() != 0 {
		t.Errorf("%d echo/ready voting rounds opened by outsiders", h.echo.Len())
	}
	if len(env.sent) != 0 || env.delivered != 0 {
		t.Errorf("outsiders provoked %d sends and %d deliveries", len(env.sent), env.delivered)
	}
	for i, rec := range h.table {
		if rec != nil && rec != h.me {
			t.Errorf("table[%d] (peer %d) was created by foreign traffic", i, rec.id)
		}
	}

	// The drop allocates nothing, so a flood of forged frames costs the
	// host no memory at all.
	quiet, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3}, Params: p}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	quiet.Start(0)
	forged := Message{Kind: MsgInfo, Info: seqset.FromRange(1, 9), Parent: 2}
	from := HostID(1000)
	if got := testing.AllocsPerRun(200, func() {
		from++
		quiet.HandleMessage(time.Second, from, false, forged)
	}); got != 0 {
		t.Errorf("dropping a foreign frame allocates %v times, want 0", got)
	}
}

type recEnv struct {
	sent      []HostID
	delivered int
}

func (e *recEnv) Send(to HostID, _ Message)  { e.sent = append(e.sent, to) }
func (e *recEnv) Deliver(seqset.Seq, []byte) { e.delivered++ }

// TestTableOrder: with a sparse, unsorted Peers list and a static order
// that runs against the IDs, index still resolves every participant (by
// the contiguous guess or by binary search), rejects everything else,
// and every walk of the table comes out in ascending HostID.
func TestTableOrder(t *testing.T) {
	p := DefaultParams()
	p.BackoffBase = time.Second
	p.BackoffMax = 8 * time.Second
	p.BackoffMultiplier = 2
	p.SuspicionAfter = 2
	roster, err := NewRoster([]HostID{40, 9, 1000, 12, 7, 8}, []int{20, 40, 10, 30, 60, 50})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(Config{ID: 9, Source: 12, Roster: roster, Params: p}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)

	// 7, 8, 9 sit where the contiguous guess lands; 12, 40, 1000 need the
	// binary search; the rest are not participants.
	for i, j := range []HostID{7, 8, 9, 12, 40, 1000} {
		if got := h.index(j); got != i {
			t.Errorf("index(%d) = %d, want %d", j, got, i)
		}
		if rec := h.lookup(j); rec == nil || rec.id != j {
			t.Errorf("lookup(%d) = %+v", j, rec)
		}
	}
	if h.lookup(9) != h.me || h.orderOf(h.me) != 40 || h.orderOf(h.lookup(1000)) != 10 {
		t.Errorf("own record %+v / record of 1000 %+v carry the wrong identity or order", h.me, h.lookup(1000))
	}
	for _, j := range []HostID{Nil, -3, 6, 10, 11, 13, 41, 999, 1001} {
		if got := h.index(j); got != -1 {
			t.Errorf("index(%d) = %d for a non-participant, want -1", j, got)
		}
		if h.lookup(j) != nil {
			t.Errorf("lookup(%d) returned a record for a non-participant", j)
		}
	}

	// Touch the peers in an order unrelated to their IDs: each becomes a
	// cluster member (cheap cost bit), a child ("Parent: you"), and — after
	// two failed probes — a suspect.
	for _, j := range []HostID{1000, 7, 40, 12, 8} {
		h.HandleMessage(time.Second, j, false, Message{Kind: MsgInfo, Parent: 9})
	}
	for _, j := range []HostID{40, 1000, 7} {
		h.noteProbeFailure(2*time.Second, h.lookup(j))
		h.noteProbeFailure(3*time.Second, h.lookup(j))
	}
	if got, want := h.Children(), []HostID{7, 8, 12, 40, 1000}; !slices.Equal(got, want) {
		t.Errorf("Children() = %v, want %v", got, want)
	}
	if got, want := h.Cluster(), []HostID{7, 8, 9, 12, 40, 1000}; !slices.Equal(got, want) {
		t.Errorf("Cluster() = %v, want %v", got, want)
	}
	if got, want := h.SuspectedPeers(), []HostID{7, 40, 1000}; !slices.Equal(got, want) {
		t.Errorf("SuspectedPeers() = %v, want %v", got, want)
	}
}

// TestHandlersRetainNoInfoStorage: no handler keeps the storage of the
// Info it is handed. Twin hosts handle the same frame — every kind, on
// its own and as the one part of a bundle, with its Info over a buffer as
// a reused wire decoder would hold it; one twin's buffer is then
// scribbled over, as the decoder's next frame would. MAP, the confirmed
// and delta views, INFO and the next advertisement must still read the
// same on both.
func TestHandlersRetainNoInfoStorage(t *testing.T) {
	p := DefaultParams()
	p.DeltaInfo = true
	p.SyncBatch, p.SyncWindow = 16, 2
	p.SyncTimeout, p.SyncPeriod = time.Second, time.Second
	const sender = HostID(3)
	runs := []seqset.Interval{{Lo: 1, Hi: 2}, {Lo: 4, Hi: 9}}
	want, err := seqset.FromSortedRuns(slices.Clone(runs))
	if err != nil {
		t.Fatal(err)
	}

	handle := func(frame Message, bundled bool) (*Host, []seqset.Interval) {
		h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3}, Params: p}, nopEnv{})
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
		h.parent = h.lookup(1)
		for q := seqset.Seq(1); q <= 5; q++ {
			h.HandleMessage(0, 1, false, Message{Kind: MsgData, Seq: q, Payload: []byte("held")})
		}
		if frame.Kind == MsgAttachAccept {
			h.attach.inProgress, h.attach.candidate = true, h.lookup(sender)
		}
		buf := slices.Clone(runs)
		if frame.Info, err = seqset.FromSortedRuns(buf); err != nil {
			t.Fatal(err)
		}
		if bundled {
			frame = Message{Kind: MsgBundle, Parts: []Message{frame}}
		}
		h.HandleMessage(time.Second, sender, false, frame)
		return h, buf
	}

	for _, frame := range everyKindFrom(2) {
		if frame.Kind == MsgBundle {
			continue
		}
		for _, bundled := range []bool{false, true} {
			scribbled, buf := handle(frame, bundled)
			kept, _ := handle(frame, bundled)
			for i := range buf {
				buf[i] = seqset.Interval{Lo: 1000 + seqset.Seq(i), Hi: 1000 + seqset.Seq(i)}
			}
			name := frame.Kind.String()
			if bundled {
				name += " in a bundle"
			}
			a, b := scribbled.lookup(sender), kept.lookup(sender)
			for _, set := range []struct {
				what string
				a, b seqset.Set
			}{
				{"MapOf", scribbled.MapOf(sender), kept.MapOf(sender)},
				{"confirmed", a.confirmed, b.confirmed},
				{"infoView", scribbled.deltaOf(a).infoView, kept.deltaOf(b).infoView},
				{"lastSent", scribbled.deltaOf(a).lastSent, kept.deltaOf(b).lastSent},
				{"Info()", scribbled.Info(), kept.Info()},
			} {
				if !set.a.Equal(set.b) {
					t.Errorf("%s: %s reads %v once the frame's buffer is overwritten, %v otherwise", name, set.what, set.a, set.b)
				}
			}
			ma, mb := scribbled.infoMessageFor(a), kept.infoMessageFor(b)
			if ma.Kind != mb.Kind || ma.Seq != mb.Seq || ma.CheckLen != mb.CheckLen || ma.Parent != mb.Parent || !ma.Info.Equal(mb.Info) {
				t.Errorf("%s: the next advertisement is %+v once the frame's buffer is overwritten, %+v otherwise", name, ma, mb)
			}
			switch frame.Kind {
			case MsgInfo, MsgAttachReq, MsgAttachAccept:
				if got := a.confirmed; !got.Equal(want) { // the MAP entry also has what gap fill just sent
					t.Errorf("%s: confirmed view = %v, want the frame's %v", name, got, want)
				}
			case MsgInfoDelta:
				if got := scribbled.deltaOf(a).infoView; !got.Equal(want) {
					t.Errorf("%s: delta view = %v, want the frame's %v", name, got, want)
				}
			}
		}
	}
}

// TestDeltaInfoChainsArePerPeer: under Params.DeltaInfo each peer has a
// delta chain of its own. A peer advertised to before INFO grew gets the
// growth as a delta; a peer never advertised to gets the full set, and
// starts a chain of its own with it. Each of a wide host's peers gets a
// record of its own from the host's delta slabs, one per participant
// without one, and none is made until Delta-INFO asks.
func TestDeltaInfoChainsArePerPeer(t *testing.T) {
	p := DefaultParams()
	p.DeltaInfo = true
	h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4}, Params: p}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	for _, q := range []seqset.Seq{1, 3, 5} {
		h.changeInfo().Add(q)
	}
	early, late := h.lookup(3), h.lookup(4)
	if early.delta != nil || late.delta != nil {
		t.Fatal("a peer record has Delta-INFO state before anything asked for it")
	}
	if m := h.infoMessageFor(early); m.Kind != MsgInfo {
		t.Fatalf("first advertisement to %d is %v, want a full set", early.id, m.Kind)
	}
	h.changeInfo().Add(7)
	if m := h.infoMessageFor(early); m.Kind != MsgInfoDelta || !m.Info.Equal(seqset.FromRange(7, 7)) || m.CheckLen != 4 {
		t.Errorf("second advertisement to %d is %v carrying %v (length %d), want the delta {7} of a 4-member set",
			early.id, m.Kind, m.Info, m.CheckLen)
	}
	if m := h.infoMessageFor(late); m.Kind != MsgInfo || !m.Info.Equal(h.Info()) {
		t.Errorf("first advertisement to %d is %v carrying %v, want the full set %v", late.id, m.Kind, m.Info, h.Info())
	}
	if early.delta == late.delta {
		t.Error("two peers share one Delta-INFO record")
	}

	const n = 512
	peers := make([]HostID, n)
	for i := range peers {
		peers[i] = HostID(i + 1)
	}
	wide, err := NewHost(Config{ID: 2, Source: 1, Peers: peers, Params: p}, nopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	wide.Start(0)
	seen := make(map[*deltaInfo]bool, n)
	for i := range wide.table {
		d := wide.deltaOf(wide.at(i))
		if seen[d] {
			t.Fatalf("peer %d shares a Delta-INFO record", wide.peers[i])
		}
		seen[d] = true
	}
	if left := len(*wide.deltas); left != 0 {
		t.Errorf("%d Delta-INFO records of the last slab are left over at %d peers", left, n)
	}
}
