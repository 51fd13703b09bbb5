package core_test

import (
	"testing"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

func piggyParams() core.Params {
	p := quietParams()
	p.Piggyback = true
	return p
}

func TestPiggybackBundlesAttachFill(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, piggyParams(), env)
	now := makeParent(t, h, env, 3)
	// Hold 1..5.
	for q := seqset.Seq(1); q <= 5; q++ {
		h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{byte(q)}})
	}
	env.reset()
	// Host 5 attaches holding {1}: the accept plus fills for 2..5 must
	// arrive as ONE bundled packet.
	h.HandleMessage(now, 5, false, core.Message{
		Kind: core.MsgAttachReq, Info: seqset.FromSlice([]seqset.Seq{1}),
	})
	if len(env.sent) != 1 {
		t.Fatalf("sent %d packets, want 1 bundle: %v", len(env.sent), env.sent)
	}
	b := env.sent[0]
	if b.to != 5 || b.m.Kind != core.MsgBundle {
		t.Fatalf("packet = %+v, want bundle to 5", b)
	}
	if len(b.m.Parts) != 5 { // accept + 4 fills
		t.Fatalf("bundle has %d parts, want 5", len(b.m.Parts))
	}
	if b.m.Parts[0].Kind != core.MsgAttachAccept {
		t.Errorf("first part = %v, want attach-accept", b.m.Parts[0].Kind)
	}
	for i, part := range b.m.Parts[1:] {
		if part.Kind != core.MsgData || !part.GapFill || part.Seq != seqset.Seq(i+2) {
			t.Errorf("part %d = %+v, want gap-fill data seq %d", i+1, part, i+2)
		}
	}
}

func TestPiggybackSingleMessageNotWrapped(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, piggyParams(), env)
	// A lone corrective detach (rejecting new-max data from a non-parent)
	// must go out unwrapped.
	h.HandleMessage(0, 3, false, core.Message{Kind: core.MsgData, Seq: 1, Payload: []byte("x")})
	if len(env.sent) != 1 {
		t.Fatalf("sent %d packets, want 1", len(env.sent))
	}
	if env.sent[0].m.Kind != core.MsgDetach {
		t.Errorf("packet = %v, want bare detach", env.sent[0].m.Kind)
	}
}

func TestBundleReceived(t *testing.T) {
	// A receiver processes every part of an inbound bundle.
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	now := makeParent(t, h, env, 3)
	env.reset()
	h.HandleMessage(now, 3, true, core.Message{
		Kind: core.MsgBundle,
		Parts: []core.Message{
			{Kind: core.MsgData, Seq: 1, Payload: []byte("a")},
			{Kind: core.MsgData, Seq: 2, Payload: []byte("b")},
			{Kind: core.MsgInfo, Info: seqset.FromRange(1, 10), Parent: core.Nil},
		},
	})
	if len(env.delivered) != 2 {
		t.Fatalf("delivered %v, want seqs 1 and 2", env.delivered)
	}
	if got := h.MapOf(3).Max(); got != 10 {
		t.Errorf("MAP[3] max = %d, want 10 (info part applied)", got)
	}
	// Nested bundles are ignored rather than recursed into.
	env.reset()
	h.HandleMessage(now, 3, true, core.Message{
		Kind: core.MsgBundle,
		Parts: []core.Message{
			{Kind: core.MsgBundle, Parts: []core.Message{{Kind: core.MsgData, Seq: 3}}},
		},
	})
	if len(env.delivered) != 0 {
		t.Error("nested bundle part was processed")
	}
}

func TestPiggybackEndToEndEquivalence(t *testing.T) {
	// The same stimulus must produce identical protocol state with and
	// without piggybacking — only the packaging differs.
	run := func(piggy bool) *core.Host {
		p := quietParams()
		p.Piggyback = piggy
		env := &fakeEnv{}
		h := newTestHost(t, 2, p, env)
		now := makeParent(t, h, env, 3)
		for q := seqset.Seq(1); q <= 8; q += 2 {
			h.HandleMessage(now, 3, true, core.Message{Kind: core.MsgData, Seq: q})
		}
		infoFrom(h, now, 4, false, 0, core.Nil)
		h.HandleMessage(now, 4, false, core.Message{Kind: core.MsgAttachReq})
		return h
	}
	a, b := run(false), run(true)
	if !a.Info().Equal(b.Info()) {
		t.Errorf("INFO differs: %v vs %v", a.Info(), b.Info())
	}
	if a.Parent() != b.Parent() {
		t.Errorf("parent differs: %d vs %d", a.Parent(), b.Parent())
	}
	ac, bc := a.Children(), b.Children()
	if len(ac) != len(bc) {
		t.Errorf("children differ: %v vs %v", ac, bc)
	}
}

// TestPiggybackInterleavedDestinations pins the flush contract on an
// activation whose sends interleave destinations: packets leave in the
// order their destinations first appeared, and each bundle keeps its
// messages in emission order. A source with children 3 and 5 in
// echo/ready mode emits data→3, data→5, then an echo and then a ready
// vote to each of 2, 3, 4, 5.
func TestPiggybackInterleavedDestinations(t *testing.T) {
	p := piggyParams()
	p.EchoReady = true
	env := &fakeEnv{}
	h := newTestHost(t, 1, p, env)
	for _, child := range []core.HostID{3, 5} {
		h.HandleMessage(0, child, false, core.Message{Kind: core.MsgAttachReq})
	}
	env.reset()
	h.Broadcast(0, []byte("x"))

	type packet struct {
		to    core.HostID
		kinds []core.MsgKind
	}
	want := []packet{
		{3, []core.MsgKind{core.MsgData, core.MsgEcho, core.MsgReady}},
		{5, []core.MsgKind{core.MsgData, core.MsgEcho, core.MsgReady}},
		{2, []core.MsgKind{core.MsgEcho, core.MsgReady}},
		{4, []core.MsgKind{core.MsgEcho, core.MsgReady}},
	}
	if len(env.sent) != len(want) {
		t.Fatalf("sent %d packets, want %d: %+v", len(env.sent), len(want), env.sent)
	}
	for i, w := range want {
		got := env.sent[i]
		if got.to != w.to || got.m.Kind != core.MsgBundle || len(got.m.Parts) != len(w.kinds) {
			t.Fatalf("packet %d = to %d, %v with %d parts; want a bundle of %d to %d",
				i, got.to, got.m.Kind, len(got.m.Parts), len(w.kinds), w.to)
		}
		for j, k := range w.kinds {
			if part := got.m.Parts[j]; part.Kind != k || part.Seq != 1 {
				t.Errorf("packet %d part %d = %v seq %d, want %v seq 1", i, j, part.Kind, part.Seq, k)
			}
		}
	}
}
