package adversary

import (
	"reflect"
	"slices"
	"testing"

	"rbcast/internal/core"
	"rbcast/internal/detrand"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
)

func newHostState(b Behavior) *hostState {
	return &hostState{
		ctx: &Ctx{
			Self:       2,
			RNG:        detrand.New(hostSeed(1, 2)),
			Stats:      &Stats{},
			fakeDigest: make(map[seqDest]uint64),
		},
		behaviors: []Behavior{b},
	}
}

// freshHook is the hook as it was before it kept its lists: a new
// candidate list and a new result per transmission. It is the reference
// the reusing hook must agree with.
func freshHook(st *hostState, to netsim.HostID, m core.Message) []netsim.Outbound {
	st.ctx.applications++
	outs := []Send{{To: core.HostID(to), M: m}}
	for _, b := range st.behaviors {
		outs = b.Apply(st.ctx, outs)
	}
	wire := make([]netsim.Outbound, 0, len(outs))
	for _, o := range outs {
		wire = append(wire, netsim.Outbound{To: netsim.HostID(o.To), Payload: o.M, ForceCostBit: o.ForceCostBit})
	}
	return wire
}

// TestHookReusesItsListsSafely drives every behaviour through the hook
// that keeps its two lists, and through the reference that makes new
// ones, over the same transmissions, each handed to the kept hook by
// pointer as netsim.SendValue hands it: each call's result must point, in
// order, at the kept candidate list, and read as the reference's result —
// nothing of an earlier call shows in a later one, whether the behaviour
// shortened the list (Silence), lengthened it on some calls only (Replay,
// HostileWire) or rewrote it in place — and past the result the kept list
// must hold no message.
func TestHookReusesItsListsSafely(t *testing.T) {
	traffic := []struct {
		to netsim.HostID
		m  core.Message
	}{
		{3, core.Message{Kind: core.MsgData, Seq: 1, Payload: []byte("one")}},
		{4, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 4), Parent: 1}},
		{3, core.Message{Kind: core.MsgEcho, Seq: 1, CheckLen: core.PayloadDigest([]byte("one"))}},
		{5, core.Message{Kind: core.MsgBundle, Parts: []core.Message{
			{Kind: core.MsgData, Seq: 2, Payload: []byte("two")},
			{Kind: core.MsgInfoDelta, Info: seqset.FromRange(5, 6), Seq: 6, CheckLen: 6},
		}}},
		{4, core.Message{Kind: core.MsgAttachReq, Info: seqset.FromRange(1, 6)}},
		{3, core.Message{Kind: core.MsgData, Seq: 3, Payload: []byte("three"), GapFill: true}},
		{5, core.Message{Kind: core.MsgDetach}},
		{4, core.Message{Kind: core.MsgData, Seq: 4, Payload: []byte("four")}},
	}
	behaviors := []Behavior{
		Equivocate{}, Equivocate{Victims: []core.HostID{3}}, ForgeCostBit{}, LieInfo{Claim: 7},
		Replay{Every: 2}, Silence{Peers: []core.HostID{4}}, Silence{}, HostileWire{Every: 3},
	}
	if len(behaviors) < len(Names()) {
		t.Fatalf("%d behaviours under test, the catalogue has %d", len(behaviors), len(Names()))
	}
	for _, b := range behaviors {
		kept, fresh := newHostState(b), newHostState(b)
		for i, tx := range traffic {
			sent := tx.m
			got, want := kept.hook(tx.to, &sent), freshHook(fresh, tx.to, tx.m)
			read := make([]netsim.Outbound, len(got))
			for k, o := range got {
				m, ok := o.Payload.(*core.Message)
				if !ok || m != &kept.outs[k].M {
					t.Fatalf("%s, transmission %d: result %d carries %T %p, want a pointer to kept candidate %d", b.Name(), i, k, o.Payload, o.Payload, k)
				}
				read[k] = o
				read[k].Payload = *m
			}
			if !slices.EqualFunc(read, want, func(a, b netsim.Outbound) bool { return reflect.DeepEqual(a, b) }) {
				t.Errorf("%s, transmission %d: the reusing hook returned\n%+v\nthe reference\n%+v", b.Name(), i, read, want)
			}
			for k, o := range kept.outs[len(got):cap(kept.outs)] {
				if !reflect.DeepEqual(o, Send{}) {
					t.Errorf("%s, transmission %d: kept candidate %d still holds %+v", b.Name(), i, len(got)+k, o)
				}
			}
		}
		if *kept.ctx.Stats != *fresh.ctx.Stats {
			t.Errorf("%s: counters %+v with reuse, %+v without", b.Name(), *kept.ctx.Stats, *fresh.ctx.Stats)
		}
	}

	// A payload that is not a protocol message passes through untouched.
	st := newHostState(ForgeCostBit{})
	if got := st.hook(3, "foreign"); len(got) != 1 || got[0].To != 3 || got[0].Payload != "foreign" {
		t.Errorf("foreign payload came out as %+v", got)
	}
}

// TestHookSteadyStateAllocs: with its lists warm the hook allocates
// nothing for a message handed to it by pointer, as netsim.SendValue
// hands it.
func TestHookSteadyStateAllocs(t *testing.T) {
	st := newHostState(ForgeCostBit{})
	m := core.Message{Kind: core.MsgData, Seq: 1, Payload: []byte("one")}
	st.hook(3, &m)
	if got := testing.AllocsPerRun(100, func() { st.hook(3, &m) }); got != 0 {
		t.Errorf("a warm hook allocates %v times per transmission, want 0", got)
	}
}
