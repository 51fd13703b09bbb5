package harness

import (
	"fmt"
	"maps"
	"runtime"
	"testing"
	"time"

	"rbcast/internal/adversary"
	"rbcast/internal/basic"
	"rbcast/internal/core"
	"rbcast/internal/netsim"
	"rbcast/internal/replica"
	"rbcast/internal/seqset"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
	"rbcast/internal/wire"
)

// refRecorder is the recorder the harness had before its windows: four
// plain maps, written on every Deliver and snapshot install, every
// payload hashed. It is fed from Runtime.tap, i.e. from the same calls,
// in the same order, at the same instants, and the exported Result maps
// must hold exactly what it holds.
type refRecorder struct {
	rt              *Runtime
	broadcastAt     map[seqset.Seq]time.Duration
	broadcastDigest map[seqset.Seq]uint64
	deliveredAt     map[core.HostID]map[seqset.Seq]time.Duration
	deliveredDigest map[core.HostID]map[seqset.Seq]uint64
}

func attachRef(rt *Runtime) *refRecorder {
	ref := &refRecorder{
		rt:              rt,
		broadcastAt:     make(map[seqset.Seq]time.Duration),
		broadcastDigest: make(map[seqset.Seq]uint64),
		deliveredAt:     make(map[core.HostID]map[seqset.Seq]time.Duration),
		deliveredDigest: make(map[core.HostID]map[seqset.Seq]uint64),
	}
	rt.tap = ref.observe
	return ref
}

func (ref *refRecorder) observe(lane int, id core.HostID, seq seqset.Seq, payload []byte, coverage bool) {
	now := ref.rt.Engine.NowOf(lane)
	at, dig := ref.deliveredAt[id], ref.deliveredDigest[id]
	if at == nil {
		at, dig = make(map[seqset.Seq]time.Duration), make(map[seqset.Seq]uint64)
		ref.deliveredAt[id], ref.deliveredDigest[id] = at, dig
	}
	if coverage {
		for q := seqset.Seq(1); q <= seq; q++ {
			if _, sent := ref.broadcastAt[q]; !sent {
				continue
			}
			if _, have := at[q]; !have {
				at[q], dig[q] = now, ref.broadcastDigest[q]
			}
		}
		return
	}
	if _, dup := at[seq]; dup {
		return
	}
	at[seq], dig[seq] = now, core.PayloadDigest(payload)
	if id == core.HostID(ref.rt.Topo.Source) && ref.rt.broadcasting {
		// The source's self-delivery is how the reference learns of a
		// broadcast: same instant, same bytes.
		ref.broadcastAt[seq], ref.broadcastDigest[seq] = now, core.PayloadDigest(payload)
	}
}

// compare demands the four exported maps equal the reference's.
func (ref *refRecorder) compare(t *testing.T, when string, res *Result) {
	t.Helper()
	if !maps.Equal(res.BroadcastAt, ref.broadcastAt) {
		t.Errorf("%s: BroadcastAt has %d entries, reference %d, or they differ", when, len(res.BroadcastAt), len(ref.broadcastAt))
	}
	if !maps.Equal(res.BroadcastDigest, ref.broadcastDigest) {
		t.Errorf("%s: BroadcastDigest differs from the reference", when)
	}
	if len(res.DeliveredAt) != len(ref.deliveredAt) || len(res.DeliveredDigest) != len(ref.deliveredDigest) {
		t.Errorf("%s: %d/%d hosts in DeliveredAt/DeliveredDigest, reference %d",
			when, len(res.DeliveredAt), len(res.DeliveredDigest), len(ref.deliveredAt))
	}
	for id, want := range ref.deliveredAt {
		if got := res.DeliveredAt[id]; !maps.Equal(got, want) {
			t.Errorf("%s: DeliveredAt[%d] has %d entries, reference %d, or they differ", when, id, len(got), len(want))
		}
		if got := res.DeliveredDigest[id]; !maps.Equal(got, ref.deliveredDigest[id]) {
			t.Errorf("%s: DeliveredDigest[%d] differs from the reference", when, id)
			for q, d := range ref.deliveredDigest[id] {
				if got[q] != d {
					t.Logf("  seq %d: %#x, reference %#x, broadcast %#x", q, got[q], d, res.BroadcastDigest[q])
				}
			}
		}
	}
}

func recordTopo(clusters, hostsPer int, cfg netsim.LinkConfig) func(sim.Loop) (*topo.Topology, error) {
	return func(eng sim.Loop) (*topo.Topology, error) {
		return topo.Clustered(eng, topo.ClusteredConfig{
			Clusters: clusters, HostsPerCluster: hostsPer, Shape: topo.WANTree,
			Cheap: cfg, Expensive: netsim.LinkConfig{Class: netsim.Expensive, LossProb: cfg.LossProb},
		})
	}
}

// fabricate is a test adversary: beside every first-delivery data frame
// it sends the same destination a frame nobody broadcast, numbered at the
// far end of the sequence space.
type fabricate struct{}

func (fabricate) Name() string { return "fabricate" }
func (fabricate) Apply(_ *adversary.Ctx, outs []adversary.Send) []adversary.Send {
	for _, out := range outs {
		if out.M.Kind == core.MsgData && !out.M.GapFill {
			outs = append(outs, adversary.Send{To: out.To, M: core.Message{
				Kind: core.MsgData, Seq: 1<<62 + out.M.Seq, Payload: []byte("nobody sent this"),
			}})
			break
		}
	}
	return outs
}

// TestResultMapsMatchReferenceRecorder runs scenarios that reach every
// branch of the recorder — loss and gap fill, a late joiner healed by
// snapshot coverage, an equivocating source whose victims deliver bytes
// that are not the broadcast's, fabricated sequence numbers far past the
// dense range, manual broadcasts — and compares the exported maps with
// the reference mid-run and again after Finish.
func TestResultMapsMatchReferenceRecorder(t *testing.T) {
	varied := func(i int) []byte { return []byte(fmt.Sprintf("payload %04d", i)) }
	replicaUpdates := func(i int) []byte {
		enc, err := replica.EncodeUpdate(replica.Update{
			Key: fmt.Sprintf("k%02d", i%16), Value: fmt.Sprintf("v%04d", i), Stamp: uint64(i + 1),
		})
		if err != nil {
			panic(err)
		}
		return enc
	}
	catchup := core.DefaultParams().WithCatchupSync()
	catchup.PruneStable = true
	equivocate, err := adversary.New("equivocate", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		s     Scenario
		midAt time.Duration
		// check looks at the finished result for the branch the scenario
		// is there to reach.
		check func(t *testing.T, res *Result)
	}{
		{
			name: "lossy",
			s: Scenario{
				Seed: 11, Build: recordTopo(3, 3, netsim.LinkConfig{LossProb: 0.08}),
				Messages: 60, MsgInterval: 50 * time.Millisecond, PayloadFor: varied,
				Events: []TimedEvent{{At: 4 * time.Second, Do: func(rt *Runtime) error {
					return rt.BroadcastNow([]byte("manual"))
				}}},
			},
			midAt: 4500 * time.Millisecond,
			check: func(t *testing.T, res *Result) {
				if !res.Complete || res.ManualMessages != 1 || res.SendsByKind[KindGapFill] == 0 {
					t.Errorf("complete %v, %d manual, %d gap fills: the scenario did not exercise loss recovery",
						res.Complete, res.ManualMessages, res.SendsByKind[KindGapFill])
				}
			},
		},
		{
			name: "late-joiner",
			s: Scenario{
				Seed: 7, Build: recordTopo(2, 3, netsim.LinkConfig{}), Params: catchup,
				Messages: 120, MsgInterval: 200 * time.Millisecond, Replicate: true, PayloadFor: replicaUpdates,
				Events: []TimedEvent{
					{At: time.Millisecond, Do: func(rt *Runtime) error { return rt.Net.SetHostLinkUp(6, false) }},
					{At: 32 * time.Second, Do: func(rt *Runtime) error { return rt.Net.SetHostLinkUp(6, true) }},
				},
			},
			midAt: 20 * time.Second,
			check: func(t *testing.T, res *Result) {
				if !res.Complete || res.SnapshotDeliveries == 0 {
					t.Errorf("complete %v, %d snapshot deliveries: the scenario did not exercise coverage",
						res.Complete, res.SnapshotDeliveries)
				}
			},
		},
		{
			name: "equivocating-source",
			s: Scenario{
				Seed: 43, Build: recordTopo(2, 3, netsim.LinkConfig{}),
				Messages: 15, MsgInterval: 200 * time.Millisecond, WarmUp: 2 * time.Second, Drain: 20 * time.Second,
				PayloadFor:  varied,
				Adversaries: map[core.HostID][]adversary.Behavior{1: {equivocate, fabricate{}}},
			},
			midAt: 3 * time.Second,
			check: func(t *testing.T, res *Result) {
				wrong := 0
				for id, per := range res.DeliveredDigest {
					for q, d := range per {
						if want, sent := res.BroadcastDigest[q]; sent && d != want && id != 1 {
							wrong++
						}
					}
				}
				if wrong == 0 || res.ForeignDeliveries == 0 {
					t.Errorf("%d wrong-payload and %d fabricated deliveries: the scenario did not exercise either",
						wrong, res.ForeignDeliveries)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := Prepare(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			ref := attachRef(rt)
			if err := rt.RunUntil(tc.midAt); err != nil {
				t.Fatal(err)
			}
			mid := rt.Result()
			if mid.DeliveredCount == 0 || mid.Complete {
				t.Fatalf("mid-run result at %v is not mid-run: %d/%d delivered", tc.midAt, mid.DeliveredCount, mid.ExpectedCount)
			}
			ref.compare(t, "mid-run", mid)
			res, err := rt.Finish()
			if err != nil {
				t.Fatal(err)
			}
			ref.compare(t, "finished", res)
			tc.check(t, res)
			if res.DuplicateDeliveries != 0 {
				t.Errorf("%d duplicate deliveries", res.DuplicateDeliveries)
			}
		})
	}
}

// TestRecordAllocatesOnlyTheDelaySample pins the recording path: with
// the lane's windows in place, recording a delivery is two indexed reads,
// a byte comparison and an indexed write. The one allocation left is the
// delay sample's append into metrics.Durations, amortized: over the
// measured stretch it averages out below one per delivery, which anything
// the recorder itself allocated per delivery would not.
func TestRecordAllocatesOnlyTheDelaySample(t *testing.T) {
	const messages = 4096
	payload := make([]byte, 256)
	rt, err := Prepare(Scenario{
		Seed: 1, Build: recordTopo(1, 2, netsim.LinkConfig{}),
		Messages: messages, MsgInterval: time.Millisecond, WarmUp: time.Millisecond,
		PayloadFor: func(int) []byte { return payload },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run the workload's broadcasts but cut host 2 off, so the test can
	// play its deliveries itself.
	if err := rt.Net.SetHostLinkUp(2, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(messages*time.Millisecond + time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.sent.Len() != messages {
		t.Fatalf("%d broadcasts registered, want %d", rt.sent.Len(), messages)
	}
	lane, slot := rt.laneOf(2), -1
	for i, id := range rt.acc[lane].hosts {
		if id == 2 {
			slot = i
		}
	}
	delivered := append([]byte(nil), payload...) // a receiver's copy, as core hands it over
	// Warm-up: the first delivery creates the lane's windows.
	seq := seqset.Seq(0)
	for seq < 2100 {
		seq++
		rt.record(lane, slot, seq, delivered)
	}
	allocs := testing.AllocsPerRun(1500, func() {
		seq++
		rt.record(lane, slot, seq, delivered)
	})
	if allocs != 0 {
		t.Errorf("record allocates %.2f times per delivery in steady state, want 0", allocs)
	}
	res := rt.Result()
	if got := len(res.DeliveredAt[2]); got != int(seq) || res.DuplicateDeliveries != 0 {
		t.Errorf("host 2 has %d deliveries recorded (%d duplicates), want %d", got, res.DuplicateDeliveries, seq)
	}
	if res.DeliveredDigest[2][seq] != core.PayloadDigest(payload) {
		t.Error("the byte-compare shortcut stored a digest that is not the payload's")
	}
}

// TestOnSendPricesEachFrameOnce sends one frame at a time from host 1
// the way a host does — by value, so the network stamps its kind on the
// envelope and the send hook reads the stamp — and checks the byte and
// logical-send counters against the pricing rule written out: a frame costs its encoded size; the INFO channel is that
// size for a top-level INFO frame and, for a bundle, what its INFO parts
// would cost as frames of their own; a bundle is as many logical sends as
// it has parts.
func TestOnSendPricesEachFrameOnce(t *testing.T) {
	rt, err := Prepare(Scenario{Seed: 1, Build: recordTopo(1, 2, netsim.LinkConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	size := func(m core.Message) uint64 {
		n, err := wire.EncodedSize(wire.Frame{From: 1, Message: m})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(n)
	}
	data := core.Message{Kind: core.MsgData, Seq: 3, Payload: []byte("payload")}
	info := core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 3), Parent: 2}
	var gained seqset.Set
	gained.Add(2)
	gained.Add(5)
	delta := core.Message{Kind: core.MsgInfoDelta, Info: gained, Parent: 2, Seq: 5, CheckLen: 4}
	bundle := core.Message{Kind: core.MsgBundle, Parts: []core.Message{data, info, delta}}
	syncReq := core.Message{Kind: core.MsgSyncReq, Seq: 1, Info: seqset.FromRange(1, 9)}

	var want struct {
		wire, info, catchup, logical uint64
		kinds                        KindCounts
	}
	for _, tc := range []struct {
		payload                      any
		kind                         SendKind
		wire, info, catchup, logical uint64
	}{
		{bundle, SendKind(core.MsgBundle), size(bundle), size(info) + size(delta), 0, 3},
		{info, SendKind(core.MsgInfo), size(info), size(info), 0, 1},
		{delta, SendKind(core.MsgInfoDelta), size(delta), size(delta), 0, 1},
		{data, KindData, size(data), 0, 0, 1},
		{syncReq, SendKind(core.MsgSyncReq), size(syncReq), 0, size(syncReq), 1},
		{core.Message{Kind: core.MsgBundle}, SendKind(core.MsgBundle), size(core.Message{Kind: core.MsgBundle}), 0, 0, 0},
		{basic.Message{Kind: basic.KindAck}, KindAck, 0, 0, 0, 1},
	} {
		switch m := tc.payload.(type) {
		case core.Message:
			err = netsim.SendValue(rt.Net, 1, 2, m)
		case basic.Message:
			err = netsim.SendValue(rt.Net, 1, 2, m)
		}
		if err != nil {
			t.Fatal(err)
		}
		want.wire += tc.wire
		want.info += tc.info
		want.catchup += tc.catchup
		want.logical += tc.logical
		want.kinds[tc.kind]++
		res := rt.Result()
		if res.WireBytes != want.wire || res.InfoWireBytes != want.info ||
			res.CatchupWireBytes != want.catchup || res.LogicalSends != want.logical || res.SendsByKind != want.kinds {
			t.Fatalf("after %+v: wire %d, info %d, catch-up %d, logical %d, kinds %v; want %d, %d, %d, %d, %v",
				tc.payload, res.WireBytes, res.InfoWireBytes, res.CatchupWireBytes, res.LogicalSends, res.SendsByKind,
				want.wire, want.info, want.catchup, want.logical, want.kinds)
		}
	}
}

// TestSendPathAllocationBudget is the send path's cost end to end, the
// count the repository benchmark reports as allocs_per_work: 32 hosts, 5
// broadcasts, every malloc between the start of Finish and its return,
// per event run. What allocates on this path repeats exactly from run to
// run: 1 153 mallocs, 0.047 per event, where 6 908 (0.283) were made when
// every send boxed its message, every hop took a cancel cell and every
// peer record was an object of its own, and 1 366 while a MAP entry shared
// the frame's INFO storage and copied it on its next change. The counters
// pinned beside it are that first run's, to the last digit: the send path
// carries the same frames over the same links, it only stopped making
// garbage.
func TestSendPathAllocationBudget(t *testing.T) {
	rt, err := Prepare(Scenario{
		Seed: 1, Build: recordTopo(8, 4, netsim.LinkConfig{}),
		Messages: 5, StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := rt.Finish()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.DuplicateDeliveries != 0 || res.SendErrors != 0 {
		t.Fatalf("run incomplete or unclean: %s", res.Summary())
	}
	events, mallocs := rt.Engine.EventsRun(), after.Mallocs-before.Mallocs
	if perEvent := float64(mallocs) / float64(events); perEvent > 0.055 {
		t.Errorf("%d mallocs over %d events: %.3f per event, budget 0.055", mallocs, events, perEvent)
	}
	sourceLink := KindCounts{KindData: 24, SendKind(core.MsgInfo): 349,
		SendKind(core.MsgAttachReq): 9, SendKind(core.MsgAttachAccept): 9, KindGapFill: 19}
	if events != 24435 || res.NetStats.HostSends != 4412 || res.WireBytes != 141136 ||
		res.DataLinkTraversals != 340 || res.SourceLinkByKind != sourceLink {
		t.Errorf("events %d, host sends %d, wire bytes %d, data link traversals %d, source link %v; want 24435, 4412, 141136, 340, %v",
			events, res.NetStats.HostSends, res.WireBytes, res.DataLinkTraversals, res.SourceLinkByKind, sourceLink)
	}
}
