package harness

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"testing"
	"time"
	"unsafe"

	"rbcast/internal/adversary"
	"rbcast/internal/allocs"
	"rbcast/internal/basic"
	"rbcast/internal/core"
	"rbcast/internal/metrics"
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
// in the same order, at the same instants, and what a Result reports —
// its broadcast maps, its delivery iterators and its per-host views —
// must be exactly what it holds.
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

// compare demands the Result report what the reference recorded: the
// broadcast maps equal, the delivery iterators yield the hosts that
// delivered and each host's sequence numbers in ascending order with the
// reference's times and digests, and every host's view answers point
// reads and Len as the reference's maps do.
func (ref *refRecorder) compare(t *testing.T, when string, res *Result) {
	t.Helper()
	if !maps.Equal(res.BroadcastAt, ref.broadcastAt) {
		t.Errorf("%s: BroadcastAt has %d entries, reference %d, or they differ", when, len(res.BroadcastAt), len(ref.broadcastAt))
	}
	if !maps.Equal(res.BroadcastDigest, ref.broadcastDigest) {
		t.Errorf("%s: BroadcastDigest differs from the reference", when)
	}
	var hosts []core.HostID
	for id, per := range ref.deliveredAt {
		if len(per) > 0 {
			hosts = append(hosts, id)
		}
	}
	slices.Sort(hosts)
	var atHosts, digestHosts []core.HostID
	for id, per := range res.DeliveredAt {
		atHosts = append(atHosts, id)
		got, want := collectAscending(t, when+": DeliveredAt", id, per), ref.deliveredAt[id]
		if !maps.Equal(got, want) {
			t.Errorf("%s: DeliveredAt of host %d has %d entries, reference %d, or they differ", when, id, len(got), len(want))
		}
	}
	for id, per := range res.DeliveredDigest {
		digestHosts = append(digestHosts, id)
		if got := collectAscending(t, when+": DeliveredDigest", id, per); !maps.Equal(got, ref.deliveredDigest[id]) {
			t.Errorf("%s: DeliveredDigest of host %d differs from the reference", when, id)
			for q, d := range ref.deliveredDigest[id] {
				if got[q] != d {
					t.Logf("  seq %d: %#x, reference %#x, broadcast %#x", q, got[q], d, res.BroadcastDigest[q])
				}
			}
		}
	}
	if !slices.Equal(atHosts, hosts) || !slices.Equal(digestHosts, hosts) {
		t.Errorf("%s: DeliveredAt yields hosts %v, DeliveredDigest %v; the reference has deliveries at %v",
			when, atHosts, digestHosts, hosts)
	}
	for _, id := range res.HostList {
		view, at, dig := res.Deliveries(id), ref.deliveredAt[id], ref.deliveredDigest[id]
		if view.Len() != len(at) {
			t.Errorf("%s: Deliveries(%d).Len() = %d, reference %d", when, id, view.Len(), len(at))
		}
		for q, want := range at {
			if got, ok := view.At(q); !ok || got != want {
				t.Errorf("%s: Deliveries(%d).At(%d) = %v, %v; reference %v", when, id, q, got, ok, want)
			}
			if got, ok := view.Digest(q); !ok || got != dig[q] {
				t.Errorf("%s: Deliveries(%d).Digest(%d) = %#x, %v; reference %#x", when, id, q, got, ok, dig[q])
			}
		}
		// One past the last message, and a key far past the dense range.
		for _, q := range []seqset.Seq{seqset.Seq(res.TotalMessages() + 1), 1 << 61} {
			if _, have := at[q]; !have {
				if got, ok := view.At(q); ok {
					t.Errorf("%s: Deliveries(%d).At(%d) = %v, which the reference never recorded", when, id, q, got)
				}
			}
		}
	}
}

// collectAscending gathers what one host's iterator yields, failing
// unless its sequence numbers ascend.
func collectAscending[V any](t *testing.T, what string, id core.HostID, per iter.Seq2[seqset.Seq, V]) map[seqset.Seq]V {
	t.Helper()
	got := make(map[seqset.Seq]V)
	last := seqset.Seq(0)
	for q, v := range per {
		if q <= last {
			t.Errorf("%s of host %d yields seq %d after %d", what, id, q, last)
		}
		last, got[q] = q, v
	}
	return got
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
// branch of the recorder — loss and gap fill, hosts on several lanes, a
// late joiner healed by snapshot coverage, an equivocating source whose
// victims deliver bytes that are not the broadcast's, fabricated sequence
// numbers far past the dense range, manual broadcasts — and compares what
// the Result reports with the reference mid-run and again after Finish.
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
			// Three clusters are three lanes: each host's view must read
			// its own lane's accumulator. One worker runs them in turn, so
			// the reference's maps see no concurrent writes.
			name: "lossy-lanes",
			s: Scenario{
				Seed: 11, Shards: 1, Build: recordTopo(3, 3, netsim.LinkConfig{LossProb: 0.08}),
				Messages: 60, MsgInterval: 50 * time.Millisecond, PayloadFor: varied,
			},
			midAt: 4500 * time.Millisecond,
			check: func(t *testing.T, res *Result) {
				if !res.Complete || res.SendsByKind[KindGapFill] == 0 {
					t.Errorf("complete %v, %d gap fills: the scenario did not exercise loss recovery",
						res.Complete, res.SendsByKind[KindGapFill])
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

// TestMissingAtWalksTheWindow: MissingAt lists the gaps of a host's
// window below the message count, from 1 — a key past the count, a
// fabricated one far past the dense range, stops nothing — and a host with
// no window, or outside HostList, misses everything.
func TestMissingAtWalksTheWindow(t *testing.T) {
	a := &laneAcc{hosts: []core.HostID{5, 7}}
	for _, q := range []seqset.Seq{2, 3, 5, 7, 1 << 40} {
		a.window(1, 8).Put(q, deliveredRec{})
	}
	b := &laneAcc{hosts: []core.HostID{9}}
	for q := seqset.Seq(1); q <= 7; q++ {
		b.window(0, 8).Put(q, deliveredRec{})
	}
	res := &Result{
		Messages: 5, ManualMessages: 1,
		HostList:   []core.HostID{5, 7, 9, 11},
		deliveries: []Deliveries{{a, 0}, {a, 1}, {b, 0}, {}},
	}
	for _, tc := range []struct {
		h    core.HostID
		want []seqset.Seq
	}{
		{5, []seqset.Seq{1, 2, 3, 4, 5, 6}},
		{7, []seqset.Seq{1, 4, 6}},
		{9, nil},
		{11, []seqset.Seq{1, 2, 3, 4, 5, 6}},
		{12, []seqset.Seq{1, 2, 3, 4, 5, 6}},
	} {
		if got := res.MissingAt(tc.h); !slices.Equal(got, tc.want) {
			t.Errorf("MissingAt(%d) = %v, want %v", tc.h, got, tc.want)
		}
	}
}

// TestDeliveryIteratorsStop: each delivery iterator ends when its
// consumer says stop — yield returning false, or a break out of a range
// over it — and calls nothing after that.
func TestDeliveryIteratorsStop(t *testing.T) {
	res, err := Run(Scenario{Seed: 1, Build: recordTopo(2, 3, netsim.LinkConfig{}), Messages: 5, StopWhenComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete: %d/%d", res.DeliveredCount, res.ExpectedCount)
	}
	calls := 0
	stop := func(core.HostID, seqset.Seq) bool { calls++; return false }
	for name, walk := range map[string]func(){
		"DeliveredAt": func() {
			res.DeliveredAt(func(h core.HostID, _ iter.Seq2[seqset.Seq, time.Duration]) bool { return stop(h, 0) })
		},
		"DeliveredDigest": func() {
			res.DeliveredDigest(func(h core.HostID, _ iter.Seq2[seqset.Seq, uint64]) bool { return stop(h, 0) })
		},
		"Times": func() {
			res.Deliveries(2).Times(func(q seqset.Seq, _ time.Duration) bool { return stop(2, q) })
		},
		"Digests": func() {
			res.Deliveries(2).Digests(func(q seqset.Seq, _ uint64) bool { return stop(2, q) })
		},
		"DeliveredAt's inner": func() {
			for _, per := range res.DeliveredAt {
				per(func(q seqset.Seq, _ time.Duration) bool { return stop(0, q) })
				break
			}
		},
		"DeliveredDigest's inner": func() {
			for _, per := range res.DeliveredDigest {
				per(func(q seqset.Seq, _ uint64) bool { return stop(0, q) })
				break
			}
		},
	} {
		calls = 0
		walk()
		if calls != 1 {
			t.Errorf("%s called its yield %d times after it first returned false, want once in all", name, calls)
		}
	}
	// The same through range-over-func, whose loop panics if an iterator
	// goes on after a break.
	n := 0
	for range res.DeliveredAt {
		n++
		break
	}
	for _, per := range res.DeliveredDigest {
		for range per {
			n++
			break
		}
		break
	}
	if n != 2 {
		t.Errorf("the ranges ran their bodies %d times, want 2", n)
	}
}

// TestFinishCopiesNoDeliveries: finishing a run costs as many allocations
// at 2 000 messages as at 100 on the same topology. A Result reads each
// host's deliveries where its lane recorded them, so merge makes nothing
// per delivery. The broadcast maps, which are O(messages), are brought up
// to date before the count starts, and allocs.Min pauses the collector and
// keeps the fewest of three counts, so that what the runtime allocates
// for a collection cycle is not counted.
func TestFinishCopiesNoDeliveries(t *testing.T) {
	finish := func(messages int) uint64 {
		var (
			rt  *Runtime
			res *Result
		)
		mallocs := allocs.Min(3, 1, func() func() {
			var err error
			if rt, err = Prepare(Scenario{
				Seed: 1, Build: recordTopo(3, 4, netsim.LinkConfig{}),
				Messages: messages, MsgInterval: time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
			if err := rt.RunUntil(rt.Horizon()); err != nil {
				t.Fatal(err)
			}
			rt.exportSent()
			return func() {
				var err error
				if res, err = rt.Finish(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !res.Complete || res.Deliveries(core.HostID(rt.Topo.Source)).Len() != messages {
			t.Fatalf("%d messages: run incomplete, %d/%d", messages, res.DeliveredCount, res.ExpectedCount)
		}
		return mallocs
	}
	if small, large := finish(100), finish(2000); small != large {
		t.Errorf("Finish allocated %d times after 100 messages and %d after 2 000; want the same count", small, large)
	}
}

// TestSimulatedPayloadIsStoredOnce runs a lossy 24-host stream on both
// engines and checks what core.SharedPayloads buys the simulator: every
// host's delivered slice of every sequence number — first deliveries down
// the tree and gap fills alike — is the source's stored copy, and every
// delivered digest is the broadcast's.
func TestSimulatedPayloadIsStoredOnce(t *testing.T) {
	const messages = 200
	type delivery struct {
		id   core.HostID
		seq  seqset.Seq
		data *byte
		n    int
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt, err := Prepare(Scenario{
				Seed: 3, Shards: shards, Build: recordTopo(6, 4, netsim.LinkConfig{LossProb: 0.05}),
				Messages: messages, MsgInterval: 5 * time.Millisecond, PayloadSize: 256,
				StopWhenComplete: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// One list per lane: lanes deliver concurrently on two workers.
			seen := make([][]delivery, len(rt.acc))
			rt.tap = func(lane int, id core.HostID, seq seqset.Seq, payload []byte, coverage bool) {
				if !coverage {
					seen[lane] = append(seen[lane], delivery{id, seq, unsafe.SliceData(payload), len(payload)})
				}
			}
			res, err := rt.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete || res.SendsByKind[KindGapFill] == 0 {
				t.Fatalf("complete %v, %d gap fills: the run did not exercise loss recovery", res.Complete, res.SendsByKind[KindGapFill])
			}
			total := 0
			for _, list := range seen {
				total += len(list)
				for _, d := range list {
					sent, ok := rt.sent.Get(d.seq)
					if !ok || unsafe.SliceData(sent.payload) != d.data || len(sent.payload) != d.n {
						t.Fatalf("host %d delivered seq %d as %p+%d, not as the source's copy %p+%d",
							d.id, d.seq, d.data, d.n, unsafe.SliceData(sent.payload), len(sent.payload))
					}
				}
			}
			if total != res.Hosts*messages {
				t.Errorf("%d deliveries seen, want %d", total, res.Hosts*messages)
			}
			for id, per := range res.DeliveredDigest {
				for q, d := range per {
					if d != res.BroadcastDigest[q] {
						t.Errorf("host %d seq %d: digest %#x, broadcast %#x", id, q, d, res.BroadcastDigest[q])
					}
				}
			}
		})
	}
}

// TestRecordAllocatesOnlyTheDelaySample pins the recording path: with
// the lane's windows in place, recording a delivery is two indexed reads,
// a byte comparison and an indexed write, and the delay sample's append
// into room the lane reserved at its first sample.
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
	delivered := append([]byte(nil), payload...) // a copy: record must compare bytes, not addresses
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
	if got := res.Deliveries(2).Len(); got != int(seq) || res.DuplicateDeliveries != 0 {
		t.Errorf("host 2 has %d deliveries recorded (%d duplicates), want %d", got, res.DuplicateDeliveries, seq)
	}
	if d, _ := res.Deliveries(2).Digest(seq); d != core.PayloadDigest(payload) {
		t.Error("the byte-compare shortcut stored a digest that is not the payload's")
	}
}

// TestDelaySamplesAreReservedOnce: a lane reserves room for a delay per
// host and scheduled message at its first sample, and merge sizes
// Result.Delays to the lanes' total, so 240 000 samples on the sequential
// engine cost two allocations, not append's 1.25× growth.
func TestDelaySamplesAreReservedOnce(t *testing.T) {
	const messages = 10_000
	payload := make([]byte, 16)
	var rt *Runtime
	// Each trial runs a fresh scenario in which the source broadcasts to
	// nobody, and the count is the 24 other hosts' deliveries, which the
	// test plays itself, and the merge after them.
	fixture := func() func() {
		var err error
		rt, err = Prepare(Scenario{
			Seed: 1, Build: recordTopo(5, 5, netsim.LinkConfig{}),
			Messages: messages, MsgInterval: time.Millisecond, WarmUp: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := core.HostID(rt.Topo.Source)
		for _, id := range rt.Topo.Hosts {
			if core.HostID(id) != src {
				if err := rt.Net.SetHostLinkUp(id, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rt.RunUntil(messages*time.Millisecond + time.Second); err != nil {
			t.Fatal(err)
		}
		if len(rt.acc) != 1 || rt.acc[0].delivered == nil {
			t.Fatalf("%d lanes; the source's self-deliveries must have made the lane's windows", len(rt.acc))
		}
		rt.exportSent() // the broadcast maps, which are not the recorder's
		return func() {
			for slot, id := range rt.acc[0].hosts {
				if id == src {
					continue
				}
				for q := seqset.Seq(1); q <= messages; q++ {
					rt.record(0, slot, q, payload)
				}
			}
			rt.merge()
		}
	}
	const trials = 5
	recorded := allocs.Min(trials, 0, fixture)
	if n := rt.result.Delays.Count(); n != 24*messages {
		t.Fatalf("%d delay samples, want %d", n, 24*messages)
	}
	// One reservation each: one allocation, or two under the race
	// detector, which does not fuse slices.Grow's append of a made slice.
	grow := allocs.Min(trials, 0, func() func() {
		return func() {
			var d metrics.Durations
			d.Grow(24 * messages)
		}
	})
	if recorded > 2*grow {
		t.Errorf("%d samples cost %d allocations to record and merge in the best of %d trials, want %d", 24*messages, recorded, trials, 2*grow)
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
// per event run, the fewest of three runs. What allocates on this path
// repeats exactly from run to run: 527 mallocs, 0.0216 per event (545
// under the race detector), where 6 908 (0.283) were made when every send
// boxed its message, every hop took a cancel cell and every peer record
// was an object of its own, 1 366 while a MAP entry shared the frame's
// INFO storage and copied it on its next change, 1 152 while every
// receiver copied each payload into chunks of its own, 1 059 while every
// cold Schedule took a cancel cell of its own and merge copied every
// delivery into per-host maps, and 689 while every in-flight record's
// payload box was an allocation of its own. The
// counters pinned beside it are that first run's, to the last digit: the
// send path carries the same frames over the same links, it only stopped
// making garbage.
func TestSendPathAllocationBudget(t *testing.T) {
	var (
		rt  *Runtime
		res *Result
	)
	mallocs := allocs.Min(3, 1, func() func() {
		var err error
		if rt, err = Prepare(Scenario{
			Seed: 1, Build: recordTopo(8, 4, netsim.LinkConfig{}),
			Messages: 5, StopWhenComplete: true,
		}); err != nil {
			t.Fatal(err)
		}
		return func() {
			var err error
			if res, err = rt.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if !res.Complete || res.DuplicateDeliveries != 0 || res.SendErrors != 0 {
		t.Fatalf("run incomplete or unclean: %s", res.Summary())
	}
	events := rt.Engine.EventsRun()
	if perEvent := float64(mallocs) / float64(events); perEvent > 0.023 {
		t.Errorf("%d mallocs over %d events: %.4f per event, budget 0.023", mallocs, events, perEvent)
	}
	sourceLink := KindCounts{KindData: 24, SendKind(core.MsgInfo): 349,
		SendKind(core.MsgAttachReq): 9, SendKind(core.MsgAttachAccept): 9, KindGapFill: 19}
	if events != 24435 || res.NetStats.HostSends != 4412 || res.WireBytes != 141136 ||
		res.DataLinkTraversals != 340 || res.SourceLinkByKind != sourceLink {
		t.Errorf("events %d, host sends %d, wire bytes %d, data link traversals %d, source link %v; want 24435, 4412, 141136, 340, %v",
			events, res.NetStats.HostSends, res.WireBytes, res.DataLinkTraversals, res.SourceLinkByKind, sourceLink)
	}
}
