package netsim

import (
	"testing"
	"time"

	"rbcast/internal/allocs"
	"rbcast/internal/sim"
)

// flightCounts reports how many flights sit on the lanes' free lists and
// how many were ever allocated.
func flightCounts(n *Network) (idle, made int) {
	for _, ls := range n.perLane {
		made += ls.made
		for f := ls.free; f != nil; f = f.next {
			idle++
		}
	}
	return idle, made
}

// assertFlightsRecycled checks that an idle network holds every flight
// it ever allocated on a free list: no terminal point leaked one.
func assertFlightsRecycled(t *testing.T, n *Network) {
	t.Helper()
	idle, made := flightCounts(n)
	if made == 0 {
		t.Fatal("no flight was ever allocated; the check is vacuous")
	}
	if idle != made {
		t.Errorf("free lists hold %d flights, %d were allocated", idle, made)
	}
}

// wide is a by-value payload the size of a protocol message: 120 bytes,
// as core.Message is.
type wide struct {
	tag int
	pad [14]uint64
}

// narrow is a second payload type, for records that carry both.
type narrow struct{ s string }

// lineOn builds h1 - s1 - s2 - s3 - h2 on eng. Both server links follow
// mid, except that the first is cheap and the second expensive: on the
// sharded engine — whose shard plan is applied here — that puts the
// hosts on different lanes. Host 1's access link follows access.
func lineOn(t *testing.T, eng sim.Loop, access, mid LinkConfig) *Network {
	t.Helper()
	n := New(eng)
	s1, s2, s3 := n.AddServer(), n.AddServer(), n.AddServer()
	near, far := mid, mid
	near.Class, far.Class = Cheap, Expensive
	if _, err := n.AddLink(s1, s2, near); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(s2, s3, far); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, s1, access); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, s3, LinkConfig{Jitter: 0}); err != nil {
		t.Fatal(err)
	}
	applyShardPlan(t, eng, n, 2)
	return n
}

// applyShardPlan partitions n when eng is the sharded engine; the
// sequential one has nothing to plan.
func applyShardPlan(t *testing.T, eng sim.Loop, n *Network, wantLanes int) {
	t.Helper()
	s, ok := eng.(*sim.Sharded)
	if !ok {
		return
	}
	plan := n.ComputeShardPlan()
	if plan.Lanes != wantLanes {
		t.Fatalf("plan has %d lanes, want %d", plan.Lanes, wantLanes)
	}
	s.SetLanes(plan.Weights, plan.Lookahead)
	if err := n.ApplyShardPlan(plan); err != nil {
		t.Fatal(err)
	}
}

// The transmit path's alloc budget, pinned: once free lists, route
// tables and the event queue are warm, a send and every hop it causes —
// access link, two server links, access link, handler — allocate
// nothing. That holds for a message-sized struct sent by value, which is
// what every simulated host sends, for one sent by value through a
// transmit hook that passes it on, and for a payload boxed once outside
// the loop.
func TestSendZeroAllocsSequential(t *testing.T) {
	assertSendZeroAllocs(t, func() sim.Loop { return sim.NewEngine(1) })
}

// The same pin on the sharded engine, with the far hop crossing lanes
// through the mailbox: the flight — and the by-value payload inside it —
// is handed from one lane's free list to the other's and back without
// allocating.
func TestSendZeroAllocsSharded(t *testing.T) {
	assertSendZeroAllocs(t, func() sim.Loop { return sim.NewSharded(1, 1) })
}

// assertSendZeroAllocs pins one send each way between hosts 1 and 2 —
// so that every lane's free list is exercised — plus RunUntilIdle, for
// both kinds of send.
func assertSendZeroAllocs(t *testing.T, newEngine func() sim.Loop) {
	t.Helper()
	var boxed any = "boxed once"
	msg := wide{tag: 7}
	byValue := func(n *Network, from, to HostID) error { return SendValue(n, from, to, msg) }
	for _, tc := range []struct {
		name        string
		send        func(n *Network, from, to HostID) error
		passThrough bool
	}{
		{"by value", byValue, false},
		{"by value through a hook", byValue, true},
		{"boxed once", func(n *Network, from, to HostID) error { return n.Send(from, to, boxed) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := newEngine()
			n := lineOn(t, eng, LinkConfig{Jitter: 0}, LinkConfig{Jitter: 0})
			delivered := 0
			for _, h := range []HostID{1, 2} {
				if err := n.Handle(h, func(time.Duration, Envelope) { delivered++ }); err != nil {
					t.Fatal(err)
				}
				if tc.passThrough {
					var out []Outbound
					if err := n.SetTransmitHook(h, func(to HostID, payload any) []Outbound {
						out = append(out[:0], Outbound{To: to, Payload: payload})
						return out
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			var err error
			cycle := func() {
				if e := tc.send(n, 1, 2); e != nil {
					err = e
				}
				if e := tc.send(n, 2, 1); e != nil {
					err = e
				}
				if e := eng.RunUntilIdle(); e != nil {
					err = e
				}
			}
			cycle() // warm free lists, payload storage, route tables, queue and mailboxes
			allocs := testing.AllocsPerRun(100, cycle)
			if err != nil {
				t.Fatal(err)
			}
			// One warm-up cycle here, one inside AllocsPerRun, then the 100.
			if want := 2 * 102; delivered != want {
				t.Fatalf("delivered %d messages, want %d", delivered, want)
			}
			if allocs != 0 {
				t.Errorf("send + RunUntilIdle: %.1f allocs/op, want 0", allocs)
			}
			assertFlightsRecycled(t, n)
		})
	}
}

// TestFirstJourneysCarveBoxes: copies sent by value and in flight at once,
// each on its record's first journey, cost their records in chunks of
// flightChunk, their payload boxes in chunks of boxChunk, and one method
// value per record — its step, bound when it is carved — and nothing else:
// at most ⌈N/flightChunk⌉ + ⌈N/boxChunk⌉ + N allocations for N copies.
// Each copy still arrives with its own value.
func TestFirstJourneysCarveBoxes(t *testing.T) {
	assertFirstJourneysCarveBoxes(t, func() sim.Loop { return sim.NewEngine(1) })
}

// The same on the sharded engine, where the two hosts are on different
// lanes and each lane carves boxes from chunks of its own (run it under
// -race).
func TestFirstJourneysCarveBoxesSharded(t *testing.T) {
	assertFirstJourneysCarveBoxes(t, func() sim.Loop { return sim.NewSharded(1, 2) })
}

func assertFirstJourneysCarveBoxes(t *testing.T, newEngine func() sim.Loop) {
	t.Helper()
	const copies = 4 * boxChunk // half each way
	var (
		eng sim.Loop
		n   *Network
		got [2][]int
	)
	sendAll := func() {
		for i := range copies {
			from := HostID(1 + i%2)
			if err := SendValue(n, from, 3-from, wide{tag: i}); err != nil {
				t.Error(err)
			}
		}
	}
	fixture := func() func() {
		eng = newEngine()
		n = lineOn(t, eng, LinkConfig{Jitter: 0}, LinkConfig{Jitter: 0})
		for _, h := range []HostID{1, 2} {
			if err := n.Handle(h, func(_ time.Duration, env Envelope) {
				got[h-1] = append(got[h-1], env.Payload.(*wide).tag)
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the route tables, the cluster memos, the event queue and
		// the mailboxes with the same traffic, then forget every record
		// and box, so that each copy counted takes a record never used.
		sendAll()
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		for _, ls := range n.perLane {
			ls.free, ls.chunk, ls.made, ls.boxes = nil, nil, 0, nil
		}
		got[0], got[1] = got[0][:0], got[1][:0]
		return sendAll
	}
	made := allocs.Min(3, 1, fixture)
	ceil := func(a, b int) int { return (a + b - 1) / b }
	if budget := ceil(copies, flightChunk) + ceil(copies, boxChunk) + copies; made > uint64(budget) {
		t.Errorf("%d copies on their first journey allocated %d times, budget %d", copies, made, budget)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for h, tags := range got {
		if len(tags) != copies/2 {
			t.Fatalf("host %d received %d copies, want %d", h+1, len(tags), copies/2)
		}
		for k, tag := range tags {
			// Host 1 sent the even tags to host 2, host 2 the odd ones.
			if want := 2*k + 1 - h; tag != want {
				t.Fatalf("host %d's copy %d carries tag %d, want %d", h+1, k, tag, want)
			}
		}
	}
	assertFlightsRecycled(t, n)
}

// What a handler is handed stays intact until it returns: the record that
// carried the message — and holds its by-value payload — is released only
// then, so a handler that sends first and reads afterwards still reads
// its own message, and its send takes a second record.
func TestHandlerSendKeepsItsEnvelope(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{Class: Expensive, Jitter: 0})
	request, reply := wide{tag: 1}, wide{tag: 2}
	var after Envelope
	var read wide
	var sentAt time.Duration
	if err := n.Handle(2, func(_ time.Duration, env Envelope) {
		if err := SendValue(n, 2, 1, reply); err != nil {
			t.Errorf("nested send: %v", err)
		}
		after = env
		read = *env.Payload.(*wide)
	}); err != nil {
		t.Fatal(err)
	}
	replies := collectValues[wide](t, n, 1)
	eng.Schedule(7*time.Millisecond, func() {
		sentAt = eng.Now()
		if err := SendValue(n, 1, 2, request); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := Envelope{From: 1, To: 2, CostBit: true, Payload: after.Payload, SentAt: sentAt, Hops: 4}
	if after != want || read != request {
		t.Errorf("after the nested send the handler holds %+v carrying tag %d, want %+v carrying tag %d",
			after, read.tag, want, request.tag)
	}
	if len(*replies) != 1 || (*replies)[0] != reply {
		t.Errorf("replies = %+v, want the one reply", *replies)
	}
	if _, made := flightCounts(n); made != 2 {
		t.Errorf("%d flights allocated, want 2: the request's record is the handler's until it returns", made)
	}
	assertFlightsRecycled(t, n)
}

// collectValues records the by-value payloads of type P delivered to h,
// copying each out while the handler may still read it.
func collectValues[P any](t *testing.T, n *Network, h HostID) *[]P {
	t.Helper()
	var got []P
	if err := n.Handle(h, func(_ time.Duration, env Envelope) {
		p, ok := env.Payload.(*P)
		if !ok {
			t.Errorf("host %d was handed a %T, want a %T", h, env.Payload, p)
			return
		}
		got = append(got, *p)
	}); err != nil {
		t.Fatal(err)
	}
	return &got
}

// The lifetime of a payload sent by value, case by case, on the
// sequential engine.
func TestFlightOwnedPayloads(t *testing.T) {
	runPayloadCases(t, func() sim.Loop { return sim.NewEngine(1) })
}

// The same cases with the two hosts on different lanes of the sharded
// engine: records and the payloads in them change lanes with the traffic
// (run it under -race).
func TestFlightOwnedPayloadsSharded(t *testing.T) {
	runPayloadCases(t, func() sim.Loop { return sim.NewSharded(1, 2) })
}

func runPayloadCases(t *testing.T, newEngine func() sim.Loop) {
	steady := LinkConfig{Jitter: 0}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, eng sim.Loop)
	}{
		{"duplicated on an access link", func(t *testing.T, eng sim.Loop) {
			duplicatesKeepTheirValue(t, eng, lineOn(t, eng, LinkConfig{DupProb: 1, Jitter: 0}, steady), 2)
		}},
		{"duplicated on both server links", func(t *testing.T, eng sim.Loop) {
			duplicatesKeepTheirValue(t, eng, lineOn(t, eng, steady, LinkConfig{DupProb: 1, Jitter: 0}), 4)
		}},
		{"lost", func(t *testing.T, eng sim.Loop) {
			n := lineOn(t, eng, steady, LinkConfig{LossProb: 1, Jitter: 0})
			droppedStorageIsReused(t, eng, n, func() {}, func(st *Stats) uint64 { return st.Lost })
		}},
		{"host link down", func(t *testing.T, eng sim.Loop) {
			n := lineOn(t, eng, steady, steady)
			if err := n.SetHostLinkUp(1, false); err != nil {
				t.Fatal(err)
			}
			droppedStorageIsReused(t, eng, n, func() {}, func(st *Stats) uint64 { return st.DroppedLinkDown })
		}},
		{"no route", func(t *testing.T, eng sim.Loop) {
			n := lineOn(t, eng, steady, steady)
			if err := n.SetLinkUp(n.Links()[1], false); err != nil {
				t.Fatal(err)
			}
			droppedStorageIsReused(t, eng, n, func() {}, func(st *Stats) uint64 { return st.DroppedNoRoute })
		}},
		{"hop budget exhausted", func(t *testing.T, eng sim.Loop) {
			n, flap := flappingTriangle(t, eng)
			droppedStorageIsReused(t, eng, n, flap, func(st *Stats) uint64 { return st.DroppedNoRoute })
		}},
		{"through a transmit hook", func(t *testing.T, eng sim.Loop) {
			hookOutputTravelsByValue(t, eng, lineOn(t, eng, steady, steady))
		}},
		{"two payload types over one free list", func(t *testing.T, eng sim.Loop) {
			typesAlternateOnOneRecord(t, eng, lineOn(t, eng, steady, steady))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newEngine()) })
	}
}

// duplicatesKeepTheirValue sends one value from host 1 over links that
// always duplicate, so that the given number of copies arrive. Host 2
// answers each copy with a different value before it reads the copy, and
// by the second copy's turn the first one's record is on the free list:
// the answer reuses it, payload storage included. A duplicate sharing the
// original's storage would now read the answer, and so would any copy
// whose record were released before its handler ran.
func duplicatesKeepTheirValue(t *testing.T, eng sim.Loop, n *Network, copies int) {
	sent, answer := wide{tag: 1}, wide{tag: -1}
	sent.pad[13] = 99
	var read []wide
	reused := false
	if err := n.Handle(2, func(_ time.Duration, env Envelope) {
		idle := n.perLane[n.host(2).lane].free
		if err := SendValue(n, 2, 1, answer); err != nil {
			t.Errorf("nested send: %v", err)
		}
		if idle != nil && idle.inBox {
			reused = true // the answer is travelling in a record that carried a copy
		}
		read = append(read, *env.Payload.(*wide))
	}); err != nil {
		t.Fatal(err)
	}
	answers := collectValues[wide](t, n, 1)
	if err := SendValue(n, 1, 2, sent); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(read) != copies {
		t.Fatalf("host 2 was handed %d copies, want %d", len(read), copies)
	}
	for i, v := range read {
		if v != sent {
			t.Errorf("copy %d read %+v, want the value sent, %+v", i, v, sent)
		}
	}
	if !reused {
		t.Error("no answer reused a record that had carried a copy; the case is vacuous")
	}
	// The same links multiply each answer on its way back.
	if len(*answers) != copies*copies {
		t.Fatalf("host 1 got %d answers, want %d", len(*answers), copies*copies)
	}
	for i, a := range *answers {
		if a != answer {
			t.Errorf("answer %d = %+v, want %+v", i, a, answer)
		}
	}
	assertFlightsRecycled(t, n)
}

// droppedStorageIsReused sends twice into a network that — armed before
// each send — drops everything from host 1 to host 2 while still on host
// 1's lane: each time the record goes back to the free list, and the
// second send travels in the first one's record and payload storage.
func droppedStorageIsReused(t *testing.T, eng sim.Loop, n *Network, arm func(), drops func(*Stats) uint64) {
	got := collectValues[wide](t, n, 2)
	var first *flight
	for i, v := range []wide{{tag: 1}, {tag: 2}} {
		arm()
		if err := SendValue(n, 1, 2, v); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		assertFlightsRecycled(t, n)
		if _, made := flightCounts(n); made != 1 {
			t.Fatalf("send %d: %d flights allocated, want 1", i+1, made)
		}
		f := n.perLane[n.host(1).lane].free
		b, ok := f.box.(*box[wide])
		if !ok || b.v != v {
			t.Fatalf("send %d: the idle record's storage holds %+v, want the value sent", i+1, f.box)
		}
		if first == nil {
			first = f
		} else if f != first || f.box != first.box {
			t.Errorf("send %d travelled in another record or other storage than send 1", i+1)
		}
	}
	if st := n.Stats(); len(*got) != 0 || drops(st) != 2 {
		t.Errorf("delivered %d, stats %+v; want both sends dropped", len(*got), st)
	}
}

// flappingTriangle is the topology of TestHopBudgetDropsLoopingMessage,
// with the destination's server on a lane of its own: once flap is
// called, the two ways from host 1's server to host 2's alternate faster
// than a message sent right away can take either, for long enough to
// exhaust its hop budget on the first lane.
func flappingTriangle(t *testing.T, eng sim.Loop) (n *Network, flap func()) {
	t.Helper()
	n = New(eng)
	a, b, d := n.AddServer(), n.AddServer(), n.AddServer()
	cfg := LinkConfig{Jitter: 0} // 1ms per traversal
	far := LinkConfig{Class: Expensive, Delay: time.Millisecond, Jitter: 0}
	if _, err := n.AddLink(a, b, cfg); err != nil {
		t.Fatal(err)
	}
	viaA, err := n.AddLink(a, d, far)
	if err != nil {
		t.Fatal(err)
	}
	viaB, err := n.AddLink(b, d, far)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, d, cfg); err != nil {
		t.Fatal(err)
	}
	applyShardPlan(t, eng, n, 2)
	// A message sent now is at a server every whole millisecond from now;
	// half a millisecond before, the direct link from that server goes down
	// and the other one comes up.
	return n, func() {
		for i := 0; i < 16; i++ {
			aUp := i%2 == 1
			eng.Schedule(time.Duration(i)*time.Millisecond+500*time.Microsecond, func() {
				if err := n.SetLinkUp(viaA, aUp); err != nil {
					t.Error(err)
				}
				if err := n.SetLinkUp(viaB, !aUp); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// hookOutputTravelsByValue installs a transmit hook on the sender that is
// handed a pointer to the value sent, passes it through, adds a rewrite
// from storage of its own — overwritten by the next send, long before the
// first one's copies arrive — and a payload of another type: each value
// the hook points at reaches its handler like a direct send, in storage
// of its own, and anything else arrives as Send would carry it.
func hookOutputTravelsByValue(t *testing.T, eng sim.Loop, n *Network) {
	var forged wide
	if err := n.SetTransmitHook(1, func(to HostID, payload any) []Outbound {
		w, ok := payload.(*wide)
		if !ok {
			t.Fatalf("the hook was handed a %T, want a pointer to the value sent", payload)
		}
		forged = *w
		forged.tag = -w.tag
		return []Outbound{{To: to, Payload: w}, {To: to, Payload: &forged, ForceCostBit: true}, {To: to, Payload: "raw"}}
	}); err != nil {
		t.Fatal(err)
	}
	var values []wide
	var forcedCost []bool
	raw := 0
	if err := n.Handle(2, func(_ time.Duration, env Envelope) {
		switch p := env.Payload.(type) {
		case *wide:
			values = append(values, *p)
			forcedCost = append(forcedCost, env.CostBit)
		case string:
			raw++
		default:
			t.Errorf("host 2 was handed a %T", env.Payload)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for tag := 1; tag <= 2; tag++ {
		if err := SendValue(n, 1, 2, wide{tag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []wide{{tag: 1}, {tag: -1}, {tag: 2}, {tag: -2}}
	if len(values) != len(want) || raw != 2 {
		t.Fatalf("host 2 got values %+v and %d raw payloads, want %+v and 2", values, raw, want)
	}
	for i := range want {
		if values[i] != want[i] {
			t.Errorf("value %d = %+v, want %+v", i, values[i], want[i])
		}
	}
	assertFlightsRecycled(t, n)
}

// typesAlternateOnOneRecord sends a wide, a narrow, a wide, ... one at a
// time and back and forth, so that a single record carries them all —
// each send starts where the last one ended — and its storage changes
// type on every journey; an untyped Send in between leaves the storage
// idle. Each handler reads exactly what was sent.
func typesAlternateOnOneRecord(t *testing.T, eng sim.Loop, n *Network) {
	var got []any
	for _, h := range []HostID{1, 2} {
		if err := n.Handle(h, func(_ time.Duration, env Envelope) {
			switch p := env.Payload.(type) {
			case *wide:
				got = append(got, *p)
			case *narrow:
				got = append(got, *p)
			default:
				got = append(got, p)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := []any{wide{tag: 1}, narrow{"a"}, "untyped", wide{tag: 2}, narrow{"b"}}
	for i, v := range want {
		from, to := HostID(1+i%2), HostID(2-i%2)
		var err error
		switch v := v.(type) {
		case wide:
			err = SendValue(n, from, to, v)
		case narrow:
			err = SendValue(n, from, to, v)
		default:
			err = n.Send(from, to, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("host 2 got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, made := flightCounts(n); made != 1 {
		t.Errorf("%d flights allocated, want 1 carrying every type in turn", made)
	}
	assertFlightsRecycled(t, n)
}

// Duplication clones the in-flight record: two consecutive links that
// always duplicate yield four deliveries, each with its own hop count.
func TestDuplicationClonesFlight(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{DupProb: 1, Jitter: 0})
	got := collect(t, n, 2)
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 4 {
		t.Fatalf("delivered %d copies, want 4", len(*got))
	}
	for i, env := range *got {
		if env.Hops != 4 || env.Payload != "x" || env.From != 1 || env.To != 2 {
			t.Errorf("copy %d = %+v, want 4 hops of x from 1 to 2", i, env)
		}
	}
	if st := n.Stats(); st.Duplicated != 3 || st.Delivered != 4 {
		t.Errorf("Duplicated = %d, Delivered = %d, want 3 and 4", st.Duplicated, st.Delivered)
	}
	assertFlightsRecycled(t, n)
}

// Every way a copy's journey can end without delivery returns its flight
// to a free list.
func TestDropPathsRecycleFlights(t *testing.T) {
	cases := []struct {
		name  string
		mid   LinkConfig
		setup func(n *Network, links []LinkID) error
		check func(st *Stats) bool
	}{
		{"loss", LinkConfig{LossProb: 1, Jitter: 0},
			func(*Network, []LinkID) error { return nil },
			func(st *Stats) bool { return st.Lost == 1 }},
		{"sender host link down", LinkConfig{Jitter: 0},
			func(n *Network, _ []LinkID) error { return n.SetHostLinkUp(1, false) },
			func(st *Stats) bool { return st.DroppedLinkDown == 1 }},
		{"receiver host link down", LinkConfig{Jitter: 0},
			func(n *Network, _ []LinkID) error { return n.SetHostLinkUp(2, false) },
			func(st *Stats) bool { return st.DroppedLinkDown == 1 }},
		{"server link down", LinkConfig{Jitter: 0},
			func(n *Network, links []LinkID) error { return n.SetLinkUp(links[1], false) },
			func(st *Stats) bool { return st.DroppedNoRoute == 1 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng, n, _, links := lineNet(t, tc.mid)
			got := collect(t, n, 2)
			if err := tc.setup(n, links); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(1, 2, "x"); err != nil {
				t.Fatal(err)
			}
			if err := eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			if st := n.Stats(); len(*got) != 0 || !tc.check(st) {
				t.Errorf("delivered %d, stats %+v", len(*got), st)
			}
			assertFlightsRecycled(t, n)
		})
	}
}

// A link that fails while a message is on its way leaves a server with
// no route at all: the copy is dropped there, mid-path.
func TestNoRouteMidPathRecyclesFlight(t *testing.T) {
	eng, n, _, links := lineNet(t, LinkConfig{Jitter: 0})
	got := collect(t, n, 2)
	hops := countLinkHops(n)
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	// The message reaches s2 at 2ms; cut s2-s3 just before.
	eng.Schedule(1500*time.Microsecond, func() {
		if err := n.SetLinkUp(links[1], false); err != nil {
			t.Error(err)
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); len(*got) != 0 || st.DroppedNoRoute != 1 || hops[links[0]] != 1 {
		t.Errorf("delivered %d, stats %+v", len(*got), st)
	}
	assertFlightsRecycled(t, n)
}

// Adaptive routing can loop while the topology flaps: here the two ways
// to the destination's server alternate faster than a message can take
// either, so it bounces between the other two servers until the hop
// budget drops it.
func TestHopBudgetDropsLoopingMessage(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a, b, d := n.AddServer(), n.AddServer(), n.AddServer()
	cfg := LinkConfig{Jitter: 0} // 1ms per traversal
	if _, err := n.AddLink(a, b, cfg); err != nil {
		t.Fatal(err)
	}
	viaA, err := n.AddLink(a, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaB, err := n.AddLink(b, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(1, a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost(2, d, cfg); err != nil {
		t.Fatal(err)
	}
	got := collect(t, n, 2)
	// The message is at a server at every whole millisecond; half a
	// millisecond before, the direct link from that server goes down and
	// the other one comes up.
	for i := 0; i < 16; i++ {
		aUp := i%2 == 1
		eng.Schedule(time.Duration(i)*time.Millisecond+500*time.Microsecond, func() {
			if err := n.SetLinkUp(viaA, aUp); err != nil {
				t.Error(err)
			}
			if err := n.SetLinkUp(viaB, !aUp); err != nil {
				t.Error(err)
			}
		})
	}
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if len(*got) != 0 || st.DroppedNoRoute != 1 {
		t.Errorf("delivered %d, DroppedNoRoute = %d; want the hop budget to drop the message", len(*got), st.DroppedNoRoute)
	}
	// Budget 4+2*3 = 10: the access link plus ten bounces, then the drop.
	if hops := st.LinkTransmissions[Cheap]; hops != 11 {
		t.Errorf("%d link traversals before the drop, want 11", hops)
	}
	assertFlightsRecycled(t, n)
}

// ResetStats zeroes every counter, and LinkTransmissions counts host
// and server links by class.
func TestResetStats(t *testing.T) {
	eng, n, _, _ := lineNet(t, LinkConfig{Jitter: 0})
	collect(t, n, 2)
	if err := n.Send(1, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.LinkTransmissions != [3]uint64{Cheap: 4} {
		t.Errorf("LinkTransmissions = %v, want 4 cheap traversals and nothing else", st.LinkTransmissions)
	}
	n.ResetStats()
	if st = n.Stats(); *st != (Stats{}) {
		t.Errorf("stats after reset = %+v, want all zero", st)
	}
}

// Dijkstra visits a server's links in slice order and relies on that
// being ascending link-ID order; AddLink is the only writer.
func TestServerLinksAscendingByID(t *testing.T) {
	_, n := buildGrid(t, 5)
	for _, s := range n.servers[1:] {
		for i := 1; i < len(s.links); i++ {
			if s.links[i-1].id >= s.links[i].id {
				t.Fatalf("server %d: link %d listed before link %d", s.id, s.links[i-1].id, s.links[i].id)
			}
		}
	}
}
