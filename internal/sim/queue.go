package sim

import (
	"math"
	"math/bits"
	"time"
)

// eventQueue is the engine's pending-event set: a monotone radix queue
// (a hierarchical timing wheel without a tick) over time.Duration, and
// beside it up to queueFIFOs fixed-delay FIFOs for the link hops that
// make up most of a simulation.
//
// Pop order is exactly (instant, insertion order). Every push takes the
// next sequence number, and the queue pops the event with the least
// (instant, sequence) pair: the earliest of the radix minimum and the
// FIFO heads, sequence numbers deciding only between events of one
// instant. A FIFO entry carries its number; a filed event's is kept
// beside the node slab (seqs), and only once some delay has a FIFO.
//
// Radix levels. An instant is read as queueLevels base-64 digits. The
// queue keeps a reference instant ref and files an event under the
// highest digit in which its instant differs from ref: level l, slot =
// that digit of the instant. An event at ref itself goes to level 0.
// Each slot is a FIFO list threaded through one node slab; one occupancy
// word per level finds the lowest occupied slot with a single
// TrailingZeros. Invariants:
//
//   - Monotone reference. ref never exceeds a filed instant. A
//     discrete-event engine only pushes at or after its clock, and the
//     clock has caught up with ref whenever user code can push (see
//     push), so every filed instant is ≥ ref. ref moves only when the
//     radix levels pop or redistribute, and only to their minimum, which
//     is then the queue's minimum too, or when a push finds them empty;
//     a FIFO pop leaves it alone.
//   - Level rule. Every filed event sits in the (level, slot) that its
//     instant and the *current* ref select. Instants are ≥ ref, so a
//     level-l event's digit l is larger than ref's: all of level l is
//     later than all of level l-1, and within a level a lower slot is
//     earlier. A level-0 slot holds exactly one instant. The radix minimum
//     is therefore the head of the lowest occupied slot of the lowest
//     occupied level.
//   - ref moves only in ways that keep the level rule. A level-0 pop
//     changes only digit 0 of ref, which no level above looks at and
//     which leaves level-0 slots (digit 0 of the instant) where they are.
//     When level 0 is empty, ref jumps to the minimum m of the lowest
//     occupied slot (level l, so every level below l is empty); m shares
//     all digits above l with the old ref and digit l with its slot, so
//     only that slot's events change place, and they are re-filed —
//     strictly below l — by redistribute.
//   - FIFO within a slot equals sequence order. By the level rule two
//     events of one instant are always in the same slot, whatever ref was
//     when each arrived; push appends, and redistribute re-files the list
//     from its head — or moves it whole, when it holds one instant — into
//     slots that were empty, so they never pass each other. The head of a
//     ready slot is thus the radix levels' least (instant, sequence).
//
// Fixed-delay FIFOs. An uncancelable event (a link hop, a mailbox drain)
// whose delay at − now is a promoted delay, and whose instant is not
// before that FIFO's tail, is appended to the FIFO's ring and never filed.
// A FIFO's ring is in (instant, sequence) order by construction: the tail
// check keeps instants non-decreasing and sequence numbers only grow, so
// its head is its least pair. A delay is promoted once promoteAfter
// uncancelable pushes in a row have carried it and found no FIFO, while
// fewer than queueFIFOs are taken; promotions are never undone. Because
// the order is decided by (instant, sequence) wherever an event lands,
// which FIFO an event joins, or whether it joins one at all, changes the
// cost of its push and pop and never its place in the order.
//
// push, pop and min are O(1); a filed event is re-filed at most once per
// level it descends, and a FIFO entry is touched twice.
type eventQueue struct {
	ref time.Duration
	n   int    // queued events: canceled ones and FIFO entries included
	seq uint64 // sequence number of the latest push; 0 before the first

	// fifos[:nfifo] are the promoted delays' FIFOs. streak counts the
	// uncancelable pushes in a row at streakDelay that found no FIFO.
	fifos       [queueFIFOs]delayFIFO
	nfifo       int
	streak      int
	streakDelay time.Duration

	// nodes is the slab. A link (head, tail, next, free) is 1 + the index
	// of a node, so that 0 means none; node(i) resolves one.
	nodes []queueNode
	free  int32 // head of the free list threaded through next
	// seqs[i-1] is node i's sequence number (seqOf). It is written only
	// once some delay has a FIFO, and a node filed before that reads 0,
	// which orders it correctly: every FIFO entry is younger. A queue
	// without FIFOs stores no sequence number, and its nodes stay 32
	// bytes: with the number on a 40-byte node, BenchmarkEngineQueueDepth's
	// clustered case, which has no FIFO, ran ≈ 8 % slower.
	seqs []uint64

	levels uint16              // bit l set ⇔ occ[l] != 0
	occ    [queueLevels]uint64 // bit s of occ[l] set ⇔ slots[l][s] holds a node
	mixed  [queueLevels]uint64 // bit s of mixed[l] set ⇔ slots[l][s] has held two instants
	slots  [queueLevels][queueSlots]queueSlot
}

const (
	digitBits   = 6
	queueSlots  = 1 << digitBits
	queueLevels = 11 // 11 × 6 = 66 bits, enough for the 63 of an instant ≥ 0
)

// queueFIFOs is how many delays can get a FIFO. A sequential run of
// either simulated benchmark workload promotes exactly two, 1 ms and
// 30 ms, the delays of all but 2 % of the 512-host run's events. On the
// sharded engine a barrier's mailbox drain also repeats a few delays, and
// in that run's 64 lanes the 1 ms hops were the third or fourth delay
// promoted about two times in three: with two FIFOs most lanes would
// file them.
const queueFIFOs = 4

// promoteAfter is how many uncancelable pushes in a row must carry a
// delay before it gets a FIFO. At 1, a FIFO for every new delay, the soak
// sweep, whose jittered links do not repeat a delay, allocated 14 % more
// bytes per seed for rings it barely used and ran fewer seeds per second
// in 3 of 3 pairs; at 16 none of its 600 seeds promotes a delay, while the
// 512-host run promotes its two by its 18 451st push of 4.7 M.
const promoteAfter = 16

// maxInstant is the end of virtual time: instants saturate here instead
// of wrapping.
const maxInstant = time.Duration(math.MaxInt64)

// instantAfter returns now+delay for delay ≥ 0, saturating at
// maxInstant.
func instantAfter(now, delay time.Duration) time.Duration {
	if at := now + delay; at >= now {
		return at
	}
	return maxInstant
}

type queueNode struct {
	at time.Duration
	fn Event
	// cell carries the cancellation flag; recycled via the engine's free
	// list once the event pops. Uncancelable events (pushCross) that are
	// filed here carry a nil cell and never count toward compaction.
	cell *cancelCell
	next int32 // next node of the slot's FIFO, or of the free list
}

// queueSlot is one FIFO. head, tail, min and the slot's mixed bit are
// meaningful only while its occupancy bit is set.
type queueSlot struct {
	head, tail int32
	min        time.Duration // earliest instant in the list
}

// delayFIFO holds uncancelable events pushed at one fixed delay, in a
// ring buffer that doubles when full.
type delayFIFO struct {
	delay time.Duration
	ring  []ringEntry // len is 0 or a power of two
	head  int         // index of the oldest entry
	n     int
}

type ringEntry struct {
	at  time.Duration
	seq uint64
	fn  Event
}

// ringMin is a FIFO's first ring length. 512 entries (12 KiB) hold each
// delay's peak on the 24-host stream, so its two rings cost one
// allocation each per run, where 64 cost four; the 512-host run grows its
// rings to 16 Ki and 128 Ki entries either way.
const ringMin = 512

func (e *ringEntry) before(o *ringEntry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

func (f *delayFIFO) first() *ringEntry { return &f.ring[f.head] }

func (f *delayFIFO) last() time.Duration {
	return f.ring[(f.head+f.n-1)&(len(f.ring)-1)].at
}

// append adds an entry behind the tail, doubling the ring when it is
// full. A warm ring allocates nothing; TestDeepQueueZeroAllocs holds
// that.
func (f *delayFIFO) append(e ringEntry) {
	if f.n == len(f.ring) {
		ring := make([]ringEntry, max(2*len(f.ring), ringMin))
		k := copy(ring, f.ring[f.head:])
		copy(ring[k:], f.ring[:f.head])
		f.ring, f.head = ring, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = e
	f.n++
}

func (q *eventQueue) node(link int32) *queueNode { return &q.nodes[link-1] }

// used reports whether anything was ever pushed.
func (q *eventQueue) used() bool { return q.seq != 0 }

// push adds an event at instant at ≥ now, where now is the engine clock.
// An uncancelable event (nil cell) goes to the FIFO of its delay when it
// can (admit); everything else is filed in the radix levels.
//
// at < ref cannot happen for a filed event. ref runs ahead of the clock
// only after step popped a canceled head dated later than the clock, and
// step runs no user code before one of three things happens: a live event
// pops (the clock moves to its instant, ≥ ref, since pops come in
// order); the bounded limit is reached (Run, shardLane.run and
// runGlobalDue then move the clock to a limit ≥ the popped head); or the
// radix levels run empty, which the first branch below covers by
// restarting ref at the clock.
// Every Schedule, link hop and mailbox drain lands here, so a warm queue
// admits without allocating; TestScheduleRunZeroAllocs and
// TestDeepQueueZeroAllocs hold that.
func (q *eventQueue) push(now, at time.Duration, fn Event, cell *cancelCell) {
	q.seq++
	q.n++
	if cell == nil && q.admit(at-now, at, fn) {
		return
	}
	if q.levels == 0 {
		q.ref = now
	} else if at < q.ref {
		panic("sim: event scheduled before the queue's reference instant")
	}
	i := q.free
	if i != 0 {
		q.free = q.node(i).next
	} else {
		q.nodes = append(q.nodes, queueNode{})
		i = int32(len(q.nodes))
	}
	*q.node(i) = queueNode{at: at, fn: fn, cell: cell}
	if q.nfifo != 0 {
		if int(i) > len(q.seqs) {
			q.seqs = append(q.seqs, make([]uint64, int(i)-len(q.seqs))...)
		}
		q.seqs[i-1] = q.seq
	}
	q.file(i, at)
}

// seqOf returns filed node i's sequence number, or 0 if it was filed
// before any delay had a FIFO.
func (q *eventQueue) seqOf(i int32) uint64 {
	if int(i) <= len(q.seqs) {
		return q.seqs[i-1]
	}
	return 0
}

// admit appends the uncancelable event just numbered to the FIFO of its
// delay d, promoting d when it has recurred, and reports whether it did;
// if not, the event is filed.
func (q *eventQueue) admit(d, at time.Duration, fn Event) bool {
	for i := range q.fifos[:q.nfifo] {
		f := &q.fifos[i]
		if f.delay != d {
			continue
		}
		if f.n > 0 && at < f.last() {
			return false
		}
		f.append(ringEntry{at: at, seq: q.seq, fn: fn})
		return true
	}
	if d != q.streakDelay {
		q.streakDelay, q.streak = d, 0
	}
	if q.streak++; q.streak < promoteAfter || q.nfifo == queueFIFOs {
		return false
	}
	f := &q.fifos[q.nfifo]
	q.nfifo++
	f.delay = d
	f.append(ringEntry{at: at, seq: q.seq, fn: fn})
	return true
}

// file appends node i (next already 0) to the slot its instant and the
// current ref select.
// It runs once per filed push and once per level an event descends, and
// allocates nothing; TestDeepQueueZeroAllocs holds that.
func (q *eventQueue) file(i int32, at time.Duration) {
	l := uint(bits.Len64(uint64(at^q.ref)|1)-1) / digitBits
	s := uint(uint64(at)>>(l*digitBits)) % queueSlots
	sl := &q.slots[l][s]
	if q.occ[l]&(1<<s) == 0 {
		q.occ[l] |= 1 << s
		q.levels |= 1 << l
		q.mixed[l] &^= 1 << s
		sl.head = i
		sl.min = at
	} else {
		q.node(sl.tail).next = i
		if at != sl.min {
			q.mixed[l] |= 1 << s
			if at < sl.min {
				sl.min = at
			}
		}
	}
	sl.tail = i
}

// min reports the earliest queued instant. The queue must be non-empty.
func (q *eventQueue) min() time.Duration {
	m := maxInstant
	if q.levels != 0 {
		m = q.radixMin()
	}
	if f := q.firstRing(); f != nil && f.first().at < m {
		m = f.first().at
	}
	return m
}

// radixMin is the earliest filed instant. The radix levels must be
// non-empty.
func (q *eventQueue) radixMin() time.Duration {
	l := bits.TrailingZeros16(q.levels)
	return q.slots[l][bits.TrailingZeros64(q.occ[l])].min
}

// firstRing returns the FIFO with the least head, or nil when all are
// empty.
func (q *eventQueue) firstRing() *delayFIFO {
	var f *delayFIFO
	for i := range q.fifos[:q.nfifo] {
		if g := &q.fifos[i]; g.n > 0 && (f == nil || g.first().before(f.first())) {
			f = g
		}
	}
	return f
}

// pop removes the event with the least (instant, sequence) — the
// earliest, and among events of one instant the one pushed first — if
// its instant is at most limit, and reports whether it did. The queue
// must be non-empty. The limit is checked before anything is readied, and
// the radix levels are readied, which may move ref, only when their
// minimum is the queue's minimum instant: a bounded run that stops leaves
// ref where it was.
// Every executed event pops through here without allocating;
// TestScheduleRunZeroAllocs and TestDeepQueueZeroAllocs hold that.
func (q *eventQueue) pop(limit time.Duration) (at time.Duration, fn Event, cell *cancelCell, ok bool) {
	var f *delayFIFO
	if q.nfifo != 0 {
		if f = q.firstRing(); f != nil && (q.levels == 0 || f.first().at < q.radixMin()) {
			if f.first().at > limit {
				return 0, nil, nil, false
			}
			at, fn = q.popRing(f)
			return at, fn, nil, true
		}
	}
	l := uint(bits.TrailingZeros16(q.levels))
	s := uint(bits.TrailingZeros64(q.occ[l]))
	if q.slots[l][s].min > limit {
		return 0, nil, nil, false
	}
	if l > 0 && q.slots[l][s].head != q.slots[l][s].tail {
		q.redistribute(l, s)
		l, s = 0, uint(bits.TrailingZeros64(q.occ[0]))
	}
	// The head of (l, s) is the radix minimum: a level-0 slot holds one
	// instant in sequence order, and an upper slot reaches here only with
	// a single node, which is popped without a detour through level 0. A
	// FIFO head of the same instant goes first if it was pushed first.
	sl := &q.slots[l][s]
	i := sl.head
	if f != nil && f.first().at == sl.min && f.first().seq < q.seqOf(i) {
		at, fn = q.popRing(f)
		return at, fn, nil, true
	}
	nd := q.node(i)
	at, fn, cell = nd.at, nd.fn, nd.cell
	if i == sl.tail {
		q.occ[l] &^= 1 << s
		if q.occ[l] == 0 {
			q.levels &^= 1 << l
		}
	} else {
		sl.head = nd.next
	}
	*nd = queueNode{next: q.free} // release fn and cell references
	q.free = i
	q.n--
	q.ref = at
	return at, fn, cell, true
}

// popRing pops f's head.
func (q *eventQueue) popRing(f *delayFIFO) (time.Duration, Event) {
	e := f.first()
	at, fn := e.at, e.fn
	*e = ringEntry{} // release fn
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	q.n--
	return at, fn
}

// redistribute empties slot (l, s), l > 0, the lowest occupied slot of a
// queue whose lower levels are all empty: ref moves to the slot's
// minimum and the list is re-filed, in order, into the levels below —
// or, when it holds a single instant, handed to level 0 whole.
// It re-files each event at most once per level and allocates nothing;
// TestDeepQueueZeroAllocs holds that.
func (q *eventQueue) redistribute(l, s uint) {
	sl := &q.slots[l][s]
	q.ref = sl.min
	q.occ[l] &^= 1 << s
	if q.occ[l] == 0 {
		q.levels &^= 1 << l
	}
	if q.mixed[l]&(1<<s) == 0 {
		// One instant, now ref: the list is level 0's slot as it stands.
		z := uint(q.ref) % queueSlots
		q.slots[0][z] = *sl
		q.occ[0] = 1 << z
		q.levels |= 1
		return
	}
	for i := sl.head; i != 0; {
		nd := q.node(i)
		next := nd.next
		nd.next = 0
		q.file(i, nd.at)
		i = next
	}
}

// sweep unlinks every canceled event in place, slot by slot, keeping
// list order and recomputing each slot's minimum, and hands the cells
// back to the engine. No event changes slot: ref does not move. A mixed
// bit stays set even if one instant is left, which only costs that slot
// the node-by-node redistribution. FIFO entries are never canceled.
// It sweeps in place and never copies the queue;
// TestCancelCompactZeroAllocs holds it allocation-free.
func (e *Engine) sweep() {
	q := &e.q
	for lv := q.levels; lv != 0; lv &= lv - 1 {
		l := uint(bits.TrailingZeros16(lv))
		for occ := q.occ[l]; occ != 0; occ &= occ - 1 {
			s := uint(bits.TrailingZeros64(occ))
			sl := &q.slots[l][s]
			var tail int32
			min := maxInstant
			for i := sl.head; i != 0; {
				nd := q.node(i)
				next := nd.next
				if nd.cell != nil && nd.cell.canceled {
					e.releaseCell(nd.cell)
					*nd = queueNode{next: q.free}
					q.free = i
					q.n--
				} else {
					if tail == 0 {
						sl.head = i
					} else {
						q.node(tail).next = i
					}
					tail = i
					if nd.at < min {
						min = nd.at
					}
				}
				i = next
			}
			if tail == 0 {
				q.occ[l] &^= 1 << s
				continue
			}
			q.node(tail).next = 0
			sl.tail, sl.min = tail, min
		}
		if q.occ[l] == 0 {
			q.levels &^= 1 << l
		}
	}
}
