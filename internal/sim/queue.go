package sim

import (
	"math"
	"math/bits"
	"time"
)

// eventQueue is the engine's pending-event set: a monotone radix queue
// (a hierarchical timing wheel without a tick) over time.Duration.
//
// An instant is read as queueLevels base-64 digits. The queue keeps a
// reference instant ref — the instant of the last pop — and files an
// event under the highest digit in which its instant differs from ref:
// level l, slot = that digit of the instant. An event at ref itself goes
// to level 0. Each slot is a FIFO list threaded through one node slab;
// one occupancy word per level finds the lowest occupied slot with a
// single TrailingZeros.
//
// Invariants, and why pop order is exactly (instant, insertion order):
//
//   - Monotone reference. ref never exceeds a queued instant. A
//     discrete-event engine only pushes at or after its clock, and the
//     clock has caught up with ref whenever user code can push (see
//     push), so every pushed instant is ≥ ref.
//   - Level rule. Every queued event sits in the (level, slot) that its
//     instant and the *current* ref select. Instants are ≥ ref, so a
//     level-l event's digit l is larger than ref's: all of level l is
//     later than all of level l-1, and within a level a lower slot is
//     earlier. A level-0 slot holds exactly one instant. The minimum is
//     therefore the head of the lowest occupied slot of the lowest
//     occupied level.
//   - ref moves only in ways that keep the level rule. A level-0 pop
//     changes only digit 0 of ref, which no level above looks at and
//     which leaves level-0 slots (digit 0 of the instant) where they are.
//     When level 0 is empty, ref jumps to the minimum m of the lowest
//     occupied slot (level l, so every level below l is empty); m shares
//     all digits above l with the old ref and digit l with its slot, so
//     only that slot's events change place, and they are re-filed —
//     strictly below l — by redistribute.
//   - FIFO within a slot equals insertion order. By the level rule two
//     events of one instant are always in the same slot, whatever ref was
//     when each arrived; push appends, and redistribute re-files the
//     list from its head — or moves it whole, when it holds one instant —
//     into slots that were empty, so they never pass each other. No
//     sequence number is stored or compared.
//
// push, pop and min are O(1); an event is re-filed at most once per
// level it descends.
type eventQueue struct {
	ref time.Duration
	n   int // queued events, canceled ones included

	// nodes is the slab. A link (head, tail, next, free) is 1 + the index
	// of a node, so that 0 means none; node(i) resolves one.
	nodes []queueNode
	free  int32 // head of the free list threaded through next

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
	// list once the event pops. Events admitted through pushCross (the
	// sharded engine's mailbox drain) carry a nil cell: they are not
	// cancelable and never count toward compaction.
	cell *cancelCell
	next int32 // next node of the slot's FIFO, or of the free list
}

// queueSlot is one FIFO. head, tail, min and the slot's mixed bit are
// meaningful only while its occupancy bit is set.
type queueSlot struct {
	head, tail int32
	min        time.Duration // earliest instant in the list
}

func (q *eventQueue) node(link int32) *queueNode { return &q.nodes[link-1] }

// used reports whether anything was ever pushed.
func (q *eventQueue) used() bool { return len(q.nodes) > 0 }

// push appends an event at instant at ≥ now, where now is the engine
// clock.
//
// at < ref cannot happen. ref runs ahead of the clock only after step
// popped a canceled head dated later than the clock, and step runs no
// user code before one of three things happens: a live event pops (the
// clock moves to its instant, ≥ ref); the bounded limit is reached (Run,
// shardLane.run and runGlobalDue then move the clock to a limit ≥ the
// popped head); or the queue runs empty, which the first branch below
// covers by restarting ref at the clock.
// Every Schedule and mailbox drain lands here, so a warm queue admits
// without allocating; TestScheduleRunZeroAllocs and
// TestDeepQueueZeroAllocs hold that.
func (q *eventQueue) push(now, at time.Duration, fn Event, cell *cancelCell) {
	if q.n == 0 {
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
	q.n++
	q.file(i, at)
}

// file appends node i (next already 0) to the slot its instant and the
// current ref select.
// It runs once per push and once per level an event descends, and
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
	l := bits.TrailingZeros16(q.levels)
	return q.slots[l][bits.TrailingZeros64(q.occ[l])].min
}

// pop removes the earliest event — among events of one instant, the one
// pushed first — and moves ref to its instant. The queue must be
// non-empty.
// Every executed event pops through here without allocating;
// TestScheduleRunZeroAllocs and TestDeepQueueZeroAllocs hold that.
func (q *eventQueue) pop() (at time.Duration, fn Event, cell *cancelCell) {
	l := uint(bits.TrailingZeros16(q.levels))
	s := uint(bits.TrailingZeros64(q.occ[l]))
	if l > 0 && q.slots[l][s].head != q.slots[l][s].tail {
		q.redistribute(l, s)
		l, s = 0, uint(bits.TrailingZeros64(q.occ[0]))
	}
	// The head of (l, s) is the minimum: a level-0 slot holds one instant
	// in insertion order, and an upper slot reaches here only with a
	// single node, which is popped without a detour through level 0.
	sl := &q.slots[l][s]
	i := sl.head
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
	return at, fn, cell
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
// the node-by-node redistribution.
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
