package seqset

import "slices"

// maxWindowGap bounds how far past the current top one Put may extend a
// Window's dense range. Keys are wire-supplied — a Byzantine parent can
// send Seq = 1<<62 — so a key must never become an allocation size: one
// Put grows the dense range by at most this many slots, and anything
// further out goes to the sparse spill, which costs one map entry per
// key exactly as a map-backed store would. Honest traffic numbers
// messages densely, so its gaps (a burst of losses, a reordered hop) are
// far below the bound; a host rejoining thousands of messages behind
// spills the new arrivals until its gap fill catches the dense range up.
const maxWindowGap = 256

// Window maps sequence numbers to values the way the paper's per-host
// arrays do: densely, by offset from a floor that advances as a stable
// prefix is released (§6 pruning). The zero value is an empty window
// with floor 0, ready to use. Presence is explicit, so a zero T (an
// empty payload) is still a stored value. 0 is never a key, and neither
// is anything at or below the floor: a Put there is dropped.
type Window[T any] struct {
	// floor is the highest released key. The dense range is
	// (floor, floor+span]: key floor+1+i lives in ring slot
	// (head+i) mod len(ring). Release advances head, so released slots
	// are reused by later keys instead of accumulating below the range.
	floor Seq
	ring  []slot[T]
	head  int
	span  int
	// n counts the keys present, dense and spilled.
	n int
	// spill holds keys that were more than maxWindowGap past the dense
	// range when first put; nil whenever it is empty, so the common path
	// pays one nil check for it. A spilled key stays spilled until
	// released, even if the dense range later grows past it.
	spill map[Seq]T
}

type slot[T any] struct {
	v  T
	ok bool
}

// NewWindows returns n empty windows whose first span dense slots are
// carved out of one allocation, for callers that know the key range in
// advance and hold many windows (the harness: one per host, one slot per
// scheduled broadcast). A window that outgrows its share reallocates on
// its own.
func NewWindows[T any](n, span int) []Window[T] {
	ws := make([]Window[T], n)
	slab := make([]slot[T], n*span)
	for i := range ws {
		ws[i].ring = slab[i*span : (i+1)*span : (i+1)*span]
	}
	return ws
}

// at returns the ring slot of dense offset i ≤ len(ring).
func (w *Window[T]) at(i int) *slot[T] {
	j := w.head + i
	if j >= len(w.ring) {
		j -= len(w.ring)
	}
	return &w.ring[j]
}

// Get returns the value stored under q.
func (w *Window[T]) Get(q Seq) (T, bool) {
	if i := q - w.floor - 1; q > w.floor && i < Seq(w.span) {
		if s := w.at(int(i)); s.ok {
			return s.v, true
		}
	}
	if w.spill != nil {
		v, ok := w.spill[q]
		return v, ok
	}
	var zero T
	return zero, false
}

// Put stores v under q, replacing any previous value.
func (w *Window[T]) Put(q Seq, v T) {
	if q <= w.floor {
		return
	}
	if w.spill != nil {
		if _, ok := w.spill[q]; ok {
			w.spill[q] = v
			return
		}
	}
	i := q - w.floor - 1
	if i >= Seq(w.span) {
		if i-Seq(w.span) >= maxWindowGap {
			if w.spill == nil {
				w.spill = make(map[Seq]T)
			}
			w.spill[q] = v
			w.n++
			return
		}
		w.extend(int(i) + 1)
	}
	s := w.at(int(i))
	if !s.ok {
		w.n++
	}
	s.v, s.ok = v, true
}

// extend grows the dense range to span slots (at most maxWindowGap more
// than it has), doubling the ring when it no longer fits.
func (w *Window[T]) extend(span int) {
	if span > len(w.ring) {
		ring := make([]slot[T], max(span, 2*len(w.ring), 8))
		for i := 0; i < w.span; i++ {
			ring[i] = *w.at(i)
		}
		w.ring, w.head = ring, 0
	}
	w.span = span
}

// Release drops every key ≤ upTo and raises the floor to upTo; the
// cost is proportional to what is dropped.
func (w *Window[T]) Release(upTo Seq) {
	if upTo <= w.floor {
		return
	}
	k := w.span
	if d := upTo - w.floor; d < Seq(k) {
		k = int(d)
	}
	for i := 0; i < k; i++ {
		s := w.at(i)
		if s.ok {
			w.n--
		}
		*s = slot[T]{} // drop the reference, not just the flag
	}
	w.span -= k
	if w.span == 0 {
		w.head = 0
	} else {
		w.head += k
		if w.head >= len(w.ring) {
			w.head -= len(w.ring)
		}
	}
	w.floor = upTo
	for q := range w.spill {
		if q <= upTo {
			delete(w.spill, q)
			w.n--
		}
	}
	if len(w.spill) == 0 {
		w.spill = nil
	}
}

// Len returns the number of keys present.
func (w *Window[T]) Len() int { return w.n }

// Cap returns the number of dense slots the window retains, in use or
// not.
func (w *Window[T]) Cap() int { return len(w.ring) }

// Each calls fn for every key present in ascending order, stopping early
// if fn returns false.
func (w *Window[T]) Each(fn func(Seq, T) bool) {
	var spilled []Seq
	for q := range w.spill {
		spilled = append(spilled, q)
	}
	slices.Sort(spilled)
	for i := 0; i < w.span; i++ {
		q := w.floor + 1 + Seq(i)
		// A key spilled before the dense range reached it sorts between
		// dense keys.
		for len(spilled) > 0 && spilled[0] < q {
			if !fn(spilled[0], w.spill[spilled[0]]) {
				return
			}
			spilled = spilled[1:]
		}
		if s := w.at(i); s.ok && !fn(q, s.v) {
			return
		}
	}
	for _, q := range spilled {
		if !fn(q, w.spill[q]) {
			return
		}
	}
}
