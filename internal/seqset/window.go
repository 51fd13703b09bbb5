package seqset

import (
	"math/bits"
	"slices"
)

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

// pageSlots is the page cap. A window's ring grows by doubling, from 8
// slots, until it holds pageSlots; a window that needs more moves its
// slots once into pages of pageSlots each and from then on grows a page
// at a time, without copying a slot again. Below the cap the doubling
// copies cost at most one page's worth; a soak seed's windows stay under
// it, and a 10 000-message stream's pass it early. It must exceed
// maxWindowGap, so a window reaching the cap always holds a dense range.
const (
	pageShift = 11
	pageSlots = 1 << pageShift
)

// Window maps sequence numbers to values the way the paper's per-host
// arrays do: densely, by offset from a floor that advances as a stable
// prefix is released (§6 pruning). The zero value is an empty window
// with floor 0, ready to use. Presence is explicit, so a zero T (an
// empty payload) is still a stored value. 0 is never a key, and neither
// is anything at or below the floor: a Put there is dropped.
type Window[T any] struct {
	// floor is the highest released key. The dense range is
	// (floor, floor+span]. Below the cap key floor+1+i lives in ring slot
	// (head+i) mod len(ring); Release advances head, so released slots
	// are reused by later keys instead of accumulating below the range.
	// Past the cap ring is nil and the range lives in pages.
	floor Seq
	ring  []slot[T]
	head  int
	span  int
	// n counts the keys present, dense and spilled.
	n int
	// more is nil until the window needs pages or a spill, so a small
	// window pays one nil check for both. (A field of its own for each
	// would take core.Host out of its size class.)
	more *overflow[T]
}

type slot[T any] struct {
	v  T
	ok bool
}

type page[T any] [pageSlots]slot[T]

// overflow is what a window holds beyond its ring.
type overflow[T any] struct {
	// pages[p mod len(pages)] is page p, which holds keys p·pageSlots+1
	// through (p+1)·pageSlots, key q in slot (q-1) mod pageSlots, or nil.
	// pages is nil below the cap; past it its length is a power of two,
	// and every page present lies within len(pages) pages of the floor's,
	// so no two pages share an entry.
	pages []*page[T]
	// free holds released pages, cleared, for the next extension to take;
	// owned counts the pages in pages and free.
	free  []*page[T]
	owned int
	// spill holds keys that were more than maxWindowGap past the dense
	// range when first put; nil whenever it is empty. A spilled key stays
	// spilled until released, even if the dense range later grows past
	// it.
	spill map[Seq]T
}

// at returns the slot of the key after x.
func (o *overflow[T]) at(x Seq) *slot[T] {
	return &o.pages[x>>pageShift&Seq(len(o.pages)-1)][x&(pageSlots-1)]
}

// cover gives every key from floor+from+1 through floor+to a page,
// taking released pages before allocating; from < to.
func (o *overflow[T]) cover(floor Seq, from, to int) {
	lo, hi := floor>>pageShift, (floor+Seq(to)-1)>>pageShift
	if n := int(hi-lo) + 1; n > len(o.pages) {
		pages := make([]*page[T], max(8, 1<<bits.Len(uint(n-1))))
		for p := lo; p < lo+Seq(len(o.pages)); p++ {
			pages[p&Seq(len(pages)-1)] = o.pages[p&Seq(len(o.pages)-1)]
		}
		o.pages = pages
	}
	for p := (floor + Seq(from)) >> pageShift; p <= hi; p++ {
		e := &o.pages[p&Seq(len(o.pages)-1)]
		if *e != nil {
			continue
		}
		if k := len(o.free); k > 0 {
			*e, o.free = o.free[k-1], o.free[:k-1]
		} else {
			*e = new(page[T])
			o.owned++
		}
	}
}

// drop hands every page whose keys are all at or below upTo to the free
// list. Their slots must already be cleared.
func (o *overflow[T]) drop(floor, upTo Seq) {
	lo := floor >> pageShift
	end := min(upTo>>pageShift, lo+Seq(len(o.pages)))
	for p := lo; p < end; p++ {
		if e := &o.pages[p&Seq(len(o.pages)-1)]; *e != nil {
			o.free = append(o.free, *e)
			*e = nil
		}
	}
}

// NewWindows returns n empty windows whose first span dense slots are
// carved out of one allocation, for callers that know the key range in
// advance and hold many windows (the harness: one per host, one slot per
// scheduled broadcast). A window that outgrows its share grows on its
// own, into pages if its share was past the cap.
func NewWindows[T any](n, span int) []Window[T] {
	ws := make([]Window[T], n)
	slab := make([]slot[T], n*span)
	for i := range ws {
		ws[i].ring = slab[i*span : (i+1)*span : (i+1)*span]
	}
	return ws
}

// over returns the window's overflow, making it on first use.
func (w *Window[T]) over() *overflow[T] {
	if w.more == nil {
		w.more = &overflow[T]{}
	}
	return w.more
}

// paged returns the window's overflow if its dense range lives in pages,
// and nil below the cap.
func (w *Window[T]) paged() *overflow[T] {
	if o := w.more; o != nil && o.pages != nil {
		return o
	}
	return nil
}

// spilled returns the spill, nil when there is none.
func (w *Window[T]) spilled() map[Seq]T {
	if w.more == nil {
		return nil
	}
	return w.more.spill
}

// at returns the slot of dense offset i < span.
func (w *Window[T]) at(i int) *slot[T] {
	if o := w.paged(); o != nil {
		return o.at(w.floor + Seq(i))
	}
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
	if spill := w.spilled(); spill != nil {
		v, ok := spill[q]
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
	if w.more != nil {
		if _, ok := w.more.spill[q]; ok {
			w.more.spill[q] = v
			return
		}
	}
	i := q - w.floor - 1
	if i >= Seq(w.span) {
		if i-Seq(w.span) >= maxWindowGap {
			o := w.over()
			if o.spill == nil {
				o.spill = make(map[Seq]T)
			}
			o.spill[q] = v
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
// than it has): by doubling the ring up to the cap, by pages past it.
func (w *Window[T]) extend(span int) {
	switch {
	case w.paged() != nil:
		w.more.cover(w.floor, w.span, span)
	case span <= len(w.ring):
	case span <= pageSlots:
		ring := make([]slot[T], min(max(span, 2*len(w.ring), 8), pageSlots))
		for i := 0; i < w.span; i++ {
			ring[i] = *w.at(i)
		}
		w.ring, w.head = ring, 0
	default:
		w.toPages(span)
	}
	w.span = span
}

// toPages moves the dense range out of the ring into pages, the last
// copy the window makes, and gives the range pages up to span. A ring
// of one page's size is cleared and becomes the page after the range's.
func (w *Window[T]) toPages(span int) {
	ring, j := w.ring, w.head
	w.ring, w.head = nil, 0
	o := w.over()
	o.cover(w.floor, 0, w.span)
	for i := 0; i < w.span; i++ {
		*o.at(w.floor + Seq(i)) = ring[j]
		if j++; j == len(ring) {
			j = 0
		}
	}
	if len(ring) == pageSlots {
		clear(ring)
		next := (w.floor+Seq(w.span)-1)>>pageShift + 1
		o.pages[next&Seq(len(o.pages)-1)] = (*page[T])(ring)
		o.owned++
	}
	o.cover(w.floor, w.span, span)
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
	switch {
	case w.paged() != nil:
		w.more.drop(w.floor, upTo)
	case w.span == 0:
		w.head = 0
	default:
		w.head += k
		if w.head >= len(w.ring) {
			w.head -= len(w.ring)
		}
	}
	w.floor = upTo
	if spill := w.spilled(); spill != nil {
		for q := range spill {
			if q <= upTo {
				delete(spill, q)
				w.n--
			}
		}
		if len(spill) == 0 {
			w.more.spill = nil
		}
	}
}

// Len returns the number of keys present.
func (w *Window[T]) Len() int { return w.n }

// Cap returns the number of dense slots the window retains, in use or
// not, free pages included.
func (w *Window[T]) Cap() int {
	if o := w.paged(); o != nil {
		return o.owned * pageSlots
	}
	return len(w.ring)
}

// Each calls fn for every key present in ascending order, stopping early
// if fn returns false.
func (w *Window[T]) Each(fn func(Seq, T) bool) {
	spill := w.spilled()
	var spilled []Seq
	for q := range spill {
		spilled = append(spilled, q)
	}
	slices.Sort(spilled)
	for i := 0; i < w.span; i++ {
		q := w.floor + 1 + Seq(i)
		// A key spilled before the dense range reached it sorts between
		// dense keys.
		for len(spilled) > 0 && spilled[0] < q {
			if !fn(spilled[0], spill[spilled[0]]) {
				return
			}
			spilled = spilled[1:]
		}
		if s := w.at(i); s.ok && !fn(q, s.v) {
			return
		}
	}
	for _, q := range spilled {
		if !fn(q, spill[q]) {
			return
		}
	}
}
