// Package seqset implements sets of message sequence numbers as sorted,
// non-overlapping, non-adjacent intervals.
//
// The paper's protocol keeps, at every host i, the set INFO_i of sequence
// numbers received so far, plus a MAP of every other host's INFO set.
// Broadcast streams are long and mostly contiguous, so an interval coding
// keeps these sets tiny (one interval in the common case) while still
// representing arbitrary gaps.
//
// The package also implements the paper's ordering on INFO sets:
// A < B iff max(A) < max(B), and A ≃ B iff max(A) = max(B), where the
// maximum of the empty set is taken as 0 (sequence numbers start at 1).
//
// A set has one owner. Two ways of handing a set on exist, for the two
// directions a protocol moves one in: a sender that stamps its own INFO
// on many outgoing frames shares one copy of it per version (CopyTo,
// into storage the sender carves in bulk; the copy is copy-on-write, so
// no holder writes it), and a keeper — whoever stores what a frame
// carried, a MAP entry say — copies it into storage it already has
// (Assign: the frame's set may sit in a buffer its decoder reuses, and
// the keeper's old members are garbage anyway).
package seqset

import (
	"fmt"
	"sort"
	"strings"
)

// Seq is a broadcast message sequence number. Valid data messages are
// numbered starting at 1; 0 is never a member of a set.
type Seq uint64

// Interval is an inclusive range [Lo, Hi] of sequence numbers.
type Interval struct {
	Lo, Hi Seq
}

// Set is a set of sequence numbers. The zero value is the empty set and
// is ready to use. The mutating methods modify the receiver in place.
// Plain assignment shares the underlying storage; take an independent
// copy with Clone (eager, new storage), Snapshot (copy-on-write — O(1)
// until either side next mutates) or Assign (eager, into the receiver's
// own storage).
type Set struct {
	// runs is sorted by Lo; runs never overlap and are never adjacent
	// (runs[k].Hi+1 < runs[k+1].Lo).
	runs []Interval
	// cow marks runs as shared with at least one Snapshot; mutators copy
	// the storage before writing.
	cow bool
}

// FromRange returns the set {lo, lo+1, ..., hi}. It panics if lo is 0 or
// lo > hi.
func FromRange(lo, hi Seq) Set {
	if lo == 0 || lo > hi {
		panic(fmt.Sprintf("seqset: invalid range [%d,%d]", lo, hi))
	}
	return Set{runs: []Interval{{Lo: lo, Hi: hi}}}
}

// FromSlice returns a set containing exactly the given sequence numbers.
// Zero values are ignored.
func FromSlice(seqs []Seq) Set {
	var s Set
	for _, q := range seqs {
		if q != 0 {
			s.Add(q)
		}
	}
	return s
}

// Clone returns a deep copy of s.
func (s Set) Clone() Set {
	if len(s.runs) == 0 {
		return Set{}
	}
	runs := make([]Interval, len(s.runs))
	copy(runs, s.runs)
	return Set{runs: runs}
}

// Snapshot returns a copy of s that shares the run storage with s until
// either side next mutates (copy-on-write). It is for handing out
// read-only copies of a set that rarely changes afterwards; an owner that
// keeps mutating pays a full copy on its next mutation after every
// Snapshot, and so hands copies out with CopyTo instead. It is also the
// wrong tool for keeping a set someone else handed over: the keeper pays
// a full copy on its next mutation and discards that copy at the next
// hand-over, and the storage it shares may be a decoder's reused buffer.
// A keeper calls Assign.
func (s *Set) Snapshot() Set {
	if len(s.runs) == 0 {
		return Set{}
	}
	s.cow = true
	return Set{runs: s.runs, cow: true}
}

// CopyTo copies s into the front of buf and returns the copy, which is
// copy-on-write like a Snapshot: whoever mutates it copies first, so buf
// is written here and never again. buf must hold s.RunCount() intervals
// and be handed to nothing else. It is for an owner handing its set out
// on many frames: one copy per version of the set, carved from storage
// the owner allocates in bulk, where a Snapshot would make the owner's
// own next mutation copy the set.
func (s Set) CopyTo(buf []Interval) Set {
	if len(s.runs) == 0 {
		return Set{}
	}
	runs := buf[:len(s.runs):len(s.runs)]
	copy(runs, s.runs)
	return Set{runs: runs, cow: true}
}

// WithStorage returns the empty set whose runs will be written into buf
// for as long as they fit its capacity; growing past it moves the set to
// an array of its own, as append does. It lets an owner of many small
// sets carve their first storage from one allocation. The caller cuts
// buf's capacity to the set's share (buf[i:j:j]) and hands no part of it
// to anything else.
func WithStorage(buf []Interval) Set { return Set{runs: buf[:0]} }

// Assign overwrites s with the members of src, in s's own run storage:
// once that storage has grown to working size it allocates nothing, and
// nothing is shared with src afterwards — src may be a decoder's buffer
// that the next frame overwrites. Storage s shares with a Snapshot is
// not written; s drops it and starts an array of its own.
// It keeps the INFO set of every INFO and attach frame a host handles;
// TestAssignZeroAllocs holds it allocation-free over grown storage.
func (s *Set) Assign(src Set) {
	if s.cow {
		s.runs = nil
		s.cow = false
	}
	s.runs = append(s.runs[:0], src.runs...)
}

// materialize gives s private run storage; every mutator calls it before
// writing (or appending — a shared backing array must not grow in place).
func (s *Set) materialize() {
	if !s.cow {
		return
	}
	// The copy below is the documented, one-time cost of mutating after a
	// Snapshot; hot paths that reach here in steady state hold private
	// storage and skip it via the cow check above.
	runs := make([]Interval, len(s.runs))
	copy(runs, s.runs)
	s.runs = runs
	s.cow = false
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return len(s.runs) == 0 }

// Len returns the number of members.
func (s Set) Len() int {
	n := 0
	for _, r := range s.runs {
		n += int(r.Hi-r.Lo) + 1
	}
	return n
}

// RunCount returns the number of intervals in the internal coding; useful
// for asserting compactness.
func (s Set) RunCount() int { return len(s.runs) }

// Max returns the largest member, or 0 if the set is empty.
func (s Set) Max() Seq {
	if len(s.runs) == 0 {
		return 0
	}
	return s.runs[len(s.runs)-1].Hi
}

// Min returns the smallest member, or 0 if the set is empty.
func (s Set) Min() Seq {
	if len(s.runs) == 0 {
		return 0
	}
	return s.runs[0].Lo
}

// Contains reports whether q is a member.
func (s Set) Contains(q Seq) bool {
	if q == 0 {
		return false
	}
	// Find the first run with Hi >= q.
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi >= q })
	return i < len(s.runs) && s.runs[i].Lo <= q
}

// Add inserts q into the set. Adding 0 is a no-op. It reports whether the
// set changed (q was not already a member).
func (s *Set) Add(q Seq) bool {
	if q == 0 || s.Contains(q) {
		return false
	}
	s.materialize()
	// Index of the first run with Hi >= q-1, i.e. the first run that q
	// could extend or precede.
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi+1 >= q })
	if i == len(s.runs) {
		s.runs = append(s.runs, Interval{Lo: q, Hi: q})
		return true
	}
	r := &s.runs[i]
	switch {
	case r.Hi+1 == q:
		// Extend run i upward; possibly merge with run i+1.
		r.Hi = q
		if i+1 < len(s.runs) && s.runs[i+1].Lo == q+1 {
			r.Hi = s.runs[i+1].Hi
			s.runs = append(s.runs[:i+1], s.runs[i+2:]...)
		}
	case r.Lo == q+1:
		// Extend run i downward. No merge possible with i-1: its Hi+1 < q
		// held in the search, so runs[i-1].Hi+1 < q means not adjacent.
		r.Lo = q
	case r.Lo > q+1:
		// Standalone run before run i.
		s.runs = append(s.runs, Interval{})
		copy(s.runs[i+1:], s.runs[i:])
		s.runs[i] = Interval{Lo: q, Hi: q}
	default:
		// r.Lo <= q <= r.Hi would mean Contains(q); unreachable.
		panic("seqset: Add invariant violation")
	}
	return true
}

// AddRange inserts every member of [lo, hi]. It panics on an invalid
// range (lo == 0 or lo > hi). The cost is O(log r + k) in the run count
// r and absorbed runs k, never O(hi−lo): the wire decoder feeds
// attacker-controlled intervals through here, and a frame advertising an
// enormous range must not stall it.
func (s *Set) AddRange(lo, hi Seq) {
	if lo == 0 || lo > hi {
		panic(fmt.Sprintf("seqset: invalid range [%d,%d]", lo, hi))
	}
	s.materialize()
	// First run that [lo, hi] can touch: Hi ≥ lo-1 (overlap or adjacency;
	// lo ≥ 1 keeps the subtraction safe).
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi >= lo-1 })
	if i == len(s.runs) {
		s.runs = append(s.runs, Interval{Lo: lo, Hi: hi})
		return
	}
	// Absorb every run starting at or before hi+1. A run at exactly hi+1
	// is adjacent; when hi is the maximal Seq the hi+1 comparison is
	// skipped (nothing can start beyond it anyway).
	j := i
	for j < len(s.runs) && (s.runs[j].Lo <= hi || (hi+1 != 0 && s.runs[j].Lo == hi+1)) {
		if s.runs[j].Lo < lo {
			lo = s.runs[j].Lo
		}
		if s.runs[j].Hi > hi {
			hi = s.runs[j].Hi
		}
		j++
	}
	if i == j {
		// No overlap: [lo, hi] is a standalone run before run i.
		s.runs = append(s.runs, Interval{})
		copy(s.runs[i+1:], s.runs[i:])
		s.runs[i] = Interval{Lo: lo, Hi: hi}
		return
	}
	s.runs[i] = Interval{Lo: lo, Hi: hi}
	s.runs = append(s.runs[:i+1], s.runs[j:]...)
}

// Union adds every member of other to s.
func (s *Set) Union(other Set) {
	for _, r := range other.runs {
		s.AddRange(r.Lo, r.Hi)
	}
}

// Diff returns the members of s that are not members of other, as a new
// set. It is a convenience wrapper over DiffInto; delta senders on hot
// paths call DiffInto with a reused scratch set instead, which allocates
// nothing once the scratch has grown to working size.
func (s Set) Diff(other Set) Set {
	var out Set
	s.DiffInto(&out, other)
	return out
}

// DiffInto overwrites dst with the members of s that are not members of
// other, reusing dst's run storage. It walks the two run codings in
// lockstep, so the cost is O(r_s + r_other) in run counts — independent
// of how many sequence numbers the runs span. dst must not alias s or
// other: the output is written over dst's storage while s and other are
// still being read.
// It runs once per delta INFO frame per peer; TestDiffIntoZeroAllocs
// and TestPrunedScratchZeroAllocs hold it allocation-free.
func (s Set) DiffInto(dst *Set, other Set) {
	if dst.cow {
		// dst's storage is shared with a Snapshot and must not be
		// overwritten; drop it and let append build a private array (cold:
		// only right after dst itself was snapshotted).
		dst.runs = nil
		dst.cow = false
	}
	out := dst.runs[:0]
	j := 0
	for _, r := range s.runs {
		lo := r.Lo
		for lo <= r.Hi {
			for j < len(other.runs) && other.runs[j].Hi < lo {
				j++
			}
			if j == len(other.runs) || other.runs[j].Lo > r.Hi {
				// Nothing left in other can intersect [lo, r.Hi].
				out = append(out, Interval{Lo: lo, Hi: r.Hi})
				break
			}
			o := other.runs[j]
			if o.Lo > lo {
				out = append(out, Interval{Lo: lo, Hi: o.Lo - 1})
			}
			if o.Hi >= r.Hi {
				break
			}
			lo = o.Hi + 1
		}
	}
	// The output runs inherit s's ordering, and removing members only
	// widens gaps, so the run invariants hold by construction.
	dst.runs = out
}

// ApplyDelta adds every member of delta to s via a linear in-place merge
// of the two run codings: O(r_s + r_delta), versus Union's per-run
// insertion — and no temporary storage. It is the receiving half of the
// delta INFO exchange — the sender computes DiffInto(current, lastAcked),
// the receiver applies it here. delta must not alias s's storage.
// It runs on every delta INFO frame received; TestApplyDeltaZeroAllocs
// holds it allocation-free.
func (s *Set) ApplyDelta(delta Set) {
	if len(delta.runs) == 0 {
		return
	}
	if len(s.runs) == 0 {
		s.cow = false
		s.runs = append(s.runs[:0], delta.runs...)
		return
	}
	s.materialize()
	// Grow by len(delta) slots (the appended values are placeholders the
	// backward merge overwrites), then merge the two sorted codings from
	// the back. Writing slot k while reading slot i is safe: k > i holds
	// until every delta run has been placed.
	oldLen := len(s.runs)
	s.runs = append(s.runs, delta.runs...)
	i, j, k := oldLen-1, len(delta.runs)-1, len(s.runs)-1
	for j >= 0 {
		if i >= 0 && s.runs[i].Lo > delta.runs[j].Lo {
			s.runs[k] = s.runs[i]
			i--
		} else {
			s.runs[k] = delta.runs[j]
			j--
		}
		k--
	}
	// s.runs is now sorted by Lo but may hold overlapping or adjacent
	// neighbors; coalesce in place.
	out := 0
	for idx := 0; idx < len(s.runs); idx++ {
		r := s.runs[idx]
		if out > 0 && (s.runs[out-1].Hi+1 == 0 || r.Lo <= s.runs[out-1].Hi+1) {
			// Overlapping or adjacent. (Hi+1 == 0 means the run already
			// reaches the maximal Seq and absorbs everything.)
			if r.Hi > s.runs[out-1].Hi {
				s.runs[out-1].Hi = r.Hi
			}
		} else {
			s.runs[out] = r
			out++
		}
	}
	s.runs = s.runs[:out]
}

// ContainsAll reports whether every member of other is a member of s.
// Cost is O(r_s + r_other) in run counts.
func (s Set) ContainsAll(other Set) bool {
	j := 0
	for _, o := range other.runs {
		for j < len(s.runs) && s.runs[j].Hi < o.Lo {
			j++
		}
		if j == len(s.runs) || s.runs[j].Lo > o.Lo || s.runs[j].Hi < o.Hi {
			return false
		}
	}
	return true
}

// Equal reports whether s and other have identical membership.
func (s Set) Equal(other Set) bool {
	if len(s.runs) != len(other.runs) {
		return false
	}
	for i, r := range s.runs {
		if other.runs[i] != r {
			return false
		}
	}
	return true
}

// Each calls fn on every member in ascending order. Iteration stops if fn
// returns false.
func (s Set) Each(fn func(Seq) bool) {
	for _, r := range s.runs {
		for q := r.Lo; ; q++ {
			if !fn(q) {
				return
			}
			if q == r.Hi {
				break
			}
		}
	}
}

// Slice returns the members in ascending order.
func (s Set) Slice() []Seq {
	out := make([]Seq, 0, s.Len())
	s.Each(func(q Seq) bool {
		out = append(out, q)
		return true
	})
	return out
}

// Gaps returns the sequence numbers in [1, Max()] that are missing from
// the set — the "gaps" the protocol's gap-filling machinery must repair.
// The result is empty when the set is a single run starting at 1.
func (s Set) Gaps() []Seq {
	if len(s.runs) == 0 {
		return nil
	}
	var out []Seq
	next := Seq(1)
	for _, r := range s.runs {
		for q := next; q < r.Lo; q++ {
			out = append(out, q)
		}
		next = r.Hi + 1
	}
	return out
}

// GapCount returns the number of missing sequence numbers in [1, Max()]
// without materializing them.
func (s Set) GapCount() int {
	if len(s.runs) == 0 {
		return 0
	}
	return int(s.Max()) - s.Len()
}

// Run returns the i-th interval of the run coding, 0 ≤ i < RunCount().
// Together with RunCount it lets encoders walk the runs without the
// allocation Intervals makes.
func (s Set) Run(i int) Interval { return s.runs[i] }

// Intervals returns a copy of the interval coding. Code that only reads
// the runs uses RunCount and Run, which do not allocate.
func (s Set) Intervals() []Interval {
	out := make([]Interval, len(s.runs))
	copy(out, s.runs)
	return out
}

// FromSortedRuns builds a set directly over runs, which must already be
// the canonical coding: every interval valid (Lo ≥ 1, Lo ≤ Hi), sorted
// by Lo, non-overlapping, non-adjacent — exactly what the wire encoder
// emits. It never normalizes or copies: the returned set aliases runs
// in copy-on-write mode, so mutating the set copies first, but the
// caller reusing the slice (the wire Decoder) invalidates the set's
// contents. Non-canonical input is
// rejected with an error, so the function is safe on untrusted wire
// bytes produced by a conforming encoder.
// It builds the INFO set of every frame the wire decoder parses and
// allocates nothing; internal/wire's TestDecoderZeroAllocs holds that.
func FromSortedRuns(runs []Interval) (Set, error) {
	for i, r := range runs {
		if r.Lo == 0 || r.Lo > r.Hi {
			return Set{}, fmt.Errorf("seqset: invalid interval [%d,%d]", r.Lo, r.Hi)
		}
		// Hi+1 == 0 means the previous run reaches the maximal Seq:
		// nothing can legally follow it.
		if i > 0 && (runs[i-1].Hi+1 == 0 || runs[i-1].Hi+1 >= r.Lo) {
			return Set{}, fmt.Errorf("seqset: intervals [%d,%d],[%d,%d] out of order, overlapping, or adjacent",
				runs[i-1].Lo, runs[i-1].Hi, r.Lo, r.Hi)
		}
	}
	if len(runs) == 0 {
		return Set{}, nil
	}
	return Set{runs: runs, cow: true}, nil
}

// Prune removes all members ≤ upTo. The paper (§6) notes INFO sets can be
// pruned of prefixes known to be globally delivered.
func (s *Set) Prune(upTo Seq) {
	if upTo == 0 || len(s.runs) == 0 || s.runs[0].Lo > upTo {
		return
	}
	s.materialize()
	i := 0
	for i < len(s.runs) && s.runs[i].Hi <= upTo {
		i++
	}
	// Shift down, not s.runs[i:]: a set that is pruned again and again (a
	// reused DiffInto target, a long-lived INFO) keeps its capacity.
	s.runs = s.runs[:copy(s.runs, s.runs[i:])]
	if len(s.runs) > 0 && s.runs[0].Lo <= upTo {
		s.runs[0].Lo = upTo + 1
	}
}

// String renders the set compactly, e.g. "{1-5,8,10-12}".
func (s Set) String() string {
	if len(s.runs) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.runs {
		if i > 0 {
			b.WriteByte(',')
		}
		if r.Lo == r.Hi {
			fmt.Fprintf(&b, "%d", r.Lo)
		} else {
			fmt.Fprintf(&b, "%d-%d", r.Lo, r.Hi)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// check validates internal invariants; used by tests.
func (s Set) check() error {
	for i, r := range s.runs {
		if r.Lo == 0 || r.Lo > r.Hi {
			return fmt.Errorf("run %d invalid: [%d,%d]", i, r.Lo, r.Hi)
		}
		if i > 0 && s.runs[i-1].Hi+1 >= r.Lo {
			return fmt.Errorf("runs %d,%d overlap or adjacent: [%d,%d],[%d,%d]",
				i-1, i, s.runs[i-1].Lo, s.runs[i-1].Hi, r.Lo, r.Hi)
		}
	}
	return nil
}
