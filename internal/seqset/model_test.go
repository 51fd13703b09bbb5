package seqset

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the naive reference implementation: membership as a plain
// map. Pruning deletes; a pruned number can be re-added, exactly like
// the real Set (callers needing a permanent floor keep one themselves —
// see core.Host.prunedTo). Every Set operation must agree with it.
type model struct {
	has map[Seq]bool
}

func newModel() *model { return &model{has: make(map[Seq]bool)} }

func (m *model) prune(upTo Seq) {
	for q := range m.has {
		if q <= upTo {
			delete(m.has, q)
		}
	}
}

// TestModelRandomized drives a Set and the map model through the same
// random operation sequence — adds, range adds, unions, prefix prunes,
// assignments in both directions — and demands identical observable
// behavior (membership, length, extrema, iteration order, diffs) after
// every step. The run invariant (sorted, disjoint, non-adjacent) is
// re-checked each step too.
func TestModelRandomized(t *testing.T) {
	const (
		universe = 72 // small, so operations collide often
		steps    = 4000
	)
	rng := rand.New(rand.NewSource(7))
	var s, keeper Set // keeper lives across steps, so Assign finds it in every state
	m := newModel()
	members := func(x Set) map[Seq]bool {
		out := make(map[Seq]bool)
		x.Each(func(q Seq) bool { out[q] = true; return true })
		return out
	}
	// randomRuns is a canonical run coding in a buffer of its own, as a
	// wire decoder would hold it.
	randomRuns := func() []Interval {
		var runs []Interval
		lo := Seq(1 + rng.Intn(8))
		for i, n := 0, rng.Intn(5); i < n && lo < universe; i++ {
			hi := min(lo+Seq(rng.Intn(6)), universe)
			runs = append(runs, Interval{Lo: lo, Hi: hi})
			lo = hi + 2 + Seq(rng.Intn(9))
		}
		return runs
	}

	verify := func(step int, op string) {
		t.Helper()
		if err := s.check(); err != nil {
			t.Fatalf("step %d (%s): invariant violated: %v (set %v)", step, op, err, s)
		}
		if got, want := s.Len(), len(m.has); got != want {
			t.Fatalf("step %d (%s): Len = %d, model has %d (set %v)", step, op, got, want, s)
		}
		var wantMin, wantMax Seq
		for q := range m.has {
			if wantMin == 0 || q < wantMin {
				wantMin = q
			}
			if q > wantMax {
				wantMax = q
			}
		}
		if s.Min() != wantMin || s.Max() != wantMax {
			t.Fatalf("step %d (%s): Min/Max = %d/%d, model %d/%d", step, op, s.Min(), s.Max(), wantMin, wantMax)
		}
		for q := Seq(0); q <= universe+2; q++ {
			if s.Contains(q) != m.has[q] {
				t.Fatalf("step %d (%s): Contains(%d) = %v, model %v (set %v)",
					step, op, q, s.Contains(q), m.has[q], s)
			}
		}
		// Each must visit exactly the members, ascending.
		var prev Seq
		count := 0
		s.Each(func(q Seq) bool {
			if q <= prev {
				t.Fatalf("step %d (%s): Each not ascending: %d after %d", step, op, q, prev)
			}
			if !m.has[q] {
				t.Fatalf("step %d (%s): Each visited non-member %d", step, op, q)
			}
			prev = q
			count++
			return true
		})
		if count != len(m.has) {
			t.Fatalf("step %d (%s): Each visited %d members, model has %d", step, op, count, len(m.has))
		}
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 10: // s is assigned to a keeper: equal to a clone, then independent
			var shared Set
			var buf, bufWas []Interval
			switch rng.Intn(4) {
			case 0: // the keeper's storage is shared with a snapshot
				shared = keeper.Snapshot()
			case 1: // the keeper sits over a decoder's buffer
				buf = randomRuns()
				bufWas = slices.Clone(buf)
				keeper, _ = FromSortedRuns(buf)
			case 2: // the keeper is new, over carved storage
				buf = make([]Interval, 4)
				keeper = WithStorage(buf[1:3:3])
			}
			sharedWas := shared.Clone()
			if rng.Intn(2) == 0 {
				s.Snapshot() // the source is copy-on-write
			}
			keeper.Assign(s)
			if want := s.Clone(); !keeper.Equal(want) || keeper.check() != nil {
				t.Fatalf("step %d: Assign made %v of %v", step, keeper, want)
			}
			if !shared.Equal(sharedWas) {
				t.Fatalf("step %d: Assign wrote storage shared with a snapshot: %v, was %v", step, shared, sharedWas)
			}
			if bufWas != nil && !slices.Equal(buf, bufWas) {
				t.Fatalf("step %d: Assign wrote the buffer under a FromSortedRuns receiver: %v, was %v", step, buf, bufWas)
			}
			if bufWas == nil && buf != nil && (buf[0] != Interval{} || buf[3] != Interval{}) {
				t.Fatalf("step %d: Assign wrote outside the receiver's carved storage: %v", step, buf)
			}
			keeper.Add(Seq(1 + rng.Intn(universe)))
			keeper.Prune(Seq(rng.Intn(universe / 8)))
			verify(step, "assign-from")
		case 11: // s is assigned a set: the model follows, later changes of the source never show
			var src Set
			buf := randomRuns()
			if rng.Intn(2) == 0 {
				src, _ = FromSortedRuns(buf) // over a buffer the decoder will reuse
			} else {
				src = FromSlice([]Seq{Seq(1 + rng.Intn(universe)), Seq(1 + rng.Intn(universe))})
				if rng.Intn(2) == 0 {
					src.Snapshot()
				}
			}
			var shared Set
			if rng.Intn(2) == 0 {
				shared = s.Snapshot()
			}
			sharedWas := shared.Clone()
			s.Assign(src)
			m.has = members(src)
			if !shared.Equal(sharedWas) {
				t.Fatalf("step %d: Assign wrote storage shared with a snapshot: %v, was %v", step, shared, sharedWas)
			}
			for i := range buf {
				buf[i] = Interval{Lo: universe + 1, Hi: universe + 2}
			}
			src.AddRange(1, universe)
			verify(step, "assign-to")
		case 0, 1, 2, 3: // single add (the hot path)
			q := Seq(1 + rng.Intn(universe))
			changed := s.Add(q)
			if changed != !m.has[q] {
				t.Fatalf("step %d: Add(%d) = %v, model had %v", step, q, changed, m.has[q])
			}
			m.has[q] = true
			verify(step, "add")
		case 4, 5: // range add
			lo := Seq(1 + rng.Intn(universe))
			hi := lo + Seq(rng.Intn(universe/4))
			s.AddRange(lo, hi)
			for q := lo; q <= hi; q++ {
				m.has[q] = true
			}
			verify(step, "addrange")
		case 6: // union with a random small set
			var other Set
			om := make(map[Seq]bool)
			for i, n := 0, rng.Intn(6); i < n; i++ {
				q := Seq(1 + rng.Intn(universe))
				other.Add(q)
				om[q] = true
			}
			s.Union(other)
			for q := range om {
				m.has[q] = true
			}
			verify(step, "union")
		case 7: // diff against a random set is pure: no mutation
			var other Set
			for i, n := 0, rng.Intn(8); i < n; i++ {
				other.Add(Seq(1 + rng.Intn(universe)))
			}
			d := s.Diff(other)
			if err := d.check(); err != nil {
				t.Fatalf("step %d: Diff result invalid: %v", step, err)
			}
			for q := Seq(1); q <= universe; q++ {
				want := m.has[q] && !other.Contains(q)
				if d.Contains(q) != want {
					t.Fatalf("step %d: Diff.Contains(%d) = %v, want %v", step, q, d.Contains(q), want)
				}
			}
			verify(step, "diff")
		case 8: // prefix prune (the §6 operation)
			upTo := Seq(rng.Intn(universe))
			s.Prune(upTo)
			m.prune(upTo)
			verify(step, "prune")
		case 9: // clone is detached from the original
			c := s.Clone()
			c.Add(Seq(1 + rng.Intn(universe)))
			verify(step, "clone")
		}
	}
}

// TestAddRangeLarge pins the performance contract hosts depend on when
// merging wire-supplied ranges (Union, the sync layer): inserting an
// astronomically wide interval is O(runs), not O(width). Before the
// run-splicing AddRange this test would hang for centuries on a decoded
// frame advertising [2, 2^61].
func TestAddRangeLarge(t *testing.T) {
	var s Set
	s.Add(1)
	s.Add(5)
	s.AddRange(2, 1<<61)
	mustCheck(t, s)
	if s.RunCount() != 1 {
		t.Fatalf("RunCount = %d, want 1 (runs %v)", s.RunCount(), s)
	}
	if s.Min() != 1 || s.Max() != 1<<61 {
		t.Fatalf("Min/Max = %d/%d, want 1/%d", s.Min(), s.Max(), Seq(1<<61))
	}
	if !s.Contains(1 << 60) {
		t.Error("Contains(2^60) = false inside the run")
	}
}

// TestAddRangeSplicing covers the branchy cases of the run-splicing
// insert directly: standalone before, standalone after, bridging
// several runs, extending by adjacency on both sides, and full overlap.
func TestAddRangeSplicing(t *testing.T) {
	build := func(ivs ...Interval) Set {
		s, err := FromSortedRuns(ivs)
		if err != nil {
			t.Fatalf("FromSortedRuns(%v): %v", ivs, err)
		}
		return s
	}
	cases := []struct {
		name   string
		start  Set
		lo, hi Seq
		want   string
	}{
		{"into-empty", Set{}, 5, 9, "{5-9}"},
		{"before-all", build(Interval{Lo: 10, Hi: 12}), 2, 4, "{2-4,10-12}"},
		{"after-all", build(Interval{Lo: 1, Hi: 3}), 30, 31, "{1-3,30-31}"},
		{"adjacent-below", build(Interval{Lo: 10, Hi: 12}), 5, 9, "{5-12}"},
		{"adjacent-above", build(Interval{Lo: 10, Hi: 12}), 13, 20, "{10-20}"},
		{"bridge-two", build(Interval{Lo: 1, Hi: 3}, Interval{Lo: 8, Hi: 9}), 4, 7, "{1-9}"},
		{"swallow-many", build(Interval{Lo: 2, Hi: 3}, Interval{Lo: 6, Hi: 7}, Interval{Lo: 11, Hi: 12}), 1, 20, "{1-20}"},
		{"inside-existing", build(Interval{Lo: 1, Hi: 30}), 10, 12, "{1-30}"},
		{"between-gap", build(Interval{Lo: 1, Hi: 3}, Interval{Lo: 20, Hi: 22}), 8, 10, "{1-3,8-10,20-22}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.start
			s.AddRange(tc.lo, tc.hi)
			mustCheck(t, s)
			if got := s.String(); got != tc.want {
				t.Errorf("AddRange(%d, %d) = %s, want %s", tc.lo, tc.hi, got, tc.want)
			}
		})
	}
}
