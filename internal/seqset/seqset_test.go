package seqset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustCheck(t *testing.T, s Set) {
	t.Helper()
	if err := s.check(); err != nil {
		t.Fatalf("invariant violated: %v (set %v)", err, s)
	}
}

func TestZeroValueEmpty(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Errorf("zero Set not empty: %v", s)
	}
	if s.Contains(1) {
		t.Error("empty set contains 1")
	}
	if s.String() != "{}" {
		t.Errorf("String() = %q, want {}", s.String())
	}
}

func TestAddBasic(t *testing.T) {
	var s Set
	for _, q := range []Seq{5, 3, 7, 4, 1} {
		if !s.Add(q) {
			t.Errorf("Add(%d) = false, want true", q)
		}
		mustCheck(t, s)
	}
	if s.Add(3) {
		t.Error("re-Add(3) = true, want false")
	}
	if s.Add(0) {
		t.Error("Add(0) = true, want false")
	}
	want := []Seq{1, 3, 4, 5, 7}
	if got := s.Slice(); !reflect.DeepEqual(got, want) {
		t.Errorf("Slice() = %v, want %v", got, want)
	}
	if s.RunCount() != 3 { // {1},{3-5},{7}
		t.Errorf("RunCount() = %d, want 3", s.RunCount())
	}
}

func TestAddMergesRuns(t *testing.T) {
	var s Set
	s.Add(1)
	s.Add(3)
	mustCheck(t, s)
	if s.RunCount() != 2 {
		t.Fatalf("RunCount = %d, want 2", s.RunCount())
	}
	s.Add(2) // bridges {1} and {3}
	mustCheck(t, s)
	if s.RunCount() != 1 {
		t.Errorf("RunCount after bridge = %d, want 1", s.RunCount())
	}
	if s.String() != "{1-3}" {
		t.Errorf("String() = %q, want {1-3}", s.String())
	}
}

func TestAddExtendDown(t *testing.T) {
	var s Set
	s.AddRange(5, 8)
	s.Add(4)
	mustCheck(t, s)
	if s.String() != "{4-8}" {
		t.Errorf("String() = %q, want {4-8}", s.String())
	}
}

func TestContains(t *testing.T) {
	s := FromSlice([]Seq{1, 2, 3, 10, 11, 20})
	for _, q := range []Seq{1, 2, 3, 10, 11, 20} {
		if !s.Contains(q) {
			t.Errorf("Contains(%d) = false", q)
		}
	}
	for _, q := range []Seq{0, 4, 9, 12, 19, 21, 1000} {
		if s.Contains(q) {
			t.Errorf("Contains(%d) = true", q)
		}
	}
}

func TestFromRange(t *testing.T) {
	s := FromRange(3, 6)
	if got := s.Slice(); !reflect.DeepEqual(got, []Seq{3, 4, 5, 6}) {
		t.Errorf("FromRange(3,6) = %v", got)
	}
	for _, bad := range [][2]Seq{{0, 5}, {6, 3}} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromRange(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			FromRange(bad[0], bad[1])
		}()
	}
}

func TestUnionDiff(t *testing.T) {
	a := FromSlice([]Seq{1, 2, 5, 6})
	b := FromSlice([]Seq{2, 3, 6, 9})
	u := a.Clone()
	u.Union(b)
	mustCheck(t, u)
	if got := u.Slice(); !reflect.DeepEqual(got, []Seq{1, 2, 3, 5, 6, 9}) {
		t.Errorf("Union = %v", got)
	}
	d := a.Diff(b)
	mustCheck(t, d)
	if got := d.Slice(); !reflect.DeepEqual(got, []Seq{1, 5}) {
		t.Errorf("Diff = %v", got)
	}
	// Diff with empty set is identity.
	if !a.Diff(Set{}).Equal(a) {
		t.Error("Diff(empty) != identity")
	}
	// Diff of a set with itself is empty.
	if !a.Diff(a).Empty() {
		t.Error("Diff(self) not empty")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice([]Seq{1, 2, 3})
	b := FromRange(1, 3)
	if !a.Equal(b) {
		t.Error("equal sets reported unequal")
	}
	b.Add(5)
	if a.Equal(b) {
		t.Error("unequal sets reported equal")
	}
}

func TestGaps(t *testing.T) {
	tests := []struct {
		name string
		in   []Seq
		want []Seq
	}{
		{"empty", nil, nil},
		{"contiguous from 1", []Seq{1, 2, 3}, nil},
		{"missing prefix", []Seq{3, 4}, []Seq{1, 2}},
		{"interior gaps", []Seq{1, 4, 6}, []Seq{2, 3, 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := FromSlice(tt.in)
			if got := s.Gaps(); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Gaps() = %v, want %v", got, tt.want)
			}
			if got, want := s.GapCount(), len(tt.want); got != want {
				t.Errorf("GapCount() = %d, want %d", got, want)
			}
		})
	}
}

func TestPrune(t *testing.T) {
	s := FromSlice([]Seq{1, 2, 3, 7, 8, 12})
	s.Prune(7)
	mustCheck(t, s)
	if got := s.Slice(); !reflect.DeepEqual(got, []Seq{8, 12}) {
		t.Errorf("after Prune(7): %v", got)
	}
	s.Prune(0) // no-op
	if got := s.Slice(); !reflect.DeepEqual(got, []Seq{8, 12}) {
		t.Errorf("after Prune(0): %v", got)
	}
	s.Prune(100)
	if !s.Empty() {
		t.Errorf("after Prune(100): %v, want empty", s)
	}
}

func TestPruneMidRun(t *testing.T) {
	s := FromRange(1, 10)
	s.Prune(4)
	mustCheck(t, s)
	if s.String() != "{5-10}" {
		t.Errorf("after Prune(4): %v", s)
	}
}

func TestIntervalsRoundTrip(t *testing.T) {
	s := FromSlice([]Seq{1, 2, 9, 11, 12, 13})
	got, err := FromSortedRuns(s.Intervals())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip %v != %v", got, s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRange(1, 5)
	b := a.Clone()
	b.Add(100)
	if a.Contains(100) {
		t.Error("mutating clone affected original")
	}
}

func TestEachEarlyStop(t *testing.T) {
	s := FromRange(1, 100)
	n := 0
	s.Each(func(Seq) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("Each visited %d, want 5", n)
	}
}

func TestOrdering(t *testing.T) {
	empty := Set{}
	low := FromRange(1, 3)
	highA := FromSlice([]Seq{9})
	highB := FromSlice([]Seq{1, 9})
	if !Less(empty, low) || Less(low, empty) {
		t.Error("empty < non-empty ordering wrong")
	}
	if !Similar(empty, Set{}) {
		t.Error("empty ≃ empty wrong")
	}
	if !Less(low, highA) {
		t.Error("Less({1-3},{9}) = false")
	}
	if !Similar(highA, highB) {
		t.Error("Similar({9},{1,9}) = false — ordering must use max only")
	}
	if !LessOrSimilar(highA, highB) || !LessOrSimilar(low, highA) {
		t.Error("LessOrSimilar wrong")
	}
	if LessOrSimilar(highA, low) {
		t.Error("LessOrSimilar({9},{1-3}) = true")
	}
}

// Property: a Set agrees with a reference map implementation under a
// random operation sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		ref := map[Seq]bool{}
		for _, op := range ops {
			q := Seq(op%200) + 1
			switch rng.Intn(3) {
			case 0:
				s.Add(q)
				ref[q] = true
			case 1:
				lo := q
				hi := lo + Seq(rng.Intn(5))
				s.AddRange(lo, hi)
				for x := lo; x <= hi; x++ {
					ref[x] = true
				}
			case 2:
				if s.Contains(q) != ref[q] {
					return false
				}
			}
			if s.check() != nil {
				return false
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for q := range ref {
			if !s.Contains(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Union is commutative and Diff obeys A = (A∖B) ∪ (A∩B).
func TestQuickUnionDiffLaws(t *testing.T) {
	gen := func(rng *rand.Rand) Set {
		var s Set
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			s.Add(Seq(rng.Intn(60)) + 1)
		}
		return s
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		ab := a.Clone()
		ab.Union(b)
		ba := b.Clone()
		ba.Union(a)
		if !ab.Equal(ba) {
			return false
		}
		// A∖B ∪ (A ∖ (A∖B)) == A
		diff := a.Diff(b)
		inter := a.Diff(diff)
		re := diff.Clone()
		re.Union(inter)
		if !re.Equal(a) {
			return false
		}
		// Diff members are in a and not in b.
		ok := true
		diff.Each(func(q Seq) bool {
			if !a.Contains(q) || b.Contains(q) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interval round trip preserves membership; Gaps ∪ Set covers
// [1, Max] exactly.
func TestQuickGapsPartition(t *testing.T) {
	f := func(raw []uint16) bool {
		var s Set
		for _, r := range raw {
			s.Add(Seq(r%100) + 1)
		}
		rt, err := FromSortedRuns(s.Intervals())
		if err != nil || !rt.Equal(s) {
			return false
		}
		gaps := FromSlice(s.Gaps())
		total := gaps.Len() + s.Len()
		if s.Max() != 0 && total != int(s.Max()) {
			return false
		}
		// Gaps and members are disjoint.
		disjoint := true
		gaps.Each(func(q Seq) bool {
			if s.Contains(q) {
				disjoint = false
				return false
			}
			return true
		})
		return disjoint
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddSequential(b *testing.B) {
	var s Set
	for i := 0; i < b.N; i++ {
		s.Add(Seq(i + 1))
	}
}

func BenchmarkAddScattered(b *testing.B) {
	// Scattered adds into a set of bounded size: protocol INFO sets are
	// mostly contiguous with a few holes, so steady state is a handful of
	// runs, not an ever-growing fragmentation. Rebuild periodically to
	// keep the measurement at that steady state.
	rng := rand.New(rand.NewSource(7))
	var s Set
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			s = Set{}
		}
		s.Add(Seq(rng.Intn(1<<14)) + 1)
	}
}

func BenchmarkDiffLargeContiguous(b *testing.B) {
	a := FromRange(1, 10000)
	c := FromRange(1, 9990)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Diff(c)
	}
}
