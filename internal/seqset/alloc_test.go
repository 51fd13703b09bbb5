package seqset

import "testing"

// The hot-path contract: DiffInto with a reused scratch set, Assign over
// grown storage and the in-place ApplyDelta merge must not allocate in
// steady state. These tests prove the append-capacity reuse actually
// converges to zero allocs per operation; each operation's doc comment
// names the test that holds it.

func gappySet() Set {
	s := FromRange(1, 400)
	s.AddRange(410, 600)
	s.AddRange(650, 651)
	s.AddRange(700, 900)
	return s
}

func TestDiffIntoZeroAllocs(t *testing.T) {
	a := gappySet()
	b := FromRange(1, 380)
	b.AddRange(450, 500)
	var scratch Set
	allocs := testing.AllocsPerRun(200, func() {
		a.DiffInto(&scratch, b)
	})
	if allocs != 0 {
		t.Errorf("DiffInto with reused scratch: %.1f allocs/op, want 0", allocs)
	}
	if want := a.Diff(b); !scratch.Equal(want) {
		t.Errorf("DiffInto = %v, Diff = %v", scratch, want)
	}
}

// TestAssignZeroAllocs: a keeper that has grown to working size takes a
// larger and a smaller set, a copy-on-write one and one over a decoder's
// buffer, without allocating.
func TestAssignZeroAllocs(t *testing.T) {
	big, small := gappySet(), FromRange(3, 5)
	shared := gappySet()
	shared.Snapshot()
	decoded, err := FromSortedRuns([]Interval{{Lo: 2, Hi: 4}, {Lo: 9, Hi: 9}})
	if err != nil {
		t.Fatal(err)
	}
	var keeper Set
	keeper.Assign(big)
	allocs := testing.AllocsPerRun(200, func() {
		keeper.Assign(small)
		keeper.Assign(shared)
		keeper.Assign(decoded)
		keeper.Assign(big)
	})
	if allocs != 0 {
		t.Errorf("Assign over grown storage: %.1f allocs/op, want 0", allocs)
	}
	if !keeper.Equal(big) {
		t.Errorf("Assign = %v, want %v", keeper, big)
	}
}

// TestPrunedScratchZeroAllocs: a DiffInto target that is pruned after
// every use keeps its capacity — Prune shifts the surviving runs down
// rather than stepping the slice past the dropped ones.
func TestPrunedScratchZeroAllocs(t *testing.T) {
	a, b := gappySet(), FromRange(405, 660)
	var scratch Set
	a.DiffInto(&scratch, b)
	allocs := testing.AllocsPerRun(200, func() {
		a.DiffInto(&scratch, b)
		scratch.Prune(400)
	})
	if allocs != 0 {
		t.Errorf("DiffInto + Prune with reused scratch: %.1f allocs/op, want 0", allocs)
	}
	if want := FromRange(700, 900); !scratch.Equal(want) {
		t.Errorf("pruned difference = %v, want %v", scratch, want)
	}
}

func TestApplyDeltaZeroAllocs(t *testing.T) {
	s := gappySet()
	delta := FromRange(380, 420)
	delta.AddRange(630, 660)
	// Warm to the merged fixpoint first: after one apply the delta is a
	// subset, so the measured runs exercise the full merge + coalesce
	// machinery with stable storage.
	s.ApplyDelta(delta)
	allocs := testing.AllocsPerRun(200, func() {
		s.ApplyDelta(delta)
	})
	if allocs != 0 {
		t.Errorf("ApplyDelta in steady state: %.1f allocs/op, want 0", allocs)
	}
	want := gappySet()
	want.Union(delta)
	if !s.Equal(want) {
		t.Errorf("ApplyDelta = %v, want %v", s, want)
	}
	if err := s.check(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestApplyDeltaInterleaved exercises the in-place backward merge with
// runs that genuinely interleave (neither side is a prefix or suffix),
// comparing against the Union reference.
func TestApplyDeltaInterleaved(t *testing.T) {
	s := FromSlice([]Seq{1, 5, 9, 13, 17})
	delta := FromSlice([]Seq{3, 7, 11, 15, 19})
	want := s.Clone()
	want.Union(delta)
	s.ApplyDelta(delta)
	if !s.Equal(want) {
		t.Errorf("ApplyDelta = %v, want %v", s, want)
	}
	if err := s.check(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestDiffIntoCowDst: a dst snapshotted elsewhere must not have its
// shared storage overwritten.
func TestDiffIntoCowDst(t *testing.T) {
	var dst Set
	dst.AddRange(1, 10)
	snap := dst.Snapshot()
	a := FromRange(1, 6)
	a.DiffInto(&dst, FromRange(1, 3))
	if !snap.Equal(FromRange(1, 10)) {
		t.Errorf("snapshot corrupted by DiffInto: %v", snap)
	}
	if !dst.Equal(FromRange(4, 6)) {
		t.Errorf("DiffInto into cow dst = %v, want {4-6}", dst)
	}
}
