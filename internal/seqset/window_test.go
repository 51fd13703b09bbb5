package seqset

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// windowModel is the reference a Window must agree with: a plain map and
// a floor. A Put at or below the floor is dropped; Release deletes the
// keys it covers and raises the floor.
type windowModel struct {
	floor Seq
	has   map[Seq]int
}

func (m *windowModel) put(q Seq, v int) {
	if q > m.floor {
		m.has[q] = v
	}
}

func (m *windowModel) release(upTo Seq) {
	if upTo <= m.floor {
		return
	}
	m.floor = upTo
	for q := range m.has {
		if q <= upTo {
			delete(m.has, q)
		}
	}
}

// checkWindowProgram runs one byte-coded operation sequence against a
// Window and the model, comparing everything observable after every
// step. Two bytes make an operation: the first picks it, the second is
// its argument. Keys cluster just above the floor so that out-of-order
// puts, overwrites and releases collide; the outlier operations reach
// past maxWindowGap and out to the far end of the key space, and the run
// operation takes the dense range past the page cap and releases it
// across page boundaries.
func checkWindowProgram(t *testing.T, prog []byte) {
	t.Helper()
	const nearSpan = 96
	var w Window[int]
	m := &windowModel{has: make(map[Seq]int)}
	var top Seq      // highest near key ever put: what the dense range may cover
	var outliers int // far keys put so far, each of which may cost a spill entry only
	runs := 0        // run operations so far
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%9, Seq(prog[step+1])
		probe := func(q Seq) {
			got, ok := w.Get(q)
			want, has := m.has[q]
			if ok != has || got != want {
				t.Fatalf("step %d (op %d): Get(%d) = %d,%v; model %d,%v (floor %d)", step, op, q, got, ok, want, has, m.floor)
			}
		}
		var q Seq
		switch op {
		case 0, 1, 2: // near the floor: in order, out of order, overwriting
			q = m.floor + 1 + arg%nearSpan
			top = max(top, q)
		case 3: // at or below the floor: dropped
			q = m.floor - min(m.floor, arg%4)
		case 4: // just past the gap bound, from wherever the top is
			q = max(top, m.floor) + maxWindowGap + 1 + arg
			outliers++
		case 5: // the far end of the key space
			q = 1<<62 + arg
			outliers++
		case 6: // release a little, sometimes past everything near
			upTo := m.floor + arg%48
			if arg >= 250 {
				upTo = max(top, m.floor) + maxWindowGap + 300 // past the near outliers too
			}
			w.Release(upTo)
			m.release(upTo)
		case 7: // release nothing
			w.Release(m.floor - min(m.floor, arg))
		case 8: // a run past the page cap, then a release that keeps arg keys
			from := max(top, m.floor)
			top = from + pageSlots/4 + 8*arg
			for q := from + 1; q <= top; q++ {
				w.Put(q, step)
				m.put(q, step)
			}
			for q := m.floor + 1; q <= from; q++ {
				probe(q) // what the run found, before the release drops it
			}
			w.Release(top - arg)
			m.release(top - arg)
			runs++
		}
		if op < 6 {
			capBefore := w.Cap()
			w.Put(q, step)
			m.put(q, step)
			if op >= 3 && w.Cap() != capBefore {
				t.Fatalf("step %d: Put(%d) changed Cap %d -> %d; a dropped or far key must not size the dense range",
					step, q, capBefore, w.Cap())
			}
		}

		if got, want := w.Len(), len(m.has); got != want {
			t.Fatalf("step %d (op %d): Len = %d, model has %d", step, op, got, want)
		}
		// Near keys stay within nearSpan of the floor, so the dense range
		// never needs more than that, whatever the outliers were (doubling
		// may overshoot once). A run and the keys it follows span fewer
		// than 2 900 keys, so at most three pages at once, and the ring
		// the window outgrew, kept as the page after the range's, may be
		// a fourth; freed pages are taken before any is allocated.
		limit := 2 * nearSpan
		if runs > 0 {
			limit = 4 * pageSlots
		}
		if w.Cap() > limit {
			t.Fatalf("step %d: Cap = %d after %d outliers and %d runs", step, w.Cap(), outliers, runs)
		}
		for q := m.floor - min(m.floor, 3); q <= max(top, m.floor)+3; q++ {
			probe(q) // below the floor, through the near range, above the top
		}
		for q := range m.has {
			probe(q)
		}
		probe(0)
		probe(1<<62 + arg)
		probe(^Seq(0))

		want := make([]Seq, 0, len(m.has))
		for q := range m.has {
			want = append(want, q)
		}
		slices.Sort(want)
		got := make([]Seq, 0, len(want))
		w.Each(func(q Seq, v int) bool {
			if v != m.has[q] {
				t.Fatalf("step %d: Each(%d) carries %d, model %d", step, q, v, m.has[q])
			}
			got = append(got, q)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d): Each visited %v, model (ascending) %v", step, op, got, want)
		}
		if len(want) > 1 {
			n := 0
			w.Each(func(Seq, int) bool { n++; return false })
			if n != 1 {
				t.Fatalf("step %d: Each ran %d times after fn returned false", step, n)
			}
		}
	}
}

// windowSeedPrograms spell out the situations worth naming: a stream in
// order, a release past the top, an outlier the dense range later grows
// past, a release that takes the spill with it, and a ring that moves
// into pages with a key at its head, whose pages are released, reused and
// released across their boundaries.
var windowSeedPrograms = [][]byte{
	{0, 0, 0, 1, 0, 2, 0, 3, 6, 2, 0, 0, 0, 1},
	{0, 5, 0, 2, 6, 47, 0, 0, 6, 255, 0, 0},
	{0, 0, 4, 0, 0, 95, 6, 40, 0, 95, 6, 40, 0, 95, 6, 40, 0, 95, 6, 40, 0, 95, 6, 40, 0, 95, 0, 0},
	{5, 0, 5, 1, 0, 0, 6, 255, 5, 0, 6, 1, 3, 0, 7, 9},
	{0, 0, 0, 3, 8, 200, 0, 1, 6, 30, 8, 255, 6, 255, 8, 0, 8, 129, 0, 7, 6, 100, 8, 37},
}

func TestWindowSeedPrograms(t *testing.T) {
	for _, prog := range windowSeedPrograms {
		checkWindowProgram(t, prog)
	}
}

// TestWindowModelRandomized is the property test: random programs, each
// checked step by step against the map model.
func TestWindowModelRandomized(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 40
	}
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 2*(20+rng.Intn(400)))
		rng.Read(prog)
		checkWindowProgram(t, prog)
	}
}

// FuzzWindow lets the fuzzer write the program.
func FuzzWindow(f *testing.F) {
	for _, prog := range windowSeedPrograms {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024] // each step re-checks the whole window
		}
		checkWindowProgram(t, prog)
	})
}

// A zero value is a stored value: the window tells "an empty payload is
// stored" from "nothing is stored", which a nil check cannot.
func TestWindowZeroValueIsPresent(t *testing.T) {
	var w Window[[]byte]
	w.Put(3, nil)
	if v, ok := w.Get(3); !ok || v != nil {
		t.Fatalf("Get(3) = %v,%v after Put(3, nil)", v, ok)
	}
	if _, ok := w.Get(2); ok {
		t.Fatal("Get(2) reports a value nobody put")
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
}

// Release reaches the spill: a far key is dropped with everything else
// at or below the new floor, and the window is then empty at no cost in
// dense slots.
func TestWindowReleaseTakesSpill(t *testing.T) {
	var w Window[int]
	w.Put(1, 1)
	w.Put(1<<62, 2)
	w.Put(1<<62+9, 3)
	if w.Len() != 3 || w.Cap() > 8 {
		t.Fatalf("Len = %d, Cap = %d after one near and two far keys", w.Len(), w.Cap())
	}
	w.Release(1 << 62)
	if _, ok := w.Get(1 << 62); ok || w.Len() != 1 {
		t.Fatalf("after Release(1<<62): Len = %d, far key present = %v", w.Len(), ok)
	}
	if v, ok := w.Get(1<<62 + 9); !ok || v != 3 {
		t.Fatalf("Get(1<<62+9) = %d,%v; the key above the floor must survive", v, ok)
	}
	w.Put(1<<62+1, 4) // dense again, right above the new floor
	if v, ok := w.Get(1<<62 + 1); !ok || v != 4 || w.Cap() > 8 {
		t.Fatalf("Get(1<<62+1) = %d,%v, Cap = %d", v, ok, w.Cap())
	}
}

// A steady stream that is released as it goes reuses the released slots:
// the ring stops growing once it covers the unreleased span, however many
// keys pass through, and it stops allocating.
func TestWindowReleaseReclaimsSlots(t *testing.T) {
	const lag = 100
	var w Window[int]
	step := func(q Seq) {
		w.Put(q, int(q))
		if q > lag {
			w.Release(q - lag)
		}
	}
	for q := Seq(1); q <= 10_000; q++ {
		step(q)
	}
	settled := w.Cap()
	if settled > 4*lag {
		t.Fatalf("Cap = %d after 10 000 keys with %d unreleased", settled, lag)
	}
	q := Seq(10_000)
	allocs := testing.AllocsPerRun(1000, func() {
		q++
		step(q)
	})
	if allocs != 0 || w.Cap() != settled {
		t.Fatalf("steady state: %.1f allocs/op, Cap %d -> %d", allocs, settled, w.Cap())
	}
	if w.Len() != lag {
		t.Fatalf("Len = %d, want the %d unreleased keys", w.Len(), lag)
	}
}

// NewWindows carves every window's first slots out of one slab; a window
// must stay inside its share and move out when it outgrows it.
func TestNewWindowsShareOneSlab(t *testing.T) {
	ws := NewWindows[int](3, 4)
	allocs := testing.AllocsPerRun(1, func() {
		for i := range ws {
			for q := Seq(1); q <= 4; q++ {
				ws[i].Put(q, 10*i+int(q))
			}
		}
	})
	if allocs != 0 {
		t.Errorf("filling the reserved span: %.1f allocs, want 0", allocs)
	}
	ws[1].Put(5, 15) // outgrows its share: must not run into ws[2]'s
	for i := range ws {
		for q := Seq(1); q <= 4; q++ {
			if v, ok := ws[i].Get(q); !ok || v != 10*i+int(q) {
				t.Fatalf("window %d: Get(%d) = %d,%v", i, q, v, ok)
			}
		}
	}
	if v, ok := ws[1].Get(5); !ok || v != 15 {
		t.Fatalf("window 1: Get(5) = %d,%v", v, ok)
	}
	if _, ok := ws[2].Get(5); ok {
		t.Fatal("window 2 sees window 1's key 5")
	}
}

// TestWindowGrowsByPages: past the cap a window grows a page at a time
// and copies nothing, so 10⁵ keys put in order allocate little more than
// the slots they end in, plus the doubling copies below the cap. (A ring
// that doubled all the way allocated twice its final size.)
func TestWindowGrowsByPages(t *testing.T) {
	const keys = 100_000
	var w Window[int]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for q := Seq(1); q <= keys; q++ {
		w.Put(q, int(q))
	}
	runtime.ReadMemStats(&after)
	slotBytes := uint64(unsafe.Sizeof(slot[int]{}))
	var below uint64 // the rings of 8 through pageSlots/2 slots; the last ring is kept as a page
	for n := 8; n < pageSlots; n *= 2 {
		below += uint64(n) * slotBytes
	}
	limit := uint64(w.Cap())*slotBytes*11/10 + below
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("%d keys in order allocated %d bytes; Cap %d slots of %d bytes allows %d", keys, got, w.Cap(), slotBytes, limit)
	}
	if w.Len() != keys || w.Cap() < keys {
		t.Fatalf("Len = %d, Cap = %d after %d keys", w.Len(), w.Cap(), keys)
	}
	for _, q := range []Seq{1, pageSlots, pageSlots + 1, keys} {
		if v, ok := w.Get(q); !ok || v != int(q) {
			t.Errorf("Get(%d) = %d,%v", q, v, ok)
		}
	}
}
