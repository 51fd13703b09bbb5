package replica_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"rbcast/internal/replica"
)

func TestBasicApplyGet(t *testing.T) {
	s := replica.NewStore()
	if _, ok := s.Get("k"); ok {
		t.Error("empty store returned a value")
	}
	if !s.Apply(replica.Update{Key: "k", Value: "v1", Stamp: 1, Origin: 1}) {
		t.Error("first apply reported no change")
	}
	if v, ok := s.Get("k"); !ok || v != "v1" {
		t.Errorf("Get = %q,%v", v, ok)
	}
	// An older write loses.
	if s.Apply(replica.Update{Key: "k", Value: "old", Stamp: 0, Origin: 9}) {
		t.Error("stale write reported a change")
	}
	if v, _ := s.Get("k"); v != "v1" {
		t.Errorf("stale write overwrote: %q", v)
	}
	// A newer write wins.
	s.Apply(replica.Update{Key: "k", Value: "v2", Stamp: 2, Origin: 1})
	if v, _ := s.Get("k"); v != "v2" {
		t.Errorf("newer write lost: %q", v)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestDeleteSemantics(t *testing.T) {
	s := replica.NewStore()
	s.Apply(replica.Update{Key: "k", Value: "v", Stamp: 1, Origin: 1})
	s.Apply(replica.Update{Key: "k", Stamp: 2, Origin: 1, Delete: true})
	if _, ok := s.Get("k"); ok {
		t.Error("deleted key still readable")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete", s.Len())
	}
	// A later write resurrects the key.
	s.Apply(replica.Update{Key: "k", Value: "back", Stamp: 3, Origin: 1})
	if v, ok := s.Get("k"); !ok || v != "back" {
		t.Errorf("resurrection failed: %q,%v", v, ok)
	}
	// An earlier write does not.
	s.Apply(replica.Update{Key: "gone", Stamp: 5, Origin: 1, Delete: true})
	s.Apply(replica.Update{Key: "gone", Value: "late", Stamp: 4, Origin: 1})
	if _, ok := s.Get("gone"); ok {
		t.Error("older write resurrected a tombstoned key")
	}
}

func TestTieBreaking(t *testing.T) {
	// Same stamp, different origins: higher origin wins everywhere.
	a := replica.Update{Key: "k", Value: "fromA", Stamp: 7, Origin: 1}
	b := replica.Update{Key: "k", Value: "fromB", Stamp: 7, Origin: 2}
	s1 := replica.NewStore()
	s1.Apply(a)
	s1.Apply(b)
	s2 := replica.NewStore()
	s2.Apply(b)
	s2.Apply(a)
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Errorf("tie-break order-dependent:\n%s\nvs\n%s", s1.Fingerprint(), s2.Fingerprint())
	}
	if v, _ := s1.Get("k"); v != "fromB" {
		t.Errorf("winner = %q, want fromB (higher origin)", v)
	}
}

func TestKeysSorted(t *testing.T) {
	s := replica.NewStore()
	for _, k := range []string{"zebra", "apple", "mango"} {
		s.Apply(replica.Update{Key: k, Value: "x", Stamp: 1, Origin: 1})
	}
	s.Apply(replica.Update{Key: "apple", Stamp: 2, Origin: 1, Delete: true})
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "mango" || keys[1] != "zebra" {
		t.Errorf("Keys = %v", keys)
	}
}

// Property: applying any permutation of any multiset of updates (with
// duplicates) converges to the same fingerprint — the commutativity,
// associativity, and idempotence the paper's application model needs.
func TestQuickConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		updates := make([]replica.Update, n)
		keys := []string{"a", "b", "c", "d"}
		for i := range updates {
			updates[i] = replica.Update{
				Key:    keys[rng.Intn(len(keys))],
				Value:  string(rune('a' + rng.Intn(26))),
				Stamp:  uint64(rng.Intn(8)), // small range → frequent ties
				Origin: uint32(rng.Intn(4)),
				Delete: rng.Intn(5) == 0,
			}
		}
		apply := func(order []int, dup bool) string {
			s := replica.NewStore()
			for _, idx := range order {
				s.Apply(updates[idx])
				if dup && rng.Intn(3) == 0 {
					s.Apply(updates[idx]) // idempotence
				}
			}
			return s.Fingerprint()
		}
		base := make([]int, n)
		for i := range base {
			base[i] = i
		}
		want := apply(base, false)
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(n)
			if apply(perm, trial%2 == 0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentApplyAndRead: the Store is documented safe for
// concurrent use, and the runtimes Apply from their delivery callbacks
// while readers poll. Four writers race every key while two readers walk
// the whole read API; under -race a missing lock is a failure here. The
// highest origin wins every key, and every Apply is counted.
func TestStoreConcurrentApplyAndRead(t *testing.T) {
	const writers, keys = 4, 64
	s := replica.NewStore()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				s.Apply(replica.Update{Key: fmt.Sprint("k", k), Value: fmt.Sprint("w", w), Stamp: 1, Origin: uint32(w)})
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				s.Get(fmt.Sprint("k", k))
				s.Len()
				s.Rows()
				s.Fingerprint()
			}
		}()
	}
	wg.Wait()

	if s.Len() != keys || s.Applied() != writers*keys {
		t.Errorf("Len = %d, Applied = %d, want %d and %d", s.Len(), s.Applied(), keys, writers*keys)
	}
	want := fmt.Sprint("w", writers-1)
	for k := 0; k < keys; k++ {
		if v, ok := s.Get(fmt.Sprint("k", k)); !ok || v != want {
			t.Errorf("k%d = %q,%v, want %q from the highest origin", k, v, ok, want)
		}
	}
}

func TestUpdateCodecRoundTrip(t *testing.T) {
	f := func(key, value string, stamp uint64, origin uint32, del bool) bool {
		if len(key) > replica.MaxKeyLen || len(value) > replica.MaxValueLen {
			return true // out of scope
		}
		u := replica.Update{Key: key, Value: value, Stamp: stamp, Origin: origin, Delete: del}
		data, err := replica.EncodeUpdate(u)
		if err != nil {
			return false
		}
		got, err := replica.DecodeUpdate(data)
		return err == nil && got == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateCodecRejectsGarbage(t *testing.T) {
	good, err := replica.EncodeUpdate(replica.Update{Key: "k", Value: "v", Stamp: 1, Origin: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		{},
		good[:5],
		good[:len(good)-1],
		append(append([]byte{}, good...), 0xFF),
	}
	for i, data := range cases {
		if _, err := replica.DecodeUpdate(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Declared lengths beyond limits are refused without allocation.
	huge := append([]byte{}, good...)
	huge[13], huge[14], huge[15], huge[16] = 0xFF, 0xFF, 0xFF, 0xFF // key length
	if _, err := replica.DecodeUpdate(huge); err == nil {
		t.Error("huge declared key length accepted")
	}
}

func TestUpdateCodecRejectsOversized(t *testing.T) {
	if _, err := replica.EncodeUpdate(replica.Update{
		Key: string(make([]byte, replica.MaxKeyLen+1)),
	}); err == nil {
		t.Error("oversized key accepted")
	}
	if _, err := replica.EncodeUpdate(replica.Update{
		Key: "k", Value: string(make([]byte, replica.MaxValueLen+1)),
	}); err == nil {
		t.Error("oversized value accepted")
	}
}
