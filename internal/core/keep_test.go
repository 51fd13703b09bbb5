package core

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"rbcast/internal/seqset"
)

// deliveredEnv keeps the slice each Deliver was handed.
type deliveredEnv struct{ got map[seqset.Seq][]byte }

func (deliveredEnv) Send(HostID, Message) {}
func (e deliveredEnv) Deliver(seq seqset.Seq, payload []byte) {
	e.got[seq] = payload
}

// span is the address range a slice's bytes occupy.
func span(b []byte) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return lo, lo + uintptr(len(b))
}

// TestKeepProperties drives Host.keep through the source's Broadcast with
// random sizes — empty, tiny, around the own-allocation threshold, exactly
// a whole chunk, larger than any chunk — and after every one checks the
// ownership rule of DESIGN decisions 7 and 12 on everything kept so far:
// each stored slice still reads as the bytes it was given, no two share a
// byte, none has spare capacity for an append to run into its neighbour,
// and the store holds the very slice Deliver was handed.
func TestKeepProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sizes := []int{0, 1, 0, 64, ownAlloc - 1, ownAlloc, ownAlloc + 1, maxChunk, maxChunk + 1, 3 * maxChunk, 0}
	for len(sizes) < 400 {
		switch rng.Intn(10) {
		case 0:
			sizes = append(sizes, 0)
		case 1:
			sizes = append(sizes, ownAlloc-64+rng.Intn(128))
		default:
			sizes = append(sizes, rng.Intn(700))
		}
	}
	env := deliveredEnv{got: map[seqset.Seq][]byte{}}
	h, err := NewHost(Config{ID: 1, Source: 1, Peers: []HostID{1, 2, 3}, Params: DefaultParams()}, env)
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	var inputs, kept [][]byte
	for _, size := range sizes {
		in := make([]byte, size)
		rng.Read(in)
		want := bytes.Clone(in)
		seq := h.Broadcast(0, in)
		clear(in) // the caller may reuse its buffer at once
		stored, ok := h.store.Get(seq)
		if !ok {
			t.Fatalf("seq %d (%d bytes) is not in the store", seq, size)
		}
		delivered, ok := env.got[seq]
		if !ok || len(delivered) != len(stored) || unsafe.SliceData(delivered) != unsafe.SliceData(stored) {
			t.Fatalf("seq %d: Deliver saw %p+%d, the store holds %p+%d", seq, delivered, len(delivered), stored, len(stored))
		}
		if cap(stored) != len(stored) {
			t.Fatalf("seq %d: stored slice has len %d, cap %d", seq, len(stored), cap(stored))
		}
		lo, hi := span(stored)
		for k, earlier := range kept {
			if elo, ehi := span(earlier); lo < ehi && elo < hi {
				t.Fatalf("seq %d (%d bytes) overlaps seq %d (%d bytes)", seq, size, k+1, len(earlier))
			}
		}
		inputs, kept = append(inputs, want), append(kept, stored)
		for k := range kept {
			if !bytes.Equal(kept[k], inputs[k]) {
				t.Fatalf("after seq %d, seq %d no longer reads as what was broadcast", seq, k+1)
			}
		}
	}
}
