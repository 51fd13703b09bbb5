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

// sharingEnv is deliveredEnv declaring SharedPayloads.
type sharingEnv struct{ deliveredEnv }

func (sharingEnv) SharedPayloads() {}

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
// and the store holds the very slice Deliver was handed. It then feeds the
// same sizes in as data from the parent, as sync-response parts and as an
// echo round's pending payload, each a slice of one arena with capacity to
// spare. It does both on a plain Env and on one declaring SharedPayloads:
// Broadcast copies on either, since its caller clears the buffer at once;
// an inbound payload is copied on the plain Env and kept as the arriving
// slice, capacity cut to length, on the sharing one.
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
	for _, shared := range []bool{false, true} {
		name := "copying"
		if shared {
			name = "sharing"
		}
		t.Run(name, func(t *testing.T) {
			envOf := func() (Env, map[seqset.Seq][]byte) {
				d := deliveredEnv{got: map[seqset.Seq][]byte{}}
				if shared {
					return sharingEnv{d}, d.got
				}
				return d, d.got
			}
			env, got := envOf()
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
				delivered, ok := got[seq]
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

			// Inbound: every arriving payload is a slice of one arena, with
			// the rest of the arena as spare capacity.
			total := 0
			for _, size := range sizes {
				total += size
			}
			arena := make([]byte, total)
			rng.Read(arena)
			arriving := make([][]byte, len(sizes))
			for k, off := 0, 0; k < len(sizes); k++ {
				arriving[k] = arena[off : off+sizes[k]]
				off += sizes[k]
			}
			checkInbound := func(what string, seq seqset.Seq, in, stored []byte) {
				t.Helper()
				if !bytes.Equal(stored, in) || cap(stored) != len(stored) {
					t.Fatalf("%s seq %d: kept %d bytes, cap %d, for %d arriving bytes", what, seq, len(stored), cap(stored), len(in))
				}
				if len(in) == 0 {
					return
				}
				lo, hi := span(stored)
				ilo, ihi := span(in)
				switch {
				case shared && lo != ilo:
					t.Fatalf("%s seq %d: kept %#x+%d, not the arriving slice %#x", what, seq, lo, len(stored), ilo)
				case !shared && lo < ihi && ilo < hi:
					t.Fatalf("%s seq %d: kept %#x+%d inside the arriving slice %#x+%d", what, seq, lo, len(stored), ilo, len(in))
				}
			}

			// Data from the parent on even k, a sync response from host 3 on
			// odd k.
			env, got = envOf()
			r, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3}, Params: DefaultParams()}, env)
			if err != nil {
				t.Fatal(err)
			}
			r.Start(0)
			r.parent = r.lookup(1)
			r.catchup = &syncState{}
			for k := range sizes {
				seq, in := seqset.Seq(k+1), arriving[k]
				what := "data"
				if k%2 == 0 {
					r.HandleMessage(0, 1, false, Message{Kind: MsgData, Seq: seq, Payload: in})
				} else {
					what = "sync part"
					r.catchup.issue(&syncReq{id: seq, want: seqset.FromRange(seq, seq)})
					r.HandleMessage(0, 3, false, Message{Kind: MsgSyncResp, Seq: seq, Parts: []Message{{Kind: MsgData, Seq: seq, Payload: in, GapFill: true}}})
				}
				stored, ok := r.store.Get(seq)
				if !ok {
					t.Fatalf("%s seq %d (%d bytes) is not in the store", what, seq, len(in))
				}
				if d := got[seq]; len(d) != len(stored) || unsafe.SliceData(d) != unsafe.SliceData(stored) {
					t.Fatalf("%s seq %d: Deliver saw %p+%d, the store holds %p+%d", what, seq, d, len(d), stored, len(stored))
				}
				checkInbound(what, seq, in, stored)
			}

			// An echo round's pending payload: with four participants one
			// echo is short of every quorum, so the payload stays pending.
			p := DefaultParams()
			p.EchoReady = true
			env, _ = envOf()
			e, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4}, Params: p}, env)
			if err != nil {
				t.Fatal(err)
			}
			e.Start(0)
			e.parent = e.lookup(1)
			for k := range sizes {
				seq, in := seqset.Seq(k+1), arriving[k]
				e.HandleMessage(0, 1, false, Message{Kind: MsgData, Seq: seq, Payload: in})
				st, ok := e.echo.Get(seq)
				if !ok || !st.havePayload || e.info.Contains(seq) {
					t.Fatalf("echo seq %d is not pending", seq)
				}
				checkInbound("echo", seq, in, st.payload)
			}
		})
	}
}
