package node

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"rbcast/internal/allocs"
	"rbcast/internal/core"
	"rbcast/internal/multi"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

// TestBroadcastRoundTripAllocs: a warm Driver.Broadcast — the rendezvous
// with the node goroutine, core.Host.Broadcast, the encode of the data
// frame for one child, the hand-off to the transport — makes only what
// the host itself makes for storage: a payload chunk and a doubling of
// the store's ring now and then, well under one allocation per twenty
// broadcasts.
func TestBroadcastRoundTripAllocs(t *testing.T) {
	params := fastParams()
	params.TickInterval = time.Hour // the node goroutine's periodic sends would be counted too
	d, err := Start(Config{
		Bus: multi.Config{ID: 1, Peers: []core.HostID{1, 2}, Sources: []core.HostID{1}, Params: params},
	}, &pipe{}) // unconnected: it releases what it is sent
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	// Host 2 names host 1 as its parent, so every broadcast is sent once.
	env, err := EncodeEnvelope(1, wire.Frame{From: 2, Message: core.Message{Kind: core.MsgInfo, Parent: 1}})
	if err != nil {
		t.Fatal(err)
	}
	d.Offer(env, false)
	var children []core.HostID
	for len(children) == 0 {
		if err := d.Inspect(1, func(h *core.Host) { children = h.Children() }); err != nil {
			t.Fatal(err)
		}
	}

	const batch = 1000
	payload := make([]byte, 64)
	sent0 := d.Stats().Sent
	perBatch := testing.AllocsPerRun(1, func() {
		for i := 0; i < batch; i++ {
			if _, err := d.Broadcast(payload); err != nil {
				t.Fatal(err)
			}
		}
	})
	// AllocsPerRun runs the batch once to warm up and once to measure.
	if got := d.Stats().Sent - sent0; got != 2*batch {
		t.Fatalf("%d envelopes sent over two batches of %d broadcasts to one child", got, batch)
	}
	t.Logf("%v allocations per %d warm broadcasts", perBatch, batch)
	if perBatch/batch >= 0.05 {
		t.Errorf("a warm Broadcast round trip allocates %.3f times, want < 0.05", perBatch/batch)
	}
}

// TestCommandsSurviveStop: eight goroutines call Broadcast and Inspect
// while Stop fires. Commands are reused, so the failure to fear is a
// caller reading a command the node goroutine is answering for someone
// else. Every Broadcast that returns nil must return the sequence number
// its own payload was delivered under, every Inspect that returns nil
// must have run its own function once, and the only error is ErrStopped.
func TestCommandsSurviveStop(t *testing.T) {
	const callers, rounds = 8, 40
	for round := 0; round < rounds; round++ {
		// The source delivers to itself inside Broadcast, on the node
		// goroutine: bySeq is that goroutine's until Stop has returned.
		bySeq := map[seqset.Seq]uint64{}
		d, err := Start(Config{
			Bus: multi.Config{ID: 1, Peers: []core.HostID{1, 2}, Sources: []core.HostID{1}, Params: fastParams()},
			OnDeliver: func(_ core.HostID, seq seqset.Seq, payload []byte) {
				bySeq[seq] = binary.BigEndian.Uint64(payload)
			},
		}, &pipe{})
		if err != nil {
			t.Fatal(err)
		}
		type claim struct {
			seq seqset.Seq
			tag uint64
		}
		claims := make([][]claim, callers)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := make([]byte, 8)
				for i := uint64(0); ; i++ {
					tag := uint64(g)<<32 | i
					binary.BigEndian.PutUint64(payload, tag)
					seq, err := d.Broadcast(payload)
					if err == nil {
						claims[g] = append(claims[g], claim{seq, tag})
						ran := 0
						err = d.Inspect(1, func(*core.Host) { ran++ })
						if err == nil && ran != 1 {
							t.Errorf("caller %d: Inspect returned nil with its function run %d times", g, ran)
						}
					}
					if err != nil {
						if !errors.Is(err, ErrStopped) {
							t.Errorf("caller %d: %v", g, err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		d.Stop()
		wg.Wait()
		seen := map[seqset.Seq]bool{}
		for g, cs := range claims {
			for _, c := range cs {
				if seen[c.seq] {
					t.Errorf("round %d: sequence number %d returned to two callers", round, c.seq)
				}
				seen[c.seq] = true
				if got, ok := bySeq[c.seq]; !ok || got != c.tag {
					t.Errorf("round %d: caller %d was told %d for payload %#x, but %d carried %#x (delivered: %v)",
						round, g, c.seq, c.tag, c.seq, got, ok)
				}
			}
		}
	}
}

// TestFreeListsSurviveGC: envelopes and commands come from free lists
// that a garbage collection does not empty. After two collections (a
// sync.Pool keeps its items through one, in its victim cache) taking and
// releasing an envelope or a command allocates nothing.
func TestFreeListsSurviveGC(t *testing.T) {
	cycle := func() {
		NewEnvelope().Release()
		newCommand().release()
	}
	if n := allocs.Min(10, 2, func() func() { cycle(); return cycle }); n != 0 {
		t.Errorf("an envelope and a command cycle after two collections allocated %d times in the best of 10 trials, want 0", n)
	}
}

// TestEnvelopeBurstsCarveSlabs: an in-flight peak beyond the free list
// is met by carving. 3 000 envelopes taken and released once fill the
// list; taking 3 000 again then misses 1 976 times, and those misses cost
// two allocations per envelopeChunk envelopes, not two each. A carved
// envelope is its own: one that outgrows its share moves, and the
// envelopes beside it keep their bytes.
func TestEnvelopeBurstsCarveSlabs(t *testing.T) {
	const burst = 3000
	held := make([]*Envelope, burst)
	round := func() {
		for i := range held {
			held[i] = NewEnvelope()
		}
		for _, e := range held {
			e.Release()
		}
	}
	// Each trial's first round fills the list; its second is counted.
	got := allocs.Min(3, 1, func() func() { round(); return round })
	misses := burst - freeEnvelopes
	if limit := 2 * ((misses + envelopeChunk - 1) / envelopeChunk); got > uint64(limit) {
		t.Errorf("a second burst of %d envelopes allocated %d times, want at most %d", burst, got, limit)
	}

	for i := range held {
		held[i] = NewEnvelope()
		for len(*held[i]) < envelopeSize {
			*held[i] = append(*held[i], byte(i))
		}
	}
	for i := 0; i < burst; i += 2 {
		*held[i] = append(*held[i], 0xff) // past the share
	}
	for i, e := range held {
		for j, b := range *e {
			if j < envelopeSize && b != byte(i) {
				t.Fatalf("envelope %d byte %d is %#x, want %#x: a neighbour wrote into it", i, j, b, byte(i))
			}
		}
	}
	for _, e := range held {
		e.Release()
	}
}
