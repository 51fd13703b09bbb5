package multi_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/multi"
	"rbcast/internal/seqset"
)

// The tests drive a set of buses through an in-memory message soup with
// loss, reordering, and duplication — per stream, the same guarantees as
// the single-source protocol must hold.

type soupMsg struct {
	from, to core.HostID
	stream   multi.StreamID
	m        core.Message
}

type world struct {
	rng       *rand.Rand
	buses     map[core.HostID]*multi.Bus
	pending   []soupMsg
	delivered map[core.HostID]map[multi.StreamID]*seqset.Set
	dups      int
	now       time.Duration
	peers     []core.HostID
	sources   []core.HostID
	sent      map[multi.StreamID]seqset.Seq
}

type worldEnv struct {
	w  *world
	id core.HostID
}

func (e worldEnv) Send(to core.HostID, stream multi.StreamID, m core.Message) {
	if len(e.w.pending) < 4000 {
		e.w.pending = append(e.w.pending, soupMsg{from: e.id, to: to, stream: stream, m: m})
	}
}

func (e worldEnv) Deliver(stream multi.StreamID, seq seqset.Seq, _ []byte) {
	per := e.w.delivered[e.id]
	s, ok := per[stream]
	if !ok {
		s = &seqset.Set{}
		per[stream] = s
	}
	if !s.Add(seq) {
		e.w.dups++
	}
}

func fastParams() core.Params {
	return core.Params{
		TickInterval:      time.Millisecond,
		AttachPeriod:      10 * time.Millisecond,
		InfoClusterPeriod: 5 * time.Millisecond,
		InfoRemotePeriod:  15 * time.Millisecond,
		InfoGlobalPeriod:  25 * time.Millisecond,
		GapClusterPeriod:  8 * time.Millisecond,
		GapRemotePeriod:   20 * time.Millisecond,
		GapGlobalPeriod:   40 * time.Millisecond,
		AttachTimeout:     12 * time.Millisecond,
		ParentTimeout:     60 * time.Millisecond,
		GapFillBatch:      32,
	}
}

func newWorld(t *testing.T, seed int64, n int, sources []core.HostID) *world {
	t.Helper()
	w := &world{
		rng:       rand.New(rand.NewSource(seed)),
		buses:     make(map[core.HostID]*multi.Bus, n),
		delivered: make(map[core.HostID]map[multi.StreamID]*seqset.Set, n),
		sources:   sources,
		sent:      make(map[multi.StreamID]seqset.Seq),
	}
	for i := 1; i <= n; i++ {
		w.peers = append(w.peers, core.HostID(i))
	}
	for _, id := range w.peers {
		w.delivered[id] = make(map[multi.StreamID]*seqset.Set)
		b, err := multi.NewBus(multi.Config{
			ID:      id,
			Peers:   w.peers,
			Sources: sources,
			Params:  fastParams(),
		}, worldEnv{w: w, id: id})
		if err != nil {
			t.Fatalf("NewBus(%d): %v", id, err)
		}
		b.Start(0)
		w.buses[id] = b
	}
	return w
}

func (w *world) step(dropProb float64) {
	switch w.rng.Intn(10) {
	case 0, 1, 2, 3, 4:
		if len(w.pending) == 0 {
			w.tick()
			return
		}
		i := w.rng.Intn(len(w.pending))
		msg := w.pending[i]
		w.pending[i] = w.pending[len(w.pending)-1]
		w.pending = w.pending[:len(w.pending)-1]
		if w.rng.Float64() < dropProb {
			return
		}
		// Single-cluster world: everything is cheap.
		w.buses[msg.to].HandleMessage(w.now, msg.from, false, msg.stream, msg.m)
		if w.rng.Float64() < 0.05 {
			w.buses[msg.to].HandleMessage(w.now, msg.from, false, msg.stream, msg.m)
		}
	case 5, 6, 7, 8:
		w.tick()
	case 9:
		src := w.sources[w.rng.Intn(len(w.sources))]
		if w.sent[src] < 30 {
			if _, err := w.buses[src].Broadcast(w.now, []byte{byte(src)}); err == nil {
				w.sent[src]++
			}
		} else {
			w.tick()
		}
	}
}

func (w *world) tick() {
	id := w.peers[w.rng.Intn(len(w.peers))]
	w.now += time.Duration(w.rng.Intn(2)) * time.Millisecond
	w.buses[id].Tick(w.now)
}

func (w *world) drain(rounds int) {
	for r := 0; r < rounds; r++ {
		for len(w.pending) > 0 {
			msg := w.pending[len(w.pending)-1]
			w.pending = w.pending[:len(w.pending)-1]
			w.buses[msg.to].HandleMessage(w.now, msg.from, false, msg.stream, msg.m)
		}
		w.now += time.Millisecond
		for _, id := range w.peers {
			w.buses[id].Tick(w.now)
		}
	}
}

func TestMultiSourceConvergence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sources := []core.HostID{1, 3, 5}
			w := newWorld(t, seed, 6, sources)
			for i := 0; i < 3000; i++ {
				w.step(0.1)
			}
			w.drain(300)
			if w.dups != 0 {
				t.Errorf("duplicate deliveries: %d", w.dups)
			}
			for _, id := range w.peers {
				for _, src := range sources {
					want := w.sent[src]
					if want == 0 {
						continue
					}
					got := w.delivered[id][src]
					if got == nil || got.Max() != want || got.GapCount() != 0 {
						t.Errorf("host %d stream %d: delivered %v, want 1..%d", id, src, got, want)
					}
					// Bus state agrees with deliveries.
					if !w.buses[id].Instance(src).Info().Equal(*got) {
						t.Errorf("host %d stream %d: INFO diverges from deliveries", id, src)
					}
				}
			}
		})
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Stream isolation: traffic on one stream never affects another
	// stream's INFO. The instances share one roster, which is fixed.
	sources := []core.HostID{1, 2}
	w := newWorld(t, 7, 3, sources)
	for _, id := range w.peers {
		if b := w.buses[id]; !b.Instance(1).SharesRoster(b.Instance(2)) {
			t.Errorf("host %d: the streams have rosters of their own", id)
		}
	}
	if _, err := w.buses[1].Broadcast(0, []byte("s1")); err != nil {
		t.Fatal(err)
	}
	w.sent[1]++
	w.drain(200)
	for _, id := range w.peers {
		if got := w.buses[id].Instance(2).Info(); !got.Empty() {
			t.Errorf("host %d stream 2 INFO = %v, want empty (stream 1 only broadcast)", id, got)
		}
		if got := w.buses[id].Instance(1).Info(); got.Max() != 1 {
			t.Errorf("host %d stream 1 INFO = %v, want {1}", id, got)
		}
	}
}

func TestBusValidation(t *testing.T) {
	env := worldEnv{w: &world{delivered: map[core.HostID]map[multi.StreamID]*seqset.Set{1: {}}}, id: 1}
	if _, err := multi.NewBus(multi.Config{ID: 1, Peers: []core.HostID{1}, Sources: nil}, env); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := multi.NewBus(multi.Config{
		ID: 1, Peers: []core.HostID{1, 2}, Sources: []core.HostID{2, 2},
	}, env); err == nil {
		t.Error("duplicate sources accepted")
	}
	if _, err := multi.NewBus(multi.Config{
		ID: 1, Peers: []core.HostID{1, 2}, Sources: []core.HostID{3},
	}, env); err == nil {
		t.Error("source outside peers accepted")
	}
	if _, err := multi.NewBus(multi.Config{ID: 1, Peers: []core.HostID{1}, Sources: []core.HostID{1}}, nil); err == nil {
		t.Error("nil env accepted")
	}
}

func TestNonSourceBroadcastFails(t *testing.T) {
	w := newWorld(t, 9, 3, []core.HostID{1})
	if _, err := w.buses[2].Broadcast(0, nil); err == nil {
		t.Error("Broadcast on non-source bus succeeded")
	}
}

func TestUnknownStreamDropped(t *testing.T) {
	w := newWorld(t, 11, 2, []core.HostID{1})
	// A message for stream 9 (unknown) must be ignored without effect.
	w.buses[2].HandleMessage(0, 1, false, 9, core.Message{Kind: core.MsgData, Seq: 1})
	if got := w.delivered[2][9]; got != nil && !got.Empty() {
		t.Error("message on unknown stream delivered")
	}
}
