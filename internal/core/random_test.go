package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// This file drives a set of core.Host instances through an adversarial
// in-memory "message soup": every send lands in a pool from which a
// seeded scheduler delivers, duplicates, reorders, or drops messages in
// random order, interleaved with random ticks and random broadcasts.
// It checks safety invariants that must hold under ANY interleaving,
// and — once the adversary stops dropping — liveness (all hosts converge
// on the full message set).

type soupMsg struct {
	from, to core.HostID
	m        core.Message
}

type soup struct {
	rng     *rand.Rand
	pending []soupMsg
	// cheap[pair] decides the cost bit; fixed per run.
	cheap map[[2]core.HostID]bool
	// reachable toggles for partition phases.
	reachable func(a, b core.HostID) bool
	// mangle, when set, rewrites a host's outbound messages before they
	// enter the pool — the soup-level equivalent of the netsim transmit
	// seam. It lets a Byzantine phase equivocate, lie, and replay without
	// the host under test ever executing hostile code.
	mangle func(msg soupMsg) []soupMsg
}

func (s *soup) pairKey(a, b core.HostID) [2]core.HostID {
	if a > b {
		a, b = b, a
	}
	return [2]core.HostID{a, b}
}

// maxPool bounds the message soup; overflow is dropped like congestion
// loss (the protocol tolerates arbitrary loss).
const maxPool = 3000

type soupEnv struct {
	s         *soup
	id        core.HostID
	delivered *seqset.Set
	dups      *int
}

func (e soupEnv) Send(to core.HostID, m core.Message) {
	msgs := []soupMsg{{from: e.id, to: to, m: m}}
	if e.s.mangle != nil {
		msgs = e.s.mangle(msgs[0])
	}
	for _, msg := range msgs {
		if len(e.s.pending) >= maxPool {
			// Evict a random queued message.
			i := e.s.rng.Intn(len(e.s.pending))
			e.s.pending[i] = e.s.pending[len(e.s.pending)-1]
			e.s.pending = e.s.pending[:len(e.s.pending)-1]
		}
		e.s.pending = append(e.s.pending, msg)
	}
}

func (e soupEnv) Deliver(seq seqset.Seq, _ []byte) {
	if !e.delivered.Add(seq) {
		*e.dups++
	}
}

type soupWorld struct {
	s         *soup
	hosts     map[core.HostID]*core.Host
	delivered map[core.HostID]*seqset.Set
	dups      int
	now       time.Duration
	peers     []core.HostID
	source    core.HostID
	sent      seqset.Seq
}

func newSoupWorld(t *testing.T, seed int64, n int, clusters [][]core.HostID) *soupWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var peers []core.HostID
	for i := 1; i <= n; i++ {
		peers = append(peers, core.HostID(i))
	}
	s := &soup{
		rng:       rng,
		cheap:     make(map[[2]core.HostID]bool),
		reachable: func(a, b core.HostID) bool { return true },
	}
	group := make(map[core.HostID]int)
	for g, hs := range clusters {
		for _, h := range hs {
			group[h] = g + 1
		}
	}
	for i, a := range peers {
		for _, b := range peers[i+1:] {
			s.cheap[s.pairKey(a, b)] = group[a] != 0 && group[a] == group[b]
		}
	}
	// Short periods so a few thousand soup steps cover many cycles.
	params := core.Params{
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
	w := &soupWorld{
		s:         s,
		hosts:     make(map[core.HostID]*core.Host, n),
		delivered: make(map[core.HostID]*seqset.Set, n),
		peers:     peers,
		source:    1,
	}
	for _, id := range peers {
		dset := &seqset.Set{}
		w.delivered[id] = dset
		h, err := core.NewHost(core.Config{
			ID: id, Source: w.source, Peers: peers, Params: params,
		}, soupEnv{s: s, id: id, delivered: dset, dups: &w.dups})
		if err != nil {
			t.Fatalf("NewHost(%d): %v", id, err)
		}
		h.Start(0)
		w.hosts[id] = h
	}
	return w
}

// step performs one adversarial action.
func (w *soupWorld) step(dropProb float64) {
	rng := w.s.rng
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // deliver a random pending message
		idx, ok := w.pickDeliverable()
		if !ok {
			w.tickRandom()
			return
		}
		msg := w.s.pending[idx]
		w.s.pending[idx] = w.s.pending[len(w.s.pending)-1]
		w.s.pending = w.s.pending[:len(w.s.pending)-1]
		if rng.Float64() < dropProb {
			return // dropped
		}
		costBit := !w.s.cheap[w.s.pairKey(msg.from, msg.to)]
		if h, ok := w.hosts[msg.to]; ok {
			h.HandleMessage(w.now, msg.from, costBit, msg.m)
			if rng.Float64() < 0.05 { // duplicate delivery
				h.HandleMessage(w.now, msg.from, costBit, msg.m)
			}
		}
	case 4, 5, 6, 7: // tick a random host, advancing time a little
		w.tickRandom()
	case 8: // broadcast
		if w.sent < 60 {
			w.sent++
			w.hosts[w.source].Broadcast(w.now, []byte{byte(w.sent)})
		} else {
			w.tickRandom()
		}
	case 9: // time passes with nothing happening
		w.now += time.Duration(rng.Intn(3)) * time.Millisecond
	}
}

// pickDeliverable returns a random pending message whose endpoints can
// currently communicate. Random probes first, falling back to a scan.
func (w *soupWorld) pickDeliverable() (int, bool) {
	n := len(w.s.pending)
	if n == 0 {
		return 0, false
	}
	for try := 0; try < 8; try++ {
		i := w.s.rng.Intn(n)
		if m := w.s.pending[i]; w.s.reachable(m.from, m.to) {
			return i, true
		}
	}
	start := w.s.rng.Intn(n)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if m := w.s.pending[i]; w.s.reachable(m.from, m.to) {
			return i, true
		}
	}
	return 0, false
}

func (w *soupWorld) tickRandom() {
	id := w.peers[w.s.rng.Intn(len(w.peers))]
	w.now += time.Duration(w.s.rng.Intn(2)) * time.Millisecond
	w.hosts[id].Tick(w.now)
}

// tickAll advances time and ticks every host once.
func (w *soupWorld) tickAll() {
	w.now += time.Millisecond
	for _, id := range w.peers {
		w.hosts[id].Tick(w.now)
	}
}

// drain delivers every pending message (no drops) and ticks everyone,
// repeatedly, until quiescence or the round budget is exhausted.
func (w *soupWorld) drain(rounds int) {
	for r := 0; r < rounds; r++ {
		for {
			idx, ok := w.pickDeliverable()
			if !ok {
				break
			}
			msg := w.s.pending[idx]
			w.s.pending[idx] = w.s.pending[len(w.s.pending)-1]
			w.s.pending = w.s.pending[:len(w.s.pending)-1]
			costBit := !w.s.cheap[w.s.pairKey(msg.from, msg.to)]
			w.hosts[msg.to].HandleMessage(w.now, msg.from, costBit, msg.m)
		}
		w.tickAll()
	}
}

// settle broadcasts a few fresh messages with full connectivity and
// drains after each. Fresh traffic is what re-attracts detached cluster
// leaders (a leader with an INFO set equal to everyone else's has, per
// the §4.2 options, no one to attach to — only a strictly greater INFO
// set draws it back), so after settle the parent graph must again be a
// tree rooted at the source.
func (w *soupWorld) settle() {
	for k := 0; k < 3; k++ {
		w.sent++
		w.hosts[w.source].Broadcast(w.now, []byte{byte(w.sent)})
		w.drain(150)
	}
	w.drain(100)
}

// checkSafety asserts invariants that must hold at every moment.
func (w *soupWorld) checkSafety(t *testing.T) {
	t.Helper()
	for id, h := range w.hosts {
		// Deliveries are exactly INFO (no duplicate deliveries counted
		// separately; membership must agree).
		if !h.Info().Equal(*w.delivered[id]) {
			t.Fatalf("host %d INFO %v != delivered %v", id, h.Info(), *w.delivered[id])
		}
		// A host never has itself as parent.
		if h.Parent() == id {
			t.Fatalf("host %d is its own parent", id)
		}
		// The source never has a parent.
		if id == w.source && h.Parent() != core.Nil {
			t.Fatalf("source acquired parent %d", h.Parent())
		}
	}
	if w.dups != 0 {
		t.Fatalf("%d duplicate deliveries", w.dups)
	}
}

func TestSoupRandomInterleavings(t *testing.T) {
	clusters := [][]core.HostID{{1, 2, 3}, {4, 5}, {6, 7, 8}}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newSoupWorld(t, seed, 8, clusters)
			for i := 0; i < 4000; i++ {
				w.step(0.15)
				if i%500 == 0 {
					w.checkSafety(t)
				}
			}
			w.checkSafety(t)
			// Adversary relents: fresh traffic plus loss-free drains; every
			// host must converge on the complete set.
			w.settle()
			w.checkSafety(t)
			want := w.sent
			for id, h := range w.hosts {
				info := h.Info()
				if info.Max() != want || info.GapCount() != 0 {
					t.Errorf("host %d did not converge: has %v, want 1..%d", id, info, want)
				}
			}
			// After quiescence with full connectivity, the parent graph must
			// be a tree rooted at the source (no cycles, all reach source).
			for id := range w.hosts {
				cur := id
				steps := 0
				for cur != w.source {
					if cur == core.Nil {
						t.Errorf("host %d ancestry dead-ends at NIL after convergence", id)
						break
					}
					if steps > len(w.peers) {
						t.Errorf("host %d ancestry cycles after convergence", id)
						break
					}
					cur = w.hosts[cur].Parent()
					steps++
				}
			}
		})
	}
}

// TestSoupWithByzantineHost covers the adversarial-input edge: one
// non-source host's outbound traffic is rewritten — per-destination
// payload equivocation, lying INFO sets and parent pointers, empty
// attach-request INFO, and stale-frame replay — while every host keeps
// executing only correct protocol code. The safety invariants
// checkSafety asserts are what no frame may talk a host out of: INFO
// membership identical to the delivered set, no duplicate deliveries,
// sane parent pointers. They must hold at every sampled moment
// regardless of what arrives on the wire. Once the
// adversary relents, liveness must hold too — lies are forgotten state,
// not poison.
func TestSoupWithByzantineHost(t *testing.T) {
	clusters := [][]core.HostID{{1, 2, 3}, {4, 5, 6}}
	// Whether the adversary relays data frames (the equivocation arm)
	// depends on whether the chaos ever makes it a parent or gap filler,
	// which varies by seed; the activity assertion therefore aggregates
	// across the seed table, while safety and liveness are per seed.
	var forged, infoLies, replays int
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newSoupWorld(t, seed, 6, clusters)
			// The adversary sits in the source's cluster, where it actually
			// relays data (as a parent and as a cluster gap filler) — so the
			// payload-equivocation arm genuinely fires.
			const evil = core.HostID(2)
			var history []soupMsg
			forgeData := func(m *core.Message, to core.HostID) {
				if m.Kind == core.MsgData {
					m.Payload = append(append([]byte(nil), m.Payload...), byte(to))
					forged++
				}
			}
			w.s.mangle = func(msg soupMsg) []soupMsg {
				if msg.from != evil {
					return []soupMsg{msg}
				}
				rng := w.s.rng
				out := msg
				switch out.m.Kind {
				case core.MsgData:
					forgeData(&out.m, out.to)
				case core.MsgBundle:
					parts := append([]core.Message(nil), out.m.Parts...)
					for i := range parts {
						forgeData(&parts[i], out.to)
					}
					out.m.Parts = parts
				case core.MsgInfo:
					// Claim a random sub/superset of everything broadcast so
					// far, under a random parent pointer. Every claimed seq
					// exists, so the lie wastes effort without fabricating
					// undeliverable expectations.
					var lie seqset.Set
					for q := seqset.Seq(1); q <= w.sent; q++ {
						if rng.Intn(4) > 0 {
							lie.Add(q)
						}
					}
					out.m.Info = lie
					out.m.Parent = w.peers[rng.Intn(len(w.peers))]
					infoLies++
				case core.MsgAttachReq:
					// Understate INFO so a would-be parent wastes gap fills.
					out.m.Info = seqset.Set{}
					infoLies++
				}
				msgs := []soupMsg{out}
				if len(history) > 0 && rng.Intn(5) == 0 {
					old := history[rng.Intn(len(history))]
					old.to = w.peers[rng.Intn(len(w.peers))]
					if old.to != evil {
						msgs = append(msgs, old)
						replays++
					}
				}
				history = append(history, out)
				if len(history) > 256 {
					history = history[1:]
				}
				return msgs
			}
			for i := 0; i < 4000; i++ {
				w.step(0.15)
				if i%500 == 0 {
					w.checkSafety(t)
				}
			}
			w.checkSafety(t)
			// Adversary relents; with honest traffic restored every host —
			// including the former liar, whose internal state was honest all
			// along — must converge on the complete set.
			w.s.mangle = nil
			w.settle()
			w.checkSafety(t)
			for id, h := range w.hosts {
				info := h.Info()
				if info.Max() != w.sent || info.GapCount() != 0 {
					t.Errorf("host %d did not converge after byzantine phase: %v, want 1..%d",
						id, info, w.sent)
				}
			}
		})
	}
	if forged == 0 || infoLies == 0 || replays == 0 {
		t.Fatalf("adversary idle across all seeds (forged=%d infoLies=%d replays=%d); the run proves nothing",
			forged, infoLies, replays)
	}
}

func TestSoupWithPartitionPhase(t *testing.T) {
	clusters := [][]core.HostID{{1, 2}, {3, 4}}
	w := newSoupWorld(t, 99, 4, clusters)
	// Phase 1: normal chaos.
	for i := 0; i < 1500; i++ {
		w.step(0.1)
	}
	w.checkSafety(t)
	// Phase 2: partition {1,2} from {3,4}.
	group := map[core.HostID]int{1: 1, 2: 1, 3: 2, 4: 2}
	w.s.reachable = func(a, b core.HostID) bool { return group[a] == group[b] }
	for i := 0; i < 1500; i++ {
		w.step(0.1)
	}
	w.checkSafety(t)
	// Phase 3: heal and drain; everyone converges.
	w.s.reachable = func(a, b core.HostID) bool { return true }
	for i := 0; i < 1500; i++ {
		w.step(0)
	}
	w.settle()
	w.checkSafety(t)
	for id, h := range w.hosts {
		info := h.Info()
		if info.Max() != w.sent || info.GapCount() != 0 {
			t.Errorf("host %d did not converge after partition: %v, want 1..%d", id, info, w.sent)
		}
	}
}
