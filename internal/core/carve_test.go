package core

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"rbcast/internal/seqset"
)

// TestChunkCarving: every carved slice is zeroed, has its capacity cut to
// its length and shares no element with any other; the chunks behind
// them double from the first request up to maxChunk bytes, and a request
// over ownAlloc bytes gets an allocation of its own.
func TestChunkCarving(t *testing.T) {
	var c chunk[Message]
	size := int(unsafe.Sizeof(Message{}))
	type carved struct{ lo, hi uintptr }
	var all []carved
	var caps []int
	for _, n := range []int{3, 0, 1, 5, 2, ownAlloc/size + 1, 7, 40, 40, 40, 40, 40, 40, 40, 40, 40, 1} {
		before := cap(c)
		s := c.carve(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("carve(%d) returned len %d, cap %d", n, len(s), cap(s))
		}
		for i := range s {
			if s[i].Kind != 0 || s[i].Parts != nil {
				t.Fatalf("carve(%d)[%d] is not zero", n, i)
			}
			s[i] = Message{Kind: MsgData, Seq: seqset.Seq(len(all) + 1)}
		}
		if n*size > ownAlloc {
			if cap(c) != before {
				t.Errorf("carve(%d), %d bytes, changed the chunk; it should have its own allocation", n, n*size)
			}
		} else if cap(c) != before {
			caps = append(caps, cap(c))
		}
		if n == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(&s[0]))
		hi := lo + uintptr(n*size)
		for _, o := range all {
			if lo < o.hi && o.lo < hi {
				t.Fatalf("carve(%d) overlaps an earlier slice", n)
			}
		}
		all = append(all, carved{lo, hi})
	}
	// The first request, then twice the last chunk or the request if that
	// is larger, up to the 273 Messages that fit maxChunk.
	want := []int{3, 6, 12, 40, 80, 160, maxChunk / size}
	if fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Errorf("chunk sizes %v, want %v", caps, want)
	}
	var big chunk[byte]
	for i := 0; i < 64; i++ {
		big.carve(ownAlloc)
	}
	if cap(big) != maxChunk {
		t.Errorf("byte chunks grow to %d bytes, want maxChunk = %d", cap(big), maxChunk)
	}
}

// render spells out everything a frame carries, parts included.
func render(m Message) string {
	s := fmt.Sprintf("%v seq=%d payload=%x gap=%v info=%v parent=%d check=%d", m.Kind, m.Seq, m.Payload, m.GapFill, m.Info, m.Parent, m.CheckLen)
	for _, p := range m.Parts {
		s += " [" + render(p) + "]"
	}
	return s
}

// frameLog keeps every frame a host sends with how it read when sent.
// Without piggybacking a frame leaves the moment it is made, so its INFO
// stamp must then read as the host's INFO.
type frameLog struct {
	t      *testing.T
	h      *Host
	direct bool
	frames []Message
	was    []string
}

func (e *frameLog) Send(_ HostID, m Message) {
	switch m.Kind {
	case MsgInfo, MsgAttachReq, MsgAttachAccept:
		if e.direct && !m.Info.Equal(e.h.info) {
			e.t.Fatalf("a %v frame carries INFO %v; the host holds %v", m.Kind, m.Info, e.h.info)
		}
	}
	e.frames = append(e.frames, m)
	e.was = append(e.was, render(m))
}

func (*frameLog) Deliver(seqset.Seq, []byte) {}

// TestFramesKeepWhatTheyCarried: the INFO advertisement and the parts of
// bundles and sync responses are carved from the host's chunks and shared
// by the frames that carry them, so a frame must read the same long after
// it was sent — after INFO grew, gained and closed gaps and was pruned,
// and after many more flushes. A host takes data from its parent with
// every fifth sequence number held back (INFO has gaps until a gap fill
// closes them), INFO rounds, attach requests, sync requests and pruning;
// with and without piggybacking.
func TestFramesKeepWhatTheyCarried(t *testing.T) {
	for _, piggyback := range []bool{false, true} {
		t.Run(fmt.Sprintf("piggyback=%v", piggyback), func(t *testing.T) {
			p := DefaultParams().WithCatchupSync()
			p.Piggyback = piggyback
			p.PruneStable = true
			env := &frameLog{t: t, direct: !piggyback}
			h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4}, InitialCluster: []HostID{3, 4}, Params: p}, env)
			if err != nil {
				t.Fatal(err)
			}
			env.h = h
			h.Start(0)
			h.parent = h.lookup(1)
			now := time.Duration(0)
			for seq := seqset.Seq(1); seq <= 400; seq++ {
				now += 3 * time.Millisecond
				payload := []byte{byte(seq), byte(seq >> 8), 0xab}
				if seq%5 != 0 {
					h.HandleMessage(now, 1, false, Message{Kind: MsgData, Seq: seq, Payload: payload})
				}
				if seq%5 == 2 && seq > 5 { // the held-back one, as a gap fill
					late := seq - 2
					h.HandleMessage(now, 3, false, Message{Kind: MsgData, Seq: late, Payload: []byte{byte(late), byte(late >> 8), 0xab}, GapFill: true})
				}
				switch seq % 9 {
				case 0:
					h.HandleMessage(now, 4, false, Message{Kind: MsgAttachReq, Info: seqset.FromRange(1, seq/2)})
				case 4:
					h.HandleMessage(now, 3, false, Message{Kind: MsgSyncReq, Seq: seq / 3, Info: seqset.FromRange(seq/3, seq)})
				}
				if seq%20 == 0 {
					for _, j := range []HostID{1, 3, 4} {
						h.HandleMessage(now, j, false, Message{Kind: MsgInfo, Info: seqset.FromRange(1, seq-10), Parent: 1})
					}
				}
				h.Tick(now)
			}
			if h.prunedTo == 0 {
				t.Fatal("the host never pruned")
			}
			kinds := map[MsgKind]int{}
			for _, m := range env.frames {
				kinds[m.Kind]++
				for _, part := range m.Parts {
					kinds[part.Kind]++
				}
			}
			for _, k := range []MsgKind{MsgInfo, MsgAttachAccept, MsgSyncResp} {
				if kinds[k] == 0 {
					t.Errorf("no %v frame was sent (%v)", k, kinds)
				}
			}
			if piggyback && kinds[MsgBundle] == 0 {
				t.Errorf("no bundle was sent (%v)", kinds)
			}
			for i, m := range env.frames {
				if now := render(m); now != env.was[i] {
					t.Fatalf("frame %d read\n  %s\nwhen sent, and now reads\n  %s", i, env.was[i], now)
				}
			}
		})
	}
}

// TestWarmPiggybackHostAllocs: a warm piggybacking host taking data from
// its parent, INFO from a cluster peer and ticks that send INFO rounds
// carves every frame it sends — the INFO stamps and the bundles — from
// its chunks: a chunk now and then, not an allocation per message.
func TestWarmPiggybackHostAllocs(t *testing.T) {
	p := DefaultParams()
	p.Piggyback = true
	h, err := NewHost(Config{ID: 2, Source: 1, Peers: []HostID{1, 2, 3, 4, 5, 6}, InitialCluster: []HostID{3, 4}, Params: p}, sharingNopEnv{})
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	h.parent = h.lookup(1)
	payload := []byte("payload")
	var seq seqset.Seq
	var peerInfo seqset.Set
	now := time.Duration(0)
	round := func() {
		for k := 0; k < 10; k++ {
			seq++
			now += 2 * time.Millisecond
			h.HandleMessage(now, 1, false, Message{Kind: MsgData, Seq: seq, Payload: payload})
			peerInfo.Add(seq)
			h.HandleMessage(now, 3, false, Message{Kind: MsgInfo, Info: peerInfo, Parent: 2})
		}
		h.Tick(now)
	}
	for i := 0; i < 400; i++ {
		round()
	}
	const runs = 200
	if got := testing.AllocsPerRun(runs, round); got != 0 {
		t.Errorf("a warm piggybacking host allocates %v times per 20 messages and a tick, want 0 (a chunk per %d rounds at most)", got, runs)
	}
}
