package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// snapEnv extends fakeEnv with the Snapshotter contract: Snapshot hands
// out canned bytes and InstallSnapshot records what the host committed.
type snapEnv struct {
	*fakeEnv
	snapData  []byte
	snapOK    bool
	installOK bool
	installed []installCall
}

type installCall struct {
	mark seqset.Seq
	data []byte
}

func (s *snapEnv) Snapshot(upTo seqset.Seq) ([]byte, bool) {
	return s.snapData, s.snapOK
}

func (s *snapEnv) InstallSnapshot(mark seqset.Seq, data []byte) bool {
	s.installed = append(s.installed, installCall{mark: mark, data: append([]byte(nil), data...)})
	return s.installOK
}

// syncParams is quietParams plus a small, fast catch-up configuration so
// targeted tests can drive the pump with single ticks.
func syncParams() core.Params {
	p := quietParams()
	p.SyncBatch = 100
	p.SyncWindow = 2
	p.SyncTimeout = 1 * time.Second
	p.SyncPeriod = 1 * time.Second
	p.SnapshotEvery = 4
	p.SnapChunk = 16
	return p
}

// TestSyncServerAlwaysResponds pins the authoritative-response contract:
// a range request gets exactly one MsgSyncResp — parts for what the
// store holds, nothing for unknown sequence numbers, and an (empty)
// response even when the server can serve none of it.
func TestSyncServerAlwaysResponds(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 1, syncParams(), env)
	for i := 0; i < 6; i++ {
		h.Broadcast(0, []byte{byte(i)})
	}
	env.reset()

	h.HandleMessage(time.Second, 2, false, core.Message{
		Kind: core.MsgSyncReq, Seq: 2, Info: seqset.FromSlice([]seqset.Seq{2, 3, 100}),
	})
	resps := env.ofKind(core.MsgSyncResp)
	if len(resps) != 1 {
		t.Fatalf("got %d MsgSyncResp, want 1", len(resps))
	}
	resp := resps[0]
	if resp.to != 2 || resp.m.Seq != 2 {
		t.Errorf("response to %d echoing id %d, want to 2 echoing 2", resp.to, resp.m.Seq)
	}
	if len(resp.m.Parts) != 2 {
		t.Fatalf("got %d parts, want 2 (seqs 2 and 3; 100 is unknown)", len(resp.m.Parts))
	}
	for i, want := range []seqset.Seq{2, 3} {
		part := resp.m.Parts[i]
		if part.Kind != core.MsgData || part.Seq != want || !part.GapFill {
			t.Errorf("part %d = kind %v seq %d gapfill %v, want gap-fill data %d",
				i, part.Kind, part.Seq, part.GapFill, want)
		}
	}
	if !resp.m.Info.Empty() {
		t.Errorf("pruned report %v, want empty (nothing pruned)", resp.m.Info)
	}

	// A request the server can serve nothing of still draws a response:
	// that is what lets the requester retire the request.
	env.reset()
	h.HandleMessage(time.Second, 2, false, core.Message{
		Kind: core.MsgSyncReq, Seq: 50, Info: seqset.FromSlice([]seqset.Seq{50, 60}),
	})
	resps = env.ofKind(core.MsgSyncResp)
	if len(resps) != 1 {
		t.Fatalf("empty-handed server sent %d responses, want 1", len(resps))
	}
	if len(resps[0].m.Parts) != 0 || !resps[0].m.Info.Empty() {
		t.Errorf("empty response carries parts=%d pruned=%v", len(resps[0].m.Parts), resps[0].m.Info)
	}
}

// TestSyncServerPrunedReportAndLiberation drives the server end of the
// liberation story: a checkpointing source prunes past its snapshotted
// prefix even though no peer has confirmed anything (classic §6 pruning
// would pin the floor at zero), and a range request for the pruned
// prefix draws a pruned report plus the checkpoint watermark instead of
// data.
func TestSyncServerPrunedReportAndLiberation(t *testing.T) {
	env := &snapEnv{fakeEnv: &fakeEnv{}, snapData: []byte("checkpoint-bytes"), snapOK: true}
	p := syncParams()
	p.PruneStable = true
	h := newTestHost(t, 1, p, env)
	for i := 0; i < 10; i++ {
		h.Broadcast(0, []byte{byte(i)})
	}
	h.Tick(5 * time.Second)

	if got := h.SyncStats().SnapMark; got != 10 {
		t.Fatalf("snapshot watermark = %d, want 10", got)
	}
	// Liberation: the floor advanced past the snapshotted prefix despite
	// every peer's confirmed view being empty.
	if min := h.Info().Min(); min != 10 {
		t.Fatalf("INFO min = %d, want 10 (prefix 1..9 pruned under liberation)", min)
	}

	env.reset()
	h.HandleMessage(6*time.Second, 2, false, core.Message{
		Kind: core.MsgSyncReq, Seq: 1, Info: seqset.FromSlice([]seqset.Seq{1, 2, 3, 10}),
	})
	resps := env.ofKind(core.MsgSyncResp)
	if len(resps) != 1 {
		t.Fatalf("got %d MsgSyncResp, want 1", len(resps))
	}
	resp := resps[0].m
	if len(resp.Parts) != 1 || resp.Parts[0].Seq != 10 {
		t.Errorf("parts = %v, want exactly seq 10 (the only unpruned member)", resp.Parts)
	}
	if !resp.Info.Equal(seqset.FromSlice([]seqset.Seq{1, 2, 3})) {
		t.Errorf("pruned report = %v, want {1,2,3}", resp.Info)
	}
	if resp.CheckLen != 10 {
		t.Errorf("advertised watermark = %d, want 10", resp.CheckLen)
	}
}

// TestHostileSyncRequestIsBounded: one participant's MsgSyncReq naming
// [8, 2⁶²] — a 44-byte frame on the wire — costs the server what the
// range clipped to its own holdings costs, and draws exactly the same
// response: everything the server can answer for when that is less than
// a batch, SyncBatch members when it is more. A server that walked every
// requested member would pin its goroutine for centuries on it.
func TestHostileSyncRequestIsBounded(t *testing.T) {
	// serve builds a checkpointing server that has pruned 1..9 under
	// liberation and holds 10..13, and answers req from host 2.
	serve := func(batch int, req seqset.Set) <-chan []sentMsg {
		env := &snapEnv{fakeEnv: &fakeEnv{}, snapData: []byte("checkpoint-bytes"), snapOK: true}
		p := syncParams()
		p.PruneStable = true
		p.SyncBatch = batch
		h := newTestHost(t, 1, p, env)
		for i := 0; i < 10; i++ {
			h.Broadcast(0, []byte{byte(i)})
		}
		h.Tick(5 * time.Second)
		for i := 10; i < 13; i++ {
			h.Broadcast(5*time.Second, []byte{byte(i)})
		}
		env.reset()
		done := make(chan []sentMsg, 1)
		go func() {
			h.HandleMessage(6*time.Second, 2, false, core.Message{Kind: core.MsgSyncReq, Seq: 8, Info: req})
			done <- env.ofKind(core.MsgSyncResp)
		}()
		return done
	}
	answer := func(t *testing.T, name string, done <-chan []sentMsg) core.Message {
		t.Helper()
		select {
		case resps := <-done:
			if len(resps) != 1 || resps[0].to != 2 {
				t.Fatalf("%s request drew %+v, want one response to host 2", name, resps)
			}
			return resps[0].m
		case <-time.After(5 * time.Second):
			t.Fatalf("%s request still being served after 5s", name)
		}
		return core.Message{}
	}
	for _, tc := range []struct {
		batch int
		parts seqset.Seq // the response serves 10..parts
	}{
		{batch: 100, parts: 13}, // all six requested members the server holds
		{batch: 3, parts: 10},   // pruned 8 and 9, then one part fills the batch
	} {
		t.Run(fmt.Sprintf("batch-%d", tc.batch), func(t *testing.T) {
			hostile := answer(t, "the hostile", serve(tc.batch, seqset.FromRange(8, 1<<62)))
			clipped := answer(t, "the clipped", serve(tc.batch, seqset.FromRange(8, 13)))
			var served []seqset.Seq
			for _, part := range clipped.Parts {
				served = append(served, part.Seq)
			}
			want := seqset.FromRange(10, tc.parts).Slice()
			if !slices.Equal(served, want) || !clipped.Info.Equal(seqset.FromRange(8, 9)) || clipped.CheckLen != 10 {
				t.Fatalf("clipped request drew parts %v, pruned %v, mark %d; want %v, {8, 9}, 10",
					served, clipped.Info, clipped.CheckLen, want)
			}
			same := hostile.Seq == clipped.Seq && hostile.CheckLen == clipped.CheckLen &&
				hostile.Info.Equal(clipped.Info) && len(hostile.Parts) == len(clipped.Parts)
			for i := 0; same && i < len(hostile.Parts); i++ {
				a, b := hostile.Parts[i], clipped.Parts[i]
				same = a.Seq == b.Seq && a.GapFill == b.GapFill && bytes.Equal(a.Payload, b.Payload)
			}
			if !same {
				t.Errorf("hostile request drew %+v, the clipped one %+v", hostile, clipped)
			}
		})
	}
}

// TestSyncLiberationRequiresSnapshotter pins the safety side of
// liberation: with the snapshot knobs on but an environment that cannot
// produce snapshots, no checkpoint exists, so the pruning floor stays
// conservatively pinned by the unknown peers and no data is dropped.
func TestSyncLiberationRequiresSnapshotter(t *testing.T) {
	env := &fakeEnv{}
	p := syncParams()
	p.PruneStable = true
	h := newTestHost(t, 1, p, env)
	for i := 0; i < 10; i++ {
		h.Broadcast(0, []byte{byte(i)})
	}
	h.Tick(5 * time.Second)

	if got := h.SyncStats().SnapMark; got != 0 {
		t.Fatalf("snapshot watermark = %d, want 0 without a Snapshotter env", got)
	}
	if min := h.Info().Min(); min != 1 {
		t.Errorf("INFO min = %d, want 1 (nothing may be pruned)", min)
	}
	env.reset()
	h.HandleMessage(6*time.Second, 2, false, core.Message{
		Kind: core.MsgSyncReq, Seq: 1, Info: seqset.FromSlice([]seqset.Seq{1}),
	})
	resps := env.ofKind(core.MsgSyncResp)
	if len(resps) != 1 || len(resps[0].m.Parts) != 1 || resps[0].m.Parts[0].Seq != 1 {
		t.Errorf("seq 1 must still be served from the store, got %+v", resps)
	}
}

// TestSyncClientSolicitedOnly pins the solicitation rule: response parts
// are accepted only when they name a sequence number outstanding on the
// matching in-flight request. Unsolicited parts and responses to unknown
// request ids are dropped whole.
func TestSyncClientSolicitedOnly(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, syncParams(), env)

	// Peer 3's confirmed view proves 1..4 exist.
	h.HandleMessage(5*time.Second, 3, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(1, 4), Parent: core.Nil,
	})
	env.reset()
	h.Tick(10 * time.Second)
	reqs := env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 {
		t.Fatalf("got %d MsgSyncReq, want 1", len(reqs))
	}
	req := reqs[0]
	if req.to != 3 || !req.m.Info.Equal(seqset.FromRange(1, 4)) {
		t.Fatalf("request to %d for %v, want 1..4 to host 3", req.to, req.m.Info)
	}

	// A response to a request id never issued is ignored entirely, even
	// when its parts name wanted sequence numbers.
	h.HandleMessage(10*time.Second, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: 999,
		Parts: []core.Message{{Kind: core.MsgData, Seq: 1, Payload: []byte("spoof")}},
	})
	if len(env.delivered) != 0 {
		t.Fatalf("bogus request id delivered %v", env.delivered)
	}

	// The real response: wanted parts are accepted, the unsolicited seq
	// 77 is dropped.
	h.HandleMessage(10*time.Second, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: req.m.Seq,
		Parts: []core.Message{
			{Kind: core.MsgData, Seq: 1, Payload: []byte("a")},
			{Kind: core.MsgData, Seq: 77, Payload: []byte("evil")},
			{Kind: core.MsgData, Seq: 2, Payload: []byte("b")},
		},
	})
	want := []seqset.Seq{1, 2}
	if len(env.delivered) != len(want) {
		t.Fatalf("delivered %v, want %v", env.delivered, want)
	}
	for i, q := range want {
		if env.delivered[i] != q {
			t.Errorf("delivered[%d] = %d, want %d", i, env.delivered[i], q)
		}
	}
	if h.Info().Contains(77) {
		t.Error("unsolicited seq 77 entered INFO")
	}
}

// chunkFor builds a well-formed MsgSnapChunk for the given checkpoint.
func chunkFor(mark seqset.Seq, data []byte, offset, size int) core.Message {
	end := offset + size
	if end > len(data) {
		end = len(data)
	}
	return core.Message{
		Kind:     core.MsgSnapChunk,
		Seq:      seqset.Seq(offset),
		Payload:  data[offset:end],
		CheckLen: uint64(len(data)),
		Info:     seqset.FromRange(1, mark),
	}
}

// TestSyncSnapshotResumeFromVerifiedOffset is the pinned resume
// acceptance test: a snapshot transfer interrupted after its first
// verified chunk re-requests from exactly the verified byte offset with
// the in-progress watermark — never from zero — and then completes,
// installing the checkpoint and range-syncing the tail so a healed host
// whose candidates have all pruned past its gap still converges.
func TestSyncSnapshotResumeFromVerifiedOffset(t *testing.T) {
	env := &snapEnv{fakeEnv: &fakeEnv{}, installOK: true}
	h := newTestHost(t, 2, syncParams(), env)
	snapshot := bytes.Repeat([]byte("0123456789"), 4) // 40 bytes, 16-byte chunks

	// Peer 3 joined us to a world where every candidate has pruned past
	// our whole gap: its INFO starts at 96.
	h.HandleMessage(5*time.Second, 3, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(96, 100), Parent: core.Nil,
	})
	env.reset()
	h.Tick(10 * time.Second)
	reqs := env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 {
		t.Fatalf("got %d MsgSyncReq, want 1", len(reqs))
	}
	// The phantom prefix: contiguous numbering from 1 means the peer's
	// pruned prefix 1..95 must be probed even though nobody's INFO
	// mentions it.
	if !reqs[0].m.Info.Equal(seqset.FromRange(1, 100)) {
		t.Fatalf("request for %v, want the full phantom range 1..100", reqs[0].m.Info)
	}

	// The authoritative answer: everything below 96 is pruned, and a
	// checkpoint with watermark 96 covers it.
	env.reset()
	h.HandleMessage(10*time.Second, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: reqs[0].m.Seq,
		Info: seqset.FromRange(1, 95), CheckLen: 96,
	})
	snapReqs := env.ofKind(core.MsgSnapReq)
	if len(snapReqs) != 1 {
		t.Fatalf("got %d MsgSnapReq, want 1", len(snapReqs))
	}
	if snapReqs[0].m.Seq != 0 {
		t.Errorf("initial snapshot request offset = %d, want 0", snapReqs[0].m.Seq)
	}

	// First chunk arrives (16 verified bytes), then the source goes
	// silent: the timeout retry must resume at offset 16 under watermark
	// 96 — not restart from zero.
	h.HandleMessage(10*time.Second, 3, false, chunkFor(96, snapshot, 0, 16))
	env.reset()
	h.Tick(12 * time.Second) // past the 1s chunk deadline
	resumes := env.ofKind(core.MsgSnapReq)
	if len(resumes) != 1 {
		t.Fatalf("got %d resume MsgSnapReq, want 1", len(resumes))
	}
	if got := resumes[0].m.Seq; got != 16 {
		t.Fatalf("resume offset = %d, want 16 (the verified prefix)", got)
	}
	if got := resumes[0].m.CheckLen; got != 96 {
		t.Fatalf("resume watermark = %d, want 96", got)
	}
	if got := h.SyncStats().SnapResumes; got != 1 {
		t.Errorf("SnapResumes = %d, want 1", got)
	}

	// The source answers the resume; the transfer completes and installs.
	h.HandleMessage(12*time.Second, 3, false, chunkFor(96, snapshot, 16, 16))
	h.HandleMessage(12*time.Second, 3, false, chunkFor(96, snapshot, 32, 16))
	if len(env.installed) != 1 {
		t.Fatalf("got %d snapshot installs, want 1", len(env.installed))
	}
	if env.installed[0].mark != 96 || !bytes.Equal(env.installed[0].data, snapshot) {
		t.Fatalf("installed mark %d (%d bytes), want mark 96 with the full snapshot",
			env.installed[0].mark, len(env.installed[0].data))
	}
	if !h.Info().ContainsAll(seqset.FromRange(1, 96)) {
		t.Fatal("INFO does not cover the snapshotted prefix 1..96")
	}

	// Range sync now finishes the tail 97..100 (96 came with the
	// snapshot), completing the healed host's convergence.
	env.reset()
	h.Tick(13 * time.Second)
	reqs = env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 || !reqs[0].m.Info.Equal(seqset.FromRange(97, 100)) {
		t.Fatalf("tail request = %+v, want exactly 97..100", reqs)
	}
	parts := make([]core.Message, 0, 4)
	for q := seqset.Seq(97); q <= 100; q++ {
		parts = append(parts, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{byte(q)}, GapFill: true})
	}
	h.HandleMessage(13*time.Second, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: reqs[0].m.Seq, Parts: parts,
	})
	if !h.Info().ContainsAll(seqset.FromRange(1, 100)) {
		t.Fatalf("healed host did not converge; INFO = %v", h.Info())
	}
}

// TestSyncFailoverPicksNextSource pins source failover: a sync source
// that stays silent through the retry budget is excluded and the pump
// moves to the next candidate.
func TestSyncFailoverPicksNextSource(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, syncParams(), env)
	h.HandleMessage(5*time.Second, 3, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(1, 5), Parent: core.Nil,
	})
	env.reset()
	h.Tick(10 * time.Second)
	if reqs := env.ofKind(core.MsgSyncReq); len(reqs) != 1 || reqs[0].to != 3 {
		t.Fatalf("initial request = %+v, want one to host 3", reqs)
	}

	// Host 3 never answers: three retries, then failover.
	for _, at := range []time.Duration{20, 30, 40, 50} {
		h.Tick(at * time.Second)
	}
	if got := h.SyncStats().Failovers; got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}

	// Host 4 knows strictly more; the pump must move there.
	h.HandleMessage(55*time.Second, 4, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(1, 8), Parent: core.Nil,
	})
	env.reset()
	h.Tick(60 * time.Second)
	reqs := env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 || reqs[0].to != 4 {
		t.Fatalf("post-failover request = %+v, want one to host 4", reqs)
	}
}

// TestSyncPrunePastSnapshotNoDuplicateWindow is the duplicate-window
// property test: after a snapshot install covers a prefix and the
// pruning floor then advances over it (liberation), replaying late
// copies of every covered sequence number — in a scrambled, determinist
// order, via both the gap-fill path and spoofed sync responses — causes
// zero re-deliveries.
func TestSyncPrunePastSnapshotNoDuplicateWindow(t *testing.T) {
	env := &snapEnv{fakeEnv: &fakeEnv{}, snapData: []byte("own-checkpoint"), snapOK: true, installOK: true}
	p := syncParams()
	p.PruneStable = true
	p.SnapChunk = 1024
	h := newTestHost(t, 2, p, env)

	// Catch up from peer 3: parts for the tail 36..40, snapshot for the
	// pruned prefix 1..35 (watermark 36).
	h.HandleMessage(5*time.Second, 3, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(36, 40), Parent: core.Nil,
	})
	env.reset()
	h.Tick(10 * time.Second)
	reqs := env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 {
		t.Fatalf("got %d MsgSyncReq, want 1", len(reqs))
	}
	parts := make([]core.Message, 0, 5)
	for q := seqset.Seq(36); q <= 40; q++ {
		parts = append(parts, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{byte(q)}, GapFill: true})
	}
	h.HandleMessage(10*time.Second, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: reqs[0].m.Seq, Parts: parts,
		Info: seqset.FromRange(1, 35), CheckLen: 36,
	})
	snapshot := bytes.Repeat([]byte("s"), 48)
	h.HandleMessage(10*time.Second, 3, false, chunkFor(36, snapshot, 0, len(snapshot)))
	if got := h.SyncStats().SnapInstalls; got != 1 {
		t.Fatalf("SnapInstalls = %d, want 1", got)
	}
	baseline := len(env.delivered) // the five tail deliveries

	// Next tick: our own checkpoint covers 1..40 and liberation advances
	// the pruning floor over the snapshotted (and delivered) prefix.
	h.Tick(11 * time.Second)
	if min := h.Info().Min(); min != 40 {
		t.Fatalf("INFO min = %d, want 40 (floor advanced past the snapshot)", min)
	}

	// The property: replay late copies of every covered sequence number
	// in a scrambled deterministic order (q -> 17q mod 41 is a bijection
	// on 1..40), through every acceptance path a peer can reach. None may
	// deliver again.
	now := 12 * time.Second
	for i := seqset.Seq(1); i <= 40; i++ {
		q := (i * 17) % 41
		h.HandleMessage(now, 4, false, core.Message{
			Kind: core.MsgData, Seq: q, Payload: []byte("late"), GapFill: true,
		})
		h.HandleMessage(now, 4, false, core.Message{
			Kind: core.MsgData, Seq: q, Payload: []byte("late"),
		})
		h.HandleMessage(now, 4, false, core.Message{
			Kind: core.MsgSyncResp, Seq: q,
			Parts: []core.Message{{Kind: core.MsgData, Seq: q, Payload: []byte("late")}},
		})
	}
	if len(env.delivered) != baseline {
		t.Fatalf("late replays re-delivered: %v (baseline %d)", env.delivered[baseline:], baseline)
	}
	seen := make(map[seqset.Seq]bool)
	for _, q := range env.delivered {
		if seen[q] {
			t.Fatalf("sequence %d delivered twice", q)
		}
		seen[q] = true
	}
}

// TestSyncZeroKnobsNoTraffic pins wire-compatibility at the host level:
// with the sync knobs at their zero values no catch-up message is ever
// emitted, and inbound catch-up kinds are ignored.
func TestSyncZeroKnobsNoTraffic(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, quietParams(), env)
	h.HandleMessage(5*time.Second, 3, false, core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(1, 20), Parent: core.Nil,
	})
	env.reset()
	h.Tick(10 * time.Second)
	h.Tick(20 * time.Second)
	for _, k := range []core.MsgKind{core.MsgSyncReq, core.MsgSyncResp, core.MsgSnapReq, core.MsgSnapChunk} {
		if msgs := env.ofKind(k); len(msgs) != 0 {
			t.Errorf("emitted %d %v with sync disabled", len(msgs), k)
		}
	}
	h.HandleMessage(20*time.Second, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: 1,
		Parts: []core.Message{{Kind: core.MsgData, Seq: 1, Payload: []byte("x")}},
	})
	if len(env.delivered) != 0 {
		t.Errorf("disabled host accepted sync data: %v", env.delivered)
	}
}

// TestSyncServerRefreshesStaleCheckpointForInstalledPrefix pins the
// advertise/backing invariant the 200-seed late-joiner soak caught a
// hole in: a host that covered its own gap by installing a peer's
// snapshot advertises the prefix in INFO without stocking the store,
// and its own checkpoint cadence may never run — so a range request
// for that prefix used to draw an empty response with a useless
// watermark, and a requester already at the stale watermark looped
// forever. The server must instead refresh its checkpoint on demand
// and report the requested range as snapshot-covered.
func TestSyncServerRefreshesStaleCheckpointForInstalledPrefix(t *testing.T) {
	env := &snapEnv{fakeEnv: &fakeEnv{}, snapData: []byte("own-checkpoint-bytes"), snapOK: true, installOK: true}
	p := syncParams()
	p.SnapshotEvery = 1000 // own cadence never fires; only on-demand refresh can
	h := newTestHost(t, 2, p, env)

	// Catch the host up via a peer snapshot covering 1..6: range sync
	// surfaces the watermark, the snapshot arrives in one chunk.
	h.HandleMessage(0, 3, false, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 6)})
	h.Tick(10 * time.Second)
	reqs := env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 {
		t.Fatalf("got %d MsgSyncReq, want 1", len(reqs))
	}
	h.HandleMessage(11*time.Second, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: reqs[0].m.Seq, Info: seqset.FromRange(1, 6), CheckLen: 6,
	})
	peerSnap := []byte("peer-checkpoint")
	h.HandleMessage(11*time.Second, 3, false, chunkFor(6, peerSnap, 0, len(peerSnap)))
	if got := h.SyncStats().SnapInstalls; got != 1 {
		t.Fatalf("snapshot installs = %d, want 1", got)
	}
	if got := h.SyncStats().SnapMark; got != 0 {
		t.Fatalf("own checkpoint watermark = %d before any request, want 0 (cadence gated)", got)
	}

	// The window: INFO covers 1..6, the store holds none of it, the own
	// checkpoint does not exist. A peer's range request for the middle
	// must force a refresh and report the range snapshot-covered.
	env.reset()
	h.HandleMessage(12*time.Second, 4, false, core.Message{
		Kind: core.MsgSyncReq, Seq: 3, Info: seqset.FromSlice([]seqset.Seq{3, 4, 5}),
	})
	resps := env.ofKind(core.MsgSyncResp)
	if len(resps) != 1 || resps[0].to != 4 {
		t.Fatalf("responses = %v, want one to host 4", resps)
	}
	resp := resps[0].m
	if len(resp.Parts) != 0 {
		t.Errorf("served %d parts from an empty store", len(resp.Parts))
	}
	if want := seqset.FromSlice([]seqset.Seq{3, 4, 5}); !resp.Info.Equal(want) {
		t.Errorf("snapshot-covered report = %v, want %v", resp.Info, want)
	}
	if resp.CheckLen != 6 {
		t.Errorf("advertised watermark = %d, want 6 (the refreshed checkpoint)", resp.CheckLen)
	}
	if got := h.SyncStats().SnapMark; got != 6 {
		t.Errorf("own checkpoint watermark = %d after refresh, want 6", got)
	}

	// And the refreshed checkpoint is servable: a snapshot request
	// streams the environment's bytes.
	env.reset()
	h.HandleMessage(13*time.Second, 4, false, core.Message{Kind: core.MsgSnapReq, Seq: 0, CheckLen: 6})
	chunks := env.ofKind(core.MsgSnapChunk)
	if len(chunks) == 0 {
		t.Fatal("refreshed checkpoint not servable: no MsgSnapChunk")
	}
	if !bytes.HasPrefix(env.snapData, chunks[0].m.Payload) || len(chunks[0].m.Payload) == 0 {
		t.Errorf("first chunk %q is not a prefix of the checkpoint %q", chunks[0].m.Payload, env.snapData)
	}
}

// TestSyncStaleConfirmedViewBelowFloorDoesNotWedge pins the missingFrom
// floor clip: a peer's confirmed view can be arbitrarily stale, and one
// that only "proves" data below this host's own pruning floor used to
// win the source pick (largest apparent gain), after which the floor
// filter kept the want set empty — no request ever issued, no other
// source ever tried, and a real gap elsewhere never repaired. Clipped,
// the stale view counts for nothing and the pump goes straight to the
// peer whose view proves data this host actually lacks.
func TestSyncStaleConfirmedViewBelowFloorDoesNotWedge(t *testing.T) {
	env := &snapEnv{fakeEnv: &fakeEnv{}, snapData: []byte("ckpt"), snapOK: true}
	p := syncParams()
	p.PruneStable = true
	h := newTestHost(t, 2, p, env)
	// Catch up on 1..8 via solicited range sync (the parent-only rule
	// does not apply to solicited parts), then checkpoint and liberate.
	h.HandleMessage(0, 3, false, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 8)})
	h.Tick(5 * time.Second)
	first := env.ofKind(core.MsgSyncReq)
	if len(first) != 1 {
		t.Fatalf("got %d MsgSyncReq for the catch-up, want 1", len(first))
	}
	parts := make([]core.Message, 0, 8)
	for q := seqset.Seq(1); q <= 8; q++ {
		parts = append(parts, core.Message{Kind: core.MsgData, Seq: q, Payload: []byte{byte(q)}, GapFill: true})
	}
	h.HandleMessage(5*time.Second+100*time.Millisecond, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: first[0].m.Seq, Parts: parts,
	})
	h.Tick(6 * time.Second) // checkpoint at 8, liberation prunes 1..7
	if got := h.SyncStats().SnapMark; got != 8 {
		t.Fatalf("own checkpoint watermark = %d, want 8", got)
	}
	if got := h.Info().Min(); got != 8 {
		t.Fatalf("INFO min = %d after liberation, want 8", got)
	}

	// Peer 3's view is stale — everything it proves sits below the
	// floor. Peer 4's view proves sequence number 9 exists.
	h.HandleMessage(6*time.Second, 3, false, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 5)})
	h.HandleMessage(6*time.Second, 4, false, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(8, 9)})
	env.reset()
	h.Tick(10 * time.Second)
	reqs := env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 {
		t.Fatalf("got %d MsgSyncReq, want 1 (the wedge issues none)", len(reqs))
	}
	if reqs[0].to != 4 || !reqs[0].m.Info.Equal(seqset.FromSlice([]seqset.Seq{9})) {
		t.Errorf("request to %d for %v, want host 4 for {9}", reqs[0].to, reqs[0].m.Info)
	}
}

// TestSyncRotatesAwayFromUnhelpfulSource pins the healthy-dead-end
// rotation: a source that answers promptly but can neither serve the
// wanted range nor advertise a useful checkpoint used to be re-asked
// every pump round forever (failover only fires on silence). An
// authoritative empty response now excludes the source for the cycle,
// and the next pump tries the peer that can actually help.
func TestSyncRotatesAwayFromUnhelpfulSource(t *testing.T) {
	env := &fakeEnv{}
	h := newTestHost(t, 2, syncParams(), env)
	h.HandleMessage(0, 3, false, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 4)})
	h.HandleMessage(0, 4, false, core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 3)})
	h.Tick(10 * time.Second)
	reqs := env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 || reqs[0].to != 3 {
		t.Fatalf("first request = %v, want one to host 3 (largest gain)", reqs)
	}

	// Authoritative nothing: no parts, no snapshot-covered report, no
	// watermark. Host 3 is healthy but cannot help.
	env.reset()
	h.HandleMessage(10*time.Second+500*time.Millisecond, 3, false, core.Message{
		Kind: core.MsgSyncResp, Seq: reqs[0].m.Seq,
	})
	h.Tick(11 * time.Second)
	reqs = env.ofKind(core.MsgSyncReq)
	if len(reqs) != 1 || reqs[0].to != 4 {
		t.Fatalf("after an unhelpful response, requests = %v, want one to host 4", reqs)
	}
	if failovers := h.SyncStats().Failovers; failovers != 0 {
		t.Errorf("failovers = %d, want 0 (rotation is not a failure)", failovers)
	}
}
