package core

import (
	"time"

	"rbcast/internal/seqset"
)

// Catch-up sync (Params.SyncBatch > 0): a downloader-style range-sync
// layer for late joiners and healed hosts. The paper's §4.4 gap fill
// repairs losses one message at a time at fixed periods — O(history)
// rounds for a host that missed a long prefix. This layer turns the
// same repair into batched, pipelined range requests (MsgSyncReq /
// MsgSyncResp) with a per-peer in-flight window, request timeouts wired
// into the health.go failure detector, and source failover; and when
// the missing prefix has been pruned everywhere (§6 pruning liberated
// past a checkpoint), into chunked snapshot transfer (MsgSnapReq /
// MsgSnapChunk) that is resumable from the last verified byte offset.
//
// The layer is strictly additive: it never replaces the periodic gap
// fill, and a zero SyncBatch leaves every schedule and wire byte
// identical to the plain protocol. Range-synced data is *solicited* —
// a response part is accepted only if its sequence number is still
// outstanding on the matching in-flight request — which both sidesteps
// the §4.1 parent-only rule safely (the receiver asked for exactly
// these sequence numbers) and bounds what a hostile responder can make
// the receiver accept.

const (
	// syncMaxRetries is how many times one request (or one snapshot
	// window) is retried against the same source before the source is
	// failed over.
	syncMaxRetries = 3
	// maxSnapshotBytes bounds the total snapshot size a client will
	// accept; a hostile MsgSnapChunk cannot commit the receiver to an
	// unbounded transfer.
	maxSnapshotBytes = 1 << 26
)

// syncReq is one in-flight range request.
type syncReq struct {
	id       seqset.Seq // request id: the low bound of the requested range
	want     seqset.Set // requested sequence numbers
	got      seqset.Set // subset received (or reported pruned) so far
	deadline time.Duration
	retries  int
}

// syncState is the catch-up layer's state, both sides of it; nil unless
// Params.SyncBatch > 0.
type syncState struct {
	// Server side: ckpt is the bytes of the host's latest checkpoint
	// (Host.snapMark is its watermark), and parts is handleSyncReq's
	// scratch, where a response's parts gather before they are carved at
	// their count.
	ckpt  []byte
	parts []Message
	// The layer's counters, exported by SyncStats.
	rounds, failovers, resumes, installs uint64

	// source is the peer currently being pulled from; nil when idle.
	source *peer
	// inflight holds the outstanding range requests, at most SyncWindow,
	// in ascending request-id order — the order timed-out ones are
	// retried in.
	inflight []*syncReq

	// Snapshot transfer state. snapGot is the verified prefix of the
	// snapshot being fetched; its length is the resume offset, so a
	// re-partitioned or restarted transfer continues where it stopped.
	snapActive   bool
	snapFrom     *peer
	snapMark     seqset.Seq
	snapTotal    uint64
	snapGot      []byte
	snapChunks   int // chunks received since the last MsgSnapReq
	snapDeadline time.Duration
	snapRetries  int
}

// find returns the position in inflight of request id, or -1.
func (st *syncState) find(id seqset.Seq) int {
	for i, req := range st.inflight {
		if req.id == id {
			return i
		}
	}
	return -1
}

// issue puts a new request in flight, at its place in id order.
func (st *syncState) issue(req *syncReq) {
	i := len(st.inflight)
	st.inflight = append(st.inflight, req)
	for ; i > 0 && st.inflight[i-1].id > req.id; i-- {
		st.inflight[i] = st.inflight[i-1]
	}
	st.inflight[i] = req
}

// retire takes the request at position i out of flight.
func (st *syncState) retire(i int) {
	last := len(st.inflight) - 1
	copy(st.inflight[i:], st.inflight[i+1:])
	st.inflight[last] = nil
	st.inflight = st.inflight[:last]
}

// SyncStats is an exported snapshot of the catch-up layer's counters.
type SyncStats struct {
	// Rounds counts MsgSyncReq range requests issued.
	Rounds uint64
	// Failovers counts sync sources abandoned mid-transfer.
	Failovers uint64
	// SnapResumes counts snapshot requests that resumed from a nonzero
	// verified offset instead of restarting.
	SnapResumes uint64
	// SnapInstalls counts snapshots installed.
	SnapInstalls uint64
	// SnapMark is the watermark of this host's own latest checkpoint
	// (the server side; 0 when none).
	SnapMark seqset.Seq
}

// SyncStats returns the catch-up layer's counters.
func (h *Host) SyncStats() SyncStats {
	st := h.catchup
	if st == nil {
		return SyncStats{}
	}
	return SyncStats{
		Rounds:       st.rounds,
		Failovers:    st.failovers,
		SnapResumes:  st.resumes,
		SnapInstalls: st.installs,
		SnapMark:     h.snapMark,
	}
}

// emitDirect sends bypassing the piggyback outbox: sync responses carry
// parts of their own and may not nest inside a bundle, and snapshot
// chunks are better off not inflating one.
func (h *Host) emitDirect(to HostID, m Message) {
	if to == h.id || to == Nil {
		return
	}
	h.env.Send(to, m)
}

// ---------------------------------------------------------------------
// Server side.

// snapshotMaybe refreshes this host's checkpoint when the delivered
// prefix has advanced at least SnapshotEvery past the last one. Only
// the latest checkpoint is kept; a resuming client that presents a
// stale watermark restarts from offset zero.
func (h *Host) snapshotMaybe() {
	if !h.snapsOn {
		return
	}
	snap, ok := h.env.(Snapshotter)
	if !ok {
		return
	}
	p := h.ownPrefix()
	if p < h.snapMark+seqset.Seq(h.params.SnapshotEvery) {
		return
	}
	data, ok := snap.Snapshot(p)
	if !ok {
		return
	}
	h.catchup.ckpt = data
	h.snapMark = p
}

// handleSyncReq serves a range request: every requested sequence number
// still in the store becomes a gap-fill part of one MsgSyncResp, and
// the requested-but-snapshot-covered subset (pruned, or absorbed into
// state by an installed checkpoint) is reported back along with this
// host's checkpoint watermark, so the requester knows a snapshot can
// cover what per-message sync no longer can. The response is sent even
// when empty — it is authoritative ("this is everything I can give you
// for this request"), which is what lets the requester retire a request
// instead of retrying sequence numbers the responder will never have.
//
// The walk stops at the highest sequence number this host can answer
// for: every store Put sits beside an info.Add, and the pruned and
// checkpointed prefixes end at prunedTo and snapMark. A request's cost
// is therefore bounded by what this host holds, not by the range a peer
// names — one frame asking for [7, 2⁶²] would otherwise walk 2⁶²
// members that can never be served.
func (h *Host) handleSyncReq(now time.Duration, from *peer, m Message) {
	if !h.syncOn {
		return
	}
	limit := h.params.SyncBatch
	parts := h.catchup.parts[:0]
	var pruned seqset.Set
	served := 0
	top := max(h.info.Max(), h.prunedTo, h.snapMark)
	m.Info.Each(func(q seqset.Seq) bool {
		if q > top {
			return false
		}
		if q == 0 {
			return true
		}
		if payload, ok := h.store.Get(q); ok {
			parts = append(parts, Message{Kind: MsgData, Seq: q, Payload: payload, GapFill: true})
			from.view.Add(q)
			served++
		} else if q <= h.prunedTo || q <= h.snapMark {
			pruned.Add(q)
			served++
		} else if h.info.Contains(q) && h.refreshSnapshotFor(q) {
			pruned.Add(q)
			served++
		}
		return served < limit
	})
	// The response carries its parts at their count: most requests are
	// served a few sequence numbers, or none, of SyncBatch.
	resp := h.parts.carve(len(parts))
	copy(resp, parts)
	clear(parts)
	h.catchup.parts = parts[:0]
	h.emitDirect(from.id, Message{
		Kind:     MsgSyncResp,
		Seq:      m.Seq, // echo the request id
		Parts:    resp,
		Info:     pruned,
		CheckLen: uint64(h.snapMark),
	})
}

// refreshSnapshotFor forces a checkpoint refresh when a peer requests a
// sequence number this host advertises in INFO but can back from
// neither the store nor its current checkpoint. A host enters that
// window by installing a peer's snapshot: the install marks the covered
// prefix held without stocking the store, and snapshotMaybe's
// SnapshotEvery cadence can leave the host's own checkpoint behind the
// installed mark indefinitely. Left alone, a requester whose prefix
// already reaches the stale watermark loops forever against an
// advertisement nothing backs; the on-demand refresh (the cadence is a
// cost knob for the routine path, not a safety bound) restores the
// invariant that everything in INFO is servable — as data, or as
// checkpoint coverage.
func (h *Host) refreshSnapshotFor(q seqset.Seq) bool {
	if !h.snapsOn {
		return false
	}
	snap, ok := h.env.(Snapshotter)
	if !ok {
		return false
	}
	p := h.ownPrefix()
	if q > p || p <= h.snapMark {
		return false
	}
	data, ok := snap.Snapshot(p)
	if !ok {
		return false
	}
	h.catchup.ckpt = data
	h.snapMark = p
	return true
}

// handleSnapReq streams one window of checkpoint chunks starting at the
// requested byte offset. A request that names a stale watermark (or an
// offset past the end) restarts the client from offset zero on the
// current checkpoint.
func (h *Host) handleSnapReq(now time.Duration, from *peer, m Message) {
	if !h.snapsOn || h.snapMark == 0 || len(h.catchup.ckpt) == 0 {
		return
	}
	offset := uint64(m.Seq)
	if m.CheckLen != 0 && m.CheckLen != uint64(h.snapMark) {
		offset = 0 // resuming a checkpoint that no longer exists
	}
	ckpt := h.catchup.ckpt
	total := uint64(len(ckpt))
	if offset >= total {
		offset = 0
	}
	chunk := uint64(h.params.SnapChunk)
	cover := seqset.FromRange(1, h.snapMark)
	for i := 0; i < h.params.SyncWindow && offset < total; i++ {
		end := offset + chunk
		if end > total {
			end = total
		}
		h.emitDirect(from.id, Message{
			Kind:     MsgSnapChunk,
			Seq:      seqset.Seq(offset),
			Payload:  ckpt[offset:end],
			CheckLen: total,
			Info:     cover,
		})
		offset = end
	}
}

// ---------------------------------------------------------------------
// Client side.

// syncPump is the periodic driver: it retires or retries timed-out
// requests, fails over silent sources, and fills the in-flight window
// with new range requests for data some peer's confirmed view proves
// exists.
func (h *Host) syncPump(now time.Duration) {
	st := h.catchup
	if st == nil {
		return
	}
	h.pumpSnapshot(now, st)
	h.pumpRanges(now, st)
}

// pumpSnapshot handles snapshot-transfer timeouts: same-source retries
// resume from the verified offset; exhausted retries fail the source
// over and restart the transfer against the next candidate.
func (h *Host) pumpSnapshot(now time.Duration, st *syncState) {
	if !st.snapActive || now < st.snapDeadline {
		return
	}
	h.noteProbeFailure(now, st.snapFrom)
	st.snapRetries++
	if st.snapRetries > syncMaxRetries {
		h.failoverSync(now, st)
		return
	}
	h.requestSnapWindow(now, st)
}

// requestSnapWindow (re-)requests the next snapshot window from the
// current snapshot source, resuming at the verified offset.
func (h *Host) requestSnapWindow(now time.Duration, st *syncState) {
	if len(st.snapGot) > 0 {
		st.resumes++
	}
	st.snapChunks = 0
	st.snapDeadline = now + h.params.SyncTimeout
	h.emitDirect(st.snapFrom.id, Message{
		Kind:     MsgSnapReq,
		Seq:      seqset.Seq(len(st.snapGot)),
		CheckLen: uint64(st.snapMark),
	})
}

// failoverSync abandons the current sync source: it is excluded for
// this catch-up cycle, all transfer state that cannot outlive the
// source (a partially fetched snapshot is source-specific — another
// server's checkpoint has a different watermark and byte stream) is
// dropped, and the pump picks the next candidate. Range data already
// accepted is kept; only the requests are reissued.
func (h *Host) failoverSync(now time.Duration, st *syncState) {
	if st.source != nil {
		h.event(now, EvSyncFailover, st.source.id, 0)
		st.failovers++
		h.exclude(st.source, noSync)
	}
	st.source = nil
	st.inflight = nil
	st.snapActive = false
	st.snapFrom = nil
	st.snapMark = 0
	st.snapTotal = 0
	st.snapGot = nil
	st.snapChunks = 0
	st.snapRetries = 0
}

// pumpRanges retries timed-out range requests and keeps the in-flight
// window full.
func (h *Host) pumpRanges(now time.Duration, st *syncState) {
	// Retry or fail over timed-out requests, in request-id order.
	for i := 0; i < len(st.inflight); i++ {
		req := st.inflight[i]
		if now < req.deadline {
			continue
		}
		// A request can outlive its source: handleSyncResp rotates a
		// dead-end source out while other requests are in flight. The
		// retry goes to whichever source is current, and to nobody
		// (emitDirect drops Nil) while there is none.
		if st.source != nil {
			h.noteProbeFailure(now, st.source)
		}
		req.retries++
		if req.retries > syncMaxRetries {
			h.failoverSync(now, st) // drops every request, the unvisited ones too
			break
		}
		outstanding := req.want.Diff(req.got)
		if outstanding.Empty() {
			st.retire(i)
			i--
			continue
		}
		req.deadline = now + h.params.SyncTimeout
		h.emitDirect(idOf(st.source), Message{Kind: MsgSyncReq, Seq: req.id, Info: outstanding})
		h.event(now, EvSyncRound, idOf(st.source), req.id)
		st.rounds++
	}
	if st.snapActive || len(st.inflight) >= h.params.SyncWindow {
		return
	}
	// What do we want? Everything some peer's confirmed view holds that
	// we lack — excluding the pruned floor and anything already in
	// flight.
	src := st.source
	if src == nil || src.excluded&noSync != 0 || h.suppressed(now, src) {
		src = h.pickSyncSource(now, st)
		if src == nil {
			// Every candidate excluded or useless: clear the exclusions so
			// the next pump re-sweeps (the backoff layer, not the exclusion
			// list, is the long-term gate).
			h.readmit(noSync)
			st.source = nil
			return
		}
		st.source = src
	}
	missing := h.missingFrom(src)
	if missing.Empty() {
		st.source = nil
		return
	}
	var requested seqset.Set
	for _, req := range st.inflight {
		requested.Union(req.want)
	}
	batch := h.params.SyncBatch
	for len(st.inflight) < h.params.SyncWindow {
		var want seqset.Set
		count := 0
		missing.Each(func(q seqset.Seq) bool {
			if q > h.prunedTo && !requested.Contains(q) {
				want.Add(q)
				count++
			}
			return count < batch
		})
		if want.Empty() {
			return
		}
		requested.Union(want)
		id := want.Min()
		st.issue(&syncReq{id: id, want: want, deadline: now + h.params.SyncTimeout})
		h.emitDirect(src.id, Message{Kind: MsgSyncReq, Seq: id, Info: want})
		h.event(now, EvSyncRound, src.id, id)
		st.rounds++
	}
}

// missingFrom is what peer j's confirmed view proves exists that this
// host lacks. Beyond the plain set difference, it includes the phantom
// prefix: broadcast sequence numbers are contiguous from 1, so a peer
// whose INFO starts above our own contiguous prefix proves sequence
// numbers exist that neither its INFO nor ours covers — a prefix the
// peer pruned (under liberation, past its checkpoint). Requesting it
// anyway is what surfaces the checkpoint: the authoritative response
// either serves the data, or reports it pruned and advertises the
// watermark of the snapshot that covers it.
//
// The result is clipped at this host's own pruning floor: a remote
// peer's confirmed view can be arbitrarily stale (INFO exchange is
// periodic and topology-local), and sequence numbers at or below
// prunedTo are held by definition. Without the clip, a stale view
// "proves" missing data this host long since pruned, and the pump's
// source choice can wedge on it — missingFrom non-empty keeps the
// source sticky, while the floor filter keeps the want set empty, so
// no request is ever issued and no other source is ever tried.
//
// The result is the host's scratch set: read it before the next call
// here, to fillGapsOf or to handleAttachReq.
func (h *Host) missingFrom(j *peer) seqset.Set {
	missing := &h.scratch
	j.confirmed.DiffInto(missing, h.info)
	if min := j.confirmed.Min(); min > 0 {
		if lo := h.ownPrefix() + 1; min > lo {
			missing.AddRange(lo, min-1)
		}
	}
	missing.Prune(h.prunedTo)
	return *missing
}

// pickSyncSource chooses the peer whose confirmed view has the most we
// lack, by (missing count, static order, id) — a deterministic choice
// mirroring attach.go's candidate rule.
func (h *Host) pickSyncSource(now time.Duration, st *syncState) *peer {
	var best *peer
	bestGain := 0
	for _, j := range h.table {
		// An untouched record has an empty confirmed view: no gain.
		if j == nil || j == h.me || j.excluded&noSync != 0 || h.suppressed(now, j) {
			continue
		}
		gain := h.missingFrom(j).Len()
		if gain == 0 {
			continue
		}
		switch {
		case best == nil, gain > bestGain,
			gain == bestGain && h.orderOf(j) > h.orderOf(best),
			gain == bestGain && h.orderOf(j) == h.orderOf(best) && j.id > best.id:
			best = j
			bestGain = gain
		}
	}
	return best
}

// handleSyncResp accepts solicited range data. Every part must name a
// sequence number still outstanding on the matching in-flight request;
// anything else — unsolicited parts, duplicate parts, a response to a
// request we never sent — is dropped. The response is authoritative for
// its request, so the request is retired whole; sequence numbers the
// responder could not serve resurface in the next pump round (or are
// covered by the snapshot the responder's watermark advertises).
func (h *Host) handleSyncResp(now time.Duration, from *peer, m Message) {
	st := h.catchup
	if st == nil {
		return
	}
	at := st.find(m.Seq)
	if at < 0 {
		return
	}
	req := st.inflight[at]
	for _, part := range m.Parts {
		if part.Kind != MsgData || part.Seq == 0 {
			continue
		}
		// The solicitation check: only sequence numbers we asked this
		// request for, and have not yet received, are accepted.
		if !req.want.Contains(part.Seq) || req.got.Contains(part.Seq) {
			continue
		}
		req.got.Add(part.Seq)
		h.acceptSyncData(now, from, part.Seq, part.Payload)
	}
	st.retire(at)
	// The responder advertises its checkpoint watermark on every
	// response; if it reaches past our contiguous prefix, a snapshot can
	// cover what per-message sync cannot (range sync continues above the
	// watermark in parallel).
	useful := m.CheckLen > 0 && h.snapshotUseful(seqset.Seq(m.CheckLen))
	if useful && !st.snapActive {
		st.snapActive = true
		st.snapFrom = from
		st.snapMark = 0 // learned from the first chunk
		st.snapTotal = 0
		st.snapGot = nil
		st.snapRetries = 0
		h.requestSnapWindow(now, st)
	}
	// A healthy source can still be a dead end: the response is
	// authoritative, so any wanted sequence number it neither served nor
	// reported snapshot-covered (m.Info) is one this source cannot
	// provide — and if its watermark cannot help either, re-asking it
	// next pump round just loops. Rotate: exclude the source for this
	// catch-up cycle so the pump picks a peer that can actually help
	// (the exclusion set clears once every candidate has been tried).
	if unbacked := req.want.Diff(req.got).Diff(m.Info); !unbacked.Empty() && !useful {
		h.exclude(from, noSync)
		if st.source == from {
			st.source = nil
		}
	}
}

// snapshotUseful reports whether installing a checkpoint with the given
// watermark would advance this host's state: the environment can take
// it, and the watermark reaches past our contiguous held prefix (so the
// snapshot covers at least one sequence number we lack).
func (h *Host) snapshotUseful(mark seqset.Seq) bool {
	if _, ok := h.env.(Snapshotter); !ok {
		return false
	}
	return mark > h.ownPrefix()
}

// acceptSyncData is the acceptance path for solicited range data: the
// §4.1 parent-only rule does not apply because the receiver asked for
// exactly this sequence number (the solicitation, not the sender, is
// the authority — the same shape as echo.go's quorum relaxation). Under
// EchoReady the payload still goes through the voting machinery rather
// than being delivered outright.
func (h *Host) acceptSyncData(now time.Duration, from *peer, seq seqset.Seq, payload []byte) {
	h.learnHas(from, seq)
	if seq <= h.prunedTo || h.info.Contains(seq) {
		h.event(now, EvDuplicate, from.id, seq)
		return
	}
	if h.params.EchoReady {
		h.handleDataEcho(now, from, Message{Kind: MsgData, Seq: seq, Payload: payload, GapFill: true})
		return
	}
	h.changeInfo().Add(seq)
	stored := h.keepIn(payload)
	h.store.Put(seq, stored)
	h.env.Deliver(seq, stored)
	h.event(now, EvAccepted, from.id, seq)
}

// handleSnapChunk verifies and appends one snapshot chunk. Only the
// expected source, the expected watermark/total, and exactly the next
// byte offset are accepted — every accepted chunk extends the verified
// prefix, so a transfer interrupted at any point resumes from
// len(snapGot) and never restarts from zero.
func (h *Host) handleSnapChunk(now time.Duration, from *peer, m Message) {
	st := h.catchup
	if st == nil || !st.snapActive || from != st.snapFrom {
		return
	}
	if m.Info.RunCount() != 1 || m.Info.Run(0).Lo != 1 {
		return
	}
	mark := m.Info.Run(0).Hi
	total := m.CheckLen
	offset := uint64(m.Seq)
	if total == 0 || total > maxSnapshotBytes || uint64(len(m.Payload)) > total {
		return
	}
	if st.snapTotal == 0 && len(st.snapGot) == 0 {
		// First chunk: adopt the server's watermark and total. A snapshot
		// that no longer advances us (we caught up by other means while the
		// request was in flight) is simply abandoned — the source is
		// healthy, so no failover.
		if !h.snapshotUseful(mark) {
			st.snapActive = false
			st.snapFrom = nil
			return
		}
		st.snapMark = mark
		st.snapTotal = total
	}
	if mark != st.snapMark || total != st.snapTotal {
		// A different checkpoint than the one mid-transfer: the server
		// refreshed (or we resumed against a stale watermark). Restart
		// this transfer from zero against the same source.
		st.snapGot = nil
		st.snapTotal = 0
		st.snapMark = 0
		st.snapRetries = 0
		h.requestSnapWindow(now, st)
		return
	}
	if offset != uint64(len(st.snapGot)) || offset+uint64(len(m.Payload)) > total {
		return // out-of-order or duplicate chunk; the window re-request recovers
	}
	st.snapGot = append(st.snapGot, m.Payload...)
	st.snapChunks++
	st.snapRetries = 0
	st.snapDeadline = now + h.params.SyncTimeout
	if uint64(len(st.snapGot)) == total {
		h.installSnapshot(now, from.id, st.snapMark, st.snapGot)
		st.snapActive = false
		st.snapFrom = nil
		st.snapMark = 0
		st.snapTotal = 0
		st.snapGot = nil
		st.snapChunks = 0
		return
	}
	if st.snapChunks >= h.params.SyncWindow {
		h.requestSnapWindow(now, st)
	}
}

// installSnapshot hands a complete checkpoint to the environment and,
// on success, marks the whole covered prefix [1, mark] as held. The
// prefix enters INFO rather than moving prunedTo directly, so the §6
// duplicate-window argument is untouched: a late copy of any covered
// sequence number hits the info.Contains duplicate check, and the
// pruning floor advances only through pruneStable's guarded path.
func (h *Host) installSnapshot(now time.Duration, from HostID, mark seqset.Seq, data []byte) {
	snap, ok := h.env.(Snapshotter)
	if !ok {
		return
	}
	if mark == 0 || mark <= h.prunedTo {
		return
	}
	if !snap.InstallSnapshot(mark, data) {
		return
	}
	h.changeInfo().AddRange(1, mark)
	h.catchup.installs++
	h.event(now, EvSnapshotInstalled, from, mark)
}
