package core

import (
	"slices"
	"time"

	"rbcast/internal/seqset"
)

// This file implements the §4.2 attachment procedure and the §4.3 cycle
// rules.
//
// The procedure distinguishes three cases by the host's current parent:
//
//	Case I   — no parent;
//	Case II  — parent in a different cluster (the host is a cluster
//	           leader);
//	Case III — parent in the same cluster.
//
// and tries that case's options in order until a candidate parent is
// found or the options are exhausted. A found candidate gets an attach
// request; on ack timeout the candidate is excluded and the procedure
// repeats. Throughout, a host only ever attaches to a parent whose INFO
// set (per MAP) is not smaller than its own — the invariant §4.3's
// acyclicity argument rests on.

// attachFillLimit caps the number of missing messages a new parent
// forwards immediately on accepting a child; the periodic neighbour gap
// fill delivers the rest.
const attachFillLimit = 256

// runAttachment activates the attachment procedure. fresh indicates a
// periodic activation (which clears the excluded set) as opposed to an
// immediate retry after a timeout or rejection.
func (h *Host) runAttachment(now time.Duration, fresh bool) {
	if h.IsSource() || h.attach.inProgress || h.attach.exhausted {
		return
	}
	if fresh {
		h.readmit(noAttach)
	}
	var cand *peer
	switch {
	case h.parent == nil:
		cand = h.pickCaseI(now)
	case !h.inCluster(h.parent):
		cand = h.pickCaseII(now)
	default:
		cand = h.pickCaseIII(now)
	}
	if cand == nil {
		if fresh && h.parent == nil {
			h.attach.barren++
		}
		// A timeout/reject retry chain that has run out of candidates has
		// excluded every option; re-sweeping each AttachPeriod buys
		// nothing until new evidence (any inbound message) arrives.
		if !fresh {
			h.attach.exhausted = true
		}
		return
	}
	h.attach.barren = 0
	h.attach.inProgress = true
	h.attach.candidate = cand
	h.attach.deadline = now + h.params.AttachTimeout
	h.noteFullInfoSent(cand)
	h.emit(cand.id, Message{Kind: MsgAttachReq, Info: h.advert()})
}

// eligible applies the filters common to every option: never self, never
// the current parent (re-attaching is a no-op), never an excluded
// candidate, never a suspected peer still inside its backoff window, and
// never a host whose INFO (per MAP) is smaller than ours.
func (h *Host) eligible(now time.Duration, j *peer) bool {
	if j == h.me || j == h.parent || j.excluded&noAttach != 0 {
		return false
	}
	if h.suppressed(now, j) {
		return false
	}
	return seqset.LessOrSimilar(h.info, j.view)
}

// viewsAsLeader reports whether, per p_i[], host j is a cluster leader:
// its parent is NIL/unknown or lies outside this host's cluster view.
func (h *Host) viewsAsLeader(j *peer) bool {
	pj := h.lookup(j.parentView)
	return pj == nil || !h.inCluster(pj)
}

// better returns whichever candidate maximizes (INFO max, static order,
// id) — a deterministic choice that prefers the freshest parent, and
// among equals the highest-ordered one, so that a cluster converges on a
// single leader. best is nil until a first candidate is found.
func (h *Host) better(best, j *peer) *peer {
	if best == nil {
		return j
	}
	jm, bm := j.view.Max(), best.view.Max()
	jo, bo := h.orderOf(j), h.orderOf(best)
	if jm > bm || jm == bm && (jo > bo || jo == bo && j.id > best.id) {
		return j
	}
	return best
}

// pickCaseI implements Case I (host currently without a parent).
func (h *Host) pickCaseI(now time.Duration) *peer {
	// Option 1: a same-cluster leader with a strictly greater INFO set.
	if j := h.optSameClusterLeaderGreater(now); j != nil {
		return j
	}
	// Option 2: a same-cluster leader with a similar INFO set and a
	// greater static order.
	if j := h.optSameClusterLeaderSimilarHigherOrder(now); j != nil {
		return j
	}
	// Option 3: a host in a different cluster with a greater INFO set.
	if j := h.optOtherClusterGreaterThan(now, h.info); j != nil {
		return j
	}
	// Option 4 (beyond §4.2): a host in a different cluster with a
	// similar INFO set and a greater static order, or the source itself.
	// §4.2's option 3 assumes a detached host's INFO has fallen behind
	// some other cluster's, so a strictly greater parent exists; the
	// catch-up sync layer breaks that assumption — a healed host can
	// reach the global watermark before its first attachment sweep and
	// then find no strictly greater candidate anywhere, wedging detached
	// forever (its cluster peers may all be its own descendants, ruling
	// options 1 and 2 out too). Order-increasing similar attachment is
	// option 2's rule applied across clusters, so the acyclicity
	// argument is untouched: a cycle of similar-INFO edges would need
	// strictly increasing static order around the loop, and an edge to
	// the source terminates (the source never attaches to anyone).
	//
	// The escape is a last resort: it engages only after repeated barren
	// periodic sweeps, and only once this host holds data. Both gates
	// target the same hazard — at startup every INFO set is empty and
	// hence trivially similar, and an eager escape would reshape the
	// young tree into order-chasing cross-cluster chains instead of
	// letting the paper's options converge it.
	if h.attach.barren < escapeBarrenSweeps || h.info.Empty() {
		return nil
	}
	return h.optOtherClusterSimilarEscape(now)
}

// escapeBarrenSweeps is how many consecutive candidate-less periodic
// sweeps a detached host tolerates before Case I's option 4 engages.
const escapeBarrenSweeps = 2

func (h *Host) optOtherClusterSimilarEscape(now time.Duration) *peer {
	var best *peer
	for _, j := range h.table {
		// An untouched peer's view is empty: never similar to a non-empty
		// INFO, which option 4 requires.
		if j == nil || h.inCluster(j) || !h.eligible(now, j) {
			continue
		}
		if seqset.Similar(h.info, j.view) && (j.id == h.source || h.orderOf(h.me) < h.orderOf(j)) {
			best = h.better(best, j)
		}
	}
	return best
}

// pickCaseII implements Case II (parent in a different cluster — the
// host is a cluster leader).
func (h *Host) pickCaseII(now time.Duration) *peer {
	// Options 1 and 2 are Case I's: prefer rejoining the cluster's tree.
	if j := h.optSameClusterLeaderGreater(now); j != nil {
		return j
	}
	if j := h.optSameClusterLeaderSimilarHigherOrder(now); j != nil {
		return j
	}
	// Option 3: a host in a different cluster whose INFO exceeds the
	// current parent's — the delay-chasing rule, which also detects a
	// disconnected parent whose INFO view falls behind.
	return h.optOtherClusterGreaterThan(now, h.parent.view)
}

func (h *Host) optSameClusterLeaderGreater(now time.Duration) *peer {
	var best *peer
	for j := range h.each(cluster) {
		if h.eligible(now, j) && h.viewsAsLeader(j) && seqset.Less(h.info, j.view) {
			best = h.better(best, j)
		}
	}
	return best
}

func (h *Host) optSameClusterLeaderSimilarHigherOrder(now time.Duration) *peer {
	var best *peer
	for j := range h.each(cluster) {
		if h.eligible(now, j) && h.viewsAsLeader(j) && seqset.Similar(h.info, j.view) && h.orderOf(h.me) < h.orderOf(j) {
			best = h.better(best, j)
		}
	}
	return best
}

func (h *Host) optOtherClusterGreaterThan(now time.Duration, bar seqset.Set) *peer {
	var best *peer
	for _, j := range h.table {
		// An untouched peer's view is empty: never greater than any bar.
		if j == nil || h.inCluster(j) || !h.eligible(now, j) {
			continue
		}
		if seqset.Less(bar, j.view) {
			best = h.better(best, j)
		}
	}
	return best
}

// pickCaseIII implements Case III (parent in the same cluster): attach to
// an ancestor (other than the parent) that is a same-cluster leader with
// an INFO set not smaller than the host's own. Walking the ancestor chain
// doubles as the §4.3 intra-cluster cycle detector: a host that finds
// itself among its own ancestors is on a cycle, and if it carries the
// highest static order on that cycle it must detach and fall back to
// Case I.
func (h *Host) pickCaseIII(now time.Duration) *peer {
	chain, cyclic := h.ancestorChain()
	if cyclic {
		if h.maxOrderOn(append(chain, h.me)) == h.me {
			old := h.parent
			h.parent = nil
			h.emit(old.id, Message{Kind: MsgDetach})
			h.event(now, EvCycleBroken, old.id, 0)
			return h.pickCaseI(now)
		}
		return nil
	}
	for _, j := range chain {
		if j == h.parent || !h.eligible(now, j) {
			continue
		}
		if h.inCluster(j) && h.viewsAsLeader(j) && seqset.LessOrSimilar(h.info, j.view) {
			return j
		}
	}
	return nil
}

// ancestorChain follows p_i[] pointers from the parent upward. It returns
// the ancestors in order and whether the walk returned to this host (an
// intra-cluster cycle through i). The walk stops at NIL, at a pointer
// that names no participant, at a repeated host, or after len(peers)
// steps. The chain is Host.chain, scratch the next walk overwrites.
func (h *Host) ancestorChain() (chain []*peer, cyclic bool) {
	chain = h.chain[:0]
	cur := h.parent
	for steps := 0; steps < len(h.peers) && cur != nil; steps++ {
		if cur == h.me {
			cyclic = true
			break
		}
		if slices.Contains(chain, cur) {
			// A cycle above us that does not pass through us; the hosts on
			// it will break it themselves.
			break
		}
		chain = append(chain, cur)
		cur = h.lookup(cur.parentView)
	}
	h.chain = chain
	return chain, cyclic
}

// maxOrderOn returns the host with the greatest static order among hosts.
func (h *Host) maxOrderOn(hosts []*peer) *peer {
	var out *peer
	for _, j := range hosts {
		if out == nil || h.orderOf(j) > h.orderOf(out) {
			out = j
		}
	}
	return out
}

// handleAttachReq processes an adoption request: the requester becomes a
// child and immediately receives the messages it is missing (§4.4 attach
// gap fill). A request from our own parent is declined — accepting would
// instantly create a two-cycle.
func (h *Host) handleAttachReq(now time.Duration, from *peer, m Message) {
	if from == h.parent {
		h.emit(from.id, Message{Kind: MsgAttachReject})
		return
	}
	// Crossing requests (we asked from; from asked us) would form an
	// instant two-cycle if both accepted; the lower-ordered host yields.
	if h.attach.inProgress && h.attach.candidate == from && h.orderOf(h.me) < h.orderOf(from) {
		h.emit(from.id, Message{Kind: MsgAttachReject})
		return
	}
	h.learnInfo(from, m.Info)
	from.parentView = h.id
	if !h.isChild(from) {
		h.setChild(from, true)
		h.event(now, EvChildAdded, from.id, 0)
	}
	h.noteFullInfoSent(from)
	h.emit(from.id, Message{Kind: MsgAttachAccept, Info: h.advert()})
	// Forward what the child is missing and we have, up to the limit; the
	// periodic neighbour gap fill covers any remainder.
	h.info.DiffInto(&h.scratch, m.Info)
	sent := 0
	h.scratch.Each(func(q seqset.Seq) bool {
		payload, ok := h.store.Get(q)
		if !ok {
			return true
		}
		h.sendMarking(from, Message{Kind: MsgData, Seq: q, Payload: payload, GapFill: true})
		sent++
		return sent < attachFillLimit
	})
}

// handleAttachAccept completes the handshake begun by runAttachment.
func (h *Host) handleAttachAccept(now time.Duration, from *peer, m Message) {
	if !h.attach.inProgress || from != h.attach.candidate {
		// A stale acceptance from an earlier candidate: we are attached
		// elsewhere by now, so correct the sender's CHILDREN set.
		if from != h.parent {
			h.emit(from.id, Message{Kind: MsgDetach})
		}
		return
	}
	old := h.parent
	h.parent = from
	h.lastFromParent = now
	h.learnInfo(from, m.Info)
	h.attach = attachState{}
	h.readmit(noAttach)
	if old != nil && old != from {
		// §4.2: the old parent is notified of the change.
		h.emit(old.id, Message{Kind: MsgDetach})
	}
	h.event(now, EvAttached, from.id, 0)
}

// handleAttachReject excludes the candidate and retries immediately.
func (h *Host) handleAttachReject(now time.Duration, from *peer) {
	if !h.attach.inProgress || from != h.attach.candidate {
		return
	}
	h.event(now, EvAttachFailed, from.id, 0)
	h.exclude(from, noAttach)
	h.attach.inProgress = false
	h.runAttachment(now, false)
}
