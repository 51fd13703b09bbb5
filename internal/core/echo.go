package core

import (
	"hash/fnv"
	"time"

	"rbcast/internal/seqset"
)

// Echo/ready hardening (Params.EchoReady): an optional Bracha-flavoured
// layer over the paper's protocol for tolerating hosts that actively
// lie. The paper's failure model is benign — links lose and reorder,
// hosts fall silent — so a single forwarding host can equivocate:
// deliver payload A for sequence s to one subtree and payload B to
// another, and every correct host accepts whatever its parent relayed.
//
// With EchoReady on, receiving a data message no longer delivers it.
// Instead the host holds the payload as *pending*, votes by echoing
// (seq, digest) to every peer, and delivers only when the pending
// digest is backed by 2f+1 ready votes, where readies are sent after an
// echo quorum of (n+f)/2+1 matching votes (or amplified after f+1
// readies). Two digests can never both gather an echo quorum while at
// most f hosts are faulty, so correct hosts agree on the payload for
// every sequence number they deliver — equivocation costs the
// adversary liveness for that message, never agreement. Conflicting
// votes or payloads for one sequence number are surfaced as
// EvEquivocation events and counted (Equivocations), giving the harness
// its detection counter.
//
// Tree propagation is unchanged: payloads still flow parent-to-child
// and via gap fills, and a pending payload is forwarded immediately —
// only *delivery* is quorum-gated. Echo and ready frames are
// best-effort like everything else, so pending votes are re-advertised
// at the routine INFO cadence, and a host that already delivered
// answers any echo for that sequence number with its ready vote,
// letting stragglers assemble a quorum long after the original burst.
//
// One §4.1 relaxation applies: a data message above the receiver's
// current maximum is normally accepted only from the parent, but a
// payload whose digest already holds a ready quorum is accepted from
// anyone — the quorum, not the sender, is the authority. This lets a
// host escape an equivocating parent once the rest of the network has
// settled on the real payload.

// PayloadDigest fingerprints a data payload for echo/ready voting; it is
// the one payload fingerprint of the repo (the harness's delivery check
// and the adversary's forged votes use it too).
// FNV-64a is not collision-resistant against an adversary who can
// choose payloads offline; it is the honest-host agreement fingerprint
// this simulator needs, chosen because the repo already leans on FNV
// for deterministic seeding and carries no crypto dependencies.
func PayloadDigest(p []byte) uint64 {
	d := fnv.New64a()
	d.Write(p)
	return d.Sum64()
}

// echoState tracks one sequence number's voting round.
type echoState struct {
	// payload/digest is the pending payload (nil once delivered; the
	// digest is retained for post-delivery ready replies).
	payload     []byte
	digest      uint64
	havePayload bool
	// echoed / readySent record this host's own votes.
	echoed    bool
	readySent bool
	// votes is the round's vote row, parallel to Host.peers and made at
	// the first vote. It pins each participant to its first vote of each
	// phase, so a peer voting for two digests is counted once and flagged
	// as equivocation.
	votes []vote
	// tallies counts the row per digest, in first-seen order: one entry
	// unless some participant lies, never more than two per participant.
	tallies []tally
}

// phase indexes the two votes of a round.
type phase int

const (
	echoPhase phase = iota
	readyPhase
)

// vote is one row entry: by phase, whether the participant has voted and
// the digest it first voted for.
type vote struct {
	digest [2]uint64
	cast   [2]bool
}

// tally is how many participants' first votes one digest holds, by phase.
type tally struct {
	digest uint64
	count  [2]int
}

// count is the number of first votes of one phase that d holds.
func (st *echoState) count(ph phase, d uint64) int {
	for i := range st.tallies {
		if st.tallies[i].digest == d {
			return st.tallies[i].count[ph]
		}
	}
	return 0
}

// echoSt returns (creating on demand) the voting state for seq.
func (h *Host) echoSt(seq seqset.Seq) *echoState {
	st, ok := h.echo.Get(seq)
	if !ok {
		st = &echoState{}
		h.echo.Put(seq, st)
	}
	return st
}

// The quorum inequalities. Write n for the participant count and f for
// the Byzantine budget. The agreement argument rests on the arithmetic
// facts below; the prose is the why, and TestQuorumInequalities
// (quorum_test.go) checks each of them by name on the four functions
// that follow, for every n ≤ 600 with every budget Params.Validate
// admits up to n+2 and MaxEchoFaulty itself, and for n = 2³¹−1, 2³¹ and
// 2⁴⁰ at the default budget and at the cap. That is a sweep, not a
// proof over all n; it is also run against four off-by-one variants of
// these functions and must reject each.
//
//   intersection   2·echoQuorum − n − f − 1 ≥ 0
//     Two echo quorums for different digests overlap in at least
//     2·eq − n ≥ f+1 hosts; at most f of those are faulty, so an
//     honest host would have to echo both digests — and honest hosts
//     echo once. Hence at most one digest can reach echoQuorum.
//   honest majority   readyQuorum − 2f − 1 ≥ 0
//     A delivered ready quorum of 2f+1 contains at least f+1 correct
//     hosts, enough to keep answering retransmit requests forever.
//   amplification   readyAmplify − f − 1 ≥ 0
//     f+1 readies exceed the faulty population, so at least one came
//     from a correct host that saw an echo quorum first-hand.
//   defaulting   f ≤ ⌊(n−1)/3⌋ when EchoMaxFaulty is unset
//     The defaulted budget respects the classical n > 3f resilience
//     bound.
//   reachability   echoQuorum ≤ n − f and readyQuorum ≤ n − f
//     The n − f correct hosts alone can assemble both quorums, so f
//     silent hosts cost no delivery. It holds exactly when n > 3f, which
//     the default budget guarantees and NewHost demands of an explicit
//     one (admitsBudget).
//
// No threshold is negative or overflows either: the arithmetic is in
// int, n is a slice length and an explicit f is at most MaxEchoFaulty.

// byzBudget is the assumed Byzantine budget f for n participants: the
// explicit Params.EchoMaxFaulty when set, otherwise ⌊(n−1)/3⌋.
func byzBudget(n, maxFaulty int) int {
	if maxFaulty > 0 {
		return maxFaulty
	}
	return (n - 1) / 3
}

// admitsBudget is NewHost's rule for the budget setting: the default
// always, an explicit f only where the correct hosts can reach the
// quorums below (the reachability obligation above).
func admitsBudget(n, maxFaulty int) bool { return maxFaulty == 0 || n > 3*maxFaulty }

// echoQuorumOf is the matching-echo count that justifies a ready vote:
// (n+f)/2+1, so two distinct digests cannot both reach it while at most
// f voters are faulty.
func echoQuorumOf(n, f int) int { return (n+f)/2 + 1 }

// readyQuorumOf is the ready count that justifies delivery: 2f+1, of
// which at least f+1 are correct hosts that will keep answering.
func readyQuorumOf(f int) int { return 2*f + 1 }

// readyAmplifyOf is the Bracha amplification threshold: f+1 readies
// prove at least one correct host saw an echo quorum, so joining is safe
// even without having seen the quorum first-hand.
func readyAmplifyOf(f int) int { return f + 1 }

// The host's thresholds: the functions above at its participant count
// and configured budget.
func (h *Host) byzF() int         { return byzBudget(len(h.peers), h.params.EchoMaxFaulty) }
func (h *Host) echoQuorum() int   { return echoQuorumOf(len(h.peers), h.byzF()) }
func (h *Host) readyQuorum() int  { return readyQuorumOf(h.byzF()) }
func (h *Host) readyAmplify() int { return readyAmplifyOf(h.byzF()) }

// Equivocations returns how many conflicting-vote observations this
// host has made under EchoReady (0 when the mode is off).
func (h *Host) Equivocations() uint64 { return h.equivocations }

// recordVote counts one vote of phase ph for (seq, d) by participant
// from. It reports whether the vote was fresh; a peer changing its vote
// is flagged as equivocation and not re-counted.
func (h *Host) recordVote(now time.Duration, ph phase, from HostID, seq seqset.Seq, d uint64, st *echoState) bool {
	if st.votes == nil {
		st.votes = make([]vote, len(h.peers))
	}
	v := &st.votes[h.index(from)]
	if v.cast[ph] {
		if v.digest[ph] != d {
			h.equivocations++
			h.event(now, EvEquivocation, from, seq)
		}
		return false
	}
	v.digest[ph], v.cast[ph] = d, true
	for i := range st.tallies {
		if st.tallies[i].digest == d {
			st.tallies[i].count[ph]++
			return true
		}
	}
	t := tally{digest: d}
	t.count[ph] = 1
	st.tallies = append(st.tallies, t)
	return true
}

// broadcastMeta sends an echo or ready vote to every peer.
func (h *Host) broadcastMeta(kind MsgKind, seq seqset.Seq, d uint64) {
	m := Message{Kind: kind, Seq: seq, CheckLen: d}
	for _, j := range h.peers {
		if j != h.id {
			h.emit(j, m)
		}
	}
}

// maybeReady casts this host's ready vote for (seq, d) if d just
// reached the echo quorum or the f+1 ready amplification threshold.
// Quorum checks run only for the digest whose count just changed.
func (h *Host) maybeReady(now time.Duration, seq seqset.Seq, d uint64, st *echoState) {
	if st.readySent {
		return
	}
	if st.count(echoPhase, d) < h.echoQuorum() && st.count(readyPhase, d) < h.readyAmplify() {
		return
	}
	st.readySent = true
	h.recordVote(now, readyPhase, h.id, seq, d, st)
	h.broadcastMeta(MsgReady, seq, d)
}

// maybeDeliver delivers the pending payload for seq if its digest is d
// and d holds a ready quorum.
func (h *Host) maybeDeliver(now time.Duration, from HostID, seq seqset.Seq, d uint64, st *echoState) {
	if seq <= h.prunedTo || h.info.Contains(seq) {
		return
	}
	if !st.havePayload || st.digest != d {
		return
	}
	if st.count(readyPhase, d) < h.readyQuorum() {
		return
	}
	h.acceptCertified(now, from, seq, st)
}

// acceptCertified is the echo-mode counterpart of the §4.1 acceptance
// in handleData: the quorum-certified pending payload enters INFO and
// the store and is delivered. The payload was already forwarded when it
// became pending; post-delivery redistribution rides the normal gap
// fills.
func (h *Host) acceptCertified(now time.Duration, from HostID, seq seqset.Seq, st *echoState) {
	h.info.Add(seq)
	stored := st.payload
	st.payload = nil
	h.store.Put(seq, stored)
	h.env.Deliver(seq, stored)
	h.event(now, EvAccepted, from, seq)
}

// handleDataEcho is the EchoReady replacement for the acceptance half
// of handleData: the payload goes pending and is voted on instead of
// being delivered outright. Caller has already done learnHas and the
// duplicate check.
func (h *Host) handleDataEcho(now time.Duration, from *peer, m Message) {
	d := PayloadDigest(m.Payload)
	st := h.echoSt(m.Seq)
	certified := st.count(readyPhase, d) >= h.readyQuorum()
	newMax := m.Seq > h.info.Max()
	// §4.1 with the quorum relaxation: a new-maximum payload is accepted
	// from the parent or on the strength of a ready quorum for its digest.
	if newMax && from != h.parent && !certified {
		h.event(now, EvRejected, from.id, m.Seq)
		if !m.GapFill {
			h.emit(from.id, Message{Kind: MsgDetach})
		}
		return
	}
	if st.havePayload && st.digest != d {
		// A different payload for a sequence number already pending:
		// direct evidence of equivocation. Adopt the replacement only
		// when a ready quorum vouches for it; otherwise first-come wins
		// and the conflict is just counted.
		h.equivocations++
		h.event(now, EvEquivocation, from.id, m.Seq)
		if !certified {
			return
		}
	}
	first := !st.havePayload
	if first || (certified && st.digest != d) {
		// A replaced payload is dropped, not overwritten: kept bytes are
		// never rewritten in place.
		st.payload = h.keepIn(m.Payload)
		st.digest = d
		st.havePayload = true
	}
	if !st.echoed {
		st.echoed = true
		h.recordVote(now, echoPhase, h.id, m.Seq, st.digest, st)
		h.broadcastMeta(MsgEcho, m.Seq, st.digest)
	}
	if first {
		// Propagation is not quorum-gated — forward exactly as the plain
		// protocol would, so the tree latency story is unchanged.
		h.forwardData(from, m.Seq, st.payload, newMax && !m.GapFill)
	}
	h.maybeReady(now, m.Seq, st.digest, st)
	h.maybeDeliver(now, from.id, m.Seq, st.digest, st)
}

func (h *Host) handleEcho(now time.Duration, from *peer, m Message) {
	if !h.params.EchoReady || m.Seq == 0 || m.Seq <= h.prunedTo {
		return
	}
	st := h.echoSt(m.Seq)
	h.recordVote(now, echoPhase, from.id, m.Seq, m.CheckLen, st)
	if h.info.Contains(m.Seq) {
		// Already delivered: answer with our ready vote so a straggler
		// whose original vote burst was lost can still reach its quorum.
		h.emit(from.id, Message{Kind: MsgReady, Seq: m.Seq, CheckLen: st.digest})
		return
	}
	h.maybeReady(now, m.Seq, m.CheckLen, st)
	h.maybeDeliver(now, from.id, m.Seq, m.CheckLen, st)
}

func (h *Host) handleReady(now time.Duration, from *peer, m Message) {
	if !h.params.EchoReady || m.Seq == 0 || m.Seq <= h.prunedTo {
		return
	}
	st := h.echoSt(m.Seq)
	if !h.recordVote(now, readyPhase, from.id, m.Seq, m.CheckLen, st) {
		return
	}
	if h.info.Contains(m.Seq) {
		return
	}
	h.maybeReady(now, m.Seq, m.CheckLen, st)
	h.maybeDeliver(now, from.id, m.Seq, m.CheckLen, st)
}

// resendEchoMeta re-advertises this host's votes for every sequence
// number still pending, at the routine INFO cadence. Votes travel on
// the same best-effort network as everything else; without periodic
// re-advertisement a lossy burst could leave a quorum permanently one
// vote short.
func (h *Host) resendEchoMeta() {
	self := h.index(h.id)
	h.echo.Each(func(q seqset.Seq, st *echoState) bool {
		if q <= h.prunedTo || h.info.Contains(q) {
			return true
		}
		// A vote this host has cast is in its own row entry.
		if st.echoed {
			h.broadcastMeta(MsgEcho, q, st.votes[self].digest[echoPhase])
		}
		if st.readySent {
			h.broadcastMeta(MsgReady, q, st.votes[self].digest[readyPhase])
		}
		return true
	})
}
