package core

import (
	"hash/fnv"
	"time"
)

// This file implements the per-peer health layer: a suspicion-level
// failure detector derived purely from events the state machine already
// sees (messages in, attach-ack timeouts, parent silence), used to
// schedule control traffic adaptively. The paper (§6) frames the whole
// reliability/cost trade-off in terms of fixed exchange frequencies;
// the health layer keeps those frequencies for responsive peers but
// backs off exponentially toward peers that repeatedly fail to answer,
// and snaps back — with an immediate fast-resync burst — the moment a
// suspected peer is heard from again. The layer is disabled (all
// behavior byte-identical to fixed timers) when Params.BackoffBase is
// zero.

// peerHealth is one peer's liveness record, held by value in the peer's
// table record (peer.go). Its three times come first and its count and
// flags share the last word, so the record is 32 bytes.
type peerHealth struct {
	// lastHeard is when any message last arrived from the peer; valid
	// only when everHeard.
	lastHeard time.Duration
	// probeSentAt/probePending track the most recent global INFO probe
	// toward a previously-heard peer, so the next probe can tell whether
	// the peer stayed silent through a whole probe interval.
	probeSentAt time.Duration
	// nextContact is the earliest instant backoff-gated control traffic
	// (attach attempts, global INFO probes, global gap fills) may be
	// sent toward the peer again. Meaningful only while suspected.
	nextContact time.Duration
	// failures counts consecutive unanswered probes: attach-ack
	// timeouts, parent-silence timeouts, and global INFO probes toward a
	// previously-heard peer that drew no message back. Any message from
	// the peer resets it.
	failures     int32
	everHeard    bool
	probePending bool
	// resync marks a pending fast-resync burst: the peer answered while
	// suspected, so the next tick owes it an INFO exchange and gap fill.
	resync bool
}

// PeerHealth is an exported snapshot of one peer's liveness record.
type PeerHealth struct {
	Peer      HostID
	EverHeard bool
	// LastHeard is when any message last arrived (valid if EverHeard).
	LastHeard time.Duration
	// Failures is the consecutive unanswered-probe count.
	Failures int
	// Suspected reports whether Failures reached Params.SuspicionAfter.
	Suspected bool
	// NextContact is the earliest next backoff-gated send toward the
	// peer (zero when not backing off).
	NextContact time.Duration
}

// backoffEnabled reports whether the health layer gates any traffic.
func (h *Host) backoffEnabled() bool { return h.params.BackoffBase > 0 }

// suspected reports whether a peer (nil for an untouched record) has
// crossed the suspicion threshold.
func (h *Host) suspected(j *peer) bool {
	return h.backoffEnabled() && j != nil && int(j.health.failures) >= h.params.SuspicionAfter
}

// noteHeard records receipt of a message from a peer. Hearing from a
// suspected peer clears the suspicion and schedules a fast-resync burst
// for the next tick, so partition repair is exploited at message
// latency rather than at InfoGlobalPeriod latency.
func (h *Host) noteHeard(now time.Duration, from *peer) {
	ph := &from.health
	wasSuspected := h.suspected(from)
	ph.lastHeard = now
	ph.everHeard = true
	ph.failures = 0
	ph.nextContact = 0
	ph.probePending = false
	if wasSuspected {
		ph.resync = true
		h.event(now, EvPeerRecovered, from.id, 0)
	}
}

// noteProbeFailure records one unanswered probe toward a peer (an
// attach-ack timeout, a parent-silence timeout, or a silent global INFO
// probe interval) and, once the suspicion threshold is crossed, arms the
// exponential backoff timer.
func (h *Host) noteProbeFailure(now time.Duration, j *peer) {
	if !h.backoffEnabled() {
		return
	}
	ph := &j.health
	ph.failures++
	if int(ph.failures) == h.params.SuspicionAfter {
		h.event(now, EvPeerSuspected, j.id, 0)
	}
	if int(ph.failures) >= h.params.SuspicionAfter {
		ph.nextContact = now + h.backoffDelay(j.id, int(ph.failures))
	}
}

// suppressed reports whether backoff currently gates control traffic
// toward the peer. Unsuspected peers are never suppressed.
func (h *Host) suppressed(now time.Duration, j *peer) bool {
	return h.suspected(j) && now < j.health.nextContact
}

// noteProbeSent records a global INFO probe toward a peer; if the
// previous probe drew no message back, that silence is one probe
// failure. Only previously-heard peers participate: a host that has
// never talked to us (a remote non-leader, silent by design) must not
// be suspected for staying that way.
func (h *Host) noteProbeSent(now time.Duration, j *peer) {
	if !h.backoffEnabled() || j == nil { // an untouched record was never heard
		return
	}
	ph := &j.health
	if !ph.everHeard {
		return
	}
	if ph.probePending && ph.lastHeard <= ph.probeSentAt {
		h.noteProbeFailure(now, j)
	}
	ph.probePending = true
	ph.probeSentAt = now
}

// touchSuspect re-arms the backoff timer after gated control traffic
// was actually sent toward a still-suspected peer, so fire-and-forget
// probes (global INFO, global gap fill) honor the backoff interval
// without needing acknowledgment machinery.
func (h *Host) touchSuspect(now time.Duration, j *peer) {
	if h.suspected(j) {
		j.health.nextContact = now + h.backoffDelay(j.id, int(j.health.failures))
	}
}

// backoffDelay computes the gate interval for the given consecutive
// failure count: BackoffBase doubled (by BackoffMultiplier) per failure
// beyond the suspicion threshold, capped at BackoffMax, minus a
// deterministic seeded jitter of up to a quarter of the interval so
// suspecting hosts do not re-probe in lockstep. All randomness is a
// pure function of (jitter seed, host, peer, failures) — never
// wall-clock or global rand — so simulation runs stay byte-reproducible
// regardless of scheduling.
func (h *Host) backoffDelay(j HostID, failures int) time.Duration {
	d := float64(h.params.BackoffBase)
	limit := float64(h.params.BackoffMax)
	for i := h.params.SuspicionAfter; i < failures && d < limit; i++ {
		d *= h.params.BackoffMultiplier
	}
	if d > limit {
		d = limit
	}
	delay := time.Duration(d)
	if q := delay / 4; q > 0 {
		delay -= time.Duration(jitterHash(h.jitterSeed, h.id, j, failures) % uint64(q))
	}
	return delay
}

// jitterHash is the deterministic jitter source: an FNV-64a digest of
// the seed and the (host, peer, failures) coordinates.
func jitterHash(seed int64, self, peer HostID, failures int) uint64 {
	hash := fnv.New64a()
	var buf [8]byte
	for _, v := range [...]uint64{uint64(seed), uint64(self), uint64(peer), uint64(failures)} {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		hash.Write(buf[:])
	}
	return hash.Sum64()
}

// flushResyncs performs the pending fast-resync bursts: one INFO
// exchange plus one gap-fill round toward every peer that answered
// while suspected since the previous tick.
func (h *Host) flushResyncs(now time.Duration) {
	if !h.backoffEnabled() {
		return
	}
	for _, j := range h.table {
		if j == nil || !j.health.resync {
			continue
		}
		j.health.resync = false
		h.noteFullInfoSent(j)
		h.emit(j.id, h.infoMessage())
		h.fillGapsOf(j)
		h.resyncBursts++
	}
}

// PeerHealthOf returns the health snapshot for one peer.
func (h *Host) PeerHealthOf(j HostID) PeerHealth {
	p := h.lookup(j)
	if p == nil {
		return PeerHealth{Peer: j}
	}
	return PeerHealth{
		Peer:        j,
		EverHeard:   p.health.everHeard,
		LastHeard:   p.health.lastHeard,
		Failures:    int(p.health.failures),
		Suspected:   h.suspected(p),
		NextContact: p.health.nextContact,
	}
}

// SuspectedPeers returns the currently suspected peers, ascending.
func (h *Host) SuspectedPeers() []HostID { return h.collect(h.suspected) }

// ResyncBursts counts fast-resync bursts performed so far.
func (h *Host) ResyncBursts() uint64 { return h.resyncBursts }

// SuppressedSends counts control sends skipped because of backoff.
func (h *Host) SuppressedSends() uint64 { return h.suppressedSends }
