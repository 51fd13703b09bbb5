package core

import (
	"slices"
	"unsafe"

	"rbcast/internal/seqset"
)

// peer is everything this host keeps about one participant j — the
// paper's per-host arrays MAP_i[j] and p_i[j] as one record; CLUSTER_i and
// CHILDREN_i are bitsets on the host (members.go). The participant set is
// fixed at construction ("hosts know the identities of all
// participants"), so the records live in Host.table, parallel to the
// sorted Host.peers. Three invariants hold the design together:
//
//   - index order is ascending HostID, and every loop over participants
//     walks the table in index order — iteration order is never a
//     choice, so seeded traces are reproducible;
//   - records are created at one point only, Host.at, on first touch (a
//     missing record means "nothing known yet", the zero record), carved
//     from slabs that are themselves made on first need;
//   - a HostID outside Host.peers has no index, hence never a record:
//     HandleMessage drops its frames before any handler runs, and a
//     non-participant named inside a frame (a gossiped parent pointer)
//     resolves to nil.
type peer struct {
	id HostID
	// parentView is p_i[j]: j's supposed parent, learned from the routine
	// parent-pointer exchange. It comes off the wire and may name a
	// non-participant.
	parentView HostID

	// view is MAP_i[j]: this host's view of j's INFO set. It includes
	// optimistic marks for messages this host sent j that may have been
	// lost (j's next Info restores the truth); pruning must not rely on
	// them, so confirmed knowledge is tracked separately.
	view seqset.Set
	// confirmed mirrors view but is updated only on evidence received
	// from j itself (Info, attach requests, data), never on sends. §6
	// pruning uses it.
	confirmed seqset.Set
	// delta is j's Delta-INFO state, nil until Params.DeltaInfo first
	// asks for it (deltaOf). It lives beside the record, not in it: no
	// benchmark runs Delta-INFO, and its 80 bytes in each of n² records
	// were most of what kept the record from fitting two cache lines.
	// j's static order is not here either but in Host.order (orderOf).
	delta *deltaInfo
	// idx is j's index in Host.peers, and so its bit in the host's
	// membership sets.
	idx int32
	// excluded says which of the host's exclusion sets j is in. The byte
	// fits the padding behind idx: n² records pay nothing for it.
	excluded exclusion
	// carved says view and confirmed got their first storage from the
	// host's run slab (carveRuns); the next byte of the same padding.
	carved bool

	// health is j's liveness record (health.go). It is kept regardless of
	// Params, but only gates traffic when the backoff fields are set.
	health peerHealth
}

// deltaInfo is one peer's Delta-INFO state, used only under
// Params.DeltaInfo. Sender side: lastSent is the full INFO set most
// recently advertised to j (by full MsgInfo or by delta chain; empty
// forces a full set) and sinceFull counts consecutive deltas since the
// last full — a resync counter. Receiver side: infoView reconstructs j's
// full INFO from the last full set received plus every delta applied
// since; infoSynced marks a view rooted at a received full set (only
// those may be promoted to authoritative on a checksum match).
type deltaInfo struct {
	lastSent   seqset.Set
	sinceFull  int
	infoView   seqset.Set
	infoSynced bool
}

// exclusion names the host's exclusion sets: peers passed over until the
// set is next emptied.
type exclusion uint8

const (
	// noAttach: candidates that timed out or rejected during the current
	// run of the attachment procedure; each periodic activation empties it.
	noAttach exclusion = 1 << iota
	// noSync: sync sources that went silent mid-transfer or could not back
	// what they advertise; emptied once every candidate is in it.
	noSync
)

// exclude puts p in an exclusion set.
func (h *Host) exclude(p *peer, set exclusion) {
	p.excluded |= set
	h.excluding |= set
}

// readmit empties an exclusion set. Host.excluding says which sets have
// members, so emptying an empty one walks nothing.
func (h *Host) readmit(set exclusion) {
	if h.excluding&set == 0 {
		return
	}
	for _, p := range h.table {
		if p != nil {
			p.excluded &^= set
		}
	}
	h.excluding &^= set
}

// idOf is p's HostID, or Nil for no peer (a nil parent pointer, an idle
// sync source).
func idOf(p *peer) HostID {
	if p == nil {
		return Nil
	}
	return p.id
}

// index returns j's position in peers, or -1 for a non-participant.
// Participant IDs are almost always one contiguous range, so the offset
// from the smallest ID is tried before the binary search.
func (h *Host) index(j HostID) int {
	if i := int(j - h.peers[0]); i >= 0 && i < len(h.peers) && h.peers[i] == j {
		return i
	}
	if i, ok := slices.BinarySearch(h.peers, j); ok {
		return i
	}
	return -1
}

// peerSlab is the most records one slab holds: what fits the allocator's
// largest small-object class, 32 KiB, so that no slab is rounded up to
// pages and a host that touches few of many peers pays for few.
const peerSlab = 32 << 10 / int(unsafe.Sizeof(peer{}))

// at returns the record of peers[i]. It is the only place records are
// created: the record is carved from the host's current slab, and a touch
// that finds the slab used up makes the next one.
func (h *Host) at(i int) *peer {
	p := h.table[i]
	if p == nil {
		if len(h.slab) == 0 {
			h.slab = make([]peer, h.nextSlab())
		}
		p, h.slab = &h.slab[0], h.slab[1:]
		p.id, p.idx = h.peers[i], int32(i)
		h.table[i] = p
	}
	return p
}

// nextSlab sizes a new slab. A started host of a cold wide run hears from
// nearly every participant, so it gets room for all that are still
// untouched, up to peerSlab. Before Start the records come one at a time
// — NewHost makes the host's own and those of a static cluster — because
// construction must cost the same however wide the run: n hosts' slabs
// are n² records, 33.5 MB at 512 hosts, and belong to the run, not to its
// set-up.
func (h *Host) nextSlab() int {
	if !h.started {
		return 1
	}
	untouched := 0
	for _, p := range h.table {
		if p == nil {
			untouched++
		}
	}
	return min(untouched, peerSlab)
}

// setSlab is the most peers one run slab serves, at 64 bytes each. It is
// far below what peerSlab would allow because a wide host hears INFO from
// few of its peers — about 66 of 511 in the 512-host benchmark — and
// every unused slot of a last slab is memory that sharing the frame's
// storage, which carving replaced, never cost.
const setSlab = 8

// carveRuns returns the first storage of one peer's view and confirmed
// sets: two runs each, carved from the host's current run slab the way at
// carves records. Two runs hold an INFO set with one gap, which is what
// most peers ever advertise; a set that needs a third moves to an array
// of its own (append past a capacity cut to the set's share) and leaves
// its neighbours' slots alone. learnInfo asks when a non-empty INFO first
// arrives — peers that never say more than "nothing yet" cost nothing.
func (h *Host) carveRuns() (view, confirmed []seqset.Interval) {
	if len(h.runSlab) == 0 {
		// Every peer but the host itself may still ask; counting them on
		// the host, not by a walk of the records, keeps a wide host's
		// many slabs from touching every record each.
		h.runSlab = make([]seqset.Interval, 4*min(len(h.peers)-1-h.carvedPeers, setSlab))
	}
	h.carvedPeers++
	s := h.runSlab
	h.runSlab = s[4:]
	return s[0:2:2], s[2:4:4]
}

// deltaSlab is the most Delta-INFO records one slab holds, by peerSlab's
// rule.
const deltaSlab = 32 << 10 / int(unsafe.Sizeof(deltaInfo{}))

// deltaOf returns p's Delta-INFO record, carving it on first use from the
// host's current delta slab the way at carves peer records: a slab holds
// room for every participant that has none yet, up to deltaSlab.
func (h *Host) deltaOf(p *peer) *deltaInfo {
	if p.delta == nil {
		if h.deltas == nil {
			h.deltas = new([]deltaInfo)
		}
		s := *h.deltas
		if len(s) == 0 {
			without := 0
			for _, q := range h.table {
				if q == nil || q.delta == nil {
					without++
				}
			}
			s = make([]deltaInfo, min(without, deltaSlab))
		}
		p.delta, *h.deltas = &s[0], s[1:]
	}
	return p.delta
}

// orderOf is p's static linear order, from the roster.
func (h *Host) orderOf(p *peer) int { return h.order[p.idx] }

// lookup returns j's record, or nil when j is not a participant.
func (h *Host) lookup(j HostID) *peer {
	if i := h.index(j); i >= 0 {
		return h.at(i)
	}
	return nil
}

// collect lists the participants whose record satisfies keep, in
// ascending ID order.
func (h *Host) collect(keep func(*peer) bool) []HostID {
	var out []HostID
	for _, p := range h.table {
		if p != nil && keep(p) {
			out = append(out, p.id)
		}
	}
	return out
}
