// Package mono is monolint's testdata: a miniature Host and per-peer
// table record with the protected monotone fields, approved mutators (by
// name), and rogue writers. Checked as rbcast/internal/core to land in
// monolint's scope.
package mono

// Set mimics seqset.Set's method split: pointer receivers mutate,
// except Snapshot, which only flips a copy-on-write mark.
type Set struct{ members []uint64 }

func (s *Set) Add(q uint64)          { s.members = append(s.members, q) }
func (s *Set) Prune(below uint64)    { _ = below }
func (s *Set) Snapshot() Set         { return *s }
func (s Set) Contains(q uint64) bool { return false }

// peer mimics core's per-peer table record: view (MAP_i[j]) and
// confirmed carry monotone state; child does not.
type peer struct {
	view      Set
	confirmed Set
	child     bool
}

// Host mimics core.Host: info/prunedTo carry the paper's monotone state
// and table holds the records that carry the rest; scratch does not.
type Host struct {
	info     Set
	prunedTo uint64
	table    []*peer
	scratch  int
}

// handleData is in the approved mutator set: direct writes and mutating
// set calls are legal here, on the host and on a record.
func (h *Host) handleData(from *peer, seq uint64) {
	h.info.Add(seq)
	from.view.Add(seq)
	from.confirmed = h.info.Snapshot()
}

// learnInfo is approved; replacing a record's sets is fine inside the
// set, however the record is reached.
func (h *Host) learnInfo(j int, s Set) {
	h.table[j].view = s
	h.table[j].confirmed = s
}

// at is approved: it is the table's one creation point.
func (h *Host) at(i int) *peer {
	if h.table[i] == nil {
		h.table[i] = &peer{}
	}
	return h.table[i]
}

// pruneStable is approved AND guards its prunedTo write with the
// monotonicity comparison, like the real §6 prune path.
func (h *Host) pruneStable(p uint64) {
	if p == 0 || p-1 <= h.prunedTo {
		return
	}
	h.info.Prune(p)
	h.prunedTo = p - 1
}

// mergeInfoFacts is approved but writes the prune floor with no
// comparison on prunedTo in sight: flagged by the CFG dominance check.
func (h *Host) mergeInfoFacts(p uint64) {
	h.prunedTo = p // want `not dominated by a monotonicity comparison on prunedTo`
}

// rogueAssign is not approved: flagged.
func (h *Host) rogueAssign() {
	h.info = Set{} // want `Host.info written outside the approved mutator set`
}

// rogueSetCall mutates through a pointer-receiver set method: flagged.
func (h *Host) rogueSetCall(seq uint64) {
	h.info.Add(seq) // want `Host.info mutated outside the approved mutator set`
}

// rogueAddressTaken leaks a mutable pointer to protected state: flagged.
func (h *Host) rogueAddressTaken(p *peer) *Set {
	return &p.confirmed // want `peer.confirmed address-taken outside the approved mutator set`
}

// rogueIncDec moves the prune floor outside the prune path: flagged.
func (h *Host) rogueIncDec() {
	h.prunedTo++ // want `Host.prunedTo written outside the approved mutator set`
}

// rogueViewStore overwrites a MAP entry outside the handlers: flagged,
// through a record variable, through the table, and through a copy of
// the pointer alike.
func (h *Host) rogueViewStore(p *peer, j int, s Set) {
	p.view = s          // want `peer.view written outside the approved mutator set`
	h.table[j].view = s // want `peer.view written outside the approved mutator set`
	q := p
	q.confirmed.Prune(9) // want `peer.confirmed mutated outside the approved mutator set`
}

// rogueRecordReset forgets a whole record — by overwriting it, or by
// replacing or dropping its table slot — outside the creation point:
// flagged.
func (h *Host) rogueRecordReset(p *peer, j int) {
	*p = peer{}          // want `peer \(whole record\) written outside the approved mutator set`
	h.table[j] = &peer{} // want `Host.table written outside the approved mutator set`
	h.table = nil        // want `Host.table written outside the approved mutator set`
}

// readsAreFine: reads of protected fields, value-receiver methods, the
// benign pointer-receiver Snapshot, and walking the table are all legal
// anywhere.
func (h *Host) readsAreFine(q uint64) bool {
	snap := h.info.Snapshot()
	_ = snap
	for _, p := range h.table {
		if p != nil && p.view.Contains(q) {
			return true
		}
	}
	return h.info.Contains(q) || h.prunedTo > q
}

// unprotectedIsFine: scratch and a record's child flag are not monotone
// state.
func (h *Host) unprotectedIsFine(p *peer) {
	h.scratch++
	h.scratch = 7
	p.child = true
}

// otherInfoIsFine: the field name must be selected from the type that
// declares it protected — same names elsewhere stay out of jurisdiction.
type notHost struct{ info, view Set }

func (n *notHost) write() {
	n.info = Set{}
	n.info.Add(1)
	n.view.Add(1)
}

// The catch-up sync mutators joined the approved set (regression pin:
// these must stay legal). handleSyncReq records optimistic MAP marks
// for data just served; acceptSyncData adds a solicited sequence
// number; installSnapshot marks a checkpoint-covered prefix in INFO —
// and none of them may touch prunedTo.
func (h *Host) handleSyncReq(from *peer, q uint64) {
	from.view.Add(q)
}

func (h *Host) acceptSyncData(q uint64) {
	h.info.Add(q)
}

func (h *Host) installSnapshot(mark uint64) {
	h.info.Add(mark)
}

// handleSnapChunk is deliberately NOT approved: the chunk path only
// buffers bytes; an INFO write from it would bypass the install guard.
func (h *Host) handleSnapChunk(q uint64) {
	h.info.Add(q) // want `Host.info mutated outside the approved mutator set`
}

func (h *Host) rogueSyncFloor(mark uint64) {
	h.prunedTo = mark // want `Host.prunedTo written outside the approved mutator set`
}
