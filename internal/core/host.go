package core

import (
	"fmt"
	"slices"
	"time"

	"rbcast/internal/seqset"
)

// Host is one protocol participant. It is a single-threaded state
// machine: the driving runtime must serialize all calls to HandleMessage,
// Tick, and Broadcast.
type Host struct {
	id     HostID
	source HostID
	// peers is the participant set — sorted, includes self and source —
	// with order and table parallel to it: order[i] is the static order
	// of peers[i], table[i] its record (nil until first touched; see
	// peer.go). slab is the unused rest of the latest allocation of
	// records. me is the host's own record.
	peers    []HostID
	order    []int
	table    []*peer
	slab     []peer
	me       *peer
	params   Params
	env      Env
	observer Observer

	// info is INFO_i: the set of sequence numbers received so far.
	info seqset.Set
	// prunedTo is the §6 pruning floor: every sequence number ≤ prunedTo
	// was pruned from info and the store after being confirmed globally
	// held. The floor makes pruning safe on duplicating networks — a
	// late copy of a pruned message must be recognized as a duplicate
	// even though info no longer contains it.
	prunedTo seqset.Seq
	// store holds message payloads for redelivery (the paper's
	// non-volatile storage), indexed densely above prunedTo.
	store seqset.Window[[]byte]
	// parent is p_i[i]; nil when the host has no parent.
	parent *peer
	// excluding names the exclusion sets (peer.go) that have members.
	excluding exclusion
	// sets holds CLUSTER_i and CHILDREN_i, one bit per participant index
	// (members.go). Up to 64 participants it is setsInline, so a small
	// host allocates nothing for it.
	sets       []uint64
	setsInline [2]uint64

	// echo tracks per-sequence echo/ready voting under Params.EchoReady
	// (empty otherwise); equivocations counts conflicting-vote
	// observations. See echo.go.
	echo          seqset.Window[*echoState]
	equivocations uint64

	// catchup is the client side of the catch-up sync layer (sync.go);
	// nil unless Params.SyncBatch > 0. snapData/snapMark are the server
	// side: the latest checkpoint bytes and their watermark (zero until
	// the first snapshot). The uint64s are the layer's counters.
	catchup       *syncState
	snapData      []byte
	snapMark      seqset.Seq
	syncRounds    uint64
	syncFailovers uint64
	snapResumes   uint64
	snapInstalls  uint64

	lastFromParent time.Duration
	started        bool
	nextSeq        seqset.Seq // source only: next sequence number to assign

	attach attachState

	// jitterSeed and the two counters belong to the per-peer health
	// layer (health.go).
	jitterSeed      int64
	resyncBursts    uint64
	suppressedSends uint64

	// outbox buffers sends within one activation when Params.Piggyback is
	// set; activationDepth guards against double-flushing on reentrant
	// entry points. flushSlot (per peer index: 1 + the destination's
	// position in flushGroups, 0 when it has none yet) and flushGroups are
	// the flush's scratch, reused like the outbox. They live here and not
	// on the peer record: n² records exist in a run, n hosts. chain is
	// scratch of the same kind, for Case III's ancestor walk (attach.go).
	outbox          []outboundMsg
	activationDepth int
	flushSlot       []int32
	flushGroups     []flushGroup
	chain           []*peer

	// next fire times for periodic activities.
	nextAttach     time.Duration
	nextInfoLocal  time.Duration
	nextInfoRemote time.Duration
	nextInfoGlobal time.Duration
	nextGapLocal   time.Duration
	nextGapRemote  time.Duration
	nextGapGlobal  time.Duration
	nextSync       time.Duration

	// chunk is the unused rest of the latest allocation of payload
	// storage, chunkSize that allocation's size; see keep.
	chunk     []byte
	chunkSize int

	// runSlab is the unused rest of the latest allocation of first storage
	// for peers' view and confirmed sets, carvedPeers how many peers have
	// theirs (carveRuns in peer.go). scratch is where a set difference that
	// is only walked lands: fillGapsOf, missingFrom and handleAttachReq
	// overwrite it on every call.
	runSlab     []seqset.Interval
	carvedPeers int
	scratch     seqset.Set

	// syncOn and snapsOn are Params.SyncEnabled() and SnapshotsEnabled(),
	// asked once: the methods take the 200-byte Params by value, and Tick
	// asks on every call. shared says the Env implements SharedPayloads
	// (keepIn).
	syncOn, snapsOn, shared bool
}

type attachState struct {
	inProgress bool
	candidate  *peer
	deadline   time.Duration
	// exhausted is set when a retry sweep runs out of candidates; while
	// set, further activations are skipped until new evidence (any
	// received message) arrives, so an unreachable host does not burn a
	// full candidate sweep every AttachPeriod.
	exhausted bool
	// barren counts consecutive periodic (fresh) sweeps a detached host
	// finished without any candidate; attach.go's Case I option 4 — the
	// similar-INFO cross-cluster escape — engages only past a threshold,
	// so transient startup states (where every INFO set is empty and
	// thus trivially similar) resolve through the paper's options first.
	barren int
}

// NewHost constructs a host. The returned host is idle until Start.
func NewHost(cfg Config, env Env) (*Host, error) {
	if env == nil {
		return nil, fmt.Errorf("core: nil Env")
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	peers := slices.Clone(cfg.Peers)
	slices.Sort(peers)
	order, err := cfg.validate(peers)
	if err != nil {
		return nil, err
	}
	h := &Host{
		id:         cfg.ID,
		source:     cfg.Source,
		peers:      peers,
		order:      order,
		table:      make([]*peer, len(peers)),
		params:     cfg.Params,
		env:        env,
		observer:   cfg.Observer,
		nextSeq:    1,
		jitterSeed: cfg.JitterSeed,
		syncOn:     cfg.Params.SyncEnabled(),
		snapsOn:    cfg.Params.SnapshotsEnabled(),
	}
	_, h.shared = env.(SharedPayloads)
	h.sets = h.setsInline[:]
	if w := (len(peers) + 63) / 64; w > 1 {
		h.sets = make([]uint64, 2*w)
	}
	h.me = h.lookup(cfg.ID)
	h.setCluster(h.me, true)
	if cfg.Params.ClusterMode != ClusterNone {
		for _, j := range cfg.InitialCluster {
			h.setCluster(h.lookup(j), true)
		}
	}
	if h.syncOn {
		h.catchup = &syncState{}
	}
	return h, nil
}

// ID returns the host's identity.
func (h *Host) ID() HostID { return h.id }

// IsSource reports whether this host is the broadcast source.
func (h *Host) IsSource() bool { return h.id == h.source }

// Parent returns the current parent pointer (Nil if none).
func (h *Host) Parent() HostID { return idOf(h.parent) }

// Children returns the current children set, sorted.
func (h *Host) Children() []HostID { return h.collect(h.isChild) }

// Cluster returns CLUSTER_i, sorted (always includes the host itself).
func (h *Host) Cluster() []HostID { return h.collect(h.inCluster) }

// Info returns a copy of INFO_i (copy-on-write; mutating either side is
// safe).
func (h *Host) Info() seqset.Set { return h.info.Snapshot() }

// MapOf returns a copy of MAP_i[j] — this host's view of j's INFO set.
func (h *Host) MapOf(j HostID) seqset.Set {
	if p := h.lookup(j); p != nil {
		return p.view.Snapshot()
	}
	return seqset.Set{}
}

// ParentView returns p_i[j], this host's view of j's parent pointer.
func (h *Host) ParentView(j HostID) HostID {
	if j == h.id {
		return h.Parent()
	}
	if p := h.lookup(j); p != nil {
		return p.parentView
	}
	return Nil
}

// IsLeader reports whether this host currently considers itself a cluster
// leader: its parent is NIL or lies in a different cluster (§4.1).
func (h *Host) IsLeader() bool {
	return h.parent == nil || !h.inCluster(h.parent)
}

// Start initializes the periodic schedules. Activities are phase-staggered
// by static order so that in a deterministic simulation hosts do not all
// fire on the same instant.
func (h *Host) Start(now time.Duration) {
	h.started = true
	h.lastFromParent = now
	stagger := func(period time.Duration) time.Duration {
		n := len(h.peers)
		slot := h.me.order % n
		if slot < 0 {
			slot = -slot
		}
		return now + period*time.Duration(slot)/time.Duration(n) + period
	}
	h.nextAttach = stagger(h.params.AttachPeriod)
	h.nextInfoLocal = stagger(h.params.InfoClusterPeriod)
	h.nextInfoRemote = stagger(h.params.InfoRemotePeriod)
	h.nextInfoGlobal = stagger(h.params.InfoGlobalPeriod)
	h.nextGapLocal = stagger(h.params.GapClusterPeriod)
	h.nextGapRemote = stagger(h.params.GapRemotePeriod)
	h.nextGapGlobal = stagger(h.params.GapGlobalPeriod)
	if h.syncOn {
		h.nextSync = stagger(h.params.SyncPeriod)
	}
}

// Broadcast generates the next data message at the source and propagates
// it to the source's children. It returns the assigned sequence number.
// Calling Broadcast on a non-source host is a programming error.
func (h *Host) Broadcast(now time.Duration, payload []byte) seqset.Seq {
	if !h.IsSource() {
		panic(fmt.Sprintf("core: Broadcast called on non-source host %d", h.id))
	}
	h.begin()
	defer h.end()
	seq := h.nextSeq
	h.nextSeq++
	h.info.Add(seq)
	stored := h.keep(payload)
	h.store.Put(seq, stored)
	h.env.Deliver(seq, stored)
	h.event(now, EvAccepted, h.id, seq)
	h.forwardData(nil, seq, stored, true)
	if h.params.EchoReady {
		// The source's own votes: it delivered the real payload, so both
		// its echo and its ready are legitimate immediately and seed the
		// quorums everyone else needs.
		d := PayloadDigest(stored)
		st := h.echoSt(seq)
		st.digest = d
		st.havePayload = true
		st.echoed = true
		st.readySent = true
		h.recordVote(now, echoPhase, h.id, seq, d, st)
		h.recordVote(now, readyPhase, h.id, seq, d, st)
		h.broadcastMeta(MsgEcho, seq, d)
		h.broadcastMeta(MsgReady, seq, d)
	}
	return seq
}

// outboundMsg is one buffered send: dest is the destination's index in
// Host.peers.
type outboundMsg struct {
	dest int
	m    Message
}

// flushGroup is one destination of an outbox flush: where its first
// message sits in the outbox, how many it gets, and — for more than one —
// the bundle being filled.
type flushGroup struct {
	first int
	n     int
	parts []Message
}

// emit wraps Env.Send; every outbound message funnels through here. With
// piggybacking enabled, messages are buffered and flushed — bundled per
// destination — when the current activation ends.
func (h *Host) emit(to HostID, m Message) {
	if to == h.id || to == Nil {
		return
	}
	if h.params.Piggyback {
		h.outbox = append(h.outbox, outboundMsg{dest: h.index(to), m: m})
		return
	}
	h.env.Send(to, m)
}

// begin marks the start of an activation (a received message, a tick, or
// a broadcast); the matching end flushes the outbox once the outermost
// activation finishes.
func (h *Host) begin() { h.activationDepth++ }

func (h *Host) end() {
	h.activationDepth--
	if h.activationDepth > 0 || len(h.outbox) == 0 {
		return
	}
	// Group per destination in index space, preserving first-appearance
	// order for determinism and in-bundle message order. A bundle's Parts
	// travels with the message and outlives the call, so it is the one
	// allocation here, made at its exact size; everything else is reused
	// scratch.
	if h.flushSlot == nil {
		h.flushSlot = make([]int32, len(h.peers))
	}
	groups := h.flushGroups[:0]
	for k := range h.outbox {
		slot := &h.flushSlot[h.outbox[k].dest]
		if *slot == 0 {
			groups = append(groups, flushGroup{first: k})
			*slot = int32(len(groups))
		}
		groups[*slot-1].n++
	}
	if len(groups) < len(h.outbox) { // some destination gets a bundle
		for k := range h.outbox {
			out := &h.outbox[k]
			if g := &groups[h.flushSlot[out.dest]-1]; g.n > 1 {
				if g.parts == nil {
					g.parts = make([]Message, 0, g.n)
				}
				g.parts = append(g.parts, out.m)
			}
		}
	}
	for i := range groups {
		g := &groups[i]
		first := &h.outbox[g.first]
		h.flushSlot[first.dest] = 0
		if g.n == 1 {
			h.env.Send(h.peers[first.dest], first.m)
		} else {
			h.env.Send(h.peers[first.dest], Message{Kind: MsgBundle, Parts: g.parts})
		}
	}
	// The buffers are kept, the payloads and INFO sets they point at are
	// not.
	clear(h.outbox)
	h.outbox = h.outbox[:0]
	clear(groups)
	h.flushGroups = groups[:0]
}

// sendMarking sends a data message and optimistically records the
// sequence number in MAP for the target, so the periodic gap filler does
// not immediately resend it. If the message is lost, the target's next
// INFO exchange restores the truth and the filler retries. The confirmed
// view is deliberately not touched.
func (h *Host) sendMarking(to *peer, m Message) {
	to.view.Add(m.Seq)
	h.emit(to.id, m)
}

// learnHas records first-hand evidence that a peer holds one message.
func (h *Host) learnHas(from *peer, q seqset.Seq) {
	from.view.Add(q)
	from.confirmed.Add(q)
}

// learnInfo records an authoritative INFO snapshot from a peer, replacing
// both the working MAP entry (clearing stale optimistic marks) and the
// confirmed view. The entries are the host's own arrays, overwritten in
// place: nothing of info is shared, so a frame's Info may sit in a buffer
// its decoder reuses. An empty INFO — all there is before the first
// broadcast — needs no storage and is given none.
func (h *Host) learnInfo(from *peer, info seqset.Set) {
	if !from.carved && !info.Empty() {
		view, confirmed := h.carveRuns()
		from.view, from.confirmed = seqset.WithStorage(view), seqset.WithStorage(confirmed)
		from.carved = true
	}
	from.view.Assign(info)
	from.confirmed.Assign(info)
}

func (h *Host) event(now time.Duration, kind EventKind, peer HostID, seq seqset.Seq) {
	if h.observer != nil {
		h.observer(Event{At: now, Kind: kind, Host: h.id, Peer: peer, Seq: seq})
	}
}

// observeCostBit maintains CLUSTER_i per §4.2: a message from j arriving
// with the cost bit set evicts j from the cluster; one arriving cheaply
// admits it. Static and none modes (§6) freeze the set instead.
func (h *Host) observeCostBit(from *peer, costBit bool) {
	if h.params.ClusterMode == ClusterDynamic {
		h.setCluster(from, !costBit)
	}
}

// HandleMessage processes one received message. costBit reports whether
// the network flagged the message as having traversed an expensive link.
// A frame whose sender is not a participant is rejected whole, before it
// can touch any state: the protocol's arrays, and the echo/ready quorum
// arithmetic, range over the known participants only.
func (h *Host) HandleMessage(now time.Duration, sender HostID, costBit bool, m Message) {
	if sender == h.id || sender == Nil {
		return
	}
	from := h.lookup(sender)
	if from == nil {
		h.event(now, EvRejected, sender, m.Seq)
		return
	}
	h.begin()
	defer h.end()
	h.observeCostBit(from, costBit)
	h.noteHeard(now, from)
	// Any inbound message is new evidence; an exhausted attachment
	// procedure may be worth re-running.
	h.attach.exhausted = false
	if from == h.parent {
		h.lastFromParent = now
	}
	if m.Kind == MsgBundle {
		for _, part := range m.Parts {
			if part.Kind != MsgBundle { // bundles never nest
				h.dispatch(now, from, part)
			}
		}
		return
	}
	h.dispatch(now, from, m)
}

func (h *Host) dispatch(now time.Duration, from *peer, m Message) {
	switch m.Kind {
	case MsgData:
		h.handleData(now, from, m)
	case MsgInfo:
		h.handleInfo(now, from, m)
	case MsgInfoDelta:
		h.handleInfoDelta(now, from, m)
	case MsgAttachReq:
		h.handleAttachReq(now, from, m)
	case MsgAttachAccept:
		h.handleAttachAccept(now, from, m)
	case MsgAttachReject:
		h.handleAttachReject(now, from)
	case MsgDetach:
		h.handleDetach(now, from)
	case MsgEcho:
		h.handleEcho(now, from, m)
	case MsgReady:
		h.handleReady(now, from, m)
	case MsgSyncReq:
		h.handleSyncReq(now, from, m)
	case MsgSyncResp:
		h.handleSyncResp(now, from, m)
	case MsgSnapReq:
		h.handleSnapReq(now, from, m)
	case MsgSnapChunk:
		h.handleSnapChunk(now, from, m)
	}
}

func (h *Host) handleData(now time.Duration, from *peer, m Message) {
	if m.Seq == 0 {
		return
	}
	// The sender evidently has the message.
	h.learnHas(from, m.Seq)

	if m.Seq <= h.prunedTo || h.info.Contains(m.Seq) {
		h.event(now, EvDuplicate, from.id, m.Seq)
		return
	}
	if h.params.EchoReady {
		h.handleDataEcho(now, from, m)
		return
	}
	// §4.1: a message numbered higher than anything seen so far is
	// accepted only from the parent. Lower-numbered messages are gap
	// fills and are accepted from anyone — they do not alter the < order
	// among INFO sets.
	newMax := m.Seq > h.info.Max()
	if newMax && from != h.parent {
		h.event(now, EvRejected, from.id, m.Seq)
		if !m.GapFill {
			// The sender believes we are its child (stale CHILDREN after a
			// reattachment the detach notice for which was lost); correct it.
			h.emit(from.id, Message{Kind: MsgDetach})
		}
		return
	}
	h.info.Add(m.Seq)
	stored := h.keepIn(m.Payload)
	h.store.Put(m.Seq, stored)
	h.env.Deliver(m.Seq, stored)
	h.event(now, EvAccepted, from.id, m.Seq)
	h.forwardData(from, m.Seq, stored, newMax && !m.GapFill)
}

// maxChunk is the largest allocation of payload storage: the allocator's
// largest small-object class, as for peer slabs — past it every chunk
// would take the large-object path, which measured slower than the
// per-payload allocations the chunks replace. ownAlloc is the payload
// size above which carving stops paying: the allocation a chunk saves is
// amortised over at least that many bytes anyway, and a payload that
// large would strand up to its own size at a chunk's end.
const (
	maxChunk = 32 << 10
	ownAlloc = maxChunk / 4
)

// keep returns the host's own copy of p, the one the store, Env.Deliver
// and every forward of the message share. The copy is carved front to
// back out of a host-owned chunk — the first chunk holds exactly the
// first payload, each later one doubles up to maxChunk — so a stream of
// small payloads costs one allocation per chunk, not per message. The
// bytes are written here, once, and never again: nothing is recycled,
// and a chunk is the garbage collector's once the store has released
// every payload in it (DESIGN decision 12). Capacity is cut to length,
// so an append by whoever holds the slice cannot reach its neighbour.
func (h *Host) keep(p []byte) []byte {
	n := len(p)
	if n > len(h.chunk) {
		if n > ownAlloc {
			own := make([]byte, n)
			copy(own, p)
			return own
		}
		h.chunkSize = min(max(2*h.chunkSize, n), maxChunk)
		h.chunk = make([]byte, h.chunkSize)
	}
	stored := h.chunk[:n:n]
	h.chunk = h.chunk[n:]
	copy(stored, p)
	return stored
}

// keepIn is keep for a payload that arrived in a message. When the Env
// implements SharedPayloads the arriving bytes are never written again,
// so they are kept as they are, capacity cut to length; the chunk they
// lie in is the sender's, and lives until every store holding a slice of
// it has released that slice.
func (h *Host) keepIn(p []byte) []byte {
	if h.shared {
		return p[:len(p):len(p)]
	}
	return h.keep(p)
}

// forwardData relays a data payload to everyone but from (nil at the
// source): downward to all children for a normal new-maximum arrival, or
// — §4.4 — as a gap fill to those parent-graph neighbours that,
// according to MAP, do not have it.
func (h *Host) forwardData(from *peer, seq seqset.Seq, payload []byte, downward bool) {
	fwd := Message{Kind: MsgData, Seq: seq, Payload: payload, GapFill: !downward}
	if downward {
		for p := range h.each(children) {
			if p != from {
				h.sendMarking(p, fwd)
			}
		}
		return
	}
	for p := range h.each(neighbors) {
		if p == from || p.view.Contains(seq) {
			continue
		}
		// Sending a would-be-new-max to a host we do not parent is futile:
		// the receiver's §4.1 rule discards it.
		if !h.isChild(p) && seq > p.view.Max() {
			continue
		}
		h.sendMarking(p, fwd)
	}
}

func (h *Host) handleInfo(now time.Duration, from *peer, m Message) {
	h.learnInfo(from, m.Info)
	if h.params.DeltaInfo {
		// A full set roots a fresh delta chain: later deltas merge into
		// this view and are checked against the sender's checksum.
		from.infoView.Assign(m.Info)
		from.infoSynced = true
	}
	h.afterInfo(now, from, m.Parent)
}

// handleInfoDelta merges a delta INFO advertisement. Delta members are
// always unioned into MAP and the confirmed view — they are first-hand
// facts about what the sender holds, so the merge is sound even when
// earlier deltas were lost. The reconstructed view replaces the MAP entry
// outright (clearing stale optimistic marks, like a full MsgInfo) only
// when it is rooted at a received full set and matches the sender's
// (max, length) checksum: a subset view with the right member count and
// maximum is the full set.
func (h *Host) handleInfoDelta(now time.Duration, from *peer, m Message) {
	if !h.params.DeltaInfo {
		// Delta tracking disabled locally: fall back to the monotone
		// union. Nothing is lost but optimistic-mark clearing.
		h.mergeInfoFacts(from, m.Info)
		h.afterInfo(now, from, m.Parent)
		return
	}
	from.infoView.ApplyDelta(m.Info)
	if from.infoSynced && from.infoView.Max() == m.Seq && uint64(from.infoView.Len()) == m.CheckLen {
		h.learnInfo(from, from.infoView)
	} else {
		h.mergeInfoFacts(from, m.Info)
	}
	h.afterInfo(now, from, m.Parent)
}

// mergeInfoFacts unions peer-held sequence numbers into both tracking
// sets without replacing them.
func (h *Host) mergeInfoFacts(from *peer, info seqset.Set) {
	from.view.ApplyDelta(info)
	from.confirmed.ApplyDelta(info)
}

// afterInfo is the tail shared by full and delta INFO handling: parent
// gossip and reactive gap filling.
func (h *Host) afterInfo(now time.Duration, from *peer, parent HostID) {
	from.parentView = parent
	// Parent-pointer gossip keeps CHILDREN consistent in both directions:
	// a host we consider a child that reports a different parent has
	// moved on and is pruned; a host that reports us as its parent is a
	// child we must own, even if we pruned it on a stale report earlier
	// (its attach request and its next routine Info can cross on the
	// wire). Without the re-adoption rule the pair deadlocks: the child
	// keeps hearing our routine Info (so its parent-silence timer never
	// fires) while we never forward it data.
	if child := h.isChild(from); child && parent != h.id {
		h.setChild(from, false)
		h.event(now, EvChildRemoved, from.id, 0)
	} else if !child && parent == h.id {
		h.setChild(from, true)
		h.event(now, EvChildAdded, from.id, 0)
	}
	// Reactive gap fill towards parent-graph neighbours; leaders also
	// serve non-neighbour hosts in other clusters (the low-frequency
	// periodic scan covers the rest).
	if h.isNeighbor(from) {
		h.fillGapsOf(from)
	} else if h.IsLeader() && !h.inCluster(from) && !h.params.DisableNonNeighborGapFill {
		h.fillGapsOf(from)
	}
}

func (h *Host) handleDetach(now time.Duration, from *peer) {
	if h.isChild(from) {
		h.setChild(from, false)
		h.event(now, EvChildRemoved, from.id, 0)
	}
	if from == h.parent {
		// A host we considered our parent disowned us (it accepted our
		// attach once but no longer counts us as a child).
		h.parent = nil
	}
}

// isNeighbor reports whether p (nil for an untouched record) is a host
// parent graph neighbour: the parent or a child.
func (h *Host) isNeighbor(p *peer) bool {
	return p != nil && (p == h.parent || h.isChild(p))
}

// Tick advances all periodic activities. The runtime must call it roughly
// every Params.TickInterval.
func (h *Host) Tick(now time.Duration) {
	if !h.started {
		h.Start(now)
	}
	h.begin()
	defer h.end()
	// Attach handshake timeout.
	if h.attach.inProgress && now >= h.attach.deadline {
		h.event(now, EvAttachFailed, h.attach.candidate.id, 0)
		h.noteProbeFailure(now, h.attach.candidate)
		h.exclude(h.attach.candidate, noAttach)
		h.attach.inProgress = false
		// §4.2: on ack timeout the procedure is repeated immediately to
		// find another candidate.
		h.runAttachment(now, false)
	}
	// Parent-silence timeout (§4.3): set parent to NIL and search anew.
	if !h.IsSource() && h.parent != nil && now-h.lastFromParent > h.params.ParentTimeout {
		h.event(now, EvParentTimeout, h.parent.id, 0)
		h.noteProbeFailure(now, h.parent)
		h.parent = nil
		h.runAttachment(now, true)
	}
	// Fast-resync bursts owed to peers that answered while suspected.
	h.flushResyncs(now)
	if !h.IsSource() && now >= h.nextAttach {
		h.nextAttach = now + h.params.AttachPeriod
		h.runAttachment(now, true)
	}
	if now >= h.nextInfoLocal {
		h.nextInfoLocal = now + h.params.InfoClusterPeriod
		h.sendInfoLocal()
		if h.params.EchoReady {
			h.resendEchoMeta()
		}
	}
	if now >= h.nextInfoRemote {
		h.nextInfoRemote = now + h.params.InfoRemotePeriod
		h.sendInfoRemoteNeighbors()
	}
	if now >= h.nextInfoGlobal {
		h.nextInfoGlobal = now + h.params.InfoGlobalPeriod
		h.sendInfoGlobal(now)
	}
	if now >= h.nextGapLocal {
		h.nextGapLocal = now + h.params.GapClusterPeriod
		h.fillGapsOfAll(localNeighbors)
	}
	if now >= h.nextGapRemote {
		h.nextGapRemote = now + h.params.GapRemotePeriod
		h.fillGapsOfAll(remoteNeighbors)
	}
	if now >= h.nextGapGlobal {
		h.nextGapGlobal = now + h.params.GapGlobalPeriod
		h.gapFillGlobal(now)
	}
	if h.syncOn && now >= h.nextSync {
		h.nextSync = now + h.params.SyncPeriod
		h.syncPump(now)
	}
	h.snapshotMaybe()
	if h.params.PruneStable {
		h.pruneStable()
	}
}

func (h *Host) infoMessage() Message {
	return Message{Kind: MsgInfo, Info: h.info.Snapshot(), Parent: h.Parent()}
}

// deltaResyncEvery bounds a delta chain: after this many consecutive
// MsgInfoDelta frames to one peer, the next advertisement is a full
// MsgInfo, so a receiver whose view diverged (lost deltas) resynchronizes
// within a bounded number of exchanges.
const deltaResyncEvery = 8

// infoMessageFor returns the INFO advertisement for peer j: a full
// MsgInfo, or — under Params.DeltaInfo — a MsgInfoDelta carrying only the
// runs gained since the last advertisement to j, whenever that coding is
// strictly smaller on the wire. The choice is a pure function of protocol
// state (INFO content and per-peer send history), never of timing. A full
// set is forced when there is no send history, when the resync counter
// expires, or when pruning shrank INFO below the last advertisement (a
// delta cannot express removals).
func (h *Host) infoMessageFor(j *peer) Message {
	if !h.params.DeltaInfo {
		return h.infoMessage()
	}
	if !j.lastSent.Empty() && j.sinceFull < deltaResyncEvery && h.info.ContainsAll(j.lastSent) {
		delta := h.info.Diff(j.lastSent)
		// Wire economics: a delta pays 16 bytes per run plus the 8-byte
		// length checksum; a full set pays 16 bytes per run. Send the
		// delta only when strictly cheaper.
		if 16*delta.RunCount()+8 < 16*h.info.RunCount() {
			j.lastSent.Assign(h.info)
			j.sinceFull++
			return Message{
				Kind:     MsgInfoDelta,
				Info:     delta,
				Parent:   h.Parent(),
				Seq:      h.info.Max(),
				CheckLen: uint64(h.info.Len()),
			}
		}
	}
	h.noteFullInfoSent(j)
	return h.infoMessage()
}

// noteFullInfoSent records that peer j was just advertised the complete
// INFO set (routine full MsgInfo, resync burst, or attach handshake), so
// the delta chain restarts from the current state.
func (h *Host) noteFullInfoSent(j *peer) {
	if !h.params.DeltaInfo {
		return
	}
	j.lastSent.Assign(h.info)
	j.sinceFull = 0
}

// sendInfoLocal performs the routine intra-cluster INFO + parent-pointer
// exchange.
func (h *Host) sendInfoLocal() {
	for p := range h.each(cluster) {
		if p != h.me {
			h.emit(p.id, h.infoMessageFor(p))
		}
	}
}

// sendInfoRemoteNeighbors keeps cross-cluster parent-graph edges fresh.
func (h *Host) sendInfoRemoteNeighbors() {
	for p := range h.each(remoteNeighbors) {
		h.emit(p.id, h.infoMessageFor(p))
	}
}

// sendInfoGlobal is the leaders-only advertisement to all non-cluster,
// non-neighbour hosts; it is what lets detached fragments discover each
// other and what lets leaders find better parents (Case II option 3).
func (h *Host) sendInfoGlobal(now time.Duration) {
	if !h.IsLeader() && !h.IsSource() {
		return
	}
	for i := range h.table {
		p := h.at(i)
		if h.inCluster(p) || h.isNeighbor(p) { // the cluster includes this host
			continue
		}
		if h.suppressed(now, p) {
			h.suppressedSends++
			continue
		}
		h.noteProbeSent(now, p)
		h.emit(p.id, h.infoMessageFor(p))
		h.touchSuspect(now, p)
	}
}

// fillGapsOf sends the target up to GapFillBatch messages that this host
// holds and the target's MAP entry lacks. For hosts we do not parent,
// only sequence numbers below the target's known maximum are sent —
// anything higher would be discarded by the receiver's §4.1 rule.
func (h *Host) fillGapsOf(j *peer) int {
	h.info.DiffInto(&h.scratch, j.view)
	if h.scratch.Empty() {
		return 0
	}
	isChild := h.isChild(j)
	limit := h.params.GapFillBatch
	theirMax := j.view.Max()
	sent := 0
	h.scratch.Each(func(q seqset.Seq) bool {
		if !isChild && q > theirMax {
			return false // ascending iteration: nothing later qualifies
		}
		payload, ok := h.store.Get(q)
		if !ok {
			return true // pruned; skip
		}
		h.sendMarking(j, Message{Kind: MsgData, Seq: q, Payload: payload, GapFill: true})
		sent++
		return sent < limit
	})
	return sent
}

// fillGapsOfAll is the periodic neighbour gap fill: fillGapsOf for each
// member of s in index order.
func (h *Host) fillGapsOfAll(s members) {
	for p := range h.each(s) {
		h.fillGapsOf(p)
	}
}

// gapFillGlobal is the §4.4 non-neighbour gap fill: leaders scan all
// known hosts outside their cluster and outside the parent graph
// neighbourhood, filling what they can.
func (h *Host) gapFillGlobal(now time.Duration) {
	if h.params.DisableNonNeighborGapFill {
		return
	}
	if !h.IsLeader() && !h.IsSource() {
		return
	}
	for i := range h.table {
		p := h.at(i)
		if h.inCluster(p) || h.isNeighbor(p) { // the cluster includes this host
			continue
		}
		if h.suppressed(now, p) {
			h.suppressedSends++
			continue
		}
		// Re-arm the backoff window only when traffic actually went out;
		// an empty fill must not silently push the next probe further.
		if h.fillGapsOf(p) > 0 {
			h.touchSuspect(now, p)
		}
	}
}

// pruneStable implements §6 pruning: sequence numbers 1..p that every
// participant is known (via MAP) to hold are dropped from INFO, the
// store and the echo/ready voting state. Unknown hosts (empty or
// untouched records) hold the prefix at zero, so
// pruning is conservative — unless this host holds a checkpoint, which
// liberates the floor: any prefix the checkpoint covers can be healed by
// snapshot transfer instead of per-message redelivery, so the all-hold
// requirement no longer binds below the watermark. Liberation requires
// snapMark > 0, which requires Params.SnapshotsEnabled(), so the
// snapshot path is guaranteed to exist exactly when a host may need it.
func (h *Host) pruneStable() {
	p := h.ownPrefix()
	for _, j := range h.table {
		if j == h.me {
			continue
		}
		if j == nil {
			p = 0
		} else if q := h.contiguousPrefix(j.confirmed); q < p {
			p = q
		}
		if p == 0 {
			break
		}
	}
	if h.snapMark > p {
		p = h.snapMark
	}
	// The floor must be monotonic: a reordered routine Info can replace a
	// peer's confirmed view with an older snapshot, shrinking the computed
	// prefix. Regressing prunedTo would reopen the duplicate window for
	// already-pruned sequence numbers.
	if p == 0 || p-1 <= h.prunedTo {
		return
	}
	h.info.Prune(p - 1) // keep p itself so Max stays meaningful even if alone
	h.prunedTo = p - 1
	h.store.Release(h.prunedTo)
	// Voting state goes with the payloads: pruned sequence numbers are
	// globally held, so no straggler can still need the votes.
	h.echo.Release(h.prunedTo)
}

// contiguousPrefix returns the largest p such that 1..p are all members.
func (h *Host) contiguousPrefix(s seqset.Set) seqset.Seq {
	if s.RunCount() == 0 || s.Run(0).Lo != 1 {
		return 0
	}
	return s.Run(0).Hi
}

// ownPrefix is contiguousPrefix of INFO_i accounting for the pruning
// floor: pruned members are held by definition, so a run starting at
// prunedTo+1 continues the prefix. Without this, pruning would stall
// after its first round (INFO would never again start at 1).
func (h *Host) ownPrefix() seqset.Seq {
	if h.info.RunCount() == 0 || h.info.Run(0).Lo > h.prunedTo+1 {
		return h.prunedTo
	}
	return h.info.Run(0).Hi
}
