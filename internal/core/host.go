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
	id       HostID
	source   HostID
	peers    []HostID // sorted, includes self and source
	order    map[HostID]int
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
	// non-volatile storage).
	store map[seqset.Seq][]byte
	// maps is MAP_i: this host's view of every other host's INFO set.
	// Missing entries mean "empty set". Entries include optimistic marks
	// for messages this host sent but that may have been lost (the next
	// Info from the peer restores the truth); pruning must not rely on
	// them, so confirmed knowledge is tracked separately.
	maps map[HostID]seqset.Set
	// confirmed mirrors maps but is updated only on evidence received
	// from the peer itself (Info, attach requests, data), never on sends.
	// §6 pruning uses it.
	confirmed map[HostID]seqset.Set
	// parentOf is p_i[]: the supposed parent of every host, learned from
	// the routine parent-pointer exchange. parentOf[id] mirrors parent.
	parentOf map[HostID]HostID
	// cluster is CLUSTER_i, inferred from cost bits; always contains id.
	cluster map[HostID]bool
	// children is CHILDREN_i.
	children map[HostID]bool
	// parent is p_i[i]; Nil when the host has no parent.
	parent HostID

	// Delta INFO state, active only under Params.DeltaInfo. Sender side:
	// lastSentInfo holds the full INFO set most recently advertised to
	// each peer (by full MsgInfo or by delta chain), and sinceFull counts
	// consecutive deltas since the last full — a resync counter. Receiver
	// side: infoView reconstructs each peer's full INFO from the last
	// full set received plus every delta applied since; infoSynced marks
	// views rooted at a received full set (only those may be promoted to
	// authoritative on a checksum match).
	lastSentInfo map[HostID]seqset.Set
	sinceFull    map[HostID]int
	infoView     map[HostID]seqset.Set
	infoSynced   map[HostID]bool

	// echo tracks per-sequence echo/ready voting under Params.EchoReady
	// (nil otherwise); equivocations counts conflicting-vote
	// observations. See echo.go.
	echo          map[seqset.Seq]*echoState
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

	// health is the per-peer liveness tracker (see health.go). Records
	// are kept regardless of Params, but only gate traffic when the
	// backoff fields are set.
	health          map[HostID]*peerHealth
	jitterSeed      int64
	resyncBursts    uint64
	suppressedSends uint64

	// outbox buffers sends within one activation when Params.Piggyback is
	// set; activationDepth guards against double-flushing on reentrant
	// entry points.
	outbox          []outboundMsg
	activationDepth int

	// next fire times for periodic activities.
	nextAttach     time.Duration
	nextInfoLocal  time.Duration
	nextInfoRemote time.Duration
	nextInfoGlobal time.Duration
	nextGapLocal   time.Duration
	nextGapRemote  time.Duration
	nextGapGlobal  time.Duration
	nextSync       time.Duration
}

type attachState struct {
	inProgress bool
	candidate  HostID
	deadline   time.Duration
	// excluded holds candidates that timed out or rejected during the
	// current procedure run; cleared at each periodic activation.
	excluded map[HostID]bool
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	peers := make([]HostID, len(cfg.Peers))
	copy(peers, cfg.Peers)
	slices.Sort(peers)
	order := make(map[HostID]int, len(peers))
	for _, p := range peers {
		if cfg.Order != nil {
			order[p] = cfg.Order[p]
		} else {
			order[p] = int(p)
		}
	}
	h := &Host{
		id:         cfg.ID,
		source:     cfg.Source,
		peers:      peers,
		order:      order,
		params:     cfg.Params,
		env:        env,
		observer:   cfg.Observer,
		store:      make(map[seqset.Seq][]byte),
		maps:       make(map[HostID]seqset.Set),
		confirmed:  make(map[HostID]seqset.Set),
		parentOf:   make(map[HostID]HostID),
		cluster:    map[HostID]bool{cfg.ID: true},
		children:   make(map[HostID]bool),
		parent:     Nil,
		nextSeq:    1,
		health:     make(map[HostID]*peerHealth),
		jitterSeed: cfg.JitterSeed,
	}
	if cfg.Params.ClusterMode != ClusterNone {
		for _, p := range cfg.InitialCluster {
			h.cluster[p] = true
		}
	}
	if cfg.Params.DeltaInfo {
		h.lastSentInfo = make(map[HostID]seqset.Set)
		h.sinceFull = make(map[HostID]int)
		h.infoView = make(map[HostID]seqset.Set)
		h.infoSynced = make(map[HostID]bool)
	}
	if cfg.Params.EchoReady {
		h.echo = make(map[seqset.Seq]*echoState)
	}
	if cfg.Params.SyncEnabled() {
		h.catchup = &syncState{}
	}
	return h, nil
}

// ID returns the host's identity.
func (h *Host) ID() HostID { return h.id }

// IsSource reports whether this host is the broadcast source.
func (h *Host) IsSource() bool { return h.id == h.source }

// Parent returns the current parent pointer (Nil if none).
func (h *Host) Parent() HostID { return h.parent }

// Children returns the current children set, sorted.
func (h *Host) Children() []HostID {
	out := make([]HostID, 0, len(h.children))
	for c := range h.children {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// Cluster returns CLUSTER_i, sorted (always includes the host itself).
func (h *Host) Cluster() []HostID {
	out := make([]HostID, 0, len(h.cluster))
	for c := range h.cluster {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// Info returns a copy of INFO_i (copy-on-write; mutating either side is
// safe).
func (h *Host) Info() seqset.Set { return h.info.Snapshot() }

// MapOf returns a copy of MAP_i[j] — this host's view of j's INFO set.
func (h *Host) MapOf(j HostID) seqset.Set {
	s, ok := h.maps[j]
	if !ok {
		return seqset.Set{}
	}
	snap := s.Snapshot()
	h.maps[j] = s // write back the copy-on-write mark
	return snap
}

// ParentView returns p_i[j], this host's view of j's parent pointer.
func (h *Host) ParentView(j HostID) HostID {
	if j == h.id {
		return h.parent
	}
	return h.parentOf[j]
}

// IsLeader reports whether this host currently considers itself a cluster
// leader: its parent is NIL or lies in a different cluster (§4.1).
func (h *Host) IsLeader() bool {
	return h.parent == Nil || !h.cluster[h.parent]
}

// Start initializes the periodic schedules. Activities are phase-staggered
// by static order so that in a deterministic simulation hosts do not all
// fire on the same instant.
func (h *Host) Start(now time.Duration) {
	h.started = true
	h.lastFromParent = now
	stagger := func(period time.Duration) time.Duration {
		n := len(h.peers)
		slot := h.order[h.id] % n
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
	if h.params.SyncEnabled() {
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
	h.store[seq] = append([]byte(nil), payload...)
	h.env.Deliver(seq, h.store[seq])
	h.event(now, EvAccepted, h.id, seq)
	m := Message{Kind: MsgData, Seq: seq, Payload: h.store[seq]}
	for _, c := range h.Children() {
		h.sendMarking(c, m)
	}
	if h.params.EchoReady {
		// The source's own votes: it delivered the real payload, so both
		// its echo and its ready are legitimate immediately and seed the
		// quorums everyone else needs.
		d := payloadDigest(h.store[seq])
		st := h.echoSt(seq)
		st.digest = d
		st.havePayload = true
		st.echoed = true
		st.readySent = true
		h.recordEcho(now, h.id, seq, d, st)
		h.recordReady(now, h.id, seq, d, st)
		h.broadcastMeta(MsgEcho, seq, d)
		h.broadcastMeta(MsgReady, seq, d)
	}
	return seq
}

type outboundMsg struct {
	to HostID
	m  Message
}

// emit wraps Env.Send; every outbound message funnels through here. With
// piggybacking enabled, messages are buffered and flushed — bundled per
// destination — when the current activation ends.
func (h *Host) emit(to HostID, m Message) {
	if to == h.id || to == Nil {
		return
	}
	if h.params.Piggyback {
		h.outbox = append(h.outbox, outboundMsg{to: to, m: m})
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
	pending := h.outbox
	h.outbox = nil
	// Group per destination, preserving first-appearance order for
	// determinism and in-bundle message order.
	order := make([]HostID, 0, 4)
	byDest := make(map[HostID][]Message, 4)
	for _, out := range pending {
		if _, seen := byDest[out.to]; !seen {
			order = append(order, out.to)
		}
		byDest[out.to] = append(byDest[out.to], out.m)
	}
	for _, to := range order {
		parts := byDest[to]
		if len(parts) == 1 {
			h.env.Send(to, parts[0])
			continue
		}
		h.env.Send(to, Message{Kind: MsgBundle, Parts: parts})
	}
}

// sendMarking sends a data message and optimistically records the
// sequence number in MAP for the target, so the periodic gap filler does
// not immediately resend it. If the message is lost, the target's next
// INFO exchange restores the truth and the filler retries. The confirmed
// view is deliberately not touched.
func (h *Host) sendMarking(to HostID, m Message) {
	s := h.maps[to]
	s.Add(m.Seq)
	h.maps[to] = s
	h.emit(to, m)
}

// learnHas records first-hand evidence that a peer holds one message.
func (h *Host) learnHas(from HostID, q seqset.Seq) {
	s := h.maps[from]
	s.Add(q)
	h.maps[from] = s
	c := h.confirmed[from]
	c.Add(q)
	h.confirmed[from] = c
}

// learnInfo records an authoritative INFO snapshot from a peer, replacing
// both the working MAP entry (clearing stale optimistic marks) and the
// confirmed view. The entries are copy-on-write snapshots: no run
// storage is copied until one side mutates.
//
// This is the retention point for a handler's m.Info: the snapshots
// share info's storage past the HandleMessage call. It is reached for
// MsgInfo, MsgAttachReq and MsgAttachAccept (and handleInfo keeps one
// more snapshot as the delta view), so a decode path that reuses Info
// storage across frames must detach it for exactly those kinds —
// internal/node's DecodeEnvelope does. Retaining Info for another kind
// requires updating that rule.
func (h *Host) learnInfo(from HostID, info seqset.Set) {
	h.maps[from] = info.Snapshot()
	h.confirmed[from] = info.Snapshot()
}

func (h *Host) event(now time.Duration, kind EventKind, peer HostID, seq seqset.Seq) {
	if h.observer != nil {
		h.observer(Event{At: now, Kind: kind, Host: h.id, Peer: peer, Seq: seq})
	}
}

// observeCostBit maintains CLUSTER_i per §4.2: a message from j arriving
// with the cost bit set evicts j from the cluster; one arriving cheaply
// admits it. Static and none modes (§6) freeze the set instead.
func (h *Host) observeCostBit(from HostID, costBit bool) {
	if from == h.id || h.params.ClusterMode != ClusterDynamic {
		return
	}
	if costBit {
		delete(h.cluster, from)
	} else {
		h.cluster[from] = true
	}
}

// HandleMessage processes one received message. costBit reports whether
// the network flagged the message as having traversed an expensive link.
func (h *Host) HandleMessage(now time.Duration, from HostID, costBit bool, m Message) {
	if from == h.id || from == Nil {
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

func (h *Host) dispatch(now time.Duration, from HostID, m Message) {
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

func (h *Host) handleData(now time.Duration, from HostID, m Message) {
	if m.Seq == 0 {
		return
	}
	// The sender evidently has the message.
	h.learnHas(from, m.Seq)

	if m.Seq <= h.prunedTo || h.info.Contains(m.Seq) {
		h.event(now, EvDuplicate, from, m.Seq)
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
		h.event(now, EvRejected, from, m.Seq)
		if !m.GapFill {
			// The sender believes we are its child (stale CHILDREN after a
			// reattachment the detach notice for which was lost); correct it.
			h.emit(from, Message{Kind: MsgDetach})
		}
		return
	}
	h.info.Add(m.Seq)
	h.store[m.Seq] = append([]byte(nil), m.Payload...)
	h.env.Deliver(m.Seq, h.store[m.Seq])
	h.event(now, EvAccepted, from, m.Seq)

	if newMax && !m.GapFill {
		// Normal downward propagation: forward to all children.
		fwd := Message{Kind: MsgData, Seq: m.Seq, Payload: h.store[m.Seq]}
		for _, c := range h.Children() {
			if c != from {
				h.sendMarking(c, fwd)
			}
		}
		return
	}
	// §4.4: a received gap-filling message is forwarded to those
	// parent-graph neighbours that, according to MAP, do not have it.
	fwd := Message{Kind: MsgData, Seq: m.Seq, Payload: h.store[m.Seq], GapFill: true}
	for _, nb := range h.neighbors() {
		if nb == from || h.maps[nb].Contains(m.Seq) {
			continue
		}
		// Sending a would-be-new-max to a host we do not parent is futile:
		// the receiver's §4.1 rule discards it.
		if !h.children[nb] && m.Seq > h.maps[nb].Max() {
			continue
		}
		h.sendMarking(nb, fwd)
	}
}

func (h *Host) handleInfo(now time.Duration, from HostID, m Message) {
	h.learnInfo(from, m.Info)
	if h.infoView != nil {
		// A full set roots a fresh delta chain: later deltas merge into
		// this view and are checked against the sender's checksum.
		//
		// Like learnInfo above, this Snapshot retains m.Info's storage
		// past the HandleMessage call; see learnInfo for what that asks
		// of zero-copy decode paths.
		h.infoView[from] = m.Info.Snapshot()
		h.infoSynced[from] = true
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
func (h *Host) handleInfoDelta(now time.Duration, from HostID, m Message) {
	if h.infoView == nil {
		// Delta tracking disabled locally: fall back to the monotone
		// union. Nothing is lost but optimistic-mark clearing.
		h.mergeInfoFacts(from, m.Info)
		h.afterInfo(now, from, m.Parent)
		return
	}
	view := h.infoView[from]
	view.ApplyDelta(m.Info)
	h.infoView[from] = view
	if h.infoSynced[from] && view.Max() == m.Seq && uint64(view.Len()) == m.CheckLen {
		h.learnInfo(from, view)
	} else {
		h.mergeInfoFacts(from, m.Info)
	}
	h.afterInfo(now, from, m.Parent)
}

// mergeInfoFacts unions peer-held sequence numbers into both tracking
// maps without replacing them.
func (h *Host) mergeInfoFacts(from HostID, info seqset.Set) {
	s := h.maps[from]
	s.ApplyDelta(info)
	h.maps[from] = s
	c := h.confirmed[from]
	c.ApplyDelta(info)
	h.confirmed[from] = c
}

// afterInfo is the tail shared by full and delta INFO handling: parent
// gossip and reactive gap filling.
func (h *Host) afterInfo(now time.Duration, from HostID, parent HostID) {
	h.parentOf[from] = parent
	// Parent-pointer gossip keeps CHILDREN consistent in both directions:
	// a host we consider a child that reports a different parent has
	// moved on and is pruned; a host that reports us as its parent is a
	// child we must own, even if we pruned it on a stale report earlier
	// (its attach request and its next routine Info can cross on the
	// wire). Without the re-adoption rule the pair deadlocks: the child
	// keeps hearing our routine Info (so its parent-silence timer never
	// fires) while we never forward it data.
	if h.children[from] && parent != h.id {
		delete(h.children, from)
		h.event(now, EvChildRemoved, from, 0)
	} else if !h.children[from] && parent == h.id {
		h.children[from] = true
		h.event(now, EvChildAdded, from, 0)
	}
	// Reactive gap fill towards parent-graph neighbours; leaders also
	// serve non-neighbour hosts in other clusters (the low-frequency
	// periodic scan covers the rest).
	if h.isNeighbor(from) {
		h.fillGapsOf(from)
	} else if h.IsLeader() && !h.cluster[from] && !h.params.DisableNonNeighborGapFill {
		h.fillGapsOf(from)
	}
}

func (h *Host) handleDetach(now time.Duration, from HostID) {
	if h.children[from] {
		delete(h.children, from)
		h.event(now, EvChildRemoved, from, 0)
	}
	if from == h.parent {
		// A host we considered our parent disowned us (it accepted our
		// attach once but no longer counts us as a child).
		h.parent = Nil
	}
}

// neighbors returns the host parent graph neighbours: the parent (if any)
// and all children, sorted.
func (h *Host) neighbors() []HostID {
	out := make([]HostID, 0, len(h.children)+1)
	if h.parent != Nil {
		out = append(out, h.parent)
	}
	for c := range h.children {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

func (h *Host) isNeighbor(j HostID) bool {
	return j != Nil && (j == h.parent || h.children[j])
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
		h.event(now, EvAttachFailed, h.attach.candidate, 0)
		h.noteProbeFailure(now, h.attach.candidate)
		h.attach.excluded[h.attach.candidate] = true
		h.attach.inProgress = false
		// §4.2: on ack timeout the procedure is repeated immediately to
		// find another candidate.
		h.runAttachment(now, false)
	}
	// Parent-silence timeout (§4.3): set parent to NIL and search anew.
	if !h.IsSource() && h.parent != Nil && now-h.lastFromParent > h.params.ParentTimeout {
		h.event(now, EvParentTimeout, h.parent, 0)
		h.noteProbeFailure(now, h.parent)
		h.parent = Nil
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
		for _, nb := range h.neighbors() {
			if h.cluster[nb] {
				h.fillGapsOf(nb)
			}
		}
	}
	if now >= h.nextGapRemote {
		h.nextGapRemote = now + h.params.GapRemotePeriod
		for _, nb := range h.neighbors() {
			if !h.cluster[nb] {
				h.fillGapsOf(nb)
			}
		}
	}
	if now >= h.nextGapGlobal {
		h.nextGapGlobal = now + h.params.GapGlobalPeriod
		h.gapFillGlobal(now)
	}
	if h.params.SyncEnabled() && now >= h.nextSync {
		h.nextSync = now + h.params.SyncPeriod
		h.syncPump(now)
	}
	h.snapshotMaybe()
	if h.params.PruneStable {
		h.pruneStable()
		if h.params.EchoReady {
			h.pruneEchoStates()
		}
	}
}

func (h *Host) infoMessage() Message {
	return Message{Kind: MsgInfo, Info: h.info.Snapshot(), Parent: h.parent}
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
func (h *Host) infoMessageFor(j HostID) Message {
	if !h.params.DeltaInfo {
		return h.infoMessage()
	}
	last, ok := h.lastSentInfo[j]
	if ok && h.sinceFull[j] < deltaResyncEvery && h.info.ContainsAll(last) {
		delta := h.info.Diff(last)
		// Wire economics: a delta pays 16 bytes per run plus the 8-byte
		// length checksum; a full set pays 16 bytes per run. Send the
		// delta only when strictly cheaper.
		if 16*delta.RunCount()+8 < 16*h.info.RunCount() {
			h.lastSentInfo[j] = h.info.Snapshot()
			h.sinceFull[j]++
			return Message{
				Kind:     MsgInfoDelta,
				Info:     delta,
				Parent:   h.parent,
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
func (h *Host) noteFullInfoSent(j HostID) {
	if !h.params.DeltaInfo {
		return
	}
	h.lastSentInfo[j] = h.info.Snapshot()
	h.sinceFull[j] = 0
}

// sendInfoLocal performs the routine intra-cluster INFO + parent-pointer
// exchange.
func (h *Host) sendInfoLocal() {
	for _, j := range h.Cluster() {
		if j != h.id {
			h.emit(j, h.infoMessageFor(j))
		}
	}
}

// sendInfoRemoteNeighbors keeps cross-cluster parent-graph edges fresh.
func (h *Host) sendInfoRemoteNeighbors() {
	for _, nb := range h.neighbors() {
		if !h.cluster[nb] {
			h.emit(nb, h.infoMessageFor(nb))
		}
	}
}

// sendInfoGlobal is the leaders-only advertisement to all non-cluster,
// non-neighbour hosts; it is what lets detached fragments discover each
// other and what lets leaders find better parents (Case II option 3).
func (h *Host) sendInfoGlobal(now time.Duration) {
	if !h.IsLeader() && !h.IsSource() {
		return
	}
	for _, j := range h.peers {
		if j == h.id || h.cluster[j] || h.isNeighbor(j) {
			continue
		}
		if h.suppressed(now, j) {
			h.suppressedSends++
			continue
		}
		h.noteProbeSent(now, j)
		h.emit(j, h.infoMessageFor(j))
		h.touchSuspect(now, j)
	}
}

// fillGapsOf sends the target up to GapFillBatch messages that this host
// holds and the target's MAP entry lacks. For hosts we do not parent,
// only sequence numbers below the target's known maximum are sent —
// anything higher would be discarded by the receiver's §4.1 rule.
func (h *Host) fillGapsOf(j HostID) int {
	their := h.maps[j]
	missing := h.info.Diff(their)
	if missing.Empty() {
		return 0
	}
	isChild := h.children[j]
	limit := h.params.GapFillBatch
	theirMax := their.Max()
	sent := 0
	missing.Each(func(q seqset.Seq) bool {
		if !isChild && q > theirMax {
			return false // ascending iteration: nothing later qualifies
		}
		payload, ok := h.store[q]
		if !ok {
			return true // pruned; skip
		}
		h.sendMarking(j, Message{Kind: MsgData, Seq: q, Payload: payload, GapFill: true})
		sent++
		return sent < limit
	})
	return sent
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
	for _, j := range h.peers {
		if j == h.id || h.cluster[j] || h.isNeighbor(j) {
			continue
		}
		if h.suppressed(now, j) {
			h.suppressedSends++
			continue
		}
		// Re-arm the backoff window only when traffic actually went out;
		// an empty fill must not silently push the next probe further.
		if h.fillGapsOf(j) > 0 {
			h.touchSuspect(now, j)
		}
	}
}

// pruneStable implements §6 pruning: sequence numbers 1..p that every
// participant is known (via MAP) to hold are dropped from INFO and the
// store. Unknown hosts (empty MAP entries) hold the prefix at zero, so
// pruning is conservative — unless this host holds a checkpoint, which
// liberates the floor: any prefix the checkpoint covers can be healed by
// snapshot transfer instead of per-message redelivery, so the all-hold
// requirement no longer binds below the watermark. Liberation requires
// snapMark > 0, which requires Params.SnapshotsEnabled(), so the
// snapshot path is guaranteed to exist exactly when a host may need it.
func (h *Host) pruneStable() {
	p := h.ownPrefix()
	for _, j := range h.peers {
		if j == h.id {
			continue
		}
		if q := h.contiguousPrefix(h.confirmed[j]); q < p {
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
	for q := range h.store {
		if q < p {
			delete(h.store, q)
		}
	}
}

// contiguousPrefix returns the largest p such that 1..p are all members.
func (h *Host) contiguousPrefix(s seqset.Set) seqset.Seq {
	ivs := s.Intervals()
	if len(ivs) == 0 || ivs[0].Lo != 1 {
		return 0
	}
	return ivs[0].Hi
}

// ownPrefix is contiguousPrefix of INFO_i accounting for the pruning
// floor: pruned members are held by definition, so a run starting at
// prunedTo+1 continues the prefix. Without this, pruning would stall
// after its first round (INFO would never again start at 1).
func (h *Host) ownPrefix() seqset.Seq {
	ivs := h.info.Intervals()
	if len(ivs) == 0 || ivs[0].Lo > h.prunedTo+1 {
		return h.prunedTo
	}
	return ivs[0].Hi
}
