// Package harness runs complete broadcast scenarios: it builds a
// topology, wires protocol hosts (the paper's tree protocol or the §1
// basic baseline) onto the simulated network, drives a workload and a
// failure schedule, and collects the metrics the paper's §5 evaluation
// arguments are about.
package harness

import (
	"bytes"
	"fmt"
	"time"

	"rbcast/internal/adversary"
	"rbcast/internal/basic"
	"rbcast/internal/core"
	"rbcast/internal/metrics"
	"rbcast/internal/netsim"
	"rbcast/internal/replica"
	"rbcast/internal/seqset"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
	"rbcast/internal/wire"
)

// Protocol selects the broadcast algorithm under test.
type Protocol int

const (
	// ProtocolTree is the paper's protocol (internal/core).
	ProtocolTree Protocol = iota + 1
	// ProtocolBasic is the §1 baseline (internal/basic).
	ProtocolBasic
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolTree:
		return "tree"
	case ProtocolBasic:
		return "basic"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// TimedEvent is a scheduled scenario action (failure injection, repair,
// topology change).
type TimedEvent struct {
	At time.Duration
	Do func(*Runtime) error
}

// PartitionWindow is the schedule of one partition that heals: every WAN
// link touching the cluster is cut at cutAt, and those links come back at
// healAt.
func PartitionWindow(cluster int, cutAt, healAt time.Duration) []TimedEvent {
	return []TimedEvent{
		{At: cutAt, Do: func(rt *Runtime) error {
			_, err := rt.Topo.IsolateCluster(cluster)
			return err
		}},
		{At: healAt, Do: func(rt *Runtime) error {
			return rt.Topo.RestoreLinks(rt.Topo.WANLinksOfCluster(cluster))
		}},
	}
}

// Scenario describes one simulation run.
type Scenario struct {
	// Name labels the run in results.
	Name string
	// Seed drives all randomness.
	Seed int64
	// Shards, when positive, runs the scenario on the sharded parallel
	// engine (sim.Sharded) with that many workers: the topology's
	// cheap-link clusters become independently clocked lanes synchronized
	// by a conservative epoch barrier. The trace of a sharded run depends
	// only on (Seed, topology) — never on the worker count — so any two
	// positive Shards values produce bit-identical results. Zero keeps
	// the sequential engine (a distinct, equally deterministic
	// execution: it draws from one PRNG stream where lanes each have
	// their own).
	Shards int
	// Build constructs the topology on the given engine.
	Build func(sim.Loop) (*topo.Topology, error)
	// Protocol selects tree or basic; default ProtocolTree.
	Protocol Protocol
	// Params tunes the tree protocol; zero value uses defaults.
	Params core.Params
	// BasicParams tunes the baseline; zero value uses defaults.
	BasicParams basic.Params
	// Order optionally overrides the static host order for the tree
	// protocol.
	Order map[core.HostID]int
	// Messages is the number of data messages the source broadcasts.
	Messages int
	// MsgInterval separates consecutive broadcasts; default 200 ms.
	MsgInterval time.Duration
	// PayloadSize is the data payload length in bytes; default 32.
	PayloadSize int
	// WarmUp is virtual time before the first broadcast (lets the tree
	// form); default 3 s for the tree protocol, 0 for basic.
	WarmUp time.Duration
	// Drain is the maximum extra virtual time after the last broadcast.
	// Default 30 s.
	Drain time.Duration
	// Events is the failure/repair schedule.
	Events []TimedEvent
	// StopWhenComplete ends the run as soon as every host has every
	// message (the completion time is recorded either way).
	StopWhenComplete bool
	// CollectEvents retains protocol events in the result (tree only).
	CollectEvents bool
	// Adversaries places a Byzantine behavior stack on each named host.
	// The host keeps running the unmodified protocol code; its outbound
	// traffic is rewritten at the netsim transmit seam by
	// internal/adversary. Runs stay deterministic — behaviors draw only
	// from a seed-derived RNG.
	Adversaries map[core.HostID][]adversary.Behavior
	// Replicate attaches a replica.Store to every tree host: delivered
	// payloads that decode as replica updates are applied to it, and the
	// host's Env implements core.Snapshotter over it, enabling the
	// checkpointed state transfer behind Params.SnapshotEvery. A snapshot
	// install records delivery coverage for the broadcast prefix it
	// replaces, so completeness metrics see state transfer as delivery.
	Replicate bool
	// PayloadFor, when set, supplies the payload of the i-th scheduled
	// broadcast (0-based) instead of the default fixed bytes; Replicate
	// scenarios use it to broadcast encoded replica updates.
	PayloadFor func(i int) []byte
}

func (s Scenario) withDefaults() (Scenario, error) {
	if s.Build == nil {
		return s, fmt.Errorf("harness: Scenario.Build is nil")
	}
	if s.Protocol == 0 {
		s.Protocol = ProtocolTree
	}
	if s.Messages < 0 {
		return s, fmt.Errorf("harness: negative Messages %d", s.Messages)
	}
	if s.MsgInterval <= 0 {
		s.MsgInterval = 200 * time.Millisecond
	}
	if s.PayloadSize <= 0 {
		s.PayloadSize = 32
	}
	if s.WarmUp == 0 && s.Protocol == ProtocolTree {
		s.WarmUp = 3 * time.Second
	}
	if s.Drain <= 0 {
		s.Drain = 30 * time.Second
	}
	if s.Params == (core.Params{}) {
		s.Params = core.DefaultParams()
	}
	if s.BasicParams == (basic.Params{}) {
		s.BasicParams = basic.DefaultParams()
	}
	return s, nil
}

// Runtime is the live state of a running scenario, exposed to scheduled
// events and, read-only, to tests after the run.
type Runtime struct {
	Engine sim.Loop
	Topo   *topo.Topology
	Net    *netsim.Network
	// TreeHosts maps host ID to protocol state (tree protocol runs only).
	TreeHosts map[core.HostID]*core.Host
	// BasicSource and BasicReceivers are set for baseline runs.
	BasicSource    *basic.Source
	BasicReceivers map[core.HostID]*basic.Receiver
	// Adversary controls the Byzantine hosts, when the scenario has any.
	Adversary *adversary.Controller
	// Replicas holds each tree host's replicated store under
	// Scenario.Replicate (nil otherwise).
	Replicas map[core.HostID]*replica.Store

	scenario Scenario
	result   *Result
	// acc holds one accumulator per lane (exactly one on the sequential
	// engine). Hook and delivery counters land in the executing lane's
	// accumulator — lane events on different lanes run concurrently under
	// Scenario.Shards — and merge() folds them into the Result in lane
	// order from parked contexts. The epoch-job channel handoff inside
	// sim.Sharded is the happens-before edge making that safe.
	acc []laneAcc
	// sent records every broadcast by sequence number. It is written from
	// parked contexts only (broadcast), so lane events read it freely;
	// merge exports it as Result.BroadcastAt/BroadcastDigest.
	sent         seqset.Window[broadcastRec]
	sentExported int
	// broadcasting is true while a Broadcast call is on the stack: the
	// source delivers to itself synchronously, before the caller can
	// register the new sequence number in sent, and record must not
	// mistake that self-delivery for an adversary-fabricated frame.
	// selfDelivered is the payload of that self-delivery — the source's
	// stored copy, which nothing mutates afterwards. Broadcast is only
	// ever invoked from parked contexts (the global queue or test code
	// between runs), so no lane event can observe either mid-flight.
	broadcasting  bool
	selfDelivered []byte
	// tap, when set, sees every Deliver (coverage false) and every
	// snapshot install (coverage true, seq the watermark) before the
	// recorder does. Tests feed a reference recorder from it.
	tap func(lane int, id core.HostID, seq seqset.Seq, payload []byte, coverage bool)
}

// broadcastRec is what the harness keeps of one broadcast: when, the
// payload's digest, and the payload itself so record can recognize an
// unaltered delivery by comparing bytes instead of hashing them again.
type broadcastRec struct {
	at      time.Duration
	digest  uint64
	payload []byte
}

// deliveredRec is one host's first delivery of one sequence number.
type deliveredRec struct {
	at     time.Duration
	digest uint64
}

// laneAcc accumulates everything one lane's events measure. Each lane
// writes only its own accumulator; Result fields derive from a
// deterministic lane-order merge.
type laneAcc struct {
	sendsByKind             KindCounts
	interClusterByKind      KindCounts
	unreachableSendsByKind  KindCounts
	sourceLinkByKind        KindCounts
	logicalSends            uint64
	unreachableSends        uint64
	wireBytes               uint64
	catchupWireBytes        uint64
	infoWireBytes           uint64
	dataLinkTraversals      uint64
	dataExpensiveTraversals uint64

	delays metrics.Durations
	// hosts lists the lane's hosts in enrolment order; delivered holds one
	// window per entry, carved from one slab at the lane's first delivery
	// and sized from Scenario.Messages; exported is each window's Len at
	// the last export into the Result maps.
	hosts     []core.HostID
	delivered []seqset.Window[deliveredRec]
	exported  []int
	// lastDelivery is the instant of the lane's latest counted delivery
	// (including self-deliveries and snapshot coverage, which take no
	// delay sample); completion time is the maximum over lanes.
	lastDelivery        time.Duration
	deliveredCount      int
	duplicateDeliveries int
	foreignDeliveries   int
	snapshotDeliveries  int
	sendErrors          int
	events              []core.Event
}

// laneOf reports the lane executing host id's protocol code.
func (rt *Runtime) laneOf(id core.HostID) int {
	return rt.Net.LaneOfHost(netsim.HostID(id))
}

// enroll gives host id a delivery window in its lane's accumulator and
// returns the lane and the window's index there.
func (rt *Runtime) enroll(id core.HostID) (lane, slot int) {
	lane = rt.laneOf(id)
	a := &rt.acc[lane]
	a.hosts = append(a.hosts, id)
	return lane, len(a.hosts) - 1
}

// window returns the delivery window at slot, creating the lane's
// windows on first use.
func (a *laneAcc) window(slot, messages int) *seqset.Window[deliveredRec] {
	if a.delivered == nil {
		a.delivered = seqset.NewWindows[deliveredRec](len(a.hosts), messages)
		a.exported = make([]int, len(a.hosts))
	}
	return &a.delivered[slot]
}

// deliveredTotal sums counted deliveries across lanes. Parked contexts
// only.
func (rt *Runtime) deliveredTotal() int {
	n := 0
	for i := range rt.acc {
		n += rt.acc[i].deliveredCount
	}
	return n
}

// Run executes the scenario to completion and returns the result.
func Run(s Scenario) (*Result, error) {
	rt, err := Prepare(s)
	if err != nil {
		return nil, err
	}
	return rt.Finish()
}

// Prepare builds the runtime without running it; tests use this to
// interleave their own assertions with engine execution.
func Prepare(s Scenario) (*Runtime, error) {
	s, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	var eng sim.Loop
	var sharded *sim.Sharded
	if s.Shards > 0 {
		sharded = sim.NewSharded(s.Seed, s.Shards)
		eng = sharded
	} else {
		eng = sim.NewEngine(s.Seed)
	}
	tp, err := s.Build(eng)
	if err != nil {
		return nil, fmt.Errorf("harness: building topology: %w", err)
	}
	if sharded != nil {
		// Partition the built topology into lanes (its cheap-link
		// clusters) and hand the engine the lane weights and the
		// conservative lookahead before any lane event is scheduled.
		plan := tp.Net.ComputeShardPlan()
		sharded.SetLanes(plan.Weights, plan.Lookahead)
		if err := tp.Net.ApplyShardPlan(plan); err != nil {
			return nil, fmt.Errorf("harness: applying shard plan: %w", err)
		}
	}
	rt := &Runtime{
		Engine:   eng,
		Topo:     tp,
		Net:      tp.Net,
		scenario: s,
		result:   newResult(s, tp),
	}
	rt.acc = make([]laneAcc, tp.Net.Lanes())
	rt.instrument()
	switch s.Protocol {
	case ProtocolTree:
		if err := rt.buildTree(); err != nil {
			return nil, err
		}
	case ProtocolBasic:
		if err := rt.buildBasic(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("harness: unknown protocol %v", s.Protocol)
	}
	if len(s.Adversaries) > 0 {
		ctl, err := adversary.Attach(rt.Net, s.Seed, s.Adversaries)
		if err != nil {
			return nil, fmt.Errorf("harness: attaching adversaries: %w", err)
		}
		rt.Adversary = ctl
	}
	rt.scheduleWorkload()
	for _, ev := range s.Events {
		ev := ev
		eng.Schedule(ev.At, func() {
			if err := ev.Do(rt); err != nil {
				rt.result.EventErrors = append(rt.result.EventErrors,
					fmt.Sprintf("t=%v: %v", eng.Now(), err))
			}
		})
	}
	return rt, nil
}

// Horizon returns the scheduled end time of the scenario.
func (rt *Runtime) Horizon() time.Duration {
	s := rt.scenario
	end := s.WarmUp + time.Duration(s.Messages)*s.MsgInterval + s.Drain
	for _, ev := range s.Events {
		if ev.At+s.Drain > end {
			end = ev.At + s.Drain
		}
	}
	return end
}

// Finish runs the scenario to its horizon (or completion) and finalizes
// the result.
func (rt *Runtime) Finish() (*Result, error) {
	if err := rt.RunUntil(rt.Horizon()); err != nil {
		return nil, err
	}
	rt.finalize()
	return rt.result, nil
}

// Settle advances virtual time by extra regardless of completion. Sweep
// drivers use it after the workload finishes (possibly early, via
// StopWhenComplete) to let the parent graph converge before checking
// structural invariants.
func (rt *Runtime) Settle(extra time.Duration) error {
	if extra <= 0 {
		return nil
	}
	return rt.Engine.Run(rt.Engine.Now() + extra)
}

// Finalize snapshots network statistics and final parent pointers into
// the result without running the engine further. It is idempotent;
// Finish calls it implicitly.
func (rt *Runtime) Finalize() *Result {
	rt.finalize()
	return rt.result
}

// RunUntil advances virtual time to the given instant, stopping early at
// completion when the scenario asks for it.
func (rt *Runtime) RunUntil(until time.Duration) error {
	const step = 100 * time.Millisecond
	for rt.Engine.Now() < until {
		next := rt.Engine.Now() + step
		if next > until {
			next = until
		}
		if err := rt.Engine.Run(next); err != nil {
			return err
		}
		if rt.scenario.StopWhenComplete && rt.deliveredTotal() == rt.result.ExpectedCount {
			return nil
		}
	}
	return nil
}

// Result returns the result under collection, with per-lane counters
// merged up to the current instant. Call it from parked contexts only
// (between runs or from global-queue events).
func (rt *Runtime) Result() *Result {
	rt.merge()
	return rt.result
}

// instrument has the network stamp every transmission with its SendKind
// as it enters (netsim.Envelope.Class), and from that stamp counts
// host-level sends by kind, sends to currently-unreachable destinations
// (the §5 partition waste metric), and server-link traversals of data
// messages (the Figure 3.1 link-cost metric). Only the send hook opens
// the payload, to price it; the two hop hooks run some eight times per
// send and read the stamp alone.
func (rt *Runtime) instrument() {
	rt.Net.Classify = func(payload any) uint8 { return uint8(classify(payload)) }
	rt.Net.OnSend = func(lane int, env netsim.Envelope, inter bool) {
		a := &rt.acc[lane]
		kind := SendKind(env.Class)
		a.sendsByKind[kind]++
		if inter {
			a.interClusterByKind[kind]++
		}
		if !rt.Net.PathExistsOf(lane, env.From, env.To) {
			a.unreachableSends++
			a.unreachableSendsByKind[kind]++
		}
		logical := 1
		if m, ok := env.Payload.(*core.Message); ok {
			// This hook runs on every host-level send, so it prices each
			// frame once, and without encoding it.
			from := core.HostID(env.From)
			size := encodedSize(from, *m)
			a.wireBytes += size
			switch m.Kind {
			case core.MsgInfo, core.MsgInfoDelta:
				a.infoWireBytes += size
			case core.MsgBundle:
				// A bundle's share of the INFO channel is what its INFO
				// parts would cost as frames of their own.
				logical = len(m.Parts)
				for _, part := range m.Parts {
					if part.Kind == core.MsgInfo || part.Kind == core.MsgInfoDelta {
						a.infoWireBytes += encodedSize(from, part)
					}
				}
			case core.MsgSyncReq, core.MsgSyncResp, core.MsgSnapReq, core.MsgSnapChunk:
				a.catchupWireBytes += size
			}
		}
		a.logicalSends += uint64(logical)
	}
	rt.Net.OnLinkTransmit = func(lane int, _ netsim.LinkID, class netsim.LinkClass, env netsim.Envelope) {
		if kind := SendKind(env.Class); kind == KindData || kind == KindGapFill {
			a := &rt.acc[lane]
			a.dataLinkTraversals++
			if class == netsim.Expensive {
				a.dataExpensiveTraversals++
			}
		}
	}
	source := rt.Topo.Source
	rt.Net.OnHostLinkTransmit = func(lane int, h netsim.HostID, env netsim.Envelope) {
		if h == source {
			rt.acc[lane].sourceLinkByKind[SendKind(env.Class)]++
		}
	}
}

// BroadcastNow generates one data message immediately (outside the
// scheduled workload); scenario events use it for precisely timed
// broadcasts. The result's accounting treats it like any other message.
func (rt *Runtime) BroadcastNow(payload []byte) error {
	rt.broadcast(payload)
	rt.result.ManualMessages++
	rt.result.ExpectedCount += rt.result.Hosts
	rt.result.DeliveredCount = rt.deliveredTotal()
	rt.result.Complete = rt.result.DeliveredCount == rt.result.ExpectedCount
	return nil
}

// SendKind indexes the per-kind send counters. A tree-protocol message
// of kind k counts at SendKind(k) — KindData meaning first-delivery data
// only: gap fills are separated because the paper's cost accounting
// distinguishes first-delivery traffic from redelivery. The basic
// algorithm's data counts as KindData, its acks as KindAck; KindOther
// takes any other payload.
type SendKind int

const (
	KindOther   SendKind = 0
	KindData             = SendKind(core.MsgData)
	KindGapFill          = SendKind(core.MsgSnapChunk) + 1
	KindAck              = KindGapFill + 1

	numSendKinds = int(KindAck) + 1
)

// KindCounts is one counter per SendKind.
type KindCounts [numSendKinds]uint64

// String is the kind's label in Summary and the experiment tables.
func (k SendKind) String() string {
	switch k {
	case KindOther:
		return "other"
	case KindGapFill:
		return "gapfill"
	case KindAck:
		return "ack"
	default:
		return core.MsgKind(k).String()
	}
}

// classify names the SendKind of a payload as the network carries it:
// hosts send their messages by value (netsim.SendValue), so what travels
// is a pointer into the in-flight record.
func classify(payload any) SendKind {
	switch m := payload.(type) {
	case *core.Message:
		switch {
		case m.Kind == core.MsgData && m.GapFill:
			return KindGapFill
		case m.Kind >= core.MsgData && m.Kind <= core.MsgSnapChunk:
			return SendKind(m.Kind)
		}
	case *basic.Message:
		if m.Kind == basic.KindData {
			return KindData
		}
		return KindAck
	}
	return KindOther
}

// encodedSize is the wire size of m as a frame of its own from the given
// host, 0 when the codec would refuse it.
func encodedSize(from core.HostID, m core.Message) uint64 {
	size, err := wire.EncodedSize(wire.Frame{From: from, Message: m})
	if err != nil {
		return 0
	}
	return uint64(size)
}

type treeEnv struct {
	rt   *Runtime
	id   core.HostID
	lane int
	slot int // of the host's delivery window in the lane's accumulator
}

func (e treeEnv) Send(to core.HostID, m core.Message) {
	if err := netsim.SendValue(e.rt.Net, netsim.HostID(e.id), netsim.HostID(to), m); err != nil {
		e.rt.acc[e.lane].sendErrors++
	}
}

func (e treeEnv) Deliver(seq seqset.Seq, payload []byte) {
	e.rt.record(e.lane, e.slot, seq, payload)
	if st := e.rt.Replicas[e.id]; st != nil {
		if u, err := replica.DecodeUpdate(payload); err == nil {
			st.Apply(u)
		}
	}
}

// Snapshot implements core.Snapshotter over the host's replica store: a
// checkpoint of the full replicated state stamped with the delivered
// prefix it covers. Without Scenario.Replicate there is no state to
// checkpoint and the host runs without snapshots.
func (e treeEnv) Snapshot(upTo seqset.Seq) ([]byte, bool) {
	st := e.rt.Replicas[e.id]
	if st == nil {
		return nil, false
	}
	data, err := replica.EncodeCheckpoint(st, uint64(upTo))
	if err != nil {
		return nil, false
	}
	return data, true
}

// InstallSnapshot merges a transferred checkpoint into the host's
// replica store and records delivery coverage for the broadcast prefix
// it replaces.
func (e treeEnv) InstallSnapshot(upTo seqset.Seq, data []byte) bool {
	st := e.rt.Replicas[e.id]
	if st == nil {
		return false
	}
	mark, rows, err := replica.DecodeCheckpoint(data)
	if err != nil || mark != uint64(upTo) {
		return false
	}
	st.InstallRows(rows)
	e.rt.recordSnapshotCoverage(e.lane, e.slot, upTo)
	return true
}

// recordSnapshotCoverage credits a snapshot install with the deliveries
// it replaces: every broadcast sequence number ≤ mark the host had not
// yet delivered per-message counts as delivered now (state transfer
// carries the same state those deliveries would have built). No delay
// sample is taken — catch-up latency is measured by the sync metrics,
// not the per-delivery distribution.
func (rt *Runtime) recordSnapshotCoverage(lane, slot int, mark seqset.Seq) {
	a := &rt.acc[lane]
	if rt.tap != nil {
		rt.tap(lane, a.hosts[slot], mark, nil, true)
	}
	w := a.window(slot, rt.scenario.Messages)
	now := rt.Engine.NowOf(lane)
	for seq := seqset.Seq(1); seq <= mark; seq++ {
		sent, known := rt.sent.Get(seq)
		if !known {
			continue
		}
		if _, have := w.Get(seq); have {
			continue
		}
		w.Put(seq, deliveredRec{at: now, digest: sent.digest})
		a.snapshotDeliveries++
		a.deliveredCount++
		a.lastDelivery = max(a.lastDelivery, now)
	}
}

func (rt *Runtime) buildTree() error {
	s := rt.scenario
	peers := make([]core.HostID, 0, len(rt.Topo.Hosts))
	for _, h := range rt.Topo.Hosts {
		peers = append(peers, core.HostID(h))
	}
	source := core.HostID(rt.Topo.Source)
	rt.TreeHosts = make(map[core.HostID]*core.Host, len(peers))
	if s.Replicate {
		rt.Replicas = make(map[core.HostID]*replica.Store, len(peers))
		for _, id := range peers {
			rt.Replicas[id] = replica.NewStore()
		}
	}
	// In static cluster mode (§6), hosts are seeded with the generated
	// clustering as their fixed CLUSTER knowledge.
	staticClusters := make(map[core.HostID][]core.HostID)
	if s.Params.ClusterMode == core.ClusterStatic {
		for _, group := range rt.Topo.HostsByCluster {
			members := make([]core.HostID, 0, len(group))
			for _, h := range group {
				members = append(members, core.HostID(h))
			}
			for _, h := range members {
				staticClusters[h] = members
			}
		}
	}
	for _, id := range peers {
		id := id
		lane, slot := rt.enroll(id)
		var obs core.Observer
		if s.CollectEvents {
			obs = func(ev core.Event) {
				rt.acc[lane].events = append(rt.acc[lane].events, ev)
			}
		}
		h, err := core.NewHost(core.Config{
			ID:             id,
			Source:         source,
			Peers:          peers,
			Order:          s.Order,
			Params:         s.Params,
			InitialCluster: staticClusters[id],
			JitterSeed:     s.Seed,
			Observer:       obs,
		}, treeEnv{rt: rt, id: id, lane: lane, slot: slot})
		if err != nil {
			return fmt.Errorf("harness: host %d: %w", id, err)
		}
		rt.TreeHosts[id] = h
		if err := rt.Net.Handle(netsim.HostID(id), func(now time.Duration, env netsim.Envelope) {
			m, ok := env.Payload.(*core.Message)
			if !ok {
				return
			}
			h.HandleMessage(now, core.HostID(env.From), env.CostBit, *m)
		}); err != nil {
			return err
		}
		rt.tickLoop(lane, s.Params.TickInterval, h.Tick)
	}
	return nil
}

type basicEnv struct {
	rt   *Runtime
	id   core.HostID
	lane int
	slot int
}

func (e basicEnv) Send(to core.HostID, m basic.Message) {
	if err := netsim.SendValue(e.rt.Net, netsim.HostID(e.id), netsim.HostID(to), m); err != nil {
		e.rt.acc[e.lane].sendErrors++
	}
}

func (e basicEnv) Deliver(seq seqset.Seq, payload []byte) {
	e.rt.record(e.lane, e.slot, seq, payload)
}

func (rt *Runtime) buildBasic() error {
	s := rt.scenario
	source := core.HostID(rt.Topo.Source)
	peers := make([]core.HostID, 0, len(rt.Topo.Hosts))
	for _, h := range rt.Topo.Hosts {
		peers = append(peers, core.HostID(h))
	}
	lane, slot := rt.enroll(source)
	src, err := basic.NewSource(source, peers, s.BasicParams, basicEnv{rt: rt, id: source, lane: lane, slot: slot})
	if err != nil {
		return err
	}
	rt.BasicSource = src
	rt.BasicReceivers = make(map[core.HostID]*basic.Receiver)
	if err := rt.Net.Handle(netsim.HostID(source), func(now time.Duration, env netsim.Envelope) {
		m, ok := env.Payload.(*basic.Message)
		if !ok {
			return
		}
		src.HandleMessage(now, core.HostID(env.From), *m)
	}); err != nil {
		return err
	}
	rt.tickLoop(lane, s.BasicParams.TickInterval, src.Tick)
	for _, id := range peers {
		if id == source {
			continue
		}
		lane, slot := rt.enroll(id)
		rcv, err := basic.NewReceiver(id, source, basicEnv{rt: rt, id: id, lane: lane, slot: slot})
		if err != nil {
			return err
		}
		rt.BasicReceivers[id] = rcv
		if err := rt.Net.Handle(netsim.HostID(id), func(now time.Duration, env netsim.Envelope) {
			m, ok := env.Payload.(*basic.Message)
			if !ok {
				return
			}
			rcv.HandleMessage(now, core.HostID(env.From), *m)
		}); err != nil {
			return err
		}
	}
	return nil
}

// tickLoop schedules the periodic clock for one protocol entity on its
// lane, so ticks keep firing inside epochs without coordinator help and
// read their own lane's clock.
func (rt *Runtime) tickLoop(lane int, interval time.Duration, tick func(time.Duration)) {
	rt.Engine.ScheduleOn(lane, 0, func() { tick(rt.Engine.NowOf(lane)) })
	rt.Engine.EveryOn(lane, interval, func() { tick(rt.Engine.NowOf(lane)) })
}

func (rt *Runtime) scheduleWorkload() {
	s := rt.scenario
	fixed := make([]byte, s.PayloadSize)
	for i := range fixed {
		fixed[i] = byte(i)
	}
	for i := 0; i < s.Messages; i++ {
		i := i
		at := s.WarmUp + time.Duration(i)*s.MsgInterval
		rt.Engine.Schedule(at, func() {
			payload := fixed
			if s.PayloadFor != nil {
				payload = s.PayloadFor(i)
			}
			rt.broadcast(payload)
		})
	}
}

// broadcast generates one data message at the source now and registers
// it in sent. Parked contexts only.
func (rt *Runtime) broadcast(payload []byte) {
	now := rt.Engine.Now()
	var seq seqset.Seq
	if rt.sent.Cap() == 0 {
		rt.sent = seqset.NewWindows[broadcastRec](1, rt.scenario.Messages)[0]
	}
	rt.broadcasting, rt.selfDelivered = true, nil
	switch rt.scenario.Protocol {
	case ProtocolTree:
		seq = rt.TreeHosts[core.HostID(rt.Topo.Source)].Broadcast(now, payload)
	case ProtocolBasic:
		seq = rt.BasicSource.Broadcast(now, payload)
	}
	rt.broadcasting = false
	rt.sent.Put(seq, broadcastRec{at: now, digest: core.PayloadDigest(payload), payload: rt.selfDelivered})
}

// record notes host (lane, slot)'s delivery of seq: an index into the
// host's window and into sent, and — for the expected case of a payload
// that is byte-for-byte the broadcast one — no hashing: equal bytes have
// the broadcast's digest. Anything else (an altered payload, a sequence
// number nobody broadcast, the source's self-delivery ahead of its
// registration) is hashed, so every stored digest is the FNV of the
// bytes delivered.
func (rt *Runtime) record(lane, slot int, seq seqset.Seq, payload []byte) {
	a := &rt.acc[lane]
	if rt.tap != nil {
		rt.tap(lane, a.hosts[slot], seq, payload, false)
	}
	w := a.window(slot, rt.scenario.Messages)
	if _, dup := w.Get(seq); dup {
		a.duplicateDeliveries++
		return
	}
	now := rt.Engine.NowOf(lane)
	sent, known := rt.sent.Get(seq)
	rec := deliveredRec{at: now, digest: sent.digest}
	if !known || sent.payload == nil || !bytes.Equal(sent.payload, payload) {
		rec.digest = core.PayloadDigest(payload)
	}
	w.Put(seq, rec)
	if !known {
		if !rt.broadcasting {
			// A sequence number nobody broadcast can only come from an
			// adversary fabricating frames; counting it toward completion
			// would let forged traffic satisfy StopWhenComplete.
			a.foreignDeliveries++
			return
		}
		// Source self-delivery inside its own Broadcast call: the caller
		// registers the sequence number right after it returns. Count the
		// delivery; there is no meaningful delay sample (sent == now).
		rt.selfDelivered = payload
		a.deliveredCount++
		a.lastDelivery = max(a.lastDelivery, now)
		return
	}
	a.deliveredCount++
	a.lastDelivery = max(a.lastDelivery, now)
	a.delays.Add(now - sent.at)
}
