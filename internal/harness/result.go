package harness

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rbcast/internal/adversary"
	"rbcast/internal/core"
	"rbcast/internal/metrics"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
	"rbcast/internal/topo"
)

// Result is everything a finished scenario measured.
type Result struct {
	// Name echoes the scenario.
	Name string
	// Protocol echoes the scenario.
	Protocol Protocol
	// Hosts is the participant count.
	Hosts int
	// HostList enumerates every participant, ascending.
	HostList []core.HostID
	// Clusters is the generated cluster count.
	Clusters int
	// Messages echoes the scenario.
	Messages int

	// BroadcastAt records when each sequence number was generated.
	BroadcastAt map[seqset.Seq]time.Duration
	// DeliveredAt records first delivery time per host per message.
	DeliveredAt map[core.HostID]map[seqset.Seq]time.Duration
	// Delays aggregates per-delivery latency (delivery − broadcast).
	Delays metrics.Durations
	// DeliveredCount counts distinct (host, seq) deliveries.
	DeliveredCount int
	// ExpectedCount is Hosts × Messages.
	ExpectedCount int
	// Complete reports whether every host received every message.
	Complete bool
	// CompletionAt is when the final expected delivery happened.
	CompletionAt time.Duration
	// DuplicateDeliveries counts Deliver calls for already-delivered
	// (host, seq) pairs; protocol invariants say this must be zero.
	DuplicateDeliveries int
	// BroadcastDigest records the FNV-64a payload digest per broadcast
	// sequence number — the ground truth the Byzantine invariants compare
	// deliveries against.
	BroadcastDigest map[seqset.Seq]uint64
	// DeliveredDigest records the digest of the payload each host actually
	// delivered, per sequence number.
	DeliveredDigest map[core.HostID]map[seqset.Seq]uint64
	// ForeignDeliveries counts deliveries of sequence numbers no source
	// ever broadcast — frames an adversary fabricated. They never count
	// toward DeliveredCount or completion.
	ForeignDeliveries int

	// SendsByKind counts host-level sends per message kind (KindData,
	// KindGapFill, SendKind(core.MsgInfo), …, KindAck).
	SendsByKind KindCounts
	// InterClusterByKind restricts SendsByKind to sends crossing true
	// cluster boundaries — the paper's §5 cost metric.
	InterClusterByKind KindCounts

	// UnreachableSends counts host-level sends made while no path to the
	// destination existed — traffic wasted into a partition.
	UnreachableSends uint64
	// UnreachableSendsByKind breaks UnreachableSends down by kind.
	UnreachableSendsByKind KindCounts
	// DataLinkTraversals counts server-link traversals of data and
	// gap-fill messages (Figure 3.1's link-cost metric).
	DataLinkTraversals uint64
	// DataExpensiveTraversals restricts DataLinkTraversals to expensive
	// links.
	DataExpensiveTraversals uint64
	// ManualMessages counts broadcasts injected via Runtime.BroadcastNow.
	ManualMessages int
	// WireBytes totals the binary wire size of all tree-protocol sends
	// (bundled packets encode once), for packet-vs-byte comparisons.
	WireBytes uint64
	// InfoWireBytes restricts WireBytes to the INFO channel: full MsgInfo
	// and MsgInfoDelta frames, counting bundle parts individually. The E6
	// control-overhead experiment uses it to price the delta INFO
	// optimization.
	InfoWireBytes uint64
	// LogicalSends counts protocol messages as opposed to packets: a
	// piggybacked bundle is one send (packet) but len(Parts) logical
	// messages. Without piggybacking, LogicalSends == TotalSends().
	LogicalSends uint64

	// NetStats is a snapshot of network-level counters.
	NetStats netsim.Stats
	// SourceHostLinkTransmissions is the traffic on the source's access
	// link (the §5 congestion argument).
	SourceHostLinkTransmissions uint64
	// SourceLinkByKind breaks the source access-link traffic down by
	// message kind (both directions).
	SourceLinkByKind KindCounts

	// SyncRounds totals catch-up range requests issued across hosts.
	SyncRounds uint64
	// SyncFailovers totals sync sources abandoned mid-transfer.
	SyncFailovers uint64
	// SnapResumes totals snapshot requests resumed from a nonzero
	// verified offset (rather than restarting from byte zero).
	SnapResumes uint64
	// SnapInstalls totals snapshots installed across hosts.
	SnapInstalls uint64
	// SnapshotDeliveries counts deliveries credited to snapshot installs
	// instead of per-message replay (Scenario.Replicate runs only).
	SnapshotDeliveries int
	// CatchupWireBytes restricts WireBytes to the catch-up sync channel:
	// MsgSyncReq/MsgSyncResp/MsgSnapReq/MsgSnapChunk frames. The E14
	// experiment uses it to show catch-up cost scales with missing data,
	// not history length.
	CatchupWireBytes uint64

	// ResyncBursts totals fast-resync bursts across hosts (health layer).
	ResyncBursts uint64
	// SuppressedSends totals control sends skipped by backoff gating.
	SuppressedSends uint64
	// SuspectedPairs is the number of (host, peer) suspicions in force at
	// the end of the run.
	SuspectedPairs int

	// AdversaryHosts lists the scenario's Byzantine hosts, ascending.
	AdversaryHosts []core.HostID
	// AdversaryStats reports each adversary host's hostile-action counters.
	AdversaryStats map[core.HostID]adversary.Stats
	// EquivocationsDetected sums the per-host equivocation-conflict
	// counters (tree protocol; nonzero only in echo/ready mode).
	EquivocationsDetected uint64

	// FinalParents is the tree protocol's parent pointer per host at the
	// end of the run.
	FinalParents map[core.HostID]core.HostID
	// Events holds collected protocol events when requested.
	Events []core.Event
	// EventErrors records failures of scheduled scenario events.
	EventErrors []string
	// SendErrors counts rejected Network.Send calls (should be zero).
	SendErrors int
}

func newResult(s Scenario, tp *topo.Topology) *Result {
	hostList := make([]core.HostID, 0, len(tp.Hosts))
	for _, h := range tp.Hosts {
		hostList = append(hostList, core.HostID(h))
	}
	slices.Sort(hostList)
	return &Result{
		Name:     s.Name,
		Protocol: s.Protocol,
		Hosts:    len(tp.Hosts),
		HostList: hostList,
		// A run that expects nothing is trivially complete; BroadcastNow
		// revokes this when it raises the expectation.
		Complete:        s.Messages == 0,
		Clusters:        len(tp.HostsByCluster),
		Messages:        s.Messages,
		BroadcastAt:     make(map[seqset.Seq]time.Duration),
		BroadcastDigest: make(map[seqset.Seq]uint64),
		DeliveredAt:     make(map[core.HostID]map[seqset.Seq]time.Duration, len(tp.Hosts)),
		DeliveredDigest: make(map[core.HostID]map[seqset.Seq]uint64, len(tp.Hosts)),
		ExpectedCount:   len(tp.Hosts) * s.Messages,
	}
}

// merge folds the per-lane accumulators into the Result, recomputing
// every derived counter from scratch so the operation is idempotent.
// Lanes are folded in lane order, so the merged Result is a pure
// function of the per-lane data — independent of worker count and wall
// timing. Parked contexts only.
func (rt *Runtime) merge() {
	res := rt.result
	res.SendsByKind, res.InterClusterByKind = KindCounts{}, KindCounts{}
	res.UnreachableSendsByKind, res.SourceLinkByKind = KindCounts{}, KindCounts{}
	res.LogicalSends, res.UnreachableSends = 0, 0
	res.WireBytes, res.CatchupWireBytes, res.InfoWireBytes = 0, 0, 0
	res.DataLinkTraversals, res.DataExpensiveTraversals = 0, 0
	res.DeliveredCount, res.DuplicateDeliveries = 0, 0
	res.ForeignDeliveries, res.SnapshotDeliveries = 0, 0
	res.SendErrors = 0
	res.Delays = metrics.Durations{}
	var last time.Duration
	var events []core.Event
	for i := range rt.acc {
		a := &rt.acc[i]
		for k := range res.SendsByKind {
			res.SendsByKind[k] += a.sendsByKind[k]
			res.InterClusterByKind[k] += a.interClusterByKind[k]
			res.UnreachableSendsByKind[k] += a.unreachableSendsByKind[k]
			res.SourceLinkByKind[k] += a.sourceLinkByKind[k]
		}
		res.LogicalSends += a.logicalSends
		res.UnreachableSends += a.unreachableSends
		res.WireBytes += a.wireBytes
		res.CatchupWireBytes += a.catchupWireBytes
		res.InfoWireBytes += a.infoWireBytes
		res.DataLinkTraversals += a.dataLinkTraversals
		res.DataExpensiveTraversals += a.dataExpensiveTraversals
		res.DeliveredCount += a.deliveredCount
		res.DuplicateDeliveries += a.duplicateDeliveries
		res.ForeignDeliveries += a.foreignDeliveries
		res.SnapshotDeliveries += a.snapshotDeliveries
		res.SendErrors += a.sendErrors
		res.Delays.Merge(&a.delays)
		last = max(last, a.lastDelivery)
		events = append(events, a.events...)
		rt.exportDelivered(a)
	}
	rt.exportSent()
	// Events merge by instant; the stable sort keeps lane order as the
	// tie-break for same-instant events, and within-lane order intact.
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	res.Events = events
	res.Complete = res.DeliveredCount == res.ExpectedCount
	res.CompletionAt = 0
	if res.Complete && res.ExpectedCount > 0 {
		res.CompletionAt = last
	}
}

// exportDelivered brings Result.DeliveredAt and DeliveredDigest up to
// date with one lane's delivery windows. The recording path keeps no
// map: the exported ones are filled here, where every reader of a Result
// passes, and only for hosts that delivered since the last export. A
// delivery record is written once and never removed, so a window changed
// exactly when its Len did, and re-assigning its entries into the host's
// existing maps — presized at the first export — adds the new ones and
// leaves the rest as they were.
func (rt *Runtime) exportDelivered(a *laneAcc) {
	res := rt.result
	for slot := range a.delivered {
		w := &a.delivered[slot]
		if w.Len() == a.exported[slot] {
			continue
		}
		a.exported[slot] = w.Len()
		id := a.hosts[slot]
		at, dig := res.DeliveredAt[id], res.DeliveredDigest[id]
		if at == nil {
			at = make(map[seqset.Seq]time.Duration, w.Len())
			dig = make(map[seqset.Seq]uint64, w.Len())
			res.DeliveredAt[id], res.DeliveredDigest[id] = at, dig
		}
		w.Each(func(seq seqset.Seq, rec deliveredRec) bool {
			at[seq], dig[seq] = rec.at, rec.digest
			return true
		})
	}
}

// exportSent is exportDelivered for Result.BroadcastAt and
// BroadcastDigest.
func (rt *Runtime) exportSent() {
	if rt.sent.Len() == rt.sentExported {
		return
	}
	rt.sentExported = rt.sent.Len()
	res := rt.result
	if len(res.BroadcastAt) == 0 {
		res.BroadcastAt = make(map[seqset.Seq]time.Duration, rt.sent.Len())
		res.BroadcastDigest = make(map[seqset.Seq]uint64, rt.sent.Len())
	}
	rt.sent.Each(func(seq seqset.Seq, rec broadcastRec) bool {
		res.BroadcastAt[seq], res.BroadcastDigest[seq] = rec.at, rec.digest
		return true
	})
}

func (rt *Runtime) finalize() {
	rt.merge()
	res := rt.result
	res.NetStats = *rt.Net.Stats()
	res.SourceHostLinkTransmissions = res.NetStats.HostLinkTransmissions[rt.Topo.Source]
	if rt.TreeHosts != nil {
		res.FinalParents = make(map[core.HostID]core.HostID, len(rt.TreeHosts))
		for id, h := range rt.TreeHosts {
			res.FinalParents[id] = h.Parent()
		}
		res.ResyncBursts = rt.TotalResyncBursts()
		res.SuppressedSends = rt.TotalSuppressedSends()
		res.SuspectedPairs = rt.SuspectedPairs()
		res.EquivocationsDetected = 0
		for _, h := range rt.TreeHosts {
			res.EquivocationsDetected += h.Equivocations()
		}
		res.SyncRounds, res.SyncFailovers, res.SnapResumes, res.SnapInstalls = 0, 0, 0, 0
		for _, h := range rt.TreeHosts {
			st := h.SyncStats()
			res.SyncRounds += st.Rounds
			res.SyncFailovers += st.Failovers
			res.SnapResumes += st.SnapResumes
			res.SnapInstalls += st.SnapInstalls
		}
	}
	if rt.Adversary != nil {
		res.AdversaryHosts = rt.Adversary.Hosts()
		res.AdversaryStats = make(map[core.HostID]adversary.Stats, len(res.AdversaryHosts))
		for _, h := range res.AdversaryHosts {
			res.AdversaryStats[h] = rt.Adversary.StatsOf(h)
		}
	}
}

// InterClusterData returns inter-cluster first-delivery data sends.
func (r *Result) InterClusterData() uint64 { return r.InterClusterByKind[KindData] }

// total sums the counters of every kind; control leaves out first
// deliveries and gap-fill redeliveries.
func (c KindCounts) total() uint64 {
	var sum uint64
	for _, n := range c {
		sum += n
	}
	return sum
}

func (c KindCounts) control() uint64 { return c.total() - c[KindData] - c[KindGapFill] }

// InterClusterControl returns the inter-cluster sends that carry no data
// (plain data and gap-fill redeliveries are reported by kind).
func (r *Result) InterClusterControl() uint64 { return r.InterClusterByKind.control() }

// TotalSends sums all host-level sends.
func (r *Result) TotalSends() uint64 { return r.SendsByKind.total() }

// ControlSends sums non-data, non-gapfill host-level sends.
func (r *Result) ControlSends() uint64 { return r.SendsByKind.control() }

// TotalMessages counts scheduled plus manually injected broadcasts.
func (r *Result) TotalMessages() int { return r.Messages + r.ManualMessages }

// InterClusterDataPerMessage is the paper's headline cost figure: the
// average number of inter-cluster host-to-host transmissions of data
// (including gap fills) needed per broadcast message.
func (r *Result) InterClusterDataPerMessage() float64 {
	if r.TotalMessages() == 0 {
		return 0
	}
	return float64(r.InterClusterByKind[KindData]+r.InterClusterByKind[KindGapFill]) /
		float64(r.TotalMessages())
}

// DataLinkTraversalsPerMessage averages Figure 3.1's link-cost metric.
func (r *Result) DataLinkTraversalsPerMessage() float64 {
	if r.TotalMessages() == 0 {
		return 0
	}
	return float64(r.DataLinkTraversals) / float64(r.TotalMessages())
}

// DeliveryRatio is delivered / expected in [0, 1].
func (r *Result) DeliveryRatio() float64 {
	if r.ExpectedCount == 0 {
		return 1
	}
	return float64(r.DeliveredCount) / float64(r.ExpectedCount)
}

// MissingAt lists the sequence numbers host h never received.
func (r *Result) MissingAt(h core.HostID) []seqset.Seq {
	var out []seqset.Seq
	per := r.DeliveredAt[h]
	for q := seqset.Seq(1); q <= seqset.Seq(r.TotalMessages()); q++ {
		if _, ok := per[q]; !ok {
			out = append(out, q)
		}
	}
	return out
}

// Summary renders a one-scenario overview table.
func (r *Result) Summary() string {
	t := metrics.NewTable("metric", "value")
	t.AddRow("protocol", r.Protocol.String())
	t.AddRow("hosts", r.Hosts)
	t.AddRow("clusters", r.Clusters)
	t.AddRow("messages", r.Messages)
	t.AddRow("delivered", fmt.Sprintf("%d/%d", r.DeliveredCount, r.ExpectedCount))
	t.AddRow("complete", r.Complete)
	if r.Complete {
		t.AddRow("completion at", r.CompletionAt)
	}
	t.AddRow("mean delay", r.Delays.Mean())
	t.AddRow("p99 delay", r.Delays.Quantile(0.99))
	t.AddRow("inter-cluster data/msg", r.InterClusterDataPerMessage())
	t.AddRow("control sends", r.ControlSends())
	t.AddRow("total sends", r.TotalSends())
	t.AddRow("source host-link load", r.SourceHostLinkTransmissions)
	if r.SuppressedSends > 0 || r.ResyncBursts > 0 || r.SuspectedPairs > 0 {
		t.AddRow("suppressed sends", r.SuppressedSends)
		t.AddRow("resync bursts", r.ResyncBursts)
		t.AddRow("suspected pairs", r.SuspectedPairs)
	}
	if r.SyncRounds > 0 || r.SnapInstalls > 0 {
		t.AddRow("sync rounds", r.SyncRounds)
		t.AddRow("sync failovers", r.SyncFailovers)
		t.AddRow("snapshot installs", r.SnapInstalls)
		t.AddRow("snapshot resumes", r.SnapResumes)
		t.AddRow("snapshot deliveries", r.SnapshotDeliveries)
		t.AddRow("catch-up wire bytes", r.CatchupWireBytes)
	}
	// One row per kind that was sent, in label order.
	var kinds []SendKind
	for k, n := range r.SendsByKind {
		if n > 0 {
			kinds = append(kinds, SendKind(k))
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	for _, k := range kinds {
		t.AddRow("sends["+k.String()+"]", r.SendsByKind[k])
	}
	return t.String()
}
