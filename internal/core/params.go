package core

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// ClusterMode selects how CLUSTER_i is maintained. The paper's §6
// discusses all three: dynamic inference from cost bits (the default and
// the best performer), static knowledge supplied at start (usable "albeit
// with less satisfying performance results" once the network drifts from
// it), and no knowledge at all (every host assumes it is alone in its
// cluster; the algorithm still works).
type ClusterMode int

const (
	// ClusterDynamic infers membership from per-message cost bits (§4.2).
	ClusterDynamic ClusterMode = iota
	// ClusterStatic freezes CLUSTER at the Config.InitialCluster seed.
	ClusterStatic
	// ClusterNone freezes CLUSTER at {self}.
	ClusterNone
)

// String implements fmt.Stringer.
func (m ClusterMode) String() string {
	switch m {
	case ClusterDynamic:
		return "dynamic"
	case ClusterStatic:
		return "static"
	case ClusterNone:
		return "none"
	default:
		return fmt.Sprintf("ClusterMode(%d)", int(m))
	}
}

// Params are the protocol's tunables. The paper (§6) frames the
// reliability/cost trade-off entirely in terms of these frequencies: the
// more often hosts exchange INFO sets, parent pointers, and gap fills,
// the faster they exploit transient communication opportunities — and the
// more control traffic they pay for it.
type Params struct {
	// TickInterval is the granularity at which the runtime calls
	// Host.Tick. All periods below are rounded up to it in effect.
	TickInterval time.Duration

	// AttachPeriod is how often the attachment procedure (§4.2) is
	// activated at each host.
	AttachPeriod time.Duration

	// InfoClusterPeriod is the period of the routine INFO + parent
	// pointer exchange among hosts of the same cluster.
	InfoClusterPeriod time.Duration
	// InfoRemotePeriod is the period of INFO exchange with parent-graph
	// neighbours in other clusters (a cluster leader and its remote
	// parent/children keep each other current at this rate).
	InfoRemotePeriod time.Duration
	// InfoGlobalPeriod is the period at which cluster leaders (and the
	// source) advertise their INFO to all non-cluster, non-neighbour
	// hosts. This is the "probe" that detects partition repairs; per the
	// paper's §5 discussion only roots/leaders perform it.
	InfoGlobalPeriod time.Duration

	// GapClusterPeriod is the period of gap filling towards parent-graph
	// neighbours in the same cluster.
	GapClusterPeriod time.Duration
	// GapRemotePeriod is the period of gap filling towards parent-graph
	// neighbours in other clusters.
	GapRemotePeriod time.Duration
	// GapGlobalPeriod is the period of the §4.4 non-neighbour gap fill
	// performed by cluster leaders across cluster boundaries (the
	// mechanism that resolves the paper's Figure 4.1 scenario).
	GapGlobalPeriod time.Duration

	// AttachTimeout bounds the wait for an attach acknowledgment before
	// the host moves to the next candidate.
	AttachTimeout time.Duration
	// ParentTimeout is how long a parent may stay silent before the host
	// sets its parent pointer to NIL and searches anew.
	ParentTimeout time.Duration

	// GapFillBatch caps the number of gap-fill data messages sent to one
	// target in one round.
	GapFillBatch int

	// PruneStable enables §6 INFO-set pruning: sequence numbers known (via
	// MAP) to be held by every participant are dropped from INFO and the
	// message store.
	PruneStable bool

	// ClusterMode selects dynamic (default), static, or no cluster
	// knowledge; see the ClusterMode docs.
	ClusterMode ClusterMode

	// Piggyback enables the §6 packet optimization: all messages a host
	// emits to one destination within a single activation (one received
	// message or one clock tick) travel as one bundled packet.
	Piggyback bool

	// DisableNonNeighborGapFill turns off the §4.4 extension that lets
	// hosts fill gaps of non-parent-graph-neighbours across cluster
	// boundaries. It exists as an ablation knob: the paper's Figure 4.1
	// argues the extension is necessary, and the F4.1 experiment
	// demonstrates it by running with and without.
	DisableNonNeighborGapFill bool

	// DeltaInfo enables the delta INFO optimization: periodic INFO
	// advertisements carry only the runs gained since the last
	// advertisement to the same peer (as MsgInfoDelta, with a full-set
	// checksum), whenever that coding is smaller on the wire; full sets
	// are sent for resynchronization. Receivers merge deltas
	// monotonically and promote the reconstructed view only on a
	// checksum match, so lost or reordered deltas degrade freshness,
	// never correctness. The zero value keeps every INFO exchange a full
	// MsgInfo — byte-identical to the plain paper protocol.
	DeltaInfo bool

	// EchoReady enables the optional Bracha-flavoured hardening mode: a
	// data message is delivered only once the host has seen an echo
	// quorum ((n+f)/2+1 matching payload-digest votes) amplified into
	// 2f+1 ready votes, where n is the participant count and f the
	// assumed Byzantine budget (EchoMaxFaulty). This preserves agreement
	// among correct hosts when up to f hosts equivocate — at the price of
	// O(n) extra control messages per broadcast and extra delivery
	// latency. The zero value runs the plain paper protocol with a
	// byte-identical wire and schedule.
	EchoReady bool
	// EchoMaxFaulty is the assumed Byzantine budget f for EchoReady
	// quorum sizing. Zero means ⌊(n−1)/3⌋, the classical maximum. Only
	// meaningful (and only valid nonzero) when EchoReady is on.
	EchoMaxFaulty int

	// BackoffBase enables the per-peer health layer when positive: a
	// peer that fails SuspicionAfter consecutive probes (attach-ack
	// timeouts, parent-silence timeouts) becomes suspected, and
	// backoff-gated control traffic toward it (attach attempts, leader
	// global INFO probes, global gap fills) is sent no more often than
	// an exponentially growing interval starting at BackoffBase. Zero
	// disables the layer entirely; all scheduling is then exactly the
	// fixed-rate behavior of the plain paper protocol.
	BackoffBase time.Duration
	// BackoffMax caps the backoff interval.
	BackoffMax time.Duration
	// BackoffMultiplier grows the interval per failure past the
	// threshold (≥ 1; 2 doubles).
	BackoffMultiplier float64
	// SuspicionAfter is the consecutive-failure count at which a peer
	// becomes suspected (≥ 1 when the layer is enabled).
	SuspicionAfter int

	// SyncBatch enables the catch-up range-sync layer when positive: a
	// host that is missing data a peer's confirmed view proves exists
	// pulls it with batched MsgSyncReq range requests of at most
	// SyncBatch sequence numbers each, instead of waiting for the
	// periodic per-message gap fill. Zero disables the layer entirely;
	// every schedule and wire byte is then exactly the plain protocol.
	SyncBatch int
	// SyncWindow caps the number of range requests kept in flight toward
	// the sync source at once (the downloader-style pipeline depth);
	// ≥ 1 when the sync layer is enabled.
	SyncWindow int
	// SyncTimeout bounds the wait for a MsgSyncResp (or the next
	// MsgSnapChunk) before the request is retried; repeated timeouts
	// count as probe failures for the health/backoff layer and
	// eventually fail the source over. Positive when the sync layer is
	// enabled.
	SyncTimeout time.Duration
	// SyncPeriod is how often the sync pump re-evaluates missing data
	// and issues new range requests. Positive when the sync layer is
	// enabled.
	SyncPeriod time.Duration

	// SnapshotEvery enables checkpointing when positive: each time the
	// host's delivered prefix has advanced by at least SnapshotEvery
	// sequence numbers since the last checkpoint, it asks its
	// environment (if it implements Snapshotter) for a fresh snapshot.
	// Peers whose gap has been pruned away everywhere then catch up by
	// chunked snapshot transfer instead of per-message replay. Requires
	// the sync layer (SyncBatch > 0).
	SnapshotEvery int
	// SnapChunk is the maximum snapshot chunk payload size in bytes for
	// MsgSnapChunk transfers; ≥ 1 when SnapshotEvery is on.
	SnapChunk int
}

// MaxEchoFaulty caps an explicit EchoMaxFaulty budget. The field is
// outside input (a flag, a soak spec, a config file), and quorum sizing
// in echo.go computes (n+f)/2+1 and 2f+1 in int: bounding f keeps that
// arithmetic from overflowing on any platform, and
// TestQuorumInequalities exercises the thresholds at exactly this
// bound. It sits far above any plausible deployment — f is classically
// at most ⌊(n−1)/3⌋, and no simulated network approaches a million
// hosts.
const MaxEchoFaulty = 1 << 20

// BackoffEnabled reports whether the per-peer health/backoff layer is
// active. The zero value of the backoff fields leaves scheduling
// byte-identical to the fixed-rate protocol.
func (p Params) BackoffEnabled() bool { return p.BackoffBase > 0 }

// WithBackoff returns p with the health/backoff layer enabled at the
// reference tuning: suspicion after 2 consecutive probe failures,
// backoff starting at InfoGlobalPeriod, doubling, capped at 8× the
// base.
func (p Params) WithBackoff() Params {
	p.BackoffBase = p.InfoGlobalPeriod
	p.BackoffMax = 8 * p.InfoGlobalPeriod
	p.BackoffMultiplier = 2
	p.SuspicionAfter = 2
	return p
}

// SyncEnabled reports whether the catch-up range-sync layer is active.
// The zero value of the sync fields leaves every schedule and wire byte
// identical to the plain protocol.
func (p Params) SyncEnabled() bool { return p.SyncBatch > 0 }

// SnapshotsEnabled reports whether periodic checkpointing (and with it
// chunked snapshot transfer) is active.
func (p Params) SnapshotsEnabled() bool { return p.SyncEnabled() && p.SnapshotEvery > 0 }

// WithCatchupSync returns p with the catch-up sync and checkpointing
// layers enabled at the reference tuning: 64-sequence range batches, a
// 4-request pipeline, request timeouts at twice the remote INFO period,
// the pump clocked at the remote gap-fill period, a checkpoint every 32
// delivered sequence numbers, and 4 KiB snapshot chunks.
func (p Params) WithCatchupSync() Params {
	p.SyncBatch = 64
	p.SyncWindow = 4
	p.SyncTimeout = 2 * p.InfoRemotePeriod
	p.SyncPeriod = p.GapRemotePeriod
	p.SnapshotEvery = 32
	p.SnapChunk = 4096
	return p
}

// DefaultParams returns the reference tuning, sized for the simulator's
// default link delays (1 ms cheap, 30 ms expensive).
func DefaultParams() Params {
	return Params{
		TickInterval:      25 * time.Millisecond,
		AttachPeriod:      250 * time.Millisecond,
		InfoClusterPeriod: 100 * time.Millisecond,
		InfoRemotePeriod:  400 * time.Millisecond,
		InfoGlobalPeriod:  800 * time.Millisecond,
		GapClusterPeriod:  150 * time.Millisecond,
		GapRemotePeriod:   500 * time.Millisecond,
		GapGlobalPeriod:   1200 * time.Millisecond,
		AttachTimeout:     300 * time.Millisecond,
		ParentTimeout:     1500 * time.Millisecond,
		GapFillBatch:      64,
	}
}

// Validate reports the first problem with p, or nil.
func (p Params) Validate() error {
	type field struct {
		name string
		d    time.Duration
	}
	for _, f := range []field{
		{"TickInterval", p.TickInterval},
		{"AttachPeriod", p.AttachPeriod},
		{"InfoClusterPeriod", p.InfoClusterPeriod},
		{"InfoRemotePeriod", p.InfoRemotePeriod},
		{"InfoGlobalPeriod", p.InfoGlobalPeriod},
		{"GapClusterPeriod", p.GapClusterPeriod},
		{"GapRemotePeriod", p.GapRemotePeriod},
		{"GapGlobalPeriod", p.GapGlobalPeriod},
		{"AttachTimeout", p.AttachTimeout},
		{"ParentTimeout", p.ParentTimeout},
	} {
		if f.d <= 0 {
			return fmt.Errorf("core: %s must be positive, got %v", f.name, f.d)
		}
	}
	if p.GapFillBatch <= 0 {
		return fmt.Errorf("core: GapFillBatch must be positive, got %d", p.GapFillBatch)
	}
	if p.ParentTimeout <= p.InfoClusterPeriod {
		return errors.New("core: ParentTimeout must exceed InfoClusterPeriod or in-cluster parents flap")
	}
	switch p.ClusterMode {
	case ClusterDynamic, ClusterStatic, ClusterNone:
	default:
		return fmt.Errorf("core: unknown ClusterMode %d", int(p.ClusterMode))
	}
	if p.EchoMaxFaulty < 0 {
		return fmt.Errorf("core: EchoMaxFaulty must be ≥ 0, got %d", p.EchoMaxFaulty)
	}
	if p.EchoMaxFaulty > MaxEchoFaulty {
		return fmt.Errorf("core: EchoMaxFaulty must be ≤ %d, got %d", MaxEchoFaulty, p.EchoMaxFaulty)
	}
	if p.EchoMaxFaulty > 0 && !p.EchoReady {
		return errors.New("core: EchoMaxFaulty set without EchoReady")
	}
	if p.BackoffBase != 0 || p.BackoffMax != 0 || p.BackoffMultiplier != 0 || p.SuspicionAfter != 0 {
		if p.BackoffBase <= 0 {
			return fmt.Errorf("core: BackoffBase must be positive when backoff is configured, got %v", p.BackoffBase)
		}
		if p.BackoffMax < p.BackoffBase {
			return fmt.Errorf("core: BackoffMax %v must be ≥ BackoffBase %v", p.BackoffMax, p.BackoffBase)
		}
		if p.BackoffMultiplier < 1 {
			return fmt.Errorf("core: BackoffMultiplier must be ≥ 1, got %v", p.BackoffMultiplier)
		}
		if p.SuspicionAfter < 1 {
			return fmt.Errorf("core: SuspicionAfter must be ≥ 1, got %d", p.SuspicionAfter)
		}
	}
	if p.SyncBatch != 0 || p.SyncWindow != 0 || p.SyncTimeout != 0 || p.SyncPeriod != 0 {
		if p.SyncBatch < 1 {
			return fmt.Errorf("core: SyncBatch must be ≥ 1 when sync is configured, got %d", p.SyncBatch)
		}
		if p.SyncWindow < 1 {
			return fmt.Errorf("core: SyncWindow must be ≥ 1 when sync is configured, got %d", p.SyncWindow)
		}
		if p.SyncTimeout <= 0 {
			return fmt.Errorf("core: SyncTimeout must be positive when sync is configured, got %v", p.SyncTimeout)
		}
		if p.SyncPeriod <= 0 {
			return fmt.Errorf("core: SyncPeriod must be positive when sync is configured, got %v", p.SyncPeriod)
		}
	}
	if p.SnapshotEvery != 0 || p.SnapChunk != 0 {
		if p.SnapshotEvery < 1 {
			return fmt.Errorf("core: SnapshotEvery must be ≥ 1 when snapshots are configured, got %d", p.SnapshotEvery)
		}
		if p.SnapChunk < 1 {
			return fmt.Errorf("core: SnapChunk must be ≥ 1 when snapshots are configured, got %d", p.SnapChunk)
		}
		if !p.SyncEnabled() {
			return errors.New("core: SnapshotEvery requires the sync layer (SyncBatch > 0)")
		}
	}
	return nil
}

// Config assembles everything a Host needs at construction.
type Config struct {
	// ID is this host's identity; must appear in Peers.
	ID HostID
	// Source is the broadcast source's identity; must appear in Peers.
	// The host with ID == Source generates messages and never runs the
	// attachment procedure.
	Source HostID
	// Peers lists every participating host, including ID and Source. The
	// paper assumes hosts know the identities of all participants.
	Peers []HostID
	// Order optionally overrides the static linear order; when nil,
	// order(i) = int(i). Every peer must have a distinct order.
	Order map[HostID]int
	// InitialCluster optionally seeds CLUSTER with static knowledge
	// (§6); its members must appear in Peers, and the host's own ID is
	// always included.
	InitialCluster []HostID
	// Params tunes the protocol; zero value means DefaultParams.
	Params Params
	// JitterSeed seeds the deterministic backoff jitter. Runtimes that
	// care about reproducibility (the simulation harness) pass their
	// scenario seed; zero is a valid seed.
	JitterSeed int64
	// Observer receives protocol events; may be nil.
	Observer Observer
}

// validate reports the first problem with c, or else the static order
// of every participant. sorted is c.Peers ascending — NewHost sorts the
// list once, for the table it keeps — and the orders run parallel to it.
// Two peers that share an order are named in ascending ID order.
func (c Config) validate(sorted []HostID) ([]int, error) {
	if c.ID <= 0 {
		return nil, fmt.Errorf("core: invalid host id %d", c.ID)
	}
	if c.Source <= 0 {
		return nil, fmt.Errorf("core: invalid source id %d", c.Source)
	}
	order := make([]int, len(sorted))
	for i, p := range sorted {
		if p <= 0 {
			return nil, fmt.Errorf("core: invalid peer id %d", p)
		}
		if i > 0 && p == sorted[i-1] {
			return nil, fmt.Errorf("core: duplicate peer %d", p)
		}
		order[i] = int(p)
		if c.Order != nil {
			var ok bool
			if order[i], ok = c.Order[p]; !ok {
				return nil, fmt.Errorf("core: peer %d missing from Order", p)
			}
		}
	}
	// Without an override the orders are the IDs, distinct already.
	if c.Order != nil {
		byOrder := slices.Clone(order)
		slices.Sort(byOrder)
		for i := 1; i < len(byOrder); i++ {
			if o := byOrder[i]; o == byOrder[i-1] {
				a := slices.Index(order, o)
				b := a + 1 + slices.Index(order[a+1:], o)
				return nil, fmt.Errorf("core: peers %d and %d share order %d", sorted[a], sorted[b], o)
			}
		}
	}
	member := func(j HostID) bool {
		_, ok := slices.BinarySearch(sorted, j)
		return ok
	}
	if !member(c.ID) {
		return nil, fmt.Errorf("core: host %d not in Peers", c.ID)
	}
	if !member(c.Source) {
		return nil, fmt.Errorf("core: source %d not in Peers", c.Source)
	}
	for _, p := range c.InitialCluster {
		if !member(p) {
			return nil, fmt.Errorf("core: InitialCluster member %d not in Peers", p)
		}
	}
	// An explicit budget is held to n > 3f, as the default one is by
	// construction: at n ≤ 3f the ready quorum 2f+1 exceeds the n − f
	// correct hosts and nothing but the source's own messages is ever
	// delivered (echo.go, "reachability").
	if f := c.Params.EchoMaxFaulty; !admitsBudget(len(sorted), f) {
		return nil, fmt.Errorf("core: EchoMaxFaulty %d needs more than %d participants, have %d", f, 3*f, len(sorted))
	}
	return order, nil
}
