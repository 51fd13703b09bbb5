package rbcast

import (
	"fmt"
	"time"

	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

// Algorithm selects which broadcast algorithm a simulation runs.
type Algorithm int

const (
	// AlgorithmTree is the paper's protocol.
	AlgorithmTree Algorithm = iota + 1
	// AlgorithmBasic is the paper's §1 baseline: the source sends an
	// individually addressed copy to every host and retries until acked.
	AlgorithmBasic
)

// WANShape selects how simulated clusters interconnect.
type WANShape = topo.WANShape

// WAN shapes.
const (
	WANStar  = topo.WANStar
	WANChain = topo.WANChain
	WANTree  = topo.WANTree
	WANMesh  = topo.WANMesh
	WANRing  = topo.WANRing
)

// SimulationConfig describes a deterministic broadcast simulation over a
// generated clustered topology.
type SimulationConfig struct {
	// Clusters and HostsPerCluster size the network (defaults 3 × 3).
	Clusters        int
	HostsPerCluster int
	// Shape is the WAN interconnect (default WANTree).
	Shape WANShape
	// Algorithm selects tree or basic (default AlgorithmTree).
	Algorithm Algorithm
	// Messages is the number of broadcasts (default 20); MsgInterval
	// separates them (default 200 ms).
	Messages    int
	MsgInterval time.Duration
	// Seed makes the run reproducible.
	Seed int64
	// Params tunes the tree protocol (zero value: DefaultParams).
	Params Params
	// CheapLossProb and ExpensiveLossProb inject message loss.
	CheapLossProb     float64
	ExpensiveLossProb float64
	// RunFullHorizon keeps simulating after every message is delivered
	// (by default the run stops at completion).
	RunFullHorizon bool
	// Partition optionally isolates one generated cluster for a window of
	// virtual time.
	Partition *PartitionSpec
	// Drain bounds the extra virtual time after the last broadcast (and
	// after the partition heals); zero uses the harness default of 30 s.
	Drain time.Duration
}

// PartitionSpec isolates generated cluster Cluster (0-based) from At
// until HealAt.
type PartitionSpec struct {
	Cluster int
	At      time.Duration
	HealAt  time.Duration
}

// Result is everything a simulation measured. See the methods on
// harness.Result — notably Summary, DeliveryRatio, Delays, and
// InterClusterDataPerMessage — all available through this alias. Per-host
// deliveries are read through Deliveries(h) (At, Digest, Len and the
// ascending Times and Digests iterators), or for every host that
// delivered through the DeliveredAt and DeliveredDigest iterators; they
// are views of what the simulator recorded, not copies.
type Result = harness.Result

// SendKind indexes Result's per-kind send counters (SendsByKind,
// InterClusterByKind, UnreachableSendsByKind, SourceLinkByKind): a
// protocol message of kind k counts at SendKind(k), with gap-fill
// redeliveries, the basic algorithm's acks and foreign payloads apart.
type SendKind = harness.SendKind

// The send kinds that are not plain MsgKind values.
const (
	SendData    = harness.KindData // first-delivery data only
	SendGapFill = harness.KindGapFill
	SendAck     = harness.KindAck
	SendOther   = harness.KindOther
)

// Simulate runs one deterministic broadcast simulation and returns its
// measurements.
func Simulate(cfg SimulationConfig) (*Result, error) {
	if cfg.Clusters == 0 {
		cfg.Clusters = 3
	}
	if cfg.HostsPerCluster == 0 {
		cfg.HostsPerCluster = 3
	}
	if cfg.Messages == 0 {
		cfg.Messages = 20
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = AlgorithmTree
	}
	var proto harness.Protocol
	switch cfg.Algorithm {
	case AlgorithmTree:
		proto = harness.ProtocolTree
	case AlgorithmBasic:
		proto = harness.ProtocolBasic
	default:
		return nil, fmt.Errorf("rbcast: unknown algorithm %d", cfg.Algorithm)
	}
	build := func(eng sim.Loop) (*topo.Topology, error) {
		return topo.Clustered(eng, topo.ClusteredConfig{
			Clusters:        cfg.Clusters,
			HostsPerCluster: cfg.HostsPerCluster,
			Shape:           cfg.Shape,
			Cheap:           netsim.LinkConfig{Class: netsim.Cheap, LossProb: cfg.CheapLossProb},
			Expensive:       netsim.LinkConfig{Class: netsim.Expensive, LossProb: cfg.ExpensiveLossProb},
		})
	}
	var events []harness.TimedEvent
	if p := cfg.Partition; p != nil {
		if p.HealAt <= p.At {
			return nil, fmt.Errorf("rbcast: partition heals at %v, before it starts at %v", p.HealAt, p.At)
		}
		if p.Cluster < 0 || p.Cluster >= cfg.Clusters {
			return nil, fmt.Errorf("rbcast: partition cluster %d out of range [0,%d)", p.Cluster, cfg.Clusters)
		}
		events = harness.PartitionWindow(p.Cluster, p.At, p.HealAt)
	}
	return harness.Run(harness.Scenario{
		Name:             fmt.Sprintf("simulate-%dx%d", cfg.Clusters, cfg.HostsPerCluster),
		Seed:             cfg.Seed,
		Build:            build,
		Protocol:         proto,
		Params:           cfg.Params,
		Messages:         cfg.Messages,
		MsgInterval:      cfg.MsgInterval,
		Events:           events,
		Drain:            cfg.Drain,
		StopWhenComplete: !cfg.RunFullHorizon,
	})
}
