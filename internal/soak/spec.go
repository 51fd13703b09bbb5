// Package soak is a deterministic, parallel scenario-sweep engine. It
// generates seeded random broadcast scenarios — topology shape, cheap
// and expensive link mix, host placement, failure/recovery schedules,
// message workload, protocol parameters — shards them across a worker
// pool (one sim.Engine per worker, no shared state), runs each to
// convergence, and checks the full harness invariant suite after every
// run. Failing seeds are shrunk to a minimal reproducing spec and
// reported with a replay command line.
//
// Everything downstream of a seed is a pure function of that seed, so
// per-seed results are byte-identical regardless of worker count.
package soak

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"rbcast/internal/adversary"
	"rbcast/internal/core"
	"rbcast/internal/detrand"
	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/replica"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

// Class selects a scenario family.
type Class string

const (
	// ClassUniform is a static random lossy topology: no scheduled
	// failures, just link-level loss, duplication, and reordering.
	ClassUniform Class = "uniform"
	// ClassChurn cuts and restores random WAN links and host access
	// links while the workload runs.
	ClassChurn Class = "churn"
	// ClassPartition isolates whole clusters and heals them later.
	ClassPartition Class = "partition"
	// ClassMixed draws from all of the above.
	ClassMixed Class = "mixed"
	// ClassPartitionTrap deliberately violates the protocol's operating
	// assumptions: a cluster is partitioned and never healed, with a
	// short time budget. Every seed must fail the delivery invariant —
	// the class exists to prove the soak engine catches, shrinks, and
	// reports violations.
	ClassPartitionTrap Class = "partition-trap"
	// ClassRecovery exercises the per-peer health layer: one long
	// partition of a non-source cluster with backoff enabled, measuring
	// probes wasted into the partition and post-heal convergence latency.
	ClassRecovery Class = "recovery"
	// ClassByzantine places adversary-controlled hosts in the run. Most
	// seeds draw maskable behaviors (forged cost bits, stale replays,
	// selective silence, hostile junk frames) on non-source hosts —
	// lies the protocol's benign-failure machinery must absorb, so the
	// correct hosts still converge. The remaining seeds are traps: the
	// source itself equivocates, every delivered payload is forged, and
	// the seed passes only if the Byzantine invariants report it
	// (ExpectViolation semantics, the partition-trap pattern).
	ClassByzantine Class = "byzantine"
	// ClassLateJoiner exercises the catch-up sync layer: one host is
	// down from before the first broadcast and rejoins only after a long
	// history has been delivered — and, under liberated pruning, partly
	// pruned everywhere — so convergence requires snapshot transfer plus
	// range sync. Randomized arms re-partition the network mid-sync,
	// crash a healthy host (the joiner's likely sync source), or kill
	// and restart the joiner itself mid-transfer; each seed asserts the
	// joiner converges in sync rounds proportional to what it missed,
	// not to the history length.
	ClassLateJoiner Class = "late-joiner"
	// ClassByzantinePartition combines maskable adversaries with a
	// healed cluster partition: hostile hosts plus benign failures at
	// once, with correct-host delivery still required.
	ClassByzantinePartition Class = "byzantine-partition"
)

// Classes lists every scenario class.
func Classes() []Class {
	return []Class{ClassUniform, ClassChurn, ClassPartition, ClassMixed, ClassPartitionTrap,
		ClassRecovery, ClassLateJoiner, ClassByzantine, ClassByzantinePartition}
}

// ParseClass resolves a class name.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if string(c) == s {
			return c, nil
		}
	}
	return "", fmt.Errorf("soak: unknown class %q (have %v)", s, Classes())
}

// LinkSpec is a JSON-friendly netsim.LinkConfig.
type LinkSpec struct {
	DelayUS  int64   `json:"delay_us"`
	JitterUS int64   `json:"jitter_us"`
	Loss     float64 `json:"loss"`
	Dup      float64 `json:"dup"`
}

func linkSpecOf(cfg netsim.LinkConfig) LinkSpec {
	return LinkSpec{
		DelayUS:  cfg.Delay.Microseconds(),
		JitterUS: cfg.Jitter.Microseconds(),
		Loss:     cfg.LossProb,
		Dup:      cfg.DupProb,
	}
}

func (l LinkSpec) config(class netsim.LinkClass) netsim.LinkConfig {
	return netsim.LinkConfig{
		Class:    class,
		Delay:    time.Duration(l.DelayUS) * time.Microsecond,
		Jitter:   time.Duration(l.JitterUS) * time.Microsecond,
		LossProb: l.Loss,
		DupProb:  l.Dup,
	}
}

// StepKind names a scheduled scenario action.
type StepKind string

const (
	// StepCutWAN takes WAN link (Index mod #WAN-links) down.
	StepCutWAN StepKind = "cut-wan"
	// StepRestoreWAN brings that WAN link back up.
	StepRestoreWAN StepKind = "restore-wan"
	// StepHostDown cuts host Index's access link (never the source).
	StepHostDown StepKind = "host-down"
	// StepHostUp restores host Index's access link.
	StepHostUp StepKind = "host-up"
	// StepIsolateCluster cuts every WAN link touching cluster
	// (Index mod #clusters).
	StepIsolateCluster StepKind = "isolate-cluster"
	// StepHealCluster restores every WAN link touching that cluster.
	StepHealCluster StepKind = "heal-cluster"
)

// Step is one scheduled failure/recovery action.
type Step struct {
	AtMS  int64    `json:"at_ms"`
	Kind  StepKind `json:"kind"`
	Index int      `json:"index"`
}

// Spec fully describes one scenario. It is the unit the shrinker
// minimizes: Scenario() turns it into a runnable harness scenario
// deterministically, so two equal specs produce identical runs.
type Spec struct {
	Class string `json:"class"`
	Seed  int64  `json:"seed"`

	Clusters        int    `json:"clusters"`
	HostsPerCluster int    `json:"hosts_per_cluster"`
	Shape           string `json:"shape"`
	ExtraCheapLinks int    `json:"extra_cheap_links"`

	Cheap     LinkSpec `json:"cheap"`
	Expensive LinkSpec `json:"expensive"`
	HostLink  LinkSpec `json:"host_link"`

	Messages      int   `json:"messages"`
	MsgIntervalMS int64 `json:"msg_interval_ms"`
	PayloadSize   int   `json:"payload_size"`
	DrainMS       int64 `json:"drain_ms"`
	SettleMS      int64 `json:"settle_ms"`

	ParamScale   float64 `json:"param_scale"`
	GapFillBatch int     `json:"gap_fill_batch"`
	Piggyback    bool    `json:"piggyback"`
	PruneStable  bool    `json:"prune_stable"`

	// Backoff fields enable the core health layer when BackoffBaseMS is
	// positive (the recovery class always sets them; other classes leave
	// them zero, preserving fixed-rate scheduling).
	BackoffBaseMS     int64   `json:"backoff_base_ms,omitempty"`
	BackoffMaxMS      int64   `json:"backoff_max_ms,omitempty"`
	BackoffMultiplier float64 `json:"backoff_multiplier,omitempty"`
	SuspicionAfter    int     `json:"suspicion_after,omitempty"`

	// CatchupSync layers the reference catch-up tuning
	// (core.Params.WithCatchupSync, applied after ParamScale) on top of
	// the derived parameters; the late-joiner class always sets it.
	CatchupSync bool `json:"catchup_sync,omitempty"`
	// Replicate attaches a replica.Store to every host and broadcasts
	// encoded replica updates, so checkpoints carry real application
	// state (required for snapshot transfer to have anything to move).
	Replicate bool `json:"replicate,omitempty"`

	Steps []Step `json:"steps,omitempty"`

	// Adversaries places Byzantine behavior stacks on hosts (see
	// internal/adversary). Indices are positions in the host list, taken
	// modulo Hosts() so shrunk specs stay runnable; position 0 is the
	// source.
	Adversaries []AdversarySpec `json:"adversaries,omitempty"`
	// EchoReady enables the Bracha-flavoured hardening mode
	// (core.Params.EchoReady); EchoMaxFaulty is its assumed fault budget
	// (0 = ⌊(n−1)/3⌋).
	EchoReady     bool `json:"echo_ready,omitempty"`
	EchoMaxFaulty int  `json:"echo_max_faulty,omitempty"`
	// ExpectViolation inverts pass semantics: the adversary budget
	// exceeds what the protocol can mask, so the seed passes only if the
	// invariant checker reports a violation (recorded in
	// SeedReport.Detected). A silent monitor is the failure.
	ExpectViolation bool `json:"expect_violation,omitempty"`

	// FinalConnected reports whether the schedule leaves the network
	// whole, which is when the spanning/cluster-tree invariants apply.
	FinalConnected bool `json:"final_connected"`
}

// AdversarySpec is the JSON-friendly description of one Byzantine host.
type AdversarySpec struct {
	// HostIndex is the victim's position in the host list, modulo
	// Hosts(); position 0 is the source.
	HostIndex int `json:"host_index"`
	// Behaviors names the behavior stack, applied in order
	// (adversary.Names lists the vocabulary).
	Behaviors []string `json:"behaviors"`
	// Targets optionally scopes targeted behaviors (silence, equivocate)
	// to specific host positions, modulo Hosts().
	Targets []int `json:"targets,omitempty"`
	// Claim parameterizes lie-info (0 = the behavior's default).
	Claim uint64 `json:"claim,omitempty"`
}

// Hosts returns the total participant count.
func (sp Spec) Hosts() int { return sp.Clusters * sp.HostsPerCluster }

var wanShapes = map[string]topo.WANShape{
	"star": topo.WANStar, "chain": topo.WANChain, "tree": topo.WANTree,
	"mesh": topo.WANMesh, "ring": topo.WANRing,
}

var shapeNames = []string{"star", "chain", "tree", "mesh", "ring"}

// specRNG derives the generator's random source. The class participates
// so different classes explore different scenarios at the same seed.
func specRNG(class Class, seed int64) *detrand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", class, seed)
	return detrand.New(int64(h.Sum64()))
}

func randMS(rng *detrand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Int63n(hi-lo+1)
}

// NewSpec generates the scenario for (class, seed). The draw ranges are
// deliberately conservative for the non-trap classes: every failure is
// paired with a recovery well before the horizon, loss stays within the
// bounds the protocol's periodic machinery can repair, and the drain is
// generous — so a failing seed indicates a protocol or simulator bug,
// not an impossible scenario.
func NewSpec(class Class, seed int64) Spec {
	rng := specRNG(class, seed)
	sp := Spec{
		Class: string(class),
		Seed:  seed,
	}
	needsPartition := class == ClassPartition || class == ClassPartitionTrap || class == ClassRecovery ||
		class == ClassLateJoiner || class == ClassByzantine || class == ClassByzantinePartition
	if needsPartition {
		sp.Clusters = 2 + rng.Intn(3) // 2..4: something to partition
	} else {
		sp.Clusters = 1 + rng.Intn(4) // 1..4
	}
	sp.HostsPerCluster = 1 + rng.Intn(4) // 1..4
	sp.Shape = shapeNames[rng.Intn(len(shapeNames))]
	sp.ExtraCheapLinks = rng.Intn(3)

	sp.Cheap = linkSpecOf(netsim.RandomLinkConfig(rng, netsim.Cheap, netsim.DefaultCheapBounds()))
	sp.Expensive = linkSpecOf(netsim.RandomLinkConfig(rng, netsim.Expensive, netsim.DefaultExpensiveBounds()))
	sp.HostLink = linkSpecOf(netsim.RandomLinkConfig(rng, netsim.Cheap, netsim.RandomLinkBounds{
		MinDelay: 200 * time.Microsecond,
		MaxDelay: time.Millisecond,
		MaxLoss:  0.02,
		MaxDup:   0.01,
	}))

	sp.Messages = 4 + rng.Intn(20)
	sp.MsgIntervalMS = randMS(rng, 80, 280)
	sp.PayloadSize = 16 + rng.Intn(240)
	sp.DrainMS = randMS(rng, 25_000, 40_000)
	sp.SettleMS = 5_000

	sp.ParamScale = 0.5 + 1.5*rng.Float64()
	sp.GapFillBatch = 16 + rng.Intn(113)
	sp.Piggyback = rng.Intn(2) == 0
	sp.PruneStable = rng.Intn(2) == 0

	churn := class == ClassChurn || (class == ClassMixed && rng.Intn(2) == 0)
	partition := class == ClassPartition || (class == ClassMixed && rng.Intn(2) == 0)
	if churn {
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			cut := randMS(rng, 2_000, 12_000)
			sp.Steps = append(sp.Steps,
				Step{AtMS: cut, Kind: StepCutWAN, Index: rng.Intn(16)},
				Step{AtMS: cut + randMS(rng, 1_000, 6_000), Kind: StepRestoreWAN, Index: 0})
			// Restore targets the same link: Index is patched below.
			sp.Steps[len(sp.Steps)-1].Index = sp.Steps[len(sp.Steps)-2].Index
		}
		if sp.Hosts() > 1 && rng.Intn(2) == 0 {
			// Crash a non-source host (Index is a position in Topology.Hosts;
			// position 0 is the source) and bring it back.
			victim := 1 + rng.Intn(sp.Hosts()-1)
			down := randMS(rng, 2_000, 10_000)
			sp.Steps = append(sp.Steps,
				Step{AtMS: down, Kind: StepHostDown, Index: victim},
				Step{AtMS: down + randMS(rng, 500, 4_000), Kind: StepHostUp, Index: victim})
		}
	}
	if partition {
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			c := rng.Intn(sp.Clusters)
			at := randMS(rng, 2_000, 8_000)
			sp.Steps = append(sp.Steps,
				Step{AtMS: at, Kind: StepIsolateCluster, Index: c},
				Step{AtMS: at + randMS(rng, 2_000, 8_000), Kind: StepHealCluster, Index: c})
		}
	}
	sp.FinalConnected = true
	if class == ClassPartitionTrap {
		// Permanent partition of a non-source cluster before the workload
		// starts, and far too little drain for a cure that cannot come.
		sp.Steps = []Step{{
			AtMS: randMS(rng, 1_000, 2_500), Kind: StepIsolateCluster,
			Index: 1 + rng.Intn(sp.Clusters-1),
		}}
		sp.DrainMS = randMS(rng, 3_000, 5_000)
		sp.FinalConnected = false
	}
	if class == ClassRecovery {
		// One long partition of a non-source cluster, healed well before
		// the horizon, with the health layer enabled so probes toward the
		// cut cluster back off and the heal is detected via fast resync.
		c := 1 + rng.Intn(sp.Clusters-1)
		cut := randMS(rng, 2_000, 5_000)
		heal := cut + randMS(rng, 10_000, 20_000)
		sp.Steps = []Step{
			{AtMS: cut, Kind: StepIsolateCluster, Index: c},
			{AtMS: heal, Kind: StepHealCluster, Index: c},
		}
		sp.DrainMS = heal + randMS(rng, 25_000, 40_000)
		sp.BackoffBaseMS = randMS(rng, 400, 1200)
		sp.BackoffMaxMS = sp.BackoffBaseMS * (4 + rng.Int63n(5)) // 4..8× base
		sp.BackoffMultiplier = 1.5 + rng.Float64()               // 1.5..2.5
		sp.SuspicionAfter = 1 + rng.Intn(3)                      // 1..3
	}
	if class == ClassLateJoiner {
		sp.CatchupSync = true
		sp.Replicate = true
		sp.PruneStable = true
		// A long history delivered quickly, so the joiner's gap is large
		// and (with checkpointing on) partly pruned before it returns.
		sp.Messages = 60 + rng.Intn(120)
		sp.MsgIntervalMS = randMS(rng, 40, 120)
		joiner := 1 + rng.Intn(sp.Hosts()-1) // never position 0 (the source)
		workloadEnd := int64(sp.Messages) * sp.MsgIntervalMS
		join := workloadEnd + randMS(rng, 2_000, 8_000)
		sp.Steps = []Step{
			{AtMS: 1, Kind: StepHostDown, Index: joiner},
			{AtMS: join, Kind: StepHostUp, Index: joiner},
		}
		if rng.Intn(3) == 0 {
			// Mid-sync partition: a non-source cluster is cut shortly after
			// the join and healed a few seconds later; transfers crossing it
			// must time out, fail over or resume.
			c := 1 + rng.Intn(sp.Clusters-1)
			at := join + randMS(rng, 500, 3_000)
			sp.Steps = append(sp.Steps,
				Step{AtMS: at, Kind: StepIsolateCluster, Index: c},
				Step{AtMS: at + randMS(rng, 2_000, 6_000), Kind: StepHealCluster, Index: c})
		}
		if sp.Hosts() > 2 && rng.Intn(3) == 0 {
			// Sync-source crash: a healthy host — quite possibly the peer
			// the joiner is pulling from — goes silent mid-sync.
			victim := 1 + rng.Intn(sp.Hosts()-1)
			for victim == joiner {
				victim = 1 + rng.Intn(sp.Hosts()-1)
			}
			at := join + randMS(rng, 500, 3_000)
			sp.Steps = append(sp.Steps,
				Step{AtMS: at, Kind: StepHostDown, Index: victim},
				Step{AtMS: at + randMS(rng, 2_000, 5_000), Kind: StepHostUp, Index: victim})
		}
		if rng.Intn(3) == 0 {
			// Kill/restart the joiner itself mid-sync: on return the
			// transfer must resume from the verified prefix, not restart.
			at := join + randMS(rng, 300, 2_000)
			sp.Steps = append(sp.Steps,
				Step{AtMS: at, Kind: StepHostDown, Index: joiner},
				Step{AtMS: at + randMS(rng, 500, 2_500), Kind: StepHostUp, Index: joiner})
		}
		sp.DrainMS = join + randMS(rng, 35_000, 50_000)
	}
	if class == ClassByzantine {
		if rng.Intn(10) < 3 {
			// Trap arm: the SOURCE equivocates to every destination, so
			// every payload a correct host delivers is forged and the
			// byz-forged-frame invariant must fire on every seed — the
			// partition-trap analogue proving the monitor reports what the
			// protocol cannot mask.
			sp.Adversaries = []AdversarySpec{{HostIndex: 0, Behaviors: []string{"equivocate"}}}
			sp.ExpectViolation = true
		} else {
			sp.Adversaries = maskableAdversaries(rng, sp.Hosts())
			if sp.Hosts() >= 4 && rng.Intn(3) == 0 {
				// Some maskable seeds also run the hardening mode, proving
				// the quorum machinery stays live under hostile traffic.
				sp.EchoReady = true
			}
		}
	}
	if class == ClassByzantinePartition {
		sp.Adversaries = maskableAdversaries(rng, sp.Hosts())
		c := 1 + rng.Intn(sp.Clusters-1)
		at := randMS(rng, 2_000, 8_000)
		sp.Steps = append(sp.Steps,
			Step{AtMS: at, Kind: StepIsolateCluster, Index: c},
			Step{AtMS: at + randMS(rng, 2_000, 8_000), Kind: StepHealCluster, Index: c})
	}
	return sp
}

// maskableAdversaries draws one or two non-source adversaries running
// behaviors the protocol's benign-failure machinery should absorb:
// forged cost bits, stale replays, selective silence toward a couple of
// peers, hostile junk frames. Equivocation and INFO lies are excluded —
// those violate guarantees and belong to the trap arm.
func maskableAdversaries(rng *detrand.Rand, hosts int) []AdversarySpec {
	kinds := []string{"forge-cost-bit", "replay", "silence", "hostile-wire"}
	n := 1
	if hosts > 4 && rng.Intn(2) == 0 {
		n = 2
	}
	used := map[int]bool{}
	var out []AdversarySpec
	for i := 0; i < n; i++ {
		idx := 1 + rng.Intn(hosts-1) // never the source
		for used[idx] {
			idx = 1 + rng.Intn(hosts-1)
		}
		used[idx] = true
		a := AdversarySpec{HostIndex: idx}
		for j, nb := 0, 1+rng.Intn(2); j < nb; j++ {
			k := kinds[rng.Intn(len(kinds))]
			if hasString(a.Behaviors, k) {
				continue
			}
			if k == "silence" {
				// Selective silence toward one or two NON-SOURCE peers. The
				// source stays reachable on purpose: an adversary holding the
				// top static order can only re-attach upward to the source
				// once starved, so silencing that edge wedges it unattached
				// forever and permanently starves every correct host chained
				// below it — an asymmetric partition outside the paper's
				// benign model, i.e. not maskable.
				for t, nt := 0, 1+rng.Intn(2); t < nt; t++ {
					a.Targets = append(a.Targets, 1+rng.Intn(hosts-1))
				}
			}
			a.Behaviors = append(a.Behaviors, k)
		}
		out = append(out, a)
	}
	return out
}

func hasString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// params derives the protocol tuning from the spec: the reference
// tuning with every period scaled by ParamScale (ratios — and therefore
// Params.Validate constraints — are preserved).
func (sp Spec) params() core.Params {
	p := core.DefaultParams()
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * sp.ParamScale)
	}
	p.TickInterval = scale(p.TickInterval)
	p.AttachPeriod = scale(p.AttachPeriod)
	p.InfoClusterPeriod = scale(p.InfoClusterPeriod)
	p.InfoRemotePeriod = scale(p.InfoRemotePeriod)
	p.InfoGlobalPeriod = scale(p.InfoGlobalPeriod)
	p.GapClusterPeriod = scale(p.GapClusterPeriod)
	p.GapRemotePeriod = scale(p.GapRemotePeriod)
	p.GapGlobalPeriod = scale(p.GapGlobalPeriod)
	p.AttachTimeout = scale(p.AttachTimeout)
	p.ParentTimeout = scale(p.ParentTimeout)
	if sp.CatchupSync {
		// After scaling, so SyncTimeout/SyncPeriod keep their ratios to
		// the INFO and gap-fill periods they are derived from.
		p = p.WithCatchupSync()
	}
	if sp.GapFillBatch > 0 {
		p.GapFillBatch = sp.GapFillBatch
	}
	p.Piggyback = sp.Piggyback
	p.PruneStable = sp.PruneStable
	if sp.BackoffBaseMS > 0 {
		p.BackoffBase = time.Duration(sp.BackoffBaseMS) * time.Millisecond
		p.BackoffMax = time.Duration(sp.BackoffMaxMS) * time.Millisecond
		p.BackoffMultiplier = sp.BackoffMultiplier
		p.SuspicionAfter = sp.SuspicionAfter
	}
	p.EchoReady = sp.EchoReady
	p.EchoMaxFaulty = sp.EchoMaxFaulty
	return p
}

// Scenario turns the spec into a runnable harness scenario. Step indices
// are interpreted modulo whatever the built topology actually has, so a
// shrunk spec with out-of-range indices stays runnable.
func (sp Spec) Scenario() (harness.Scenario, error) {
	if sp.Clusters < 1 || sp.HostsPerCluster < 1 {
		return harness.Scenario{}, fmt.Errorf("soak: empty topology %dx%d", sp.Clusters, sp.HostsPerCluster)
	}
	shape, ok := wanShapes[sp.Shape]
	if !ok {
		return harness.Scenario{}, fmt.Errorf("soak: unknown shape %q", sp.Shape)
	}
	if err := sp.params().Validate(); err != nil {
		return harness.Scenario{}, err
	}
	// The source must carry the maximal static order: attachment's
	// similar-INFO option only ever climbs the order, so with the default
	// ID order a host in the source's cluster that drifted to a
	// cross-cluster parent could never rejoin the source once all INFO
	// sets equalize — leaving the root cluster with two stable leaders.
	// Host IDs are 1..Hosts() with the source at 1, so HostList[i] is
	// host i+1.
	order := make([]int, sp.Hosts())
	for i := range order {
		order[i] = i + 1
	}
	order[0] = sp.Hosts() + 1
	sc := harness.Scenario{
		Name:  fmt.Sprintf("soak/%s/%d", sp.Class, sp.Seed),
		Seed:  sp.Seed,
		Order: order,
		Build: func(eng sim.Loop) (*topo.Topology, error) {
			t, err := topo.Clustered(eng, topo.ClusteredConfig{
				Clusters:        sp.Clusters,
				HostsPerCluster: sp.HostsPerCluster,
				Shape:           shape,
				Cheap:           sp.Cheap.config(netsim.Cheap),
				Expensive:       sp.Expensive.config(netsim.Expensive),
				HostLink:        sp.HostLink.config(netsim.Cheap),
			})
			if err != nil {
				return nil, err
			}
			if sp.ExtraCheapLinks > 0 {
				// Redundant intra-cluster links, from a build-local source so
				// the engine's rng stream is untouched.
				buildRNG := detrand.New(sp.Seed ^ 0x5eed50a4)
				for _, servers := range t.ServersByCluster {
					if _, err := t.Net.AddRandomLinks(buildRNG, servers,
						sp.ExtraCheapLinks, sp.Cheap.config(netsim.Cheap)); err != nil {
						return nil, err
					}
				}
			}
			return t, nil
		},
		Protocol:         harness.ProtocolTree,
		Params:           sp.params(),
		Messages:         sp.Messages,
		MsgInterval:      time.Duration(sp.MsgIntervalMS) * time.Millisecond,
		PayloadSize:      sp.PayloadSize,
		Drain:            time.Duration(sp.DrainMS) * time.Millisecond,
		StopWhenComplete: true,
	}
	if sp.Replicate {
		sc.Replicate = true
		sc.PayloadFor = replicaWorkload(16)
	}
	for _, st := range sp.Steps {
		st := st
		sc.Events = append(sc.Events, harness.TimedEvent{
			At: time.Duration(st.AtMS) * time.Millisecond,
			Do: func(rt *harness.Runtime) error { return applyStep(rt, st) },
		})
	}
	if len(sp.Adversaries) > 0 {
		adv := make(map[core.HostID][]adversary.Behavior, len(sp.Adversaries))
		for _, a := range sp.Adversaries {
			// Host IDs are 1..Hosts(); indices wrap so shrunk specs stay
			// runnable.
			id := core.HostID(a.HostIndex%sp.Hosts() + 1)
			var targets []core.HostID
			for _, t := range a.Targets {
				targets = append(targets, core.HostID(t%sp.Hosts()+1))
			}
			for _, name := range a.Behaviors {
				b, err := adversary.New(name, targets, a.Claim)
				if err != nil {
					return harness.Scenario{}, err
				}
				adv[id] = append(adv[id], b)
			}
		}
		sc.Adversaries = adv
	}
	return sc, nil
}

// replicaWorkload is the deterministic replicated-register workload for
// Replicate specs: updates over a bounded key space with monotone
// stamps, so every store converges to the same winners and a checkpoint
// is state-sized (O(keys)), not history-sized. Update i writes key
// "k%02d" of i%keys and value "v%05d" of i; both are spelled on the
// stack, so a payload is one allocation, the encoding's.
func replicaWorkload(keys int) func(i int) []byte {
	return func(i int) []byte {
		var key, value [24]byte
		enc, err := replica.EncodeUpdate(replica.Update{
			Key:   string(appendPadded(append(key[:0], 'k'), i%keys, 2)),
			Value: string(appendPadded(append(value[:0], 'v'), i, 5)),
			Stamp: uint64(i + 1),
		})
		if err != nil {
			panic(err)
		}
		return enc
	}
}

// appendPadded appends n ≥ 0 in decimal, zero-padded to width digits, as
// fmt's %0*d spells it.
func appendPadded(dst []byte, n, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for k := len(d); k < width; k++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

func applyStep(rt *harness.Runtime, st Step) error {
	switch st.Kind {
	case StepCutWAN, StepRestoreWAN:
		links := rt.Topo.WANLinks
		if len(links) == 0 {
			return nil
		}
		return rt.Net.SetLinkUp(links[st.Index%len(links)], st.Kind == StepRestoreWAN)
	case StepHostDown, StepHostUp:
		hosts := rt.Topo.Hosts
		if len(hosts) == 0 {
			return nil
		}
		h := hosts[st.Index%len(hosts)]
		if h == rt.Topo.Source {
			return nil // never crash the source: delivery would be unjudgeable
		}
		return rt.Net.SetHostLinkUp(h, st.Kind == StepHostUp)
	case StepIsolateCluster:
		_, err := rt.Topo.IsolateCluster(st.Index % maxInt(1, len(rt.Topo.HostsByCluster)))
		return err
	case StepHealCluster:
		c := st.Index % maxInt(1, len(rt.Topo.HostsByCluster))
		return rt.Topo.RestoreLinks(rt.Topo.WANLinksOfCluster(c))
	default:
		return fmt.Errorf("soak: unknown step kind %q", st.Kind)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
