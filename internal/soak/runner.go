package soak

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rbcast/internal/harness"
	"rbcast/internal/metrics"
)

// Config parameterizes a sweep.
type Config struct {
	// Class selects the scenario family; default ClassMixed.
	Class Class
	// SeedStart is the first seed; Seeds is how many consecutive seeds
	// to run (required, ≥ 1).
	SeedStart int64
	Seeds     int
	// Workers sizes the pool; default GOMAXPROCS. Worker count never
	// affects per-seed results, only wall time.
	Workers int
	// Shards, when positive, runs every scenario on the sharded parallel
	// engine with that many per-scenario workers (harness
	// Scenario.Shards). Like Workers, any positive value yields
	// byte-identical per-seed reports — the lane partition derives from
	// the topology, not the shard count — but sharded reports differ
	// from sequential (Shards == 0) ones, which draw from a single PRNG
	// stream. Shards is runner configuration, not part of the Spec: a
	// replayed seed reproduces at any shard count.
	Shards int
	// Budget bounds wall-clock time: once exceeded, no further seeds are
	// dispatched (in-flight seeds finish). Zero means no bound.
	Budget time.Duration
	// Progress, if set, is called after each completed seed with running
	// totals. Calls are serialized.
	Progress func(done, failed int)
}

func (c Config) withDefaults() (Config, error) {
	if c.Class == "" {
		c.Class = ClassMixed
	}
	if _, err := ParseClass(string(c.Class)); err != nil {
		return c, err
	}
	if c.Seeds < 1 {
		return c, fmt.Errorf("soak: Seeds = %d, want ≥ 1", c.Seeds)
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// SeedReport is the outcome of one seeded scenario. Every field is a
// pure function of (class, seed) — no wall-clock values — which is what
// makes sweep output diffable across worker counts and machines.
type SeedReport struct {
	Seed       int64    `json:"seed"`
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`

	Hosts    int `json:"hosts"`
	Clusters int `json:"clusters"`
	Messages int `json:"messages"`

	Delivered int `json:"delivered"`
	Expected  int `json:"expected"`
	// CompleteAtMS is the virtual completion time; 0 when incomplete.
	CompleteAtMS int64 `json:"complete_at_ms"`
	MeanDelayUS  int64 `json:"mean_delay_us"`
	P99DelayUS   int64 `json:"p99_delay_us"`

	TotalSends uint64 `json:"total_sends"`
	EventsRun  uint64 `json:"events_run"`

	// Health-layer counters (nonzero only when the spec enables backoff).
	UnreachableSends uint64 `json:"unreachable_sends,omitempty"`
	ResyncBursts     uint64 `json:"resync_bursts,omitempty"`
	SuppressedSends  uint64 `json:"suppressed_sends,omitempty"`
	// PostHealMS is the delay between the last heal step and completion;
	// 0 when the spec has no heal step or the run never completed.
	PostHealMS int64 `json:"post_heal_ms,omitempty"`

	// Catch-up layer counters (nonzero only when the spec enables
	// CatchupSync), summed over all hosts.
	SyncRounds       uint64 `json:"sync_rounds,omitempty"`
	SyncFailovers    uint64 `json:"sync_failovers,omitempty"`
	SnapResumes      uint64 `json:"snap_resumes,omitempty"`
	SnapInstalls     uint64 `json:"snap_installs,omitempty"`
	CatchupWireBytes uint64 `json:"catchup_wire_bytes,omitempty"`

	// Byzantine-class fields (set only when the spec has adversaries).
	// AdversaryHosts lists the hostile host IDs, ascending.
	AdversaryHosts []int `json:"adversary_hosts,omitempty"`
	// Equivocations counts equivocation conflicts detected by hosts
	// (nonzero only in echo/ready mode).
	Equivocations uint64 `json:"equivocations,omitempty"`
	// ForeignDeliveries counts deliveries of fabricated sequence numbers.
	ForeignDeliveries int `json:"foreign_deliveries,omitempty"`
	// Detected lists the violations an ExpectViolation seed was required
	// to produce; such a seed passes precisely because they were caught.
	Detected []string `json:"detected,omitempty"`

	Spec Spec `json:"spec"`
}

// Summary aggregates a sweep.
type Summary struct {
	Class     Class        `json:"class"`
	SeedStart int64        `json:"seed_start"`
	Requested int          `json:"requested"`
	Workers   int          `json:"workers"`
	Reports   []SeedReport `json:"reports"`
	// Elapsed is sweep wall time (not part of the deterministic per-seed
	// data).
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Failures returns the failing reports in seed order.
func (s *Summary) Failures() []SeedReport {
	var out []SeedReport
	for _, r := range s.Reports {
		if !r.Pass {
			out = append(out, r)
		}
	}
	return out
}

// Run executes the sweep. Seeds are dispatched in order to a pool of
// workers; each worker builds its own engine per seed, so there is no
// shared mutable state between scenarios and results only depend on the
// seed.
func Run(cfg Config) (*Summary, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Per-seed results stay pure functions of the seed; the wall clock only
	// decides how many seeds this run dispatches (Config.Budget).
	//rblint:ignore detlint wall-clock Budget cutoff; never feeds per-seed results
	start := time.Now()
	seedCh := make(chan int64)
	// results is indexed by seed offset: distinct workers write distinct
	// elements, so no lock is needed for the slice itself.
	results := make([]*SeedReport, cfg.Seeds)
	var done, failed metrics.Counter
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seedCh {
				r := RunSeedShards(cfg.Class, seed, cfg.Shards)
				results[seed-cfg.SeedStart] = &r
				done.Inc()
				if !r.Pass {
					failed.Inc()
				}
				if cfg.Progress != nil {
					progressMu.Lock()
					//rblint:ignore locklint progressMu exists solely to serialize this callback; nothing else contends for it
					cfg.Progress(int(done.Value()), int(failed.Value()))
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < cfg.Seeds; i++ {
		//rblint:ignore detlint wall-clock Budget cutoff; affects how many seeds run, not any seed's result
		if cfg.Budget > 0 && time.Since(start) > cfg.Budget {
			break
		}
		seedCh <- cfg.SeedStart + int64(i)
	}
	close(seedCh)
	wg.Wait()

	sum := &Summary{
		Class:     cfg.Class,
		SeedStart: cfg.SeedStart,
		Requested: cfg.Seeds,
		Workers:   cfg.Workers,
		//rblint:ignore detlint Elapsed is wall-clock reporting for the operator, not part of any seed's result
		Elapsed: time.Since(start),
	}
	for _, r := range results {
		if r != nil {
			sum.Reports = append(sum.Reports, *r)
		}
	}
	return sum, nil
}

// RunSeed generates and runs the scenario for one seed.
func RunSeed(class Class, seed int64) SeedReport {
	return RunSpec(NewSpec(class, seed))
}

// RunSeedShards is RunSeed on the sharded parallel engine (0 keeps the
// sequential engine).
func RunSeedShards(class Class, seed int64, shards int) SeedReport {
	return RunSpecShards(NewSpec(class, seed), shards)
}

// RunSpec runs one fully specified scenario: build, run to the horizon
// (stopping early on completion), settle, check invariants. A failed
// structural check gets one extra settle-and-recheck, so a tree caught
// mid-reattachment is not misreported — the retry is itself
// deterministic, part of the seed's defined computation.
func RunSpec(sp Spec) SeedReport {
	return RunSpecShards(sp, 0)
}

// RunSpecShards is RunSpec with the scenario executed on shards parallel
// workers (0 keeps the sequential engine). The shard count is execution
// configuration, never part of the seed's definition: any positive value
// produces the same report bytes.
func RunSpecShards(sp Spec, shards int) SeedReport {
	rep := SeedReport{
		Seed:     sp.Seed,
		Hosts:    sp.Hosts(),
		Clusters: sp.Clusters,
		Messages: sp.Messages,
		Spec:     sp,
	}
	fail := func(format string, args ...any) SeedReport {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		return rep
	}
	sc, err := sp.Scenario()
	if err != nil {
		return fail("error: building scenario: %v", err)
	}
	sc.Shards = shards
	rt, err := harness.Prepare(sc)
	if err != nil {
		return fail("error: preparing runtime: %v", err)
	}
	res, err := rt.Finish()
	if err != nil {
		return fail("error: running: %v", err)
	}
	settle := time.Duration(sp.SettleMS) * time.Millisecond
	opts := harness.InvariantOptions{
		RequireDelivery: true,
		// Forged cost bits and selective silence legitimately distort the
		// hosts' cluster view, so the structural tree invariants apply only
		// to adversary-free schedules.
		RequireTree: sp.FinalConnected && len(sp.Adversaries) == 0,
	}
	// Settling happens in small steps with an invariant check at each one,
	// stopping at the first clean sample. Checking only once after a long
	// settle would race against the protocol's normal self-healing: a
	// burst of WAN loss can orphan a cluster leader (parent-silence
	// timeout) at any quiescent instant, and the check would catch that
	// transient state as a structural violation.
	var violations []harness.Violation
	stepSettle := func() error {
		const steps = 20
		for i := 0; i < steps; i++ {
			if err := rt.Settle(settle / steps); err != nil {
				return err
			}
			if rt.InvariantsHold(opts) {
				violations = nil
				return nil
			}
		}
		// Only the last step's report is ever read, so only it is written.
		violations = rt.CheckInvariants(opts)
		return nil
	}
	if err := stepSettle(); err != nil {
		return fail("error: settling: %v", err)
	}
	// Convergence probes: the paper's attachment procedure assumes ongoing
	// traffic — with every INFO set equal (quiescent tail), an orphaned
	// leader has no eligible candidate until the next broadcast arrives. A
	// probe message is that traffic. Genuine violations (a permanent
	// partition, a duplicate delivery) survive every probe. The probe
	// count depends only on deterministic simulation state, so per-seed
	// results stay worker-count independent.
	// ExpectViolation runs skip the probes: the violation is supposed to
	// persist, and probing for a cure that cannot come only burns events.
	for attempt := 0; attempt < 3 && len(violations) > 0 && !sp.ExpectViolation; attempt++ {
		if err := rt.BroadcastNow([]byte("soak-probe")); err != nil {
			return fail("error: probing: %v", err)
		}
		if err := stepSettle(); err != nil {
			return fail("error: settling: %v", err)
		}
	}
	res = rt.Finalize()
	if sp.ExpectViolation {
		// Inverted semantics: the adversary budget exceeds what the
		// protocol can mask, so this seed passes only if the invariant
		// checker caught a violation — a silent monitor is the failure.
		if len(violations) == 0 {
			rep.Violations = append(rep.Violations,
				"byz-trap: adversary violation went undetected")
		}
		for _, v := range violations {
			rep.Detected = append(rep.Detected, v.String())
		}
	} else {
		for _, v := range violations {
			rep.Violations = append(rep.Violations, v.String())
		}
	}
	rep.Pass = len(rep.Violations) == 0
	rep.Delivered = res.DeliveredCount
	rep.Expected = res.ExpectedCount
	if res.Complete {
		rep.CompleteAtMS = res.CompletionAt.Milliseconds()
	}
	rep.MeanDelayUS = res.Delays.Mean().Microseconds()
	rep.P99DelayUS = res.Delays.Quantile(0.99).Microseconds()
	rep.TotalSends = res.TotalSends()
	rep.EventsRun = rt.Engine.EventsRun()
	rep.UnreachableSends = res.UnreachableSends
	rep.ResyncBursts = res.ResyncBursts
	rep.SuppressedSends = res.SuppressedSends
	rep.SyncRounds = res.SyncRounds
	rep.SyncFailovers = res.SyncFailovers
	rep.SnapResumes = res.SnapResumes
	rep.SnapInstalls = res.SnapInstalls
	rep.CatchupWireBytes = res.CatchupWireBytes
	if sp.CatchupSync && !sp.ExpectViolation {
		// Convergence must be O(missing data), not O(history): every range
		// request covers up to SyncBatch (64) sequence numbers, so across
		// all hosts — with slack for per-request retries, failovers, and
		// the probe broadcasts — the round total must stay far below one
		// round per message. A per-message repair loop blows this budget
		// immediately on long-history seeds.
		budget := uint64(rep.Hosts) * uint64(4*((sp.Messages+63)/64+4))
		if rep.SyncRounds > budget {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"catchup: %d sync rounds exceed the O(missing) budget %d for %d messages",
				rep.SyncRounds, budget, sp.Messages))
			rep.Pass = false
		}
	}
	if len(sp.Adversaries) > 0 {
		for _, h := range res.AdversaryHosts {
			rep.AdversaryHosts = append(rep.AdversaryHosts, int(h))
		}
		rep.Equivocations = res.EquivocationsDetected
		rep.ForeignDeliveries = res.ForeignDeliveries
	}
	if rep.CompleteAtMS > 0 {
		var lastHeal int64
		for _, st := range sp.Steps {
			if st.Kind == StepHealCluster && st.AtMS > lastHeal {
				lastHeal = st.AtMS
			}
		}
		if lastHeal > 0 && rep.CompleteAtMS > lastHeal {
			rep.PostHealMS = rep.CompleteAtMS - lastHeal
		}
	}
	return rep
}
