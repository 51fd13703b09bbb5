package harness_test

import (
	"strings"
	"testing"
	"time"

	"rbcast/internal/adversary"
	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/sim"
	"rbcast/internal/soak"
	"rbcast/internal/topo"
)

// mustBehaviors builds a behavior list by name or fails the test.
func mustBehaviors(t *testing.T, names ...string) []adversary.Behavior {
	t.Helper()
	out := make([]adversary.Behavior, 0, len(names))
	for _, name := range names {
		b, err := adversary.New(name, nil, 0)
		if err != nil {
			t.Fatalf("adversary.New(%q): %v", name, err)
		}
		out = append(out, b)
	}
	return out
}

// hasViolation reports whether any violation hits the named invariant.
func hasViolation(vs []harness.Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestByzantineConvergenceDespiteAdversary is the positive half of the
// Byzantine invariant suite: a non-source host forging cost bits and
// replaying stale frames is a benign-model failure in disguise (§2's
// loss/duplication assumptions already cover it), so the correct hosts
// must deliver everything and the Byzantine checks must stay silent.
func TestByzantineConvergenceDespiteAdversary(t *testing.T) {
	rt, err := harness.Prepare(harness.Scenario{
		Name:        "byz-maskable",
		Seed:        41,
		Build:       clusteredBuild(2, 3, topo.WANStar),
		Protocol:    harness.ProtocolTree,
		Messages:    20,
		MsgInterval: 200 * time.Millisecond,
		WarmUp:      2 * time.Second,
		Drain:       60 * time.Second,
		Adversaries: map[core.HostID][]adversary.Behavior{
			3: mustBehaviors(t, "forge-cost-bit", "replay"),
		},
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("delivery incomplete despite maskable adversary: %d/%d",
			res.DeliveredCount, res.ExpectedCount)
	}
	// Forged cost bits distort cluster views, so no RequireTree.
	violations := rt.CheckInvariants(harness.InvariantOptions{RequireDelivery: true})
	if len(violations) != 0 {
		t.Fatalf("maskable adversary tripped invariants: %v", violations)
	}
	st := res.AdversaryStats[3]
	if st.CostForged == 0 || st.Replayed == 0 {
		t.Fatalf("adversary idle (stats %+v); the run proves nothing", st)
	}
	if res.ForeignDeliveries != 0 {
		t.Errorf("replayed frames caused %d fabricated-seq deliveries", res.ForeignDeliveries)
	}
}

// TestByzantineViolationsReported is the deliberately-failing half: an
// equivocating source hands every destination a different payload, so
// correct hosts accept forged frames (byz-forged-frame) and disagree
// with each other (byz-agreement). The point under test is the monitor,
// not the protocol — CheckInvariants must report both invariants, never
// swallow them.
func TestByzantineViolationsReported(t *testing.T) {
	rt, err := harness.Prepare(harness.Scenario{
		Name:        "byz-equivocating-source",
		Seed:        43,
		Build:       clusteredBuild(2, 3, topo.WANStar),
		Protocol:    harness.ProtocolTree,
		Messages:    15,
		MsgInterval: 200 * time.Millisecond,
		WarmUp:      2 * time.Second,
		Drain:       45 * time.Second,
		Adversaries: map[core.HostID][]adversary.Behavior{
			1: mustBehaviors(t, "equivocate"),
		},
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	violations := rt.CheckInvariants(harness.InvariantOptions{RequireDelivery: true})
	if !hasViolation(violations, "byz-forged-frame") {
		t.Errorf("no byz-forged-frame violation despite an equivocating source; got %v", violations)
	}
	if !hasViolation(violations, "byz-agreement") {
		t.Errorf("no byz-agreement violation despite per-destination forgeries; got %v", violations)
	}
	if res.AdversaryStats[1].Equivocated == 0 {
		t.Fatal("equivocate behavior never fired")
	}
	// The digest ground truth behind the violations: some correct host
	// holds a payload whose digest differs from what Broadcast recorded.
	forged := 0
	for h, per := range res.DeliveredDigest {
		if h == 1 {
			continue
		}
		for seq, d := range per {
			if want, ok := res.BroadcastDigest[seq]; !ok || d != want {
				forged++
			}
		}
	}
	if forged == 0 {
		t.Error("violations reported but no forged digest found in the result")
	}
}

// TestByzantineLieInfoReported: lie-info is the other unmaskable
// behavior, and unlike equivocation it surfaces as a liveness failure,
// not a forged frame. A liar advertising a superset INFO draws gap
// fills away from itself (everyone believes it lacks nothing), so on a
// lossy network its own gaps — and through the §4.1 parent-only rule,
// its children's — can become permanent. The monitor must name the
// starvation as a delivery violation. Whether a given seed actually
// wedges depends on which frames the network drops, so the test scans a
// fixed seed range and requires at least one reported starvation.
func TestByzantineLieInfoReported(t *testing.T) {
	lie, err := adversary.New("lie-info", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	reported := 0
	for seed := int64(47); seed < 55; seed++ {
		rt, err := harness.Prepare(harness.Scenario{
			Name: "byz-lie-info",
			Seed: seed,
			Build: func(eng sim.Loop) (*topo.Topology, error) {
				return topo.Clustered(eng, topo.ClusteredConfig{
					Clusters:        2,
					HostsPerCluster: 2,
					Shape:           topo.WANStar,
					Cheap:           lossy(0.15),
					Expensive:       lossyExpensive(0.25),
					HostLink:        lossy(0.05),
				})
			},
			Protocol:    harness.ProtocolTree,
			Messages:    20,
			MsgInterval: 200 * time.Millisecond,
			WarmUp:      2 * time.Second,
			Drain:       20 * time.Second,
			Adversaries: map[core.HostID][]adversary.Behavior{
				4: {lie},
			},
			StopWhenComplete: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if res.AdversaryStats[4].InfoLies == 0 {
			t.Fatalf("seed %d: lie-info behavior never fired", seed)
		}
		violations := rt.CheckInvariants(harness.InvariantOptions{RequireDelivery: true})
		for _, v := range violations {
			if !strings.HasPrefix(v.Invariant, "byz-") && v.Invariant != "delivery" &&
				v.Invariant != "duplicates" {
				t.Errorf("seed %d: unexpected invariant %q for an INFO liar: %v", seed, v.Invariant, v)
			}
			if v.Invariant == "delivery" {
				reported++
			}
		}
	}
	if reported == 0 {
		t.Fatal("no seed in the range produced a reported starvation; the lie-info trap is dead")
	}
}

// TestEchoReadyBlocksEquivocation runs the same equivocating source
// twice: the plain protocol delivers the forgeries (and the monitor
// says so); with Params.EchoReady on, correct hosts deliver nothing
// uncertified — zero forged digests, zero byz violations — and the
// conflict surfaces as detected equivocations instead.
func TestEchoReadyBlocksEquivocation(t *testing.T) {
	run := func(echo bool) (*harness.Result, []harness.Violation) {
		t.Helper()
		params := core.DefaultParams()
		params.EchoReady = echo
		rt, err := harness.Prepare(harness.Scenario{
			Name:        "byz-echo",
			Seed:        53,
			Build:       clusteredBuild(2, 3, topo.WANStar),
			Protocol:    harness.ProtocolTree,
			Params:      params,
			Messages:    10,
			MsgInterval: 200 * time.Millisecond,
			WarmUp:      2 * time.Second,
			Drain:       30 * time.Second,
			Adversaries: map[core.HostID][]adversary.Behavior{
				1: mustBehaviors(t, "equivocate"),
			},
			StopWhenComplete: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Finish()
		if err != nil {
			t.Fatal(err)
		}
		// No RequireDelivery: the echo run legitimately refuses to deliver
		// uncertifiable frames; the Byzantine checks are what matter here.
		return res, rt.CheckInvariants(harness.InvariantOptions{})
	}
	forgedAtCorrect := func(res *harness.Result) int {
		n := 0
		for h, per := range res.DeliveredDigest {
			if h == 1 {
				continue
			}
			for seq, d := range per {
				if want, ok := res.BroadcastDigest[seq]; !ok || d != want {
					n++
				}
			}
		}
		return n
	}

	plainRes, plainViolations := run(false)
	if forgedAtCorrect(plainRes) == 0 {
		t.Fatal("plain protocol absorbed the equivocating source; the contrast is vacuous")
	}
	if !hasViolation(plainViolations, "byz-forged-frame") {
		t.Errorf("plain run delivered forgeries without a byz-forged-frame violation: %v", plainViolations)
	}

	echoRes, echoViolations := run(true)
	if n := forgedAtCorrect(echoRes); n != 0 {
		t.Errorf("echo/ready mode delivered %d forged payloads", n)
	}
	for _, v := range echoViolations {
		if strings.HasPrefix(v.Invariant, "byz-") {
			t.Errorf("echo/ready run still violates %v", v)
		}
	}
	if echoRes.EquivocationsDetected == 0 {
		t.Error("echo/ready mode blocked delivery but never detected the equivocation")
	}
}

// TestExplicitEchoBudgetNeedsItsQuorum holds the explicit fault budget to
// n > 3f end to end: with EchoMaxFaulty = 2, seven hosts complete the
// broadcast, and six — where the ready quorum of five would need a vote
// from one of the two hosts assumed faulty — are refused at Prepare, not
// run to a silent non-delivery.
func TestExplicitEchoBudgetNeedsItsQuorum(t *testing.T) {
	scenario := func(hosts int) harness.Scenario {
		params := core.DefaultParams()
		params.EchoReady = true
		params.EchoMaxFaulty = 2
		return harness.Scenario{
			Name:             "echo-budget",
			Seed:             7,
			Build:            clusteredBuild(1, hosts, topo.WANStar),
			Protocol:         harness.ProtocolTree,
			Params:           params,
			Messages:         5,
			StopWhenComplete: true,
		}
	}
	res, err := harness.Run(scenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Errorf("n = 7, f = 2: %d/%d delivered", res.DeliveredCount, res.ExpectedCount)
	}
	_, err = harness.Prepare(scenario(6))
	if want := "core: EchoMaxFaulty 2 needs more than 6 participants, have 6"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Prepare(n = 6, f = 2) = %v, want an error containing %q", err, want)
	}
}

// TestInvariantsHoldAgreesWithTheReport: InvariantsHold is CheckInvariants
// without the report — after every step of a soak seed whose source
// equivocates (every delivery forged, thousands of findings) and of one
// whose adversaries the protocol masks, from the first event to the end
// of the settle, under every combination of options.
func TestInvariantsHoldAgreesWithTheReport(t *testing.T) {
	var trap, clean *soak.Spec
	for seed := int64(1); trap == nil || clean == nil; seed++ {
		sp := soak.NewSpec(soak.ClassByzantine, seed)
		if sp.ExpectViolation && trap == nil {
			trap = &sp
		} else if !sp.ExpectViolation && clean == nil {
			clean = &sp
		}
	}
	for _, sp := range []*soak.Spec{trap, clean} {
		sc, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := harness.Prepare(sc)
		if err != nil {
			t.Fatal(err)
		}
		held, broken := 0, 0
		end := rt.Horizon() + time.Duration(sp.SettleMS)*time.Millisecond
		for step := end / 60; rt.Engine.Now() < end; {
			if err := rt.Settle(step); err != nil {
				t.Fatal(err)
			}
			for _, opts := range []harness.InvariantOptions{
				{}, {RequireDelivery: true}, {RequireTree: true}, {RequireDelivery: true, RequireTree: true},
			} {
				report := rt.CheckInvariants(opts)
				if got := rt.InvariantsHold(opts); got != (len(report) == 0) {
					t.Fatalf("seed %d at %v, %+v: InvariantsHold = %v, CheckInvariants reports %d violations (first: %v)",
						sp.Seed, rt.Engine.Now(), opts, got, len(report), report[:min(1, len(report))])
				}
				if len(report) == 0 {
					held++
				} else {
					broken++
				}
			}
		}
		if held == 0 || broken == 0 {
			t.Errorf("seed %d (trap %v): invariants held at %d samples and broke at %d; both sides must be sampled",
				sp.Seed, sp.ExpectViolation, held, broken)
		}
	}
}
