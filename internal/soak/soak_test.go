package soak

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSoakSmoke is the tier-1 entry point: a small sweep of the mixed
// class must come back all-pass. Anything else is a protocol or
// simulator regression.
func TestSoakSmoke(t *testing.T) {
	sum, err := Run(Config{Class: ClassMixed, SeedStart: 1, Seeds: 25})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(sum.Reports); got != 25 {
		t.Fatalf("got %d reports, want 25", got)
	}
	for _, f := range sum.Failures() {
		t.Errorf("seed %d failed: %v\n  replay: %s",
			f.Seed, f.Violations, ReplayCommand(ClassMixed, f.Seed))
	}
	for _, r := range sum.Reports {
		if r.Delivered == 0 || r.Expected == 0 {
			t.Errorf("seed %d: empty delivery accounting (%d/%d)", r.Seed, r.Delivered, r.Expected)
		}
		if r.EventsRun == 0 {
			t.Errorf("seed %d: zero simulation events", r.Seed)
		}
	}
}

// TestDeterministicAcrossWorkers is the sharding guarantee: per-seed
// results must be byte-identical no matter how many workers ran the
// sweep.
func TestDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		sum, err := Run(Config{Class: ClassChurn, SeedStart: 40, Seeds: 12, Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		data, err := json.Marshal(sum.Reports)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	one := marshal(1)
	four := marshal(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("reports differ between 1 and 4 workers:\n1: %s\n4: %s", one, four)
	}
}

// TestCSVDeterministic pins the other sweep artifact: the CSV byte
// stream is a pure function of (class, seed range).
func TestCSVDeterministic(t *testing.T) {
	render := func(workers int) string {
		sum, err := Run(Config{Class: ClassUniform, SeedStart: 7, Seeds: 6, Workers: workers})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := sum.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return buf.String()
	}
	if a, b := render(1), render(3); a != b {
		t.Fatalf("CSV differs between worker counts:\n%s\nvs\n%s", a, b)
	}
}

// TestPartitionTrapCaught proves the engine catches a planted violation:
// every partition-trap seed leaves one cluster permanently isolated, so
// the delivery invariant must fail, the shrinker must reproduce the same
// invariant on a reduced spec, and the replay command must name the
// exact failing seed.
func TestPartitionTrapCaught(t *testing.T) {
	const seed = 3
	rep := RunSeed(ClassPartitionTrap, seed)
	if rep.Pass {
		t.Fatalf("partition-trap seed %d passed; want delivery violation", seed)
	}
	if !hasInvariant(rep.Violations, "delivery") {
		t.Fatalf("violations %v lack the delivery invariant", rep.Violations)
	}

	sh := Shrink(NewSpec(ClassPartitionTrap, seed), 48)
	if !hasInvariant(sh.Violations, "delivery") {
		t.Fatalf("shrunk violations %v lack the delivery invariant", sh.Violations)
	}
	if sh.Attempts == 0 {
		t.Fatal("shrinker made no attempts")
	}
	if !sh.Reduced {
		t.Fatalf("shrinker failed to reduce the trap spec (attempts=%d)", sh.Attempts)
	}
	orig := NewSpec(ClassPartitionTrap, seed)
	if sh.Spec.Hosts() > orig.Hosts() || sh.Spec.Messages > orig.Messages {
		t.Fatalf("shrunk spec grew: %d hosts/%d msgs vs %d/%d",
			sh.Spec.Hosts(), sh.Spec.Messages, orig.Hosts(), orig.Messages)
	}
	// The shrunk spec must still be runnable and still fail.
	if rerun := RunSpec(sh.Spec); rerun.Pass {
		t.Fatal("shrunk spec passes on rerun")
	}

	cmd := ReplayCommand(ClassPartitionTrap, seed)
	for _, want := range []string{"rbsoak", "-class partition-trap", "-seeds 3", "-count 1", "-workers 1"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("replay command %q lacks %q", cmd, want)
		}
	}
	// And the replay path (RunSeed on the named class and seed) must
	// reproduce the failure, violation for violation.
	again := RunSeed(ClassPartitionTrap, seed)
	if again.Pass {
		t.Fatal("replay passed")
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestBudgetStopsDispatch: an exhausted budget stops feeding seeds to
// the pool but never truncates in-flight work.
func TestBudgetStopsDispatch(t *testing.T) {
	sum, err := Run(Config{Class: ClassUniform, SeedStart: 1, Seeds: 500, Workers: 2, Budget: time.Nanosecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(sum.Reports) >= 500 {
		t.Fatalf("budget of 1ns ran all %d seeds", len(sum.Reports))
	}
	for _, r := range sum.Reports {
		if !r.Pass {
			t.Errorf("seed %d failed: %v", r.Seed, r.Violations)
		}
	}
}

// TestProgressCallsAreSerialized: Run promises Progress calls one at a
// time, so a callback may keep unsynchronised state. Four workers share
// this counter; under -race a missing lock is a failure here.
func TestProgressCallsAreSerialized(t *testing.T) {
	const seeds = 12
	calls, lastDone := 0, 0
	sum, err := Run(Config{Class: ClassUniform, SeedStart: 1, Seeds: seeds, Workers: 4,
		Progress: func(done, failed int) {
			calls++
			lastDone = max(lastDone, done)
		}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != seeds || lastDone != seeds || len(sum.Reports) != seeds {
		t.Errorf("%d Progress calls reaching done=%d over %d reports, want %d of each", calls, lastDone, len(sum.Reports), seeds)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Class: ClassUniform}); err == nil {
		t.Error("Run with zero Seeds succeeded")
	}
	if _, err := Run(Config{Class: Class("nope"), Seeds: 1}); err == nil {
		t.Error("Run with unknown class succeeded")
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(string(c))
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c, got, err)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
}

// TestSpecStable pins the generator: a spec is a pure function of
// (class, seed), and distinct seeds explore distinct scenarios.
func TestSpecStable(t *testing.T) {
	a, _ := json.Marshal(NewSpec(ClassMixed, 99))
	b, _ := json.Marshal(NewSpec(ClassMixed, 99))
	if !bytes.Equal(a, b) {
		t.Fatalf("NewSpec not deterministic:\n%s\nvs\n%s", a, b)
	}
	c, _ := json.Marshal(NewSpec(ClassMixed, 100))
	if bytes.Equal(a, c) {
		t.Fatal("seeds 99 and 100 generated identical specs")
	}
}

// TestScenarioEventsFollowSteps: Scenario turns a spec's steps into
// harness events in step order. Events of one instant run in the order
// they were scheduled, so steps taken in any other order — a map's, say —
// would let one seed replay two ways whenever two steps coincide.
func TestScenarioEventsFollowSteps(t *testing.T) {
	sp := NewSpec(ClassMixed, 1)
	sp.Steps = nil
	for i := 0; i < 32; i++ {
		sp.Steps = append(sp.Steps, Step{AtMS: int64(1000 + i), Kind: StepCutWAN, Index: i})
	}
	sc, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != len(sp.Steps) {
		t.Fatalf("%d events for %d steps", len(sc.Events), len(sp.Steps))
	}
	for i, ev := range sc.Events {
		if want := time.Duration(sp.Steps[i].AtMS) * time.Millisecond; ev.At != want {
			t.Fatalf("event %d is at %v; step %d is at %v", i, ev.At, i, want)
		}
	}
}

// TestTrapSpecShape: every trap spec plants a permanent partition and
// declares itself disconnected.
func TestTrapSpecShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sp := NewSpec(ClassPartitionTrap, seed)
		if sp.FinalConnected {
			t.Errorf("seed %d: trap spec claims FinalConnected", seed)
		}
		if len(sp.Steps) != 1 || sp.Steps[0].Kind != StepIsolateCluster {
			t.Errorf("seed %d: trap steps = %v", seed, sp.Steps)
		}
		if sp.Steps[0].Index == 0 {
			t.Errorf("seed %d: trap isolates the source cluster", seed)
		}
	}
}

// TestRecoverySpecShape: every recovery spec plants exactly one
// isolate/heal pair on a non-source cluster, enables backoff, and keeps
// the horizon past the heal.
func TestRecoverySpecShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sp := NewSpec(ClassRecovery, seed)
		if !sp.FinalConnected {
			t.Errorf("seed %d: recovery spec claims disconnected final state", seed)
		}
		if len(sp.Steps) != 2 ||
			sp.Steps[0].Kind != StepIsolateCluster || sp.Steps[1].Kind != StepHealCluster {
			t.Fatalf("seed %d: recovery steps = %v", seed, sp.Steps)
		}
		if sp.Steps[0].Index == 0 || sp.Steps[0].Index != sp.Steps[1].Index {
			t.Errorf("seed %d: bad partition target: %v", seed, sp.Steps)
		}
		if sp.Steps[1].AtMS <= sp.Steps[0].AtMS || sp.DrainMS <= sp.Steps[1].AtMS {
			t.Errorf("seed %d: heal at %d not inside (cut %d, drain %d)",
				seed, sp.Steps[1].AtMS, sp.Steps[0].AtMS, sp.DrainMS)
		}
		if sp.BackoffBaseMS <= 0 || sp.BackoffMaxMS < sp.BackoffBaseMS ||
			sp.BackoffMultiplier < 1 || sp.SuspicionAfter < 1 {
			t.Errorf("seed %d: backoff fields invalid: %+v", seed, sp)
		}
		if err := sp.params().Validate(); err != nil {
			t.Errorf("seed %d: generated params invalid: %v", seed, err)
		}
	}
}

// TestRecoverySoak runs a small recovery sweep: every seed must survive
// its long partition and converge after the heal, with the health layer
// demonstrably active somewhere in the sweep.
func TestRecoverySoak(t *testing.T) {
	sum, err := Run(Config{Class: ClassRecovery, SeedStart: 1, Seeds: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range sum.Failures() {
		t.Errorf("seed %d failed: %v\n  replay: %s",
			f.Seed, f.Violations, ReplayCommand(ClassRecovery, f.Seed))
	}
	var suppressed, resyncs uint64
	for _, r := range sum.Reports {
		suppressed += r.SuppressedSends
		resyncs += r.ResyncBursts
		if r.Pass && r.CompleteAtMS > 0 && r.PostHealMS == 0 && r.CompleteAtMS > r.Spec.Steps[1].AtMS {
			t.Errorf("seed %d: PostHealMS unset despite completion at %d after heal at %d",
				r.Seed, r.CompleteAtMS, r.Spec.Steps[1].AtMS)
		}
	}
	if suppressed == 0 {
		t.Error("no seed suppressed any sends — health layer inert across the sweep")
	}
	if resyncs == 0 {
		t.Error("no seed performed a fast-resync burst across the sweep")
	}
}

// TestRecoveryDeterministicAcrossWorkers extends the sharding guarantee
// to the backoff-enabled class: deterministic jitter means per-seed
// reports stay byte-identical regardless of worker count.
func TestRecoveryDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		sum, err := Run(Config{Class: ClassRecovery, SeedStart: 30, Seeds: 6, Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		data, err := json.Marshal(sum.Reports)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	one := marshal(1)
	four := marshal(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("recovery reports differ between 1 and 4 workers:\n1: %s\n4: %s", one, four)
	}
}

// TestLateJoinerSpecShape: every late-joiner spec takes one non-source
// host down before the workload and brings it back only after the whole
// history is out, with catch-up sync, replication, and pruning enabled
// and the horizon comfortably past the join.
func TestLateJoinerSpecShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sp := NewSpec(ClassLateJoiner, seed)
		if !sp.CatchupSync || !sp.Replicate || !sp.PruneStable {
			t.Errorf("seed %d: catch-up knobs not all set: %+v", seed, sp)
		}
		if !sp.FinalConnected {
			t.Errorf("seed %d: late-joiner spec claims disconnected final state", seed)
		}
		if len(sp.Steps) < 2 || sp.Steps[0].Kind != StepHostDown || sp.Steps[0].AtMS != 1 {
			t.Fatalf("seed %d: steps do not start with an immediate host-down: %v", seed, sp.Steps)
		}
		if sp.Steps[0].Index == 0 {
			t.Errorf("seed %d: joiner is the source", seed)
		}
		join := sp.Steps[1]
		if join.Kind != StepHostUp || join.Index != sp.Steps[0].Index {
			t.Fatalf("seed %d: second step is not the joiner's return: %v", seed, sp.Steps)
		}
		workloadEnd := int64(sp.Messages) * sp.MsgIntervalMS
		if join.AtMS <= workloadEnd {
			t.Errorf("seed %d: join at %dms inside the workload (ends %dms)", seed, join.AtMS, workloadEnd)
		}
		if sp.DrainMS <= join.AtMS {
			t.Errorf("seed %d: drain %dms not past the join %dms", seed, sp.DrainMS, join.AtMS)
		}
		for _, st := range sp.Steps[2:] {
			if st.AtMS <= join.AtMS && st.Kind != StepHostUp {
				t.Errorf("seed %d: arm step %v fires before the join", seed, st)
			}
		}
		if err := sp.params().Validate(); err != nil {
			t.Errorf("seed %d: generated params invalid: %v", seed, err)
		}
		if !sp.params().SnapshotsEnabled() {
			t.Errorf("seed %d: snapshots not enabled by derived params", seed)
		}
	}
}

// TestLateJoinerSoak runs a small late-joiner sweep: every seed must
// converge (the per-seed O(missing) round budget is checked inside
// RunSpec), and snapshot transfer must demonstrably fire somewhere in
// the sweep — otherwise the class is not exercising the catch-up path.
func TestLateJoinerSoak(t *testing.T) {
	sum, err := Run(Config{Class: ClassLateJoiner, SeedStart: 1, Seeds: 6})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range sum.Failures() {
		t.Errorf("seed %d failed: %v\n  replay: %s",
			f.Seed, f.Violations, ReplayCommand(ClassLateJoiner, f.Seed))
	}
	var rounds, installs uint64
	for _, r := range sum.Reports {
		rounds += r.SyncRounds
		installs += r.SnapInstalls
	}
	if rounds == 0 {
		t.Error("no seed issued a sync round — catch-up layer inert across the sweep")
	}
	if installs == 0 {
		t.Error("no seed installed a snapshot across the sweep")
	}
}

// TestLateJoinerDeterministicAcrossWorkers extends the sharding
// guarantee to the catch-up class: transfer state machines, timeouts,
// and failovers are all virtual-time driven, so per-seed reports stay
// byte-identical regardless of worker count.
func TestLateJoinerDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		sum, err := Run(Config{Class: ClassLateJoiner, SeedStart: 20, Seeds: 4, Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		data, err := json.Marshal(sum.Reports)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	one := marshal(1)
	four := marshal(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("late-joiner reports differ between 1 and 4 workers:\n1: %s\n4: %s", one, four)
	}
}

func hasInvariant(violations []string, name string) bool {
	for _, v := range violations {
		if strings.HasPrefix(v, name+":") {
			return true
		}
	}
	return false
}
