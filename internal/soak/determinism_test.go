package soak

import (
	"encoding/json"
	"testing"

	"rbcast/internal/harness"
)

// Two harness runs of the same seed must produce bit-identical event
// traces — the property the deterministic packages keep by reading no
// wall clock and no global randomness (detrand's source scan holds both)
// and by iterating no map where order shows. A diverging trace here means seeded replay
// and shrinking are silently broken even if per-seed pass/fail agrees.
func TestSameSeedIdenticalEventTrace(t *testing.T) {
	checkSameSeedTrace(t, false)
}

// The delta INFO path adds per-peer sender/receiver state (last-sent
// snapshots, reconstructed views) that must be just as deterministic as
// the plain protocol: same seed, same traces, same wire-byte totals.
func TestSameSeedIdenticalEventTraceDeltaInfo(t *testing.T) {
	checkSameSeedTrace(t, true)
}

// The catch-up sync layer adds per-host transfer state machines —
// in-flight request windows, snapshot byte offsets, retry deadlines,
// source failover — that must be exactly as deterministic as the plain
// protocol. The pinned seed carries a mid-sync disruption arm, so the
// resumable-transfer paths (timeout, re-request from the verified
// offset) are inside the compared traces.
func TestSameSeedIdenticalEventTraceLateJoiner(t *testing.T) {
	seed := int64(-1)
	for s := int64(1); s <= 60; s++ {
		if len(NewSpec(ClassLateJoiner, s).Steps) > 2 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no late-joiner seed with a mid-sync arm in 1..60")
	}
	run := func() *harness.Result {
		t.Helper()
		sc, err := NewSpec(ClassLateJoiner, seed).Scenario()
		if err != nil {
			t.Fatalf("Scenario: %v", err)
		}
		sc.CollectEvents = true
		res, err := harness.Run(sc)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	compareTraces(t, run(), run())
}

// Adversary hooks rewrite traffic at the netsim transmit seam using
// per-host seeded RNG streams, so they must not cost any determinism:
// same seed, same adversaries, same event trace. One maskable seed and
// one echo/ready seed are pinned; the trap arm is covered by the replay
// equality check in TestByzantineTrapCaught.
func TestSameSeedIdenticalEventTraceByzantine(t *testing.T) {
	checkSameSeedByzTrace(t, false)
}

func TestSameSeedIdenticalEventTraceByzantineEcho(t *testing.T) {
	checkSameSeedByzTrace(t, true)
}

func checkSameSeedByzTrace(t *testing.T, wantEcho bool) {
	t.Helper()
	seed := int64(-1)
	for s := int64(0); s <= 60; s++ {
		sp := NewSpec(ClassByzantine, s)
		if !sp.ExpectViolation && sp.EchoReady == wantEcho {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatalf("no maskable byzantine seed with EchoReady=%v in 0..60", wantEcho)
	}
	run := func() *harness.Result {
		t.Helper()
		sp := NewSpec(ClassByzantine, seed)
		sc, err := sp.Scenario()
		if err != nil {
			t.Fatalf("Scenario: %v", err)
		}
		if len(sc.Adversaries) == 0 {
			t.Fatal("byzantine scenario carries no adversaries")
		}
		sc.CollectEvents = true
		res, err := harness.Run(sc)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	compareTraces(t, run(), run())
}

func checkSameSeedTrace(t *testing.T, deltaInfo bool) {
	t.Helper()
	run := func() *harness.Result {
		t.Helper()
		sp := NewSpec(ClassPartitionTrap, 7)
		sc, err := sp.Scenario()
		if err != nil {
			t.Fatalf("Scenario: %v", err)
		}
		sc.CollectEvents = true
		sc.Params.DeltaInfo = deltaInfo
		res, err := harness.Run(sc)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	compareTraces(t, run(), run())
}

func compareTraces(t *testing.T, a, b *harness.Result) {
	t.Helper()
	if len(a.Events) == 0 {
		t.Fatal("no events collected; the trace comparison is vacuous")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs:\n  %+v\nvs\n  %+v", i, a.Events[i], b.Events[i])
		}
	}
	if a.DeliveredCount != b.DeliveredCount || a.Complete != b.Complete ||
		a.CompletionAt != b.CompletionAt {
		t.Fatalf("summary stats differ: (%d,%v,%v) vs (%d,%v,%v)",
			a.DeliveredCount, a.Complete, a.CompletionAt,
			b.DeliveredCount, b.Complete, b.CompletionAt)
	}
	if a.WireBytes != b.WireBytes || a.InfoWireBytes != b.InfoWireBytes {
		t.Fatalf("wire-byte totals differ: (%d,%d) vs (%d,%d)",
			a.WireBytes, a.InfoWireBytes, b.WireBytes, b.InfoWireBytes)
	}
}

// --- Shard-count invariance -------------------------------------------
//
// The sharded engine's contract: a seeded scenario produces bit-identical
// traces and replay reports at ANY positive shard count, because the lane
// partition is derived from the topology and shard workers are pure
// executors. These tests pin that across the scenario classes whose state
// machines are hardest to keep deterministic — partition/heal schedules,
// Byzantine adversaries, and mid-sync catch-up disruption.

func shardCounts() []int { return []int{1, 2, 4, 8} }

func runScenarioWithShards(t *testing.T, sc harness.Scenario, shards int) *harness.Result {
	t.Helper()
	sc.CollectEvents = true
	sc.Shards = shards
	res, err := harness.Run(sc)
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	return res
}

func checkShardCountTrace(t *testing.T, mk func() (harness.Scenario, error)) {
	t.Helper()
	mkOrFatal := func() harness.Scenario {
		sc, err := mk()
		if err != nil {
			t.Fatalf("Scenario: %v", err)
		}
		return sc
	}
	ref := runScenarioWithShards(t, mkOrFatal(), 1)
	for _, shards := range shardCounts()[1:] {
		got := runScenarioWithShards(t, mkOrFatal(), shards)
		compareTraces(t, ref, got)
	}
}

// Partition/heal schedule with delta INFO: the bulk of the protocol state
// space, exercised across every shard count.
func TestShardCountIdenticalEventTrace(t *testing.T) {
	checkShardCountTrace(t, NewSpec(ClassPartitionTrap, 7).Scenario)
}

// Byzantine adversaries rewrite traffic at the transmit seam on the
// sender's lane; their per-host RNG streams must keep every shard count
// on the same trace.
func TestShardCountIdenticalEventTraceByzantine(t *testing.T) {
	seed := int64(-1)
	for s := int64(0); s <= 60; s++ {
		if sp := NewSpec(ClassByzantine, s); !sp.ExpectViolation {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no maskable byzantine seed in 0..60")
	}
	checkShardCountTrace(t, func() (harness.Scenario, error) {
		sc, err := NewSpec(ClassByzantine, seed).Scenario()
		if err == nil && len(sc.Adversaries) == 0 {
			t.Fatal("byzantine scenario carries no adversaries")
		}
		return sc, err
	})
}

// Catch-up sync with a mid-sync disruption arm: in-flight transfer
// windows and failover deadlines span epoch barriers, and must land on
// identical traces at every shard count.
func TestShardCountIdenticalEventTraceLateJoiner(t *testing.T) {
	seed := int64(-1)
	for s := int64(1); s <= 60; s++ {
		if len(NewSpec(ClassLateJoiner, s).Steps) > 2 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no late-joiner seed with a mid-sync arm in 1..60")
	}
	checkShardCountTrace(t, NewSpec(ClassLateJoiner, seed).Scenario)
}

// The full replay artifact — the SeedReport JSON a failing sweep prints
// for reproduction — must be byte-identical across shard counts, for
// several seeds of the mixed class. This is what makes `rbsoak -shards N`
// output diffable against any other shard count.
func TestShardCountIdenticalSeedReports(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref, err := json.Marshal(RunSpecShards(NewSpec(ClassMixed, seed), 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts()[1:] {
			got, err := json.Marshal(RunSpecShards(NewSpec(ClassMixed, seed), shards))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(ref) {
				t.Fatalf("seed %d: report JSON diverged between shards=1 and shards=%d:\n%s\nvs\n%s",
					seed, shards, ref, got)
			}
		}
	}
}
