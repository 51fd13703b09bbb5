// Package bench defines the repository's perf-tracking benchmark cases
// once, so that `go test -bench` (via bench_test.go wrappers) and the
// cmd/rbbench JSON runner measure exactly the same code. Each case is an
// ordinary testing benchmark function; rbbench executes them with
// testing.Benchmark and records events/s, ns/op, allocs/op, and bytes/op
// into a BENCH_<date>.json snapshot (schema documented in README
// "Performance").
package bench

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rbcast"
	"rbcast/internal/analysis"
	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
	"rbcast/internal/wire"

	"rbcast/internal/core"
)

// Case is one named benchmark tracked across BENCH_*.json snapshots.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// Cases returns the perf-tracking suite in a fixed order.
func Cases() []Case {
	return []Case{
		{"SimulatorThroughput", SimulatorThroughput},
		{"ShardScaling/1", ShardScaling(1)},
		{"ShardScaling/2", ShardScaling(2)},
		{"ShardScaling/4", ShardScaling(4)},
		{"ShardScaling/8", ShardScaling(8)},
		{"PublicSimulate", PublicSimulate},
		{"LiveFleetBroadcast", LiveFleetBroadcast},
		{"EngineTimerChurn", EngineTimerChurn},
		{"EngineQueueDepth/clustered", EngineQueueDepth(false)},
		{"EngineQueueDepth/jittered", EngineQueueDepth(true)},
		{"NetsimHop", NetsimHop},
		{"SeqsetDiff", SeqsetDiff},
		{"WireEncodeInfo", WireEncodeInfo},
		{"WireAppendEncodeInfo", WireAppendEncodeInfo},
		{"WireDecodeInfo", WireDecodeInfo},
		{"WireCodecKinds", WireCodecKinds},
		{"RBLintSuite", RBLintSuite},
		{"CallGraph", CallGraph},
	}
}

// SimulatorThroughput measures raw discrete-event throughput of a full
// protocol broadcast: simulated events per wall-clock second.
func SimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		rt, err := harness.Prepare(harness.Scenario{
			Seed: 1,
			Build: func(eng sim.Loop) (*topo.Topology, error) {
				return topo.Clustered(eng, topo.ClusteredConfig{
					Clusters:        6,
					HostsPerCluster: 4,
					Shape:           topo.WANTree,
				})
			},
			Protocol:         harness.ProtocolTree,
			Messages:         30,
			MsgInterval:      150 * time.Millisecond,
			WarmUp:           3 * time.Second,
			StopWhenComplete: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := rt.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatalf("broadcast incomplete (%d/%d)", res.DeliveredCount, res.ExpectedCount)
		}
		events += rt.Engine.EventsRun()
		virtual += rt.Engine.Now()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(virtual.Seconds()/b.Elapsed().Seconds()/float64(b.N), "virtual-s/wall-s")
}

// ShardScaling measures the sharded parallel engine on a 512-host
// topology (64 clusters of 8) at the given worker count. The simulated
// trace is bit-identical at every shard count — only events per
// wall-clock second may change — so entries differ purely in execution
// parallelism. Compare the events/s metric across ShardScaling/1..8;
// the available speedup is bounded by GOMAXPROCS and by the epoch
// barrier's serial fraction (coordinator drain + global events).
func ShardScaling(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var events uint64
		var virtual time.Duration
		for i := 0; i < b.N; i++ {
			rt, err := harness.Prepare(harness.Scenario{
				Seed:   1,
				Shards: shards,
				Build: func(eng sim.Loop) (*topo.Topology, error) {
					return topo.Clustered(eng, topo.ClusteredConfig{
						Clusters:        64,
						HostsPerCluster: 8,
						Shape:           topo.WANTree,
					})
				},
				Protocol:         harness.ProtocolTree,
				Messages:         5,
				MsgInterval:      200 * time.Millisecond,
				WarmUp:           3 * time.Second,
				StopWhenComplete: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := rt.Finish()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Complete {
				b.Fatalf("broadcast incomplete (%d/%d)", res.DeliveredCount, res.ExpectedCount)
			}
			events += rt.Engine.EventsRun()
			virtual += rt.Engine.Now()
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(virtual.Seconds()/b.Elapsed().Seconds()/float64(b.N), "virtual-s/wall-s")
	}
}

// PublicSimulate measures the facade's end-to-end cost.
func PublicSimulate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := rbcast.Simulate(rbcast.SimulationConfig{
			Clusters:        3,
			HostsPerCluster: 3,
			Messages:        20,
			Seed:            1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("incomplete")
		}
	}
}

// LiveFleetBroadcast measures real-time end-to-end latency of a
// nine-host live fleet delivering a burst of ten messages.
func LiveFleetBroadcast(b *testing.B) {
	b.ReportAllocs()
	hosts := []rbcast.HostID{1, 2, 3, 4, 5, 6, 7, 8, 9}
	fleet, err := rbcast.StartFleet(rbcast.FleetConfig{
		Hosts:    hosts,
		Source:   1,
		Clusters: [][]rbcast.HostID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Stop()
	b.ResetTimer()
	var total rbcast.Seq
	for i := 0; i < b.N; i++ {
		for j := 0; j < 10; j++ {
			seq, err := fleet.Broadcast([]byte("bench"))
			if err != nil {
				b.Fatal(err)
			}
			total = seq
		}
		if !fleet.WaitDelivered(total, 30*time.Second) {
			b.Fatal("burst not delivered")
		}
	}
}

// EngineTimerChurn measures the event queue under backoff-style timer
// churn: a burst of scheduled events, most of which are canceled before
// they fire — the pattern long recovery soaks produce.
func EngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	const burst = 4096
	timers := make([]sim.Timer, 0, burst)
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		timers = timers[:0]
		for j := 0; j < burst; j++ {
			timers = append(timers, eng.Schedule(time.Duration(j)*time.Microsecond, func() {}))
		}
		for j, t := range timers {
			if j%8 != 0 {
				t.Cancel()
			}
		}
		if err := eng.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "timers/s")
}

// EngineQueueDepth measures the event queue at depth with the classic
// hold model: 65 536 events stay pending, and every operation pops the
// earliest and schedules it again a random increment ahead. Clustered
// increments are whole milliseconds, 1 to 16 — the protocol's shape,
// thousands of events per instant; jittered ones add a random number of
// nanoseconds, so that nearly every event has an instant of its own.
// ns/op is the cost of one pop and one push, the engine's dispatch and
// one PRNG draw included.
func EngineQueueDepth(jitter bool) func(b *testing.B) {
	return func(b *testing.B) {
		const depth = 1 << 16
		eng := sim.NewEngine(1)
		rng := eng.Rand()
		increment := func() time.Duration {
			d := time.Duration(1+rng.Intn(16)) * time.Millisecond
			if jitter {
				d += time.Duration(rng.Intn(int(time.Millisecond)))
			}
			return d
		}
		left := 0
		var hold sim.Event
		hold = func() {
			eng.Schedule(increment(), hold)
			if left--; left == 0 {
				eng.Stop()
			}
		}
		for i := 0; i < depth; i++ {
			eng.Schedule(increment(), hold)
		}
		// Warm: one full turnover brings the queue to its steady shape.
		left = depth
		if err := eng.RunUntilIdle(); err != sim.ErrStopped {
			b.Fatalf("warm-up: %v", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		left = b.N
		if err := eng.RunUntilIdle(); err != sim.ErrStopped {
			b.Fatalf("hold loop: %v", err)
		}
		b.StopTimer()
		if eng.Pending() != depth {
			b.Fatalf("Pending() = %d, want %d held", eng.Pending(), depth)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
}

// NetsimHop measures the network simulator's transmit path alone: one
// warm Send from corner to corner of a 10×10 server grid — two access
// links and eighteen server links — run to delivery on the sequential
// engine, with no protocol above it. It reports the wall time and the
// heap allocations of one link traversal (route lookup, loss/jitter
// draw, one event through the queue); the payload is boxed once, outside
// the loop, so the allocation figure is the transmit path's own.
func NetsimHop(b *testing.B) {
	const g = 10
	eng := sim.NewEngine(1)
	n := netsim.New(eng)
	cfg := netsim.LinkConfig{Jitter: 0}
	var grid [g][g]netsim.ServerID
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			grid[r][c] = n.AddServer()
			if c > 0 {
				if _, err := n.AddLink(grid[r][c-1], grid[r][c], cfg); err != nil {
					b.Fatal(err)
				}
			}
			if r > 0 {
				if _, err := n.AddLink(grid[r-1][c], grid[r][c], cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	const from, to = netsim.HostID(1), netsim.HostID(2)
	if err := n.AttachHost(from, grid[0][0], cfg); err != nil {
		b.Fatal(err)
	}
	if err := n.AttachHost(to, grid[g-1][g-1], cfg); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	if err := n.Handle(to, func(time.Duration, netsim.Envelope) { delivered++ }); err != nil {
		b.Fatal(err)
	}
	var payload any = "payload"
	traverse := func() {
		if err := n.Send(from, to, payload); err != nil {
			b.Fatal(err)
		}
		if err := eng.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	traverse() // warm the route tables, the event heap and the flight pool
	n.ResetStats()
	delivered = 0
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traverse()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if delivered != b.N {
		b.Fatalf("delivered %d of %d messages", delivered, b.N)
	}
	var hops uint64
	for _, v := range n.Stats().LinkTransmissions {
		hops += v
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(hops), "allocs/hop")
}

// benchSets builds a fragmented INFO set pair shaped like a lossy run:
// `have` holds most of 1..600 with periodic holes; `their` trails behind.
func benchSets() (have, their seqset.Set) {
	for q := seqset.Seq(1); q <= 600; q++ {
		if q%37 != 0 {
			have.Add(q)
		}
		if q <= 480 && q%23 != 0 {
			their.Add(q)
		}
	}
	return have, their
}

// SeqsetDiff measures the set difference underlying every gap-fill
// decision and every delta INFO exchange.
func SeqsetDiff(b *testing.B) {
	b.ReportAllocs()
	have, their := benchSets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := have.Diff(their)
		if d.Empty() {
			b.Fatal("empty diff")
		}
	}
}

// infoFrame is a typical periodic INFO frame: a mostly-contiguous set
// with a few holes, as a steady-state host advertises.
func infoFrame() wire.Frame {
	info := seqset.FromRange(1, 120)
	info.AddRange(125, 180)
	info.AddRange(190, 200)
	return wire.Frame{From: 3, Message: core.Message{
		Kind:   core.MsgInfo,
		Info:   info,
		Parent: 2,
	}}
}

// WireEncodeInfo measures encoding of a typical INFO frame.
func WireEncodeInfo(b *testing.B) {
	b.ReportAllocs()
	f := infoFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(f); err != nil {
			b.Fatal(err)
		}
	}
}

// WireAppendEncodeInfo measures the hot transport path: encoding a
// typical INFO frame into a reused buffer. Expected 0 allocs/op.
func WireAppendEncodeInfo(b *testing.B) {
	b.ReportAllocs()
	f := infoFrame()
	buf := make([]byte, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendEncode(buf[:0], f)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// WireDecodeInfo measures decoding of a typical INFO frame.
func WireDecodeInfo(b *testing.B) {
	b.ReportAllocs()
	data, err := wire.Encode(infoFrame())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// kindFrames is one representative frame per message kind, so the codec
// round-trip cost of the whole kind space is tracked (and wirelint's
// bench-coverage check sees every kind exercised here).
func kindFrames() []wire.Frame {
	info := seqset.FromRange(1, 64)
	info.AddRange(70, 90)
	return []wire.Frame{
		{From: 3, Message: core.Message{Kind: core.MsgData, Seq: 91, Payload: make([]byte, 32)}},
		{From: 3, Message: core.Message{Kind: core.MsgInfo, Info: info, Parent: 2}},
		{From: 3, Message: core.Message{Kind: core.MsgAttachReq, Info: info}},
		{From: 2, Message: core.Message{Kind: core.MsgAttachAccept, Info: info}},
		{From: 2, Message: core.Message{Kind: core.MsgAttachReject}},
		{From: 3, Message: core.Message{Kind: core.MsgDetach}},
		{From: 3, Message: core.Message{Kind: core.MsgBundle, Parts: []core.Message{
			{Kind: core.MsgData, Seq: 91, Payload: make([]byte, 32), GapFill: true},
			{Kind: core.MsgInfo, Info: info, Parent: 2},
		}}},
		{From: 3, Message: core.Message{Kind: core.MsgInfoDelta, Info: seqset.FromRange(85, 90),
			Seq: 90, CheckLen: uint64(info.Len()), Parent: 2}},
		{From: 3, Message: core.Message{Kind: core.MsgEcho, Seq: 91, CheckLen: 0x9e3779b97f4a7c15}},
		{From: 3, Message: core.Message{Kind: core.MsgReady, Seq: 91, CheckLen: 0x9e3779b97f4a7c15}},
		{From: 3, Message: core.Message{Kind: core.MsgSyncReq, Seq: 65, Info: seqset.FromRange(65, 90)}},
		{From: 2, Message: core.Message{Kind: core.MsgSyncResp, Seq: 65, Parts: []core.Message{
			{Kind: core.MsgData, Seq: 65, Payload: make([]byte, 32), GapFill: true},
			{Kind: core.MsgData, Seq: 66, Payload: make([]byte, 32), GapFill: true},
		}, Info: seqset.FromRange(67, 70), CheckLen: 64}},
		{From: 3, Message: core.Message{Kind: core.MsgSnapReq, Seq: 4096, CheckLen: 64}},
		{From: 2, Message: core.Message{Kind: core.MsgSnapChunk, Seq: 4096,
			Payload: make([]byte, 256), CheckLen: 8192, Info: seqset.FromRange(1, 64)}},
	}
}

// WireCodecKinds measures an encode+decode round trip of one frame of
// every message kind.
func WireCodecKinds(b *testing.B) {
	b.ReportAllocs()
	frames := kindFrames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			data, err := wire.Encode(f)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wire.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(frames))/b.Elapsed().Seconds(), "frames/s")
}

// RBLintSuite measures a full run of the static analysis suite — all
// twelve analyzers, CFG and call-graph construction, lock summaries,
// taint dataflow, and the abstract-interpretation layer (interval
// inference, effect summaries, and the quorum prover) — over the
// protocol state machine package and the simulated network package.
// Both are in scope: core exercises quorumlint's relational proofs,
// netsim exercises lanelint's whole-program lane-provenance walk.
// Loading and type-checking happen once outside the timer; the loop
// measures pure analysis cost.
func RBLintSuite(b *testing.B) {
	b.ReportAllocs()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	core, err := loader.Load(filepath.Join(loader.ModRoot, "internal", "core"), "rbcast/internal/core")
	if err != nil {
		b.Fatal(err)
	}
	netsim, err := loader.Load(filepath.Join(loader.ModRoot, "internal", "netsim"), "rbcast/internal/netsim")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range []*analysis.Package{core, netsim} {
			if _, err := analysis.RunPackage(loader, pkg, analysis.Analyzers()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// CallGraph measures whole-program call-graph construction — node
// discovery, static/go/defer edges, address-taken collection, and
// CHA-style dynamic resolution — over every package in the module.
// Loading and type-checking happen once outside the timer; the loop
// measures pure graph-building cost, the fixed overhead every
// whole-program analyzer pays per rblint run.
func CallGraph(b *testing.B) {
	b.ReportAllocs()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := analysis.NewProgram(loader.Fset, pkgs)
		if p.Graph == nil || len(p.Graph.Nodes) == 0 {
			b.Fatal("empty call graph")
		}
	}
}
