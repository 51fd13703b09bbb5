package rbcast_test

// One benchmark per reproduced figure/table: each regenerates the
// corresponding experiment end to end and fails if the paper's
// qualitative claim stops holding, so `go test -bench=.` doubles as a
// performance run and an evaluation re-check. The trailing benchmarks
// measure raw simulator and protocol throughput.

import (
	"fmt"
	"testing"

	"rbcast/internal/bench"
	"rbcast/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Check(); err != nil {
			b.Fatalf("claim no longer holds: %v", err)
		}
	}
}

func BenchmarkFig31(b *testing.B)        { benchExperiment(b, "F3.1") }
func BenchmarkFig32(b *testing.B)        { benchExperiment(b, "F3.2") }
func BenchmarkFig41(b *testing.B)        { benchExperiment(b, "F4.1") }
func BenchmarkE1Cost(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2Delay(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3Recovery(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4Partition(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5Congestion(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6Control(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7Tradeoff(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8Scale(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Cluster(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Piggyback(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Multi(b *testing.B)     { benchExperiment(b, "E11") }

// The trailing benchmarks delegate to internal/bench so that
// `go test -bench` and the cmd/rbbench JSON snapshot runner measure
// exactly the same code.

func BenchmarkSimulatorThroughput(b *testing.B) { bench.SimulatorThroughput(b) }
func BenchmarkPublicSimulate(b *testing.B)      { bench.PublicSimulate(b) }

func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(shards), bench.ShardScaling(shards))
	}
}
func BenchmarkEngineQueueDepth(b *testing.B) {
	b.Run("clustered", bench.EngineQueueDepth(false))
	b.Run("jittered", bench.EngineQueueDepth(true))
}
func BenchmarkLiveFleetBroadcast(b *testing.B)   { bench.LiveFleetBroadcast(b) }
func BenchmarkEngineTimerChurn(b *testing.B)     { bench.EngineTimerChurn(b) }
func BenchmarkNetsimHop(b *testing.B)            { bench.NetsimHop(b) }
func BenchmarkSeqsetDiff(b *testing.B)           { bench.SeqsetDiff(b) }
func BenchmarkWireEncodeInfo(b *testing.B)       { bench.WireEncodeInfo(b) }
func BenchmarkWireAppendEncodeInfo(b *testing.B) { bench.WireAppendEncodeInfo(b) }
func BenchmarkWireDecodeInfo(b *testing.B)       { bench.WireDecodeInfo(b) }
func BenchmarkWireCodecKinds(b *testing.B)       { bench.WireCodecKinds(b) }
func BenchmarkRBLintSuite(b *testing.B)          { bench.RBLintSuite(b) }
func BenchmarkCallGraph(b *testing.B)            { bench.CallGraph(b) }
