package rbcast_test

// One benchmark per reproduced figure/table: each regenerates the
// corresponding experiment end to end and fails if the paper's
// qualitative claim stops holding, so `go test -bench=.` doubles as a
// performance run and an evaluation re-check.

import (
	"testing"

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
