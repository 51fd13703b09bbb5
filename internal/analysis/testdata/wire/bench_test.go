package wire

import "testing"

// MsgC has no codec case; wirelint reports it against the first
// Benchmark function. MsgB is named only by the corpus helper the
// benchmark calls, which counts.
func BenchmarkCodec(b *testing.B) { // want `message kind MsgC is not named in any Benchmark\* corpus`
	for i := 0; i < b.N; i++ {
		for _, k := range corpus() {
			Decode(Encode(k))
		}
	}
}

func corpus() []MsgKind { return []MsgKind{MsgA, MsgB} }
