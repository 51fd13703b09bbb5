package wire

import "testing"

// MsgB and MsgC have no codec case; wirelint reports them against the
// first Benchmark function.
func BenchmarkCodec(b *testing.B) { // want `message kind MsgB is not named in any Benchmark\* corpus` `message kind MsgC is not named in any Benchmark\* corpus`
	for i := 0; i < b.N; i++ {
		Decode(Encode(MsgA))
	}
}
