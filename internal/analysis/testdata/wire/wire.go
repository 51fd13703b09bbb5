// Package wire is wirelint's testdata: a three-kind codec where one
// kind is missing from the Encode path, two from the Decode path, one
// from the fuzz corpus, two from the benchmark corpus (BenchmarkCodec
// names MsgA only), and one from the sibling live package's fuzz corpus
// (../live seeds MsgA and MsgB).
package wire

type MsgKind byte

const (
	MsgA MsgKind = iota + 1
	MsgB
	MsgC
)

func Encode(k MsgKind) []byte { // want `message kind MsgC is not handled on the Encode path`
	switch k {
	case MsgA:
		return []byte{byte(MsgA)}
	case MsgB:
		return encodeB()
	}
	return nil
}

// encodeB is reachable from Encode, so its MsgB reference counts for
// the Encode path.
func encodeB() []byte { return []byte{byte(MsgB)} }

func Decode(b []byte) MsgKind { // want `message kind MsgB is not handled on the Decode path` `message kind MsgC is not handled on the Decode path` `message kind MsgC is not seeded in the sibling live package's Fuzz\* corpus`
	if len(b) == 1 && MsgKind(b[0]) == MsgA {
		return MsgA
	}
	return 0
}
