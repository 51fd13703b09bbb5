package wire_test

import (
	"bytes"
	"testing"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

// FuzzDecode drives the decoder with arbitrary bytes (the corpus seeds
// with kindCorpus, one valid frame of every kind, and a few hostile
// shapes). The decoder must never panic, and anything it accepts must
// re-encode and re-decode to the same frame.
// Every input also goes through one Decoder reused across all
// invocations, the way a host driver uses it: it must agree with the
// one-shot Decode on accept/reject and on every field, parts included,
// and what a caller kept of the previous accepted frame by the documented
// rule (Payload copied, Info cloned, parts as they came) must read the
// same after the next call.
// Run with `go test -fuzz FuzzDecode ./internal/wire` for a real fuzzing
// session; as a plain test it replays the seed corpus.
func FuzzDecode(f *testing.F) {
	seedFrames := append(kindCorpus(),
		wire.Frame{From: 2, Message: core.Message{Kind: core.MsgData, Seq: 7, GapFill: true}},
		// Adversarial shapes from the Byzantine fault-injection layer
		// (internal/adversary): an oversized single-run INFO claim, a
		// delta whose checksum can never verify, and an absurd-digest
		// ready vote for a sequence number no source would assign.
		wire.Frame{From: 12, Message: core.Message{Kind: core.MsgInfo,
			Info: seqset.FromRange(1, 1<<40), Parent: 2}},
		wire.Frame{From: 13, Message: core.Message{Kind: core.MsgInfoDelta,
			Seq: 0, CheckLen: ^uint64(0)}},
		wire.Frame{From: 14, Message: core.Message{Kind: core.MsgReady,
			Seq: 1 << 60, CheckLen: ^uint64(0)}},
	)
	for _, fr := range seedFrames {
		data, err := wire.Encode(fr)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xB7})

	var reused wire.Decoder
	var kept, keptWant *wire.Frame // of the previous accepted input
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := wire.Decode(data)
		got, reusedErr := reused.Decode(data)
		if kept != nil && !framesEqual(*kept, *keptWant) {
			t.Fatalf("decoding %x changed what was kept of the previous frame:\n%+v\nwant\n%+v", data, *kept, *keptWant)
		}
		kept, keptWant = nil, nil
		if (err == nil) != (reusedErr == nil) {
			t.Fatalf("one-shot Decode says %v, the reused Decoder %v", err, reusedErr)
		}
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if !framesEqual(got, frame) {
			t.Fatalf("reused Decoder diverged from Decode:\n%+v\nvs\n%+v", got, frame)
		}
		got.Message.Payload = bytes.Clone(got.Message.Payload)
		got.Message.Info = got.Message.Info.Clone()
		kept, keptWant = &got, &frame
		// Accepted frames must round-trip losslessly.
		re, err := wire.Encode(frame)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v (frame %+v)", err, frame)
		}
		again, err := wire.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !framesEqual(again, frame) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", frame, again)
		}
	})
}
