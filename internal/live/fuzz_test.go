package live

import (
	"bytes"
	"testing"

	"rbcast/internal/core"
	"rbcast/internal/node"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

// FuzzDecodeEnvelope drives the host driver's stream-prefixed envelope
// decoder (internal/node) with arbitrary bytes — what Transport.Send
// accepts from any caller and hands to a node. The corpus seeds with
// well-formed envelopes of every message kind — setup fails if a kind
// up to core.NumMsgKinds has none — plus the short-prefix edge cases.
// The decoder must never panic; whatever it accepts must round-trip
// through node.EncodeEnvelope. Every input also goes through
// one wire.Decoder reused across all invocations, as a driver's receive
// loop does: node.DecodeEnvelope on it must agree with the one-shot
// wire.Decode of the frame bytes on accept/reject and on every field,
// parts included, and what a handler may keep of the previous accepted
// frame — a clone of Info and a copy of Payload, whatever the kind (the
// frame itself is valid only until the decoder's next use), and the
// parts — must read the same after the next call. Run with `go test -fuzz FuzzDecodeEnvelope
// ./internal/live` for a real session; as a plain test it replays the
// corpus.
func FuzzDecodeEnvelope(f *testing.F) {
	seeds := []struct {
		stream core.HostID
		frame  wire.Frame
	}{
		{0, wire.Frame{From: 1, Message: core.Message{Kind: core.MsgData, Seq: 9, Payload: []byte("payload")}}},
		{1, wire.Frame{From: 2, Message: core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(1, 8), Parent: 3}}},
		{7, wire.Frame{From: 3, Message: core.Message{Kind: core.MsgAttachReq, Info: seqset.FromSlice([]seqset.Seq{2, 5})}}},
		{1 << 20, wire.Frame{From: 4, Message: core.Message{Kind: core.MsgBundle, Parts: []core.Message{
			{Kind: core.MsgDetach},
			{Kind: core.MsgData, Seq: 1, GapFill: true},
		}}}},
		{2, wire.Frame{From: 5, Message: core.Message{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 12)}}},
		{2, wire.Frame{From: 6, Message: core.Message{Kind: core.MsgAttachReject}}},
		{2, wire.Frame{From: 6, Message: core.Message{Kind: core.MsgDetach}}},
		{3, wire.Frame{From: 7, Message: core.Message{Kind: core.MsgInfoDelta,
			Info: seqset.FromSlice([]seqset.Seq{6, 7, 10}), Parent: 1, Seq: 10, CheckLen: 8}}},
		{3, wire.Frame{From: 8, Message: core.Message{Kind: core.MsgEcho, Seq: 4, CheckLen: 0xdecafbad}}},
		{3, wire.Frame{From: 9, Message: core.Message{Kind: core.MsgReady, Seq: 4, CheckLen: 0xdecafbad}}},
		// Adversarial shapes from the Byzantine fault-injection layer
		// (internal/adversary). An equivocated pair: the same (from, seq)
		// under two different payloads — each variant is a legal envelope,
		// and the decoder must treat both impartially (detecting the
		// conflict is the protocol's job, not the codec's).
		{4, wire.Frame{From: 10, Message: core.Message{Kind: core.MsgData, Seq: 21, Payload: []byte("genuine")}}},
		{4, wire.Frame{From: 10, Message: core.Message{Kind: core.MsgData, Seq: 21, Payload: []byte("forged-for-5")}}},
		// An oversized single-run INFO claim (interval-coded, so legal on
		// the wire however absurd), and a delta whose checksum can never
		// verify against its runs.
		{5, wire.Frame{From: 11, Message: core.Message{Kind: core.MsgInfo,
			Info: seqset.FromRange(1, 1<<40), Parent: 3}}},
		{5, wire.Frame{From: 12, Message: core.Message{Kind: core.MsgInfoDelta,
			Info: seqset.FromSlice([]seqset.Seq{2}), Seq: 0, CheckLen: ^uint64(0)}}},
		// Catch-up sync kinds: a range request, a part-carrying response
		// that also reports a pruned subset and advertises a snapshot
		// watermark, a resuming snapshot request, and a snapshot chunk.
		{6, wire.Frame{From: 13, Message: core.Message{Kind: core.MsgSyncReq, Seq: 2,
			Info: seqset.FromSlice([]seqset.Seq{2, 3, 7})}}},
		{6, wire.Frame{From: 14, Message: core.Message{Kind: core.MsgSyncResp, Seq: 2,
			Parts: []core.Message{
				{Kind: core.MsgData, Seq: 3, Payload: []byte("fill"), GapFill: true},
			},
			Info: seqset.FromRange(2, 2), CheckLen: 6}}},
		{6, wire.Frame{From: 15, Message: core.Message{Kind: core.MsgSnapReq, Seq: 1024, CheckLen: 6}}},
		{6, wire.Frame{From: 16, Message: core.Message{Kind: core.MsgSnapChunk, Seq: 1024,
			Payload: []byte("chunk"), CheckLen: 4096, Info: seqset.FromRange(1, 6)}}},
	}
	var seeded [core.NumMsgKinds]bool
	for _, s := range seeds {
		env, err := node.EncodeEnvelope(s.stream, s.frame)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add([]byte(*env))
		seeded[s.frame.Message.Kind] = true
	}
	for k := core.MsgData; k < core.NumMsgKinds; k++ {
		if !seeded[k] {
			f.Fatalf("no seed envelope of kind %v", k)
		}
	}
	// The framing edge: empty, shorter than the 4-byte stream prefix,
	// exactly the prefix, and a prefix followed by garbage.
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02})
	f.Add([]byte{0, 0, 0, 5})
	f.Add(append([]byte{0, 0, 0, 5}, 0xFF, 0xB7, 0x00))

	var reused wire.Decoder
	var kept, keptWant *wire.Frame // of the previous accepted input
	f.Fuzz(func(t *testing.T, data []byte) {
		stream, frame, err := node.DecodeEnvelope(&reused, data)
		if kept != nil && !framesEqual(*kept, *keptWant) {
			t.Fatalf("decoding %x changed what was kept of the previous frame:\n%+v\nwant\n%+v", data, *kept, *keptWant)
		}
		kept, keptWant = nil, nil
		want, wantErr := wire.Decode(data[min(4, len(data)):])
		if accepted := len(data) >= 4 && wantErr == nil; (err == nil) != accepted {
			t.Fatalf("DecodeEnvelope on the reused Decoder says %v; of %d bytes, one-shot wire.Decode past the stream prefix says %v", err, len(data), wantErr)
		}
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if !framesEqual(frame, want) {
			t.Fatalf("DecodeEnvelope on the reused Decoder diverged from wire.Decode:\n%+v\nvs\n%+v", frame, want)
		}
		held := frame
		held.Message.Payload = bytes.Clone(frame.Message.Payload)
		held.Message.Info = frame.Message.Info.Clone()
		kept, keptWant = &held, &want

		env, err := node.EncodeEnvelope(stream, frame)
		if err != nil {
			t.Fatalf("re-encode of accepted envelope failed: %v (stream %d, frame %+v)", err, stream, frame)
		}
		re := []byte(*env)
		// The stream prefix is fixed-width, so it round-trips exactly.
		if !bytes.Equal(re[:4], data[:4]) {
			t.Fatalf("stream prefix diverged: in %x, out %x", data[:4], re[:4])
		}
		// The frame body round-trips semantically (the wire decoder
		// tolerates some non-canonical encodings, such as unused flag
		// bits, so byte equality would be too strong). A second decoder
		// keeps the first frame's storage intact for the comparison.
		var dec2 wire.Decoder
		stream2, frame2, err := node.DecodeEnvelope(&dec2, re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if stream2 != stream {
			t.Fatalf("stream diverged: %d vs %d", stream, stream2)
		}
		if !framesEqual(frame2, frame) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", frame, frame2)
		}
	})
}

func framesEqual(a, b wire.Frame) bool {
	return a.From == b.From && messagesEqual(a.Message, b.Message)
}

// messagesEqual compares every field, parts included; payloads by
// content (nil and empty are one) and Info by membership.
func messagesEqual(a, b core.Message) bool {
	if a.Kind != b.Kind || a.Seq != b.Seq || a.GapFill != b.GapFill ||
		a.Parent != b.Parent || a.CheckLen != b.CheckLen ||
		string(a.Payload) != string(b.Payload) || !a.Info.Equal(b.Info) ||
		len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if !messagesEqual(a.Parts[i], b.Parts[i]) {
			return false
		}
	}
	return true
}
