package wire_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

func roundTrip(t *testing.T, f wire.Frame) wire.Frame {
	t.Helper()
	data, err := wire.Encode(f)
	if err != nil {
		t.Fatalf("Encode(%+v): %v", f, err)
	}
	got, err := wire.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
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

func TestRoundTripKinds(t *testing.T) {
	info := seqset.FromSlice([]seqset.Seq{1, 2, 3, 7, 9})
	frames := []wire.Frame{
		{From: 1, Message: core.Message{Kind: core.MsgData, Seq: 42, Payload: []byte("hello")}},
		{From: 2, Message: core.Message{Kind: core.MsgData, Seq: 7, Payload: nil, GapFill: true}},
		{From: 3, Message: core.Message{Kind: core.MsgInfo, Info: info, Parent: 9}},
		{From: 4, Message: core.Message{Kind: core.MsgAttachReq, Info: info}},
		{From: 5, Message: core.Message{Kind: core.MsgAttachAccept, Info: info}},
		{From: 6, Message: core.Message{Kind: core.MsgAttachReject}},
		{From: 7, Message: core.Message{Kind: core.MsgDetach}},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if !framesEqual(f, got) {
			t.Errorf("round trip mismatch:\n in  %+v\n out %+v", f, got)
		}
	}
}

func TestRoundTripEmptyInfo(t *testing.T) {
	f := wire.Frame{From: 1, Message: core.Message{Kind: core.MsgInfo}}
	got := roundTrip(t, f)
	if !got.Message.Info.Empty() {
		t.Errorf("empty INFO decoded as %v", got.Message.Info)
	}
}

func TestEncodeRejectsBadKind(t *testing.T) {
	if _, err := wire.Encode(wire.Frame{Message: core.Message{Kind: 0}}); err == nil {
		t.Error("kind 0 accepted")
	}
	if _, err := wire.Encode(wire.Frame{Message: core.Message{Kind: 99}}); err == nil {
		t.Error("kind 99 accepted")
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	f := wire.Frame{Message: core.Message{
		Kind:    core.MsgData,
		Seq:     1,
		Payload: make([]byte, wire.MaxPayload+1),
	}}
	if _, err := wire.Encode(f); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good, err := wire.Encode(wire.Frame{From: 1, Message: core.Message{
		Kind: core.MsgData, Seq: 5, Payload: []byte("x"),
		Info: seqset.FromRange(1, 4),
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:10],
		"bad magic":    append([]byte{0x00}, good[1:]...),
		"bad version":  append([]byte{good[0], 99}, good[2:]...),
		"bad kind":     append([]byte{good[0], good[1], 0x77}, good[3:]...),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte(nil), good...), 0xFF),
	}
	for name, data := range cases {
		if _, err := wire.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted malformed frame", name)
		}
	}
}

func TestDecodeRejectsHugeDeclaredLengths(t *testing.T) {
	good, err := wire.Encode(wire.Frame{From: 1, Message: core.Message{Kind: core.MsgData, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Payload length field sits right after the 20-byte header. Declare a
	// gigantic payload; the decoder must refuse rather than allocate.
	data := append([]byte(nil), good...)
	data[20], data[21], data[22], data[23] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := wire.Decode(data); err == nil {
		t.Error("huge declared payload accepted")
	}
}

func TestDecodeRejectsInvalidIntervals(t *testing.T) {
	// Hand-build a frame whose interval has Lo > Hi.
	f := wire.Frame{From: 1, Message: core.Message{Kind: core.MsgInfo, Info: seqset.FromRange(5, 9)}}
	data, err := wire.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// The single interval's Lo is the 8 bytes after header+payloadlen(4)+
	// payload(0)+count(4); swap Lo/Hi by rewriting Lo to a huge value.
	loOff := len(data) - 16
	for i := 0; i < 8; i++ {
		data[loOff+i] = 0xFF
	}
	if _, err := wire.Decode(data); err == nil {
		t.Error("interval with Lo > Hi accepted")
	}
}

// Property: arbitrary valid frames survive the round trip bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var info seqset.Set
		for i, n := 0, rng.Intn(30); i < n; i++ {
			info.Add(seqset.Seq(rng.Intn(500) + 1))
		}
		payload := make([]byte, rng.Intn(256))
		rng.Read(payload)
		frame := wire.Frame{
			From: core.HostID(rng.Intn(1000) + 1),
			Message: core.Message{
				Kind:    core.MsgKind(rng.Intn(6) + 1),
				Seq:     seqset.Seq(rng.Uint64()),
				Payload: payload,
				GapFill: rng.Intn(2) == 0,
				Info:    info,
				Parent:  core.HostID(rng.Intn(1000)),
			},
		}
		data, err := wire.Encode(frame)
		if err != nil {
			return false
		}
		got, err := wire.Decode(data)
		if err != nil {
			return false
		}
		return framesEqual(frame, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary bytes (it may error).
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("Decode panicked on %x", data)
			}
		}()
		_, _ = wire.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeData(b *testing.B) {
	f := wire.Frame{From: 1, Message: core.Message{
		Kind: core.MsgData, Seq: 12345, Payload: make([]byte, 256),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInfo(b *testing.B) {
	var info seqset.Set
	for q := seqset.Seq(1); q <= 2000; q += 3 {
		info.AddRange(q, q+1)
	}
	data, err := wire.Encode(wire.Frame{From: 1, Message: core.Message{Kind: core.MsgInfo, Info: info}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecKinds measures an encode+decode round trip of one frame
// of every message kind. The corpus is written out in the function body
// because wirelint scans it: a kind not named here has no regression
// tripwire for its codec cost, and `make lint` says so.
func BenchmarkCodecKinds(b *testing.B) {
	b.ReportAllocs()
	info := seqset.FromRange(1, 64)
	info.AddRange(70, 90)
	frames := []wire.Frame{
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
