package wire_test

import (
	"testing"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

// typicalInfoFrame is the steady-state workload: a periodic INFO
// advertisement with a mostly-contiguous set and a couple of holes.
func typicalInfoFrame() wire.Frame {
	info := seqset.FromRange(1, 120)
	info.AddRange(125, 180)
	info.AddRange(190, 200)
	return wire.Frame{From: 3, Message: core.Message{
		Kind:   core.MsgInfo,
		Info:   info,
		Parent: 2,
	}}
}

// TestAppendEncodeZeroAllocs is the codec's allocation budget: encoding
// a frame of any kind into a reused buffer must not allocate at all.
// The udp and live transports rely on this for garbage-free sends.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, f := range kindCorpus() {
		t.Run(f.Message.Kind.String(), func(t *testing.T) {
			var encErr error
			allocs := testing.AllocsPerRun(200, func() {
				buf, encErr = wire.AppendEncode(buf[:0], f)
			})
			if encErr != nil {
				t.Fatal(encErr)
			}
			if allocs != 0 {
				t.Errorf("AppendEncode into reused buffer: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestEncodedSizeZeroAllocs: pricing a frame of any kind allocates
// nothing — the simulator prices every logical send this way.
func TestEncodedSizeZeroAllocs(t *testing.T) {
	for _, f := range kindCorpus() {
		t.Run(f.Message.Kind.String(), func(t *testing.T) {
			var sizeErr error
			allocs := testing.AllocsPerRun(200, func() {
				_, sizeErr = wire.EncodedSize(f)
			})
			if sizeErr != nil {
				t.Fatal(sizeErr)
			}
			if allocs != 0 {
				t.Errorf("EncodedSize: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestEncodeAllocBudget pins the convenience wrapper to exactly one
// allocation (the exact-size output buffer).
func TestEncodeAllocBudget(t *testing.T) {
	f := typicalInfoFrame()
	var encErr error
	allocs := testing.AllocsPerRun(200, func() {
		_, encErr = wire.Encode(f)
	})
	if encErr != nil {
		t.Fatal(encErr)
	}
	if allocs > 1 {
		t.Errorf("Encode: %.1f allocs/op, want <= 1", allocs)
	}
}

// TestDecodeAllocBudget bounds the decoder: a typical INFO frame must
// decode in a handful of allocations (interval scratch + the set's run
// storage), so a regression to per-element work shows up here.
func TestDecodeAllocBudget(t *testing.T) {
	data, err := wire.Encode(typicalInfoFrame())
	if err != nil {
		t.Fatal(err)
	}
	var decErr error
	allocs := testing.AllocsPerRun(200, func() {
		_, decErr = wire.Decode(data)
	})
	if decErr != nil {
		t.Fatal(decErr)
	}
	if allocs > 6 {
		t.Errorf("Decode: %.1f allocs/op, want <= 6", allocs)
	}
}

// TestEncodedSizeMatchesEncode checks the size predictor against the
// real encoder across every kind, including bundles and deltas.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	frames := []wire.Frame{
		typicalInfoFrame(),
		{From: 1, Message: core.Message{Kind: core.MsgData, Seq: 9, Payload: []byte("payload")}},
		{From: 2, Message: core.Message{Kind: core.MsgAttachReject}},
		{From: 4, Message: core.Message{Kind: core.MsgInfoDelta,
			Info: seqset.FromSlice([]seqset.Seq{50, 52}), Parent: 1, Seq: 52, CheckLen: 40}},
		{From: 5, Message: core.Message{Kind: core.MsgBundle, Parts: []core.Message{
			{Kind: core.MsgInfo, Info: seqset.FromRange(1, 7), Parent: 2},
			{Kind: core.MsgData, Seq: 8, Payload: []byte("x"), GapFill: true},
			{Kind: core.MsgInfoDelta, Info: seqset.FromSlice([]seqset.Seq{9}), Seq: 9, CheckLen: 9},
		}}},
	}
	for _, f := range frames {
		data, err := wire.Encode(f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Message.Kind, err)
		}
		size, err := wire.EncodedSize(f)
		if err != nil {
			t.Fatalf("%v: EncodedSize: %v", f.Message.Kind, err)
		}
		if size != len(data) {
			t.Errorf("%v: EncodedSize = %d, encoded length %d", f.Message.Kind, size, len(data))
		}
	}
}

// TestInfoDeltaRoundTrip pins the delta frame's extra fields through
// encode/decode.
func TestInfoDeltaRoundTrip(t *testing.T) {
	f := wire.Frame{From: 9, Message: core.Message{
		Kind:     core.MsgInfoDelta,
		Info:     seqset.FromSlice([]seqset.Seq{100, 101, 105}),
		Parent:   4,
		Seq:      105,
		CheckLen: 88,
	}}
	data, err := wire.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != f.From || got.Message.Kind != f.Message.Kind ||
		got.Message.Parent != f.Message.Parent || got.Message.Seq != f.Message.Seq ||
		got.Message.CheckLen != f.Message.CheckLen ||
		!got.Message.Info.Equal(f.Message.Info) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", f, got)
	}
	// A truncated delta (checksum cut off) must be rejected, not
	// misparsed.
	if _, err := wire.Decode(data[:len(data)-4]); err == nil {
		t.Error("truncated delta frame accepted")
	}
}
