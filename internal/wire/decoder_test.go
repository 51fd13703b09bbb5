package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

// TestDecoderMatchesDecode pins a reused Decoder against the one-shot
// Decode wrapper across frame shapes, part-carrying ones included.
func TestDecoderMatchesDecode(t *testing.T) {
	frames := []wire.Frame{
		typicalInfoFrame(),
		{From: 1, Message: core.Message{Kind: core.MsgData, Seq: 9, Payload: []byte("payload")}},
		{From: 2, Message: core.Message{Kind: core.MsgAttachReject}},
		{From: 4, Message: core.Message{Kind: core.MsgInfoDelta,
			Info: seqset.FromSlice([]seqset.Seq{50, 52}), Parent: 1, Seq: 52, CheckLen: 40}},
		{From: 7, Message: core.Message{Kind: core.MsgEcho, Seq: 3, CheckLen: 0xdeadbeef}},
		{From: 8, Message: core.Message{Kind: core.MsgSnapChunk, Seq: 12,
			Payload: []byte("chunk"), CheckLen: 512}},
		{From: 5, Message: core.Message{Kind: core.MsgBundle, Parts: []core.Message{
			{Kind: core.MsgAttachAccept, Info: seqset.FromRange(1, 9)},
			{Kind: core.MsgData, Seq: 8, Payload: []byte("x"), GapFill: true},
		}}},
		{From: 6, Message: core.Message{Kind: core.MsgSyncResp, Seq: 2,
			Parts: []core.Message{
				{Kind: core.MsgData, Seq: 3, Payload: []byte("fill"), GapFill: true},
				{Kind: core.MsgData, Seq: 4, Payload: []byte("more"), GapFill: true},
			},
			Info: seqset.FromRange(2, 2), CheckLen: 6}},
	}
	var d wire.Decoder
	for _, f := range frames {
		data, err := wire.Encode(f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Message.Kind, err)
		}
		want, err := wire.Decode(data)
		if err != nil {
			t.Fatalf("%v: Decode: %v", f.Message.Kind, err)
		}
		got, err := d.Decode(data)
		if err != nil {
			t.Fatalf("%v: Decoder.Decode: %v", f.Message.Kind, err)
		}
		if got.From != want.From || got.Message.Kind != want.Message.Kind ||
			got.Message.GapFill != want.Message.GapFill ||
			got.Message.Parent != want.Message.Parent ||
			got.Message.Seq != want.Message.Seq ||
			got.Message.CheckLen != want.Message.CheckLen ||
			!bytes.Equal(got.Message.Payload, want.Message.Payload) ||
			!got.Message.Info.Equal(want.Message.Info) ||
			!reflect.DeepEqual(got.Message.Parts, want.Message.Parts) {
			t.Errorf("%v: Decoder diverged from Decode:\n%+v\nvs\n%+v",
				f.Message.Kind, got, want)
		}
	}
}

// TestDecoderBundleMatchesDecode: a reused Decoder parses part-carrying
// frames itself, and the parts it returns own their storage — decoding
// another frame afterwards leaves them intact.
func TestDecoderBundleMatchesDecode(t *testing.T) {
	f := wire.Frame{From: 5, Message: core.Message{Kind: core.MsgBundle, Parts: []core.Message{
		{Kind: core.MsgInfo, Info: seqset.FromSlice([]seqset.Seq{1, 3, 9}), Parent: 7},
		{Kind: core.MsgData, Seq: 8, Payload: []byte("x")},
	}}}
	data, err := wire.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Decoder
	got, err := d.Decode(data)
	if err != nil {
		t.Fatalf("bundle through Decoder: %v", err)
	}
	other, err := wire.Encode(wire.Frame{From: 2, Message: core.Message{
		Kind: core.MsgData, Seq: 1, Payload: []byte("overwrite"), Info: seqset.FromRange(100, 200)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(other); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bundle through Decoder diverged from Decode:\n%+v\nvs\n%+v", got, want)
	}
}

// TestDecoderRequiresCanonicalRuns: there is one acceptance rule — the
// sorted, non-overlapping, non-adjacent run coding a conforming encoder
// emits. Both entry points reject interval soup as malformed.
func TestDecoderRequiresCanonicalRuns(t *testing.T) {
	data, err := wire.Encode(typicalInfoFrame())
	if err != nil {
		t.Fatal(err)
	}
	// The frame has no payload: the interval count sits right after the
	// header's 4-byte payload length. Swap the first two intervals.
	off := 20 + 4 + 4 // header, payload length, interval count
	bad := append([]byte(nil), data...)
	tmp := make([]byte, 16)
	copy(tmp, bad[off:off+16])
	copy(bad[off:off+16], bad[off+16:off+32])
	copy(bad[off+16:off+32], tmp)
	if _, err := wire.Decode(bad); err == nil {
		t.Fatal("Decode accepted non-canonical interval coding")
	}
	var d wire.Decoder
	if _, err := d.Decode(bad); err == nil {
		t.Fatal("Decoder accepted non-canonical interval coding")
	}
}

// TestDecoderReuseIsolation: mutating a returned Info (copy-on-write)
// and decoding further frames must not corrupt one another within the
// documented validity window.
func TestDecoderReuseIsolation(t *testing.T) {
	fa := typicalInfoFrame()
	da, err := wire.Encode(fa)
	if err != nil {
		t.Fatal(err)
	}
	fb := wire.Frame{From: 2, Message: core.Message{
		Kind: core.MsgInfo, Info: seqset.FromRange(7, 9)}}
	db, err := wire.Encode(fb)
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Decoder
	got, err := d.Decode(da)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the returned set copies first (cow), leaving the
	// decoder's buffer untouched.
	mutated := got.Message.Info
	mutated.Add(5000)
	keep := got.Message.Info.Clone()
	got2, err := d.Decode(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Message.Info.Equal(seqset.FromRange(7, 9)) {
		t.Errorf("second decode Info = %v", got2.Message.Info)
	}
	if !keep.Equal(fa.Message.Info) {
		t.Errorf("cloned Info corrupted: %v", keep)
	}
}

// TestDecoderZeroAllocs is the point of the type: a warm Decoder decodes
// a frame of any partless kind without allocating. The two part-carrying
// kinds give each part storage it owns (see TestDecoderBundleMatchesDecode),
// and are held to that budget.
func TestDecoderZeroAllocs(t *testing.T) {
	budget := map[core.MsgKind]float64{core.MsgBundle: 4, core.MsgSyncResp: 3}
	frames := kindCorpus()
	encoded := make([][]byte, len(frames))
	var d wire.Decoder
	for i, f := range frames {
		data, err := wire.Encode(f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Message.Kind, err)
		}
		encoded[i] = data
		if _, err := d.Decode(data); err != nil {
			t.Fatalf("%v: decode: %v", f.Message.Kind, err)
		}
	}
	for i, f := range frames {
		kind := f.Message.Kind
		t.Run(kind.String(), func(t *testing.T) {
			var decErr error
			allocs := testing.AllocsPerRun(200, func() {
				_, decErr = d.Decode(encoded[i])
			})
			if decErr != nil {
				t.Fatal(decErr)
			}
			if allocs > budget[kind] {
				t.Errorf("Decoder.Decode: %.1f allocs/op, want <= %.0f", allocs, budget[kind])
			}
		})
	}
}

// TestDecoderTruncation drives the same truncation sweep the general
// decoder gets in wire_test.go.
func TestDecoderTruncation(t *testing.T) {
	data, err := wire.Encode(typicalInfoFrame())
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Decoder
	for cut := 0; cut < len(data); cut++ {
		if _, err := d.Decode(data[:cut]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes accepted", cut, len(data))
		}
	}
}
