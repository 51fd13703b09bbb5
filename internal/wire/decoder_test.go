package wire_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

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

// TestDecodeHostileFrames: every truncation prefix of a frame of every
// kind, and every such frame with a 4-byte window at any offset
// overwritten by 0xFFFFFFFF — a length, count, id or sequence half at its
// largest — goes through Decode and one reused Decoder without a panic.
// And none costs more than the decoder's limits allow: a part list
// sized for MaxParts messages (it is made before the parts are read),
// plus a small multiple of the frame's own length for the payload copies
// and interval lists, plus the error. A length checked only after it
// sized an allocation shows up as a budget overrun, one never checked
// against the bytes present as a panic.
func TestDecodeHostileFrames(t *testing.T) {
	var hostile [][]byte
	for _, f := range kindCorpus() {
		data, err := wire.Encode(f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Message.Kind, err)
		}
		for cut := 0; cut < len(data); cut++ {
			hostile = append(hostile, data[:cut])
		}
		// Back to front: a window meets a count's low bytes first, so a
		// count used unchecked fails the budget at 2¹⁶ with a message
		// instead of asking the runtime for 2³² entries and dying.
		for off := len(data) - 4; off >= 0; off-- {
			b := bytes.Clone(data)
			binary.BigEndian.PutUint32(b[off:], 0xFFFFFFFF)
			hostile = append(hostile, b)
		}
	}
	budget := func(data []byte) uint64 {
		return wire.MaxParts*uint64(unsafe.Sizeof(core.Message{})) + 8*uint64(len(data)) + 1024
	}
	var reused wire.Decoder
	for _, dec := range []struct {
		name   string
		decode func([]byte) (wire.Frame, error)
	}{
		{"Decode", wire.Decode},
		{"Decoder.Decode", reused.Decode},
	} {
		for _, data := range hostile {
			// TotalAlloc is process-wide, so a background allocation can
			// land inside one measurement: the least of three is what the
			// decode costs.
			least := uint64(math.MaxUint64)
			for range 3 {
				cost, panicked := decodeCost(dec.decode, data)
				if panicked != nil {
					t.Fatalf("%s panicked on %x: %v", dec.name, data, panicked)
				}
				least = min(least, cost)
			}
			if least > budget(data) {
				t.Fatalf("%s allocated at least %d bytes on the %d-byte frame %x, budget %d",
					dec.name, least, len(data), data, budget(data))
			}
		}
	}
	t.Logf("%d hostile frames through each decoder", len(hostile))
}

// decodeCost runs decode on data and reports what it allocated, in bytes,
// and the value it panicked with, if it did.
func decodeCost(decode func([]byte) (wire.Frame, error), data []byte) (allocated uint64, panicked any) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() { panicked = recover() }()
		_, _ = decode(data)
	}()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, panicked
}
