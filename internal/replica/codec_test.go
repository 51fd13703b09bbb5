package replica_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rbcast/internal/allocs"
	"rbcast/internal/replica"
)

func encode(t testing.TB, u replica.Update) []byte {
	t.Helper()
	enc, err := replica.EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestApplyEncodedAllocs pins what the in-place apply costs: an update
// that loses, or repeats the winning row, allocates nothing; one that wins
// on an existing key allocates its value and nothing else; and a
// checkpoint of many rows is two allocations, the sorted rows and the
// buffer.
func TestApplyEncodedAllocs(t *testing.T) {
	s := replica.NewStore()
	for k := 0; k < 50; k++ {
		s.Apply(replica.Update{Key: fmt.Sprintf("k%02d", k), Value: "initial", Stamp: 100})
	}
	losing := encode(t, replica.Update{Key: "k07", Value: "stale", Stamp: 99})
	repeat := encode(t, replica.Update{Key: "k07", Value: "initial", Stamp: 100})
	var winning [][]byte
	for i := 0; i < 200; i++ {
		winning = append(winning, encode(t, replica.Update{Key: "k07", Value: fmt.Sprintf("v%05d", i), Stamp: uint64(101 + i)}))
	}
	apply := func(data []byte) {
		if _, err := s.ApplyEncoded(data); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { apply(losing) }); got != 0 {
		t.Errorf("a losing update allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { apply(repeat) }); got != 0 {
		t.Errorf("a repeated update allocates %v times, want 0", got)
	}
	next := 0
	if got := testing.AllocsPerRun(100, func() { apply(winning[next]); next++ }); got > 1 {
		t.Errorf("an update winning on an existing key allocates %v times, want at most 1 (its value)", got)
	}
	if v, _ := s.Get("k07"); v != fmt.Sprintf("v%05d", next-1) {
		t.Errorf("k07 = %q after %d winning updates", v, next)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := replica.EncodeCheckpoint(s, 7); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("a checkpoint of %d rows allocates %v times, want at most 2", s.Len(), got)
	}
}

// TestApplyEncodedKeepsNoView: the store keeps copies of what it takes
// from an encoded update, so the buffer it came in may be overwritten at
// once — as a decoder's reused buffer is — without changing a row: a new
// key, a winning value on an existing key, and a deletion.
func TestApplyEncodedKeepsNoView(t *testing.T) {
	s := replica.NewStore()
	for _, u := range []replica.Update{
		{Key: "fresh", Value: "first", Stamp: 1},
		{Key: "fresh", Value: "second", Stamp: 2},
		{Key: "other", Value: "kept", Stamp: 1},
		{Key: "other", Value: "tomb", Stamp: 2, Delete: true},
	} {
		data := encode(t, u)
		if changed, err := s.ApplyEncoded(data); err != nil || !changed {
			t.Fatalf("%+v: changed %v, err %v", u, changed, err)
		}
		for i := range data {
			data[i] = 'X'
		}
	}
	if got, want := s.Fingerprint(), `"fresh"="second"@2/0;"other"="tomb"@2/0!;`; got != want {
		t.Errorf("after the buffers were overwritten the store reads\n  %s\nwant\n  %s", got, want)
	}
}

// TestApplyEncodedMatchesDecodeApply: over random updates with frequent
// ties, and their truncations, the in-place apply decides exactly as
// DecodeUpdate followed by Apply: the same errors, the same changed
// reports, the same state.
func TestApplyEncodedMatchesDecodeApply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inPlace, reference := replica.NewStore(), replica.NewStore()
	for i := 0; i < 3000; i++ {
		data := encode(t, replica.Update{
			Key:    string(rune('a' + rng.Intn(4))),
			Value:  string(rune('a' + rng.Intn(3))),
			Stamp:  uint64(rng.Intn(6)),
			Origin: uint32(rng.Intn(3)),
			Delete: rng.Intn(5) == 0,
		})
		if rng.Intn(8) == 0 {
			data = data[:rng.Intn(len(data))]
		}
		checkApplyEncoded(t, inPlace, reference, data)
	}
}

// checkApplyEncoded applies data to both stores, in place and through
// DecodeUpdate, and fails on any difference.
func checkApplyEncoded(t *testing.T, inPlace, reference *replica.Store, data []byte) {
	t.Helper()
	changed, err := inPlace.ApplyEncoded(data)
	u, decErr := replica.DecodeUpdate(data)
	if (err == nil) != (decErr == nil) || (err != nil && !errors.Is(err, decErr)) {
		t.Fatalf("ApplyEncoded(%x) says %v, DecodeUpdate %v", data, err, decErr)
	}
	if decErr == nil {
		if want := reference.Apply(u); changed != want {
			t.Fatalf("ApplyEncoded(%+v) reports changed %v, Apply %v", u, changed, want)
		}
	}
	if a, b := inPlace.Fingerprint(), reference.Fingerprint(); a != b {
		t.Fatalf("after %x the stores differ:\n  in place  %s\n  reference %s", data, a, b)
	}
}

// FuzzApplyEncoded: whatever the bytes, ApplyEncoded does not panic,
// honours the codec's limits as DecodeUpdate does, and leaves the store
// as DecodeUpdate followed by Apply would; a valid update round-trips
// through EncodeUpdate; and the store keeps nothing of the input buffer.
func FuzzApplyEncoded(f *testing.F) {
	for _, u := range []replica.Update{
		{Key: "k", Value: "v", Stamp: 3, Origin: 1},
		{Key: "k", Value: "w", Stamp: 3, Origin: 1},
		{Key: "k", Value: "v", Stamp: 2, Origin: 9},
		{Key: "k", Stamp: 3, Origin: 1, Delete: true},
		{Key: "new", Value: "x", Stamp: 1},
		{},
	} {
		f.Add(encode(f, u))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		inPlace, reference := replica.NewStore(), replica.NewStore()
		for _, s := range []*replica.Store{inPlace, reference} {
			s.Apply(replica.Update{Key: "k", Value: "v", Stamp: 3, Origin: 1})
			s.Apply(replica.Update{Key: "gone", Stamp: 5, Delete: true})
		}
		checkApplyEncoded(t, inPlace, reference, data)
		u, err := replica.DecodeUpdate(data)
		if err != nil {
			return
		}
		if len(u.Key) > replica.MaxKeyLen || len(u.Value) > replica.MaxValueLen {
			t.Fatalf("decoded a %d-byte key and a %d-byte value past the limits", len(u.Key), len(u.Value))
		}
		enc, err := replica.EncodeUpdate(u)
		if err != nil {
			t.Fatalf("a decoded update does not encode: %v", err)
		}
		if back, err := replica.DecodeUpdate(enc); err != nil || back != u {
			t.Fatalf("%+v encodes to %x, which decodes to %+v, %v", u, enc, back, err)
		}
		before := inPlace.Fingerprint()
		for i := range data {
			data[i] ^= 0xff
		}
		if after := inPlace.Fingerprint(); after != before {
			t.Fatalf("overwriting the applied buffer changed the store:\n  %s\n  %s", before, after)
		}
	})
}

// TestCheckpointHeaderReservesNothing: a 14-byte checkpoint whose header
// claims the most rows the decoder accepts holds none of them, so it is
// rejected before anything is reserved for the rows it claims.
func TestCheckpointHeaderReservesNothing(t *testing.T) {
	data := binary.BigEndian.AppendUint32([]byte{0xC4, 1, 0, 0, 0, 0, 0, 0, 0, 9}, replica.MaxCheckpointRows)
	reject := func() {
		if _, _, err := replica.DecodeCheckpoint(data); !errors.Is(err, replica.ErrBadCheckpoint) {
			t.Fatalf("a header claiming %d rows and no row decodes with %v, want ErrBadCheckpoint", replica.MaxCheckpointRows, err)
		}
	}
	if got := allocs.MinBytes(10, 1, func() func() { return reject }); got > 512 {
		t.Errorf("a header claiming %d rows costs %d bytes to reject, want at most 512", replica.MaxCheckpointRows, got)
	}
}

// FuzzDecodeCheckpoint: whatever the bytes, DecodeCheckpoint does not
// panic, rejects with ErrBadCheckpoint, and honours its limits; a
// checkpoint it accepts installs into a store whose own checkpoint
// decodes to the same watermark and state; and a checkpoint
// EncodeCheckpoint wrote round-trips byte for byte.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, rows := range [][]replica.Update{
		nil,
		{{Key: "a", Value: "1", Stamp: 1, Origin: 1}},
		{{Key: "b", Value: "2", Stamp: 2, Origin: 1}, {Key: "a", Value: "1", Stamp: 1}, {Key: "gone", Stamp: 3, Origin: 2, Delete: true}},
	} {
		s := replica.NewStore()
		s.InstallRows(rows)
		enc, err := replica.EncodeCheckpoint(s, uint64(len(rows)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{0xC4, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0xff, 0xff, 0xff, 0xff})
	f.Add(binary.BigEndian.AppendUint32([]byte{0xC4, 1, 0, 0, 0, 0, 0, 0, 0, 9}, replica.MaxCheckpointRows))
	f.Fuzz(func(t *testing.T, data []byte) {
		mark, rows, err := replica.DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, replica.ErrBadCheckpoint) {
				t.Fatalf("rejected with %v, not ErrBadCheckpoint", err)
			}
			return
		}
		if len(rows) > replica.MaxCheckpointRows {
			t.Fatalf("accepted %d rows, limit %d", len(rows), replica.MaxCheckpointRows)
		}
		for _, u := range rows {
			if len(u.Key) > replica.MaxKeyLen || len(u.Value) > replica.MaxValueLen {
				t.Fatalf("accepted a %d-byte key and a %d-byte value past the limits", len(u.Key), len(u.Value))
			}
		}
		s := replica.NewStore()
		s.InstallRows(rows)
		enc, err := replica.EncodeCheckpoint(s, mark)
		if err != nil {
			t.Fatalf("the installed state does not encode: %v", err)
		}
		mark2, rows2, err := replica.DecodeCheckpoint(enc)
		if err != nil || mark2 != mark {
			t.Fatalf("re-encoded checkpoint decodes to watermark %d, %v; want %d", mark2, err, mark)
		}
		again := replica.NewStore()
		again.InstallRows(rows2)
		if a, b := again.Fingerprint(), s.Fingerprint(); a != b {
			t.Fatalf("state after a round trip:\n  %s\nwant\n  %s", a, b)
		}
		if enc2, _ := replica.EncodeCheckpoint(again, mark); string(enc2) != string(enc) {
			t.Fatalf("an encoded checkpoint does not round-trip byte for byte:\n  %x\n  %x", enc, enc2)
		}
	})
}
