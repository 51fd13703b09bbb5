package wire

import (
	"encoding/binary"
	"fmt"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// Decoder is the frame parser. Reused across calls it decodes partless
// frames with zero steady-state allocation: payload and interval list
// land in internal buffers that the next call overwrites.
//
// The returned Frame's Payload and Info alias the Decoder's buffers and
// are valid only until the next Decode call — the same contract as
// bufio.Scanner.Bytes. Callers that retain them must copy (Payload) or
// Clone or Assign (Info); Info is returned in copy-on-write mode, so
// mutating it through seqset's API is always safe. The parts of a
// part-carrying frame (bundle, sync response) decode into storage of
// their own and stay valid. The interval list must be the canonical
// sorted run coding every conforming encoder emits (see
// seqset.FromSortedRuns).
//
// The zero value is ready to use. A Decoder is not safe for concurrent
// use; each host driver (internal/node) owns one.
type Decoder struct {
	payload []byte
	runs    []seqset.Interval
}

// Decode parses a frame, rejecting malformed or oversized input.
func (d *Decoder) Decode(data []byte) (Frame, error) {
	f, rest, err := d.decodeFields(data)
	if err == nil && kindHasParts(f.Message.Kind) {
		f.Message.Parts, rest, err = decodeParts(f.From, rest)
	}
	if err != nil {
		return Frame{}, err
	}
	if len(rest) != 0 {
		return Frame{}, ErrTrailing
	}
	return f, nil
}

// decodeFields parses the header and the fields every kind carries —
// payload, interval list, CheckLen where the kind has one — into d's
// buffers and returns the bytes that follow them.
// It runs once per datagram in the host driver's receive loop, so a
// warm Decoder allocates nothing here; TestDecoderZeroAllocs holds that
// for every message kind.
func (d *Decoder) decodeFields(data []byte) (f Frame, rest []byte, err error) {
	if len(data) < headerLen {
		return f, nil, ErrTruncated
	}
	if data[0] != magic {
		return f, nil, ErrBadMagic
	}
	if data[1] != version {
		return f, nil, fmt.Errorf("%w: %d", ErrBadVersion, data[1])
	}
	kind := core.MsgKind(data[2])
	if !knownKind(kind) {
		return f, nil, fmt.Errorf("%w: %d", ErrBadKind, data[2])
	}
	f.From = core.HostID(binary.BigEndian.Uint32(data[4:8]))
	f.Message.Kind = kind
	f.Message.GapFill = data[3]&flagGapFill != 0
	f.Message.Parent = core.HostID(binary.BigEndian.Uint32(data[8:12]))
	f.Message.Seq = seqset.Seq(binary.BigEndian.Uint64(data[12:20]))
	rest = data[headerLen:]

	if len(rest) < 4 {
		return f, nil, ErrTruncated
	}
	nPay := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if nPay > MaxPayload {
		return f, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, nPay)
	}
	if uint64(len(rest)) < uint64(nPay) {
		return f, nil, ErrTruncated
	}
	if nPay > 0 {
		d.payload = append(d.payload[:0], rest[:nPay]...)
		f.Message.Payload = d.payload
	}
	rest = rest[nPay:]

	if len(rest) < 4 {
		return f, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if n > MaxIntervals {
		return f, nil, fmt.Errorf("%w: %d intervals", ErrTooLarge, n)
	}
	if uint64(len(rest)) < uint64(n)*16 {
		return f, nil, ErrTruncated
	}
	d.runs = d.runs[:0]
	for i := uint32(0); i < n; i++ {
		lo := seqset.Seq(binary.BigEndian.Uint64(rest[:8]))
		hi := seqset.Seq(binary.BigEndian.Uint64(rest[8:16]))
		rest = rest[16:]
		d.runs = append(d.runs, seqset.Interval{Lo: lo, Hi: hi})
	}
	f.Message.Info, err = seqset.FromSortedRuns(d.runs)
	if err != nil {
		return f, nil, fmt.Errorf("wire: %w", err)
	}

	if kindHasCheck(kind) {
		if len(rest) < 8 {
			return f, nil, ErrTruncated
		}
		f.Message.CheckLen = binary.BigEndian.Uint64(rest[:8])
		rest = rest[8:]
	}
	return f, rest, nil
}

// decodeParts parses the part list of a bundle or sync response sent by
// from. Each part is a complete partless frame from the same sender,
// decoded by a Decoder of its own so that no two parts share storage.
func decodeParts(from core.HostID, rest []byte) ([]core.Message, []byte, error) {
	if len(rest) < 4 {
		return nil, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if n > MaxParts {
		return nil, nil, fmt.Errorf("%w: %d parts", ErrTooLarge, n)
	}
	parts := make([]core.Message, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return nil, nil, ErrTruncated
		}
		size := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if size > MaxPayload+1024 {
			return nil, nil, fmt.Errorf("%w: part of %d bytes", ErrTooLarge, size)
		}
		if uint64(len(rest)) < uint64(size) {
			return nil, nil, ErrTruncated
		}
		var d Decoder
		sub, tail, err := d.decodeFields(rest[:size])
		switch {
		case err != nil:
			return nil, nil, fmt.Errorf("wire: part %d: %w", i, err)
		case kindHasParts(sub.Message.Kind):
			return nil, nil, fmt.Errorf("%w: nested part-carrying frame", ErrBadKind)
		case len(tail) != 0:
			return nil, nil, fmt.Errorf("wire: part %d: %w", i, ErrTrailing)
		case sub.From != from:
			return nil, nil, fmt.Errorf("wire: part %d from %d, frame from %d", i, sub.From, from)
		}
		parts = append(parts, sub.Message)
		rest = rest[size:]
	}
	return parts, rest, nil
}
