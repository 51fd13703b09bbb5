// Package wire serializes protocol messages to a compact binary format.
//
// The discrete-event simulator passes message values in memory, but the
// real-time runtimes (the host driver in internal/node, under
// internal/live and internal/udp) and any real deployment need a wire
// form.
// The encoding is hand-rolled over encoding/binary: a fixed header, then
// kind-dependent fields, with INFO sets as interval lists (the seqset
// coding), all length-prefixed and bounds-checked so a corrupt or
// malicious frame cannot allocate unbounded memory or panic the decoder.
//
// Frame layout (all integers big-endian):
//
//	byte    magic (0xB7)
//	byte    version (1)
//	byte    kind
//	byte    flags (bit 0: gap fill)
//	uint32  sender host ID
//	uint32  parent host ID
//	uint64  sequence number
//	uint32  payload length, then payload bytes
//	uint32  interval count, then (uint64 lo, uint64 hi) pairs
//
// Part-carrying frames (kinds MsgBundle and MsgSyncResp) additionally
// carry:
//
//	uint32  part count, then per part: uint32 length + encoded sub-frame
//
// Sub-frames are complete frames of kinds that do not themselves carry
// parts (bundles and sync responses never nest). Delta INFO frames
// (kind = MsgInfoDelta), echo/ready votes (kinds MsgEcho, MsgReady),
// and the catch-up sync kinds (MsgSyncResp, MsgSnapReq, MsgSnapChunk)
// additionally carry:
//
//	uint64  CheckLen: for a delta, the full-set member count (the
//	        checksum half; the sequence-number header slot holds the
//	        full-set maximum); for echo/ready, the payload digest
//	        being voted on; for the sync kinds, the snapshot
//	        watermark or total snapshot length (see core.MsgKind docs)
//
// The hot path is AppendEncode, which appends into a caller-owned buffer
// and allocates nothing; Encode is a convenience wrapper, and
// EncodedSize prices a frame without encoding it (the simulator's
// bytes-on-wire accounting). There is one parser, Decoder.Decode; Decode
// runs it on a one-shot Decoder.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rbcast/internal/core"
)

const (
	magic   = 0xB7
	version = 1

	flagGapFill = 1 << 0

	headerLen = 1 + 1 + 1 + 1 + 4 + 4 + 8

	// MaxPayload bounds the data payload length accepted by the decoder.
	MaxPayload = 1 << 20
	// MaxIntervals bounds the INFO interval count accepted by the decoder.
	MaxIntervals = 1 << 16
	// MaxParts bounds the piggybacked part count accepted by the decoder.
	MaxParts = 1 << 12
)

// Decoding errors.
var (
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrBadMagic   = errors.New("wire: bad magic byte")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadKind    = errors.New("wire: unknown message kind")
	ErrTooLarge   = errors.New("wire: field exceeds decoder limit")
	ErrTrailing   = errors.New("wire: trailing bytes after frame")
)

// Frame is a protocol message plus its sender, as transmitted.
type Frame struct {
	From    core.HostID
	Message core.Message
}

// knownKind enumerates the message kinds the codec handles, one arm per
// kind. Both Encode and Decode gate on it, so adding a core.MsgKind
// without extending the codec fails wirelint here rather than silently
// dropping frames of the new kind.
func knownKind(k core.MsgKind) bool {
	switch k {
	case core.MsgData, core.MsgInfo, core.MsgAttachReq, core.MsgAttachAccept,
		core.MsgAttachReject, core.MsgDetach, core.MsgBundle, core.MsgInfoDelta,
		core.MsgEcho, core.MsgReady, core.MsgSyncReq, core.MsgSyncResp,
		core.MsgSnapReq, core.MsgSnapChunk:
		return true
	}
	return false
}

// kindHasCheck reports whether the frame carries the trailing uint64
// CheckLen field: the full-set checksum half of a delta INFO, the
// payload digest of an echo/ready vote, or the snapshot watermark /
// total length of the catch-up sync kinds.
func kindHasCheck(k core.MsgKind) bool {
	return k == core.MsgInfoDelta || k == core.MsgEcho || k == core.MsgReady ||
		k == core.MsgSyncResp || k == core.MsgSnapReq || k == core.MsgSnapChunk
}

// kindHasParts reports whether the frame carries length-prefixed
// sub-frames: a §6 piggyback bundle, or a catch-up sync response whose
// parts are the batched gap-fill data messages. Part-carrying frames
// never nest.
func kindHasParts(k core.MsgKind) bool {
	return k == core.MsgBundle || k == core.MsgSyncResp
}

// checkEncodable validates the frame fields shared by AppendEncode and
// EncodedSize.
func checkEncodable(f Frame) error {
	if !knownKind(f.Message.Kind) {
		return fmt.Errorf("%w: %d", ErrBadKind, f.Message.Kind)
	}
	if !kindHasParts(f.Message.Kind) && len(f.Message.Parts) > 0 {
		return fmt.Errorf("wire: %s frame carries %d parts", f.Message.Kind, len(f.Message.Parts))
	}
	if len(f.Message.Parts) > MaxParts {
		return fmt.Errorf("%w: %d parts", ErrTooLarge, len(f.Message.Parts))
	}
	if len(f.Message.Payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(f.Message.Payload))
	}
	if n := f.Message.Info.RunCount(); n > MaxIntervals {
		return fmt.Errorf("%w: %d intervals", ErrTooLarge, n)
	}
	return nil
}

// EncodedSize returns the exact byte length AppendEncode would produce
// for f, without encoding. The simulator's bytes-on-wire metrics price
// every logical send through here.
//
//rblint:hotpath prices every logical send in the simulator's bytes-on-wire accounting
func EncodedSize(f Frame) (int, error) {
	if err := checkEncodable(f); err != nil {
		return 0, err
	}
	size := headerLen + 4 + len(f.Message.Payload) + 4 + 16*f.Message.Info.RunCount()
	if kindHasCheck(f.Message.Kind) {
		size += 8
	}
	if kindHasParts(f.Message.Kind) {
		size += 4
		for _, part := range f.Message.Parts {
			if kindHasParts(part.Kind) {
				return 0, fmt.Errorf("wire: nested part-carrying frame")
			}
			sub, err := EncodedSize(Frame{From: f.From, Message: part})
			if err != nil {
				return 0, err
			}
			size += 4 + sub
		}
	}
	return size, nil
}

// AppendEncode appends the encoding of f to dst and returns the extended
// buffer. It allocates only when dst lacks capacity, so a caller reusing
// buffers (see internal/node) encodes with zero garbage.
// On error dst is returned truncated to its original length.
//
//rblint:hotpath per-frame encode in the host driver's send path; must reuse dst
func AppendEncode(dst []byte, f Frame) ([]byte, error) {
	base := len(dst)
	out, err := appendFrame(dst, f)
	if err != nil {
		return dst[:base], err
	}
	return out, nil
}

func appendFrame(buf []byte, f Frame) ([]byte, error) {
	if err := checkEncodable(f); err != nil {
		return buf, err
	}
	var flags byte
	if f.Message.GapFill {
		flags |= flagGapFill
	}
	buf = append(buf, magic, version, byte(f.Message.Kind), flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.From))
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.Message.Parent))
	buf = binary.BigEndian.AppendUint64(buf, uint64(f.Message.Seq))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Message.Payload)))
	buf = append(buf, f.Message.Payload...)
	n := f.Message.Info.RunCount()
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		iv := f.Message.Info.Run(i)
		buf = binary.BigEndian.AppendUint64(buf, uint64(iv.Lo))
		buf = binary.BigEndian.AppendUint64(buf, uint64(iv.Hi))
	}
	if kindHasCheck(f.Message.Kind) {
		buf = binary.BigEndian.AppendUint64(buf, f.Message.CheckLen)
	}
	if kindHasParts(f.Message.Kind) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Message.Parts)))
		for _, part := range f.Message.Parts {
			if kindHasParts(part.Kind) {
				return buf, fmt.Errorf("wire: nested part-carrying frame")
			}
			// Reserve the length prefix, encode the sub-frame in place,
			// then patch the prefix — no temporary buffer.
			lenAt := len(buf)
			buf = append(buf, 0, 0, 0, 0)
			var err error
			buf, err = appendFrame(buf, Frame{From: f.From, Message: part})
			if err != nil {
				return buf, err
			}
			binary.BigEndian.PutUint32(buf[lenAt:lenAt+4], uint32(len(buf)-lenAt-4))
		}
	}
	return buf, nil
}

// Encode renders a frame to a freshly allocated buffer.
func Encode(f Frame) ([]byte, error) {
	size, err := EncodedSize(f)
	if err != nil {
		return nil, err
	}
	return AppendEncode(make([]byte, 0, size), f)
}

// Decode parses a frame into freshly allocated storage, rejecting
// malformed or oversized input. It is Decoder.Decode on a one-shot
// Decoder: the same parser, the same acceptance rule.
func Decode(data []byte) (Frame, error) {
	var d Decoder
	return d.Decode(data)
}
