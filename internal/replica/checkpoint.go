package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Checkpoint support: a compact, deterministic snapshot of the whole
// store plus the confirmed-prefix watermark of the broadcast stream that
// produced it. Because Apply is commutative and idempotent, installing a
// checkpoint over any partial state is safe — rows the receiver already
// holds merge to the same winners — which is exactly what lets the
// broadcast layer hand a late joiner one snapshot instead of replaying a
// pruned history.
//
// Checkpoint layout (all integers big-endian, mirroring internal/wire's
// framing discipline: magic + version bytes, length prefixes, bounds
// checks before allocation):
//
//	byte    magic (0xC4)
//	byte    version (1)
//	uint64  watermark (confirmed broadcast prefix the state covers)
//	uint32  row count, then per row: uint32 length + EncodeUpdate bytes
//
// Rows are sorted by key, so equal states encode byte-identically and a
// checkpoint can be compared, resumed, and chunked deterministically.

const (
	ckptMagic   = 0xC4
	ckptVersion = 1

	// MaxCheckpointRows bounds the row count accepted by the checkpoint
	// decoder.
	MaxCheckpointRows = 1 << 20
)

// ErrBadCheckpoint reports a malformed encoded checkpoint.
var ErrBadCheckpoint = errors.New("replica: malformed checkpoint")

// Rows exports the full state (including tombstones) as updates sorted
// by key — the deterministic raw material of a checkpoint.
func (s *Store) Rows() []Update {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Update, 0, len(s.rows))
	for _, row := range s.rows {
		out = append(out, row)
	}
	slices.SortFunc(out, func(a, b Update) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// InstallRows merges a row export into the store via Apply, so partial
// local state and duplicated installs are harmless. It reports how many
// rows changed the winning state.
func (s *Store) InstallRows(rows []Update) int {
	changed := 0
	for _, u := range rows {
		if s.Apply(u) {
			changed++
		}
	}
	return changed
}

// EncodeCheckpoint renders the store's full state and the given
// confirmed-prefix watermark to bytes. Equal states with equal
// watermarks encode byte-identically. The rows are written into one
// buffer of the checkpoint's exact size.
func EncodeCheckpoint(s *Store, watermark uint64) ([]byte, error) {
	rows := s.Rows()
	size := 2 + 8 + 4
	for _, u := range rows {
		size += 4 + updateHeader + len(u.Key) + len(u.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, ckptMagic, ckptVersion)
	buf = binary.BigEndian.AppendUint64(buf, watermark)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rows)))
	for _, u := range rows {
		buf = binary.BigEndian.AppendUint32(buf, uint32(updateHeader+len(u.Key)+len(u.Value)))
		var err error
		if buf, err = appendUpdate(buf, u); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeCheckpoint parses an encoded checkpoint, rejecting malformed or
// oversized input before allocating for it.
func DecodeCheckpoint(data []byte) (watermark uint64, rows []Update, err error) {
	if len(data) < 2+8+4 {
		return 0, nil, ErrBadCheckpoint
	}
	if data[0] != ckptMagic {
		return 0, nil, fmt.Errorf("%w: bad magic 0x%02x", ErrBadCheckpoint, data[0])
	}
	if data[1] != ckptVersion {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, data[1])
	}
	watermark = binary.BigEndian.Uint64(data[2:10])
	n := binary.BigEndian.Uint32(data[10:14])
	if n > MaxCheckpointRows {
		return 0, nil, fmt.Errorf("%w: %d rows", ErrBadCheckpoint, n)
	}
	rest := data[14:]
	// A row takes at least its length prefix and an update's header, so
	// the count claims no more rows than the bytes can hold.
	rows = make([]Update, 0, min(int(n), len(rest)/(4+updateHeader)))
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return 0, nil, ErrBadCheckpoint
		}
		rowLen := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if rowLen > updateHeader+MaxKeyLen+MaxValueLen || uint64(len(rest)) < uint64(rowLen) {
			return 0, nil, ErrBadCheckpoint
		}
		u, err := DecodeUpdate(rest[:rowLen])
		if err != nil {
			return 0, nil, fmt.Errorf("%w: row %d: %v", ErrBadCheckpoint, i, err)
		}
		rest = rest[rowLen:]
		rows = append(rows, u)
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: trailing bytes", ErrBadCheckpoint)
	}
	return watermark, rows, nil
}
