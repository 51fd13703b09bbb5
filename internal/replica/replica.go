// Package replica implements the paper's motivating application: a
// highly available replicated database fed by reliable broadcast.
//
// §1 of the paper explains why broadcast need not be ordered: the
// availability-first reconciliation schemes it cites (DataPatch, log
// transformation) install updates commutatively, so replicas converge as
// long as every update eventually reaches every replica — exactly the
// guarantee the broadcast protocol provides. This package supplies such
// a database: a last-writer-wins register map whose Apply is commutative,
// associative, and idempotent, plus a binary update codec, so it can sit
// directly on any of the repository's runtimes (Deliver → ApplyEncoded,
// which is Decode → Apply without the garbage).
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unsafe"
)

// Update is one replicated write (or deletion). Stamp orders writes to
// the same key: the highest stamp wins, with Origin as the deterministic
// tie-breaker. Stamps are typically the originating host's logical
// clock.
type Update struct {
	Key    string
	Value  string
	Stamp  uint64
	Origin uint32 // originating host, breaks stamp ties
	Delete bool
}

// wins reports whether u supersedes old for the same key.
func (u Update) wins(old Update) bool {
	if u.Stamp != old.Stamp {
		return u.Stamp > old.Stamp
	}
	if u.Origin != old.Origin {
		return u.Origin > old.Origin
	}
	// Full tie: prefer the deletion, then the larger value, so the
	// relation is total and all replicas agree.
	if u.Delete != old.Delete {
		return u.Delete
	}
	return u.Value > old.Value
}

// Store is a last-writer-wins replicated register map. Safe for
// concurrent use. The zero value is not ready; use NewStore.
type Store struct {
	mu      sync.RWMutex
	rows    map[string]Update
	applied uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{rows: make(map[string]Update)}
}

// Apply merges one update. It is commutative, associative, and
// idempotent: any arrival order and any duplication yields the same
// state. It reports whether the update changed the winning row.
func (s *Store) Apply(u Update) bool { return s.apply(u, false) }

// ApplyEncoded is DecodeUpdate followed by Apply, done in place: the
// update is judged with its key and value where they lie in data, so one
// that loses or repeats the winning row allocates nothing, and one that
// wins on an existing key allocates its value at most (the row's key
// string is reused). The store keeps nothing of data. A malformed update
// is reported as DecodeUpdate reports it, and not applied.
func (s *Store) ApplyEncoded(data []byte) (changed bool, err error) {
	u, err := parseUpdate(data)
	if err != nil {
		return false, err
	}
	return s.apply(u, true), nil
}

// apply is Apply for u; with views, u's key and value are views into an
// encoded update (parseUpdate), so what the store keeps of them it copies.
func (s *Store) apply(u Update, views bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied++
	old, exists := s.rows[u.Key]
	if exists && !u.wins(old) {
		return false
	}
	if exists && old == u {
		return false
	}
	if views {
		if exists {
			u.Key = old.Key
		} else {
			u.Key = strings.Clone(u.Key)
		}
		if exists && u.Value == old.Value {
			u.Value = old.Value
		} else {
			u.Value = strings.Clone(u.Value)
		}
	}
	s.rows[u.Key] = u
	return true
}

// Get returns the current value of key. Deleted or absent keys report
// ok == false.
func (s *Store) Get(key string) (value string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, exists := s.rows[key]
	if !exists || row.Delete {
		return "", false
	}
	return row.Value, true
}

// Len counts live (non-deleted) keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, row := range s.rows {
		if !row.Delete {
			n++
		}
	}
	return n
}

// Applied counts Apply calls (including no-ops), for observability.
func (s *Store) Applied() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// Keys returns the live keys, sorted.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rows))
	for k, row := range s.rows {
		if !row.Delete {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Fingerprint renders the full state (including tombstones)
// deterministically; equal fingerprints mean converged replicas.
func (s *Store) Fingerprint() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.rows))
	for k := range s.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		row := s.rows[k]
		fmt.Fprintf(&b, "%q=%q@%d/%d", k, row.Value, row.Stamp, row.Origin)
		if row.Delete {
			b.WriteString("!")
		}
		b.WriteByte(';')
	}
	return b.String()
}

// Codec limits, guarding the decoder against hostile input.
const (
	// MaxKeyLen bounds encoded key length.
	MaxKeyLen = 4096
	// MaxValueLen bounds encoded value length.
	MaxValueLen = 1 << 20
)

// ErrBadUpdate reports a malformed encoded update.
var ErrBadUpdate = errors.New("replica: malformed update")

// updateHeader is an encoded update's size without its key and value:
// flags, stamp, origin and the two length prefixes.
const updateHeader = 1 + 8 + 4 + 4 + 4

// EncodeUpdate renders an update to bytes (the broadcast payload), in one
// allocation of its exact size.
func EncodeUpdate(u Update) ([]byte, error) {
	return appendUpdate(make([]byte, 0, updateHeader+len(u.Key)+len(u.Value)), u)
}

// appendUpdate appends the encoding of u to dst and returns the extended
// slice; it keeps nothing of u.
func appendUpdate(dst []byte, u Update) ([]byte, error) {
	if len(u.Key) > MaxKeyLen {
		return dst, fmt.Errorf("replica: key length %d exceeds %d", len(u.Key), MaxKeyLen)
	}
	if len(u.Value) > MaxValueLen {
		return dst, fmt.Errorf("replica: value length %d exceeds %d", len(u.Value), MaxValueLen)
	}
	var flags byte
	if u.Delete {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, u.Stamp)
	dst = binary.BigEndian.AppendUint32(dst, u.Origin)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(u.Key)))
	dst = append(dst, u.Key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(u.Value)))
	dst = append(dst, u.Value...)
	return dst, nil
}

// DecodeUpdate parses an encoded update.
func DecodeUpdate(data []byte) (Update, error) {
	u, err := parseUpdate(data)
	if err != nil {
		return Update{}, err
	}
	u.Key, u.Value = strings.Clone(u.Key), strings.Clone(u.Value)
	return u, nil
}

// parseUpdate parses an encoded update whose Key and Value are views of
// data's bytes, valid while data is: a caller keeps copies of them, never
// the views.
func parseUpdate(data []byte) (Update, error) {
	var u Update
	if len(data) < 1+8+4+4 {
		return u, ErrBadUpdate
	}
	u.Delete = data[0]&1 != 0
	u.Stamp = binary.BigEndian.Uint64(data[1:9])
	u.Origin = binary.BigEndian.Uint32(data[9:13])
	rest := data[13:]
	keyLen := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if keyLen > MaxKeyLen || uint64(len(rest)) < uint64(keyLen)+4 {
		return u, ErrBadUpdate
	}
	u.Key = view(rest[:keyLen])
	rest = rest[keyLen:]
	valLen := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if valLen > MaxValueLen || uint64(len(rest)) != uint64(valLen) {
		return u, ErrBadUpdate
	}
	u.Value = view(rest)
	return u, nil
}

// view is b read as a string, sharing b's bytes.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
