// Package trace collects and renders protocol event streams. It turns
// the core's Observer callbacks into a bounded, filterable log that CLIs
// print and tests query, without growing unboundedly on long runs.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rbcast/internal/core"
)

// Entry is one recorded protocol event.
type Entry struct {
	At   time.Duration
	Host core.HostID
	Kind core.EventKind
	Peer core.HostID
	Seq  uint64
}

// String renders the entry as a log line.
func (e Entry) String() string {
	s := fmt.Sprintf("%12v host=%d %s", e.At.Round(time.Microsecond), e.Host, e.Kind)
	if e.Peer != core.Nil {
		s += fmt.Sprintf(" peer=%d", e.Peer)
	}
	if e.Seq != 0 {
		s += fmt.Sprintf(" seq=%d", e.Seq)
	}
	return s
}

// FromEvent converts a core event.
func FromEvent(ev core.Event) Entry {
	return Entry{At: ev.At, Host: ev.Host, Kind: ev.Kind, Peer: ev.Peer, Seq: uint64(ev.Seq)}
}

// Buffer is a bounded ring of entries with per-kind counters. Safe for
// concurrent use (the live runtime emits from many goroutines).
type Buffer struct {
	mu      sync.Mutex
	cap     int
	entries []Entry
	start   int
	total   uint64
	byKind  [core.NumEventKinds]uint64
}

// NewBuffer creates a ring holding up to capacity entries (minimum 1).
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{cap: capacity}
}

// Observer returns a core.Observer that records into the buffer.
func (b *Buffer) Observer() core.Observer {
	return func(ev core.Event) { b.Add(FromEvent(ev)) }
}

// Add records one entry, evicting the oldest past capacity.
func (b *Buffer) Add(e Entry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total++
	if uint(e.Kind) < uint(core.NumEventKinds) {
		b.byKind[e.Kind]++
	}
	if len(b.entries) < b.cap {
		b.entries = append(b.entries, e)
		return
	}
	b.entries[b.start] = e
	b.start = (b.start + 1) % b.cap
}

// Len returns the number of retained entries.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Total returns the number of entries ever recorded (including evicted).
func (b *Buffer) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// CountByKind returns how many events of the kind were ever recorded; 0
// for a value outside core's kinds, which Add records but does not count.
func (b *Buffer) CountByKind(k core.EventKind) uint64 {
	if uint(k) >= uint(core.NumEventKinds) {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.byKind[k]
}

// Entries returns the retained entries, oldest first.
func (b *Buffer) Entries() []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Entry, 0, len(b.entries))
	for i := 0; i < len(b.entries); i++ {
		out = append(out, b.entries[(b.start+i)%len(b.entries)])
	}
	return out
}

// Filter returns retained entries matching pred, oldest first.
func (b *Buffer) Filter(pred func(Entry) bool) []Entry {
	var out []Entry
	for _, e := range b.Entries() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// WriteTo dumps the retained entries as text lines.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range b.Entries() {
		m, err := fmt.Fprintln(w, e.String())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
