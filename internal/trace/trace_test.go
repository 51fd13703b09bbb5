package trace_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/trace"
)

func entry(host core.HostID, kind core.EventKind, seq uint64) trace.Entry {
	return trace.Entry{At: time.Second, Host: host, Kind: kind, Seq: seq}
}

func TestBufferRetainsInOrder(t *testing.T) {
	b := trace.NewBuffer(10)
	for i := 1; i <= 5; i++ {
		b.Add(entry(core.HostID(i), core.EvAccepted, uint64(i)))
	}
	got := b.Entries()
	if len(got) != 5 {
		t.Fatalf("Len = %d, want 5", len(got))
	}
	for i, e := range got {
		if e.Host != core.HostID(i+1) {
			t.Errorf("entry %d host = %d, want %d", i, e.Host, i+1)
		}
	}
}

func TestBufferEvictsOldest(t *testing.T) {
	b := trace.NewBuffer(3)
	for i := 1; i <= 5; i++ {
		b.Add(entry(core.HostID(i), core.EvAccepted, uint64(i)))
	}
	got := b.Entries()
	if len(got) != 3 {
		t.Fatalf("Len = %d, want 3", len(got))
	}
	if got[0].Host != 3 || got[2].Host != 5 {
		t.Errorf("ring content wrong: %v", got)
	}
	if b.Total() != 5 {
		t.Errorf("Total = %d, want 5", b.Total())
	}
}

func TestBufferMinimumCapacity(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Add(entry(1, core.EvAccepted, 1))
	b.Add(entry(2, core.EvAccepted, 2))
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

// TestBufferBoundedOnLongStream wraps the ring many times over: memory
// stays capped at capacity, Entries stays oldest-first and contiguous
// with the stream tail, and the counters keep the full history.
func TestBufferBoundedOnLongStream(t *testing.T) {
	const capacity, stream = 7, 1000
	b := trace.NewBuffer(capacity)
	for i := 1; i <= stream; i++ {
		b.Add(entry(core.HostID(i), core.EvAccepted, uint64(i)))
	}
	if b.Len() != capacity {
		t.Fatalf("Len = %d, want %d", b.Len(), capacity)
	}
	if b.Total() != stream {
		t.Errorf("Total = %d, want %d", b.Total(), stream)
	}
	if got := b.CountByKind(core.EvAccepted); got != stream {
		t.Errorf("CountByKind = %d, want %d", got, stream)
	}
	got := b.Entries()
	if len(got) != capacity {
		t.Fatalf("Entries returned %d, want %d", len(got), capacity)
	}
	for i, e := range got {
		if want := uint64(stream - capacity + 1 + i); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d (newest %d kept, oldest first)",
				i, e.Seq, want, capacity)
		}
	}
}

func TestCountByKind(t *testing.T) {
	b := trace.NewBuffer(2) // smaller than the stream: counters must survive eviction
	for i := 0; i < 4; i++ {
		b.Add(entry(1, core.EvAccepted, uint64(i)))
	}
	b.Add(entry(1, core.EvRejected, 9))
	if got := b.CountByKind(core.EvAccepted); got != 4 {
		t.Errorf("CountByKind(accepted) = %d, want 4", got)
	}
	if got := b.CountByKind(core.EvRejected); got != 1 {
		t.Errorf("CountByKind(rejected) = %d, want 1", got)
	}
	// A value outside core's kinds is recorded, not counted.
	b.Add(entry(1, core.NumEventKinds, 10))
	b.Add(entry(1, -1, 11))
	if got := b.CountByKind(core.NumEventKinds) + b.CountByKind(-1); got != 0 || b.Total() != 7 {
		t.Errorf("out-of-range kinds: counted %d, total %d; want 0 and 7", got, b.Total())
	}
}

func TestFilter(t *testing.T) {
	b := trace.NewBuffer(10)
	b.Add(entry(1, core.EvAccepted, 1))
	b.Add(entry(2, core.EvRejected, 2))
	b.Add(entry(1, core.EvRejected, 3))
	got := b.Filter(func(e trace.Entry) bool { return e.Host == 1 })
	if len(got) != 2 {
		t.Errorf("Filter returned %d entries, want 2", len(got))
	}
}

func TestObserverBridge(t *testing.T) {
	b := trace.NewBuffer(10)
	obs := b.Observer()
	obs(core.Event{At: time.Second, Kind: core.EvAttached, Host: 3, Peer: 7})
	got := b.Entries()
	if len(got) != 1 || got[0].Kind != core.EvAttached || got[0].Peer != 7 {
		t.Errorf("observer bridge produced %v", got)
	}
}

// TestHealthEventsFlowThrough pins the health layer's observability:
// suspicion and recovery events ride the same observer bridge as every
// other protocol event, render with their peer, and are countable.
func TestHealthEventsFlowThrough(t *testing.T) {
	b := trace.NewBuffer(10)
	obs := b.Observer()
	obs(core.Event{At: time.Second, Kind: core.EvPeerSuspected, Host: 2, Peer: 5})
	obs(core.Event{At: 2 * time.Second, Kind: core.EvPeerRecovered, Host: 2, Peer: 5})
	if got := b.CountByKind(core.EvPeerSuspected); got != 1 {
		t.Errorf("CountByKind(suspected) = %d, want 1", got)
	}
	if got := b.CountByKind(core.EvPeerRecovered); got != 1 {
		t.Errorf("CountByKind(recovered) = %d, want 1", got)
	}
	entries := b.Entries()
	if len(entries) != 2 {
		t.Fatalf("Entries = %d, want 2", len(entries))
	}
	for i, want := range []string{"peer-suspected", "peer-recovered"} {
		if s := entries[i].String(); !strings.Contains(s, want) || !strings.Contains(s, "peer=5") {
			t.Errorf("entry %d String() = %q, want it to contain %q and peer=5", i, s, want)
		}
	}
}

func TestEntryString(t *testing.T) {
	e := trace.Entry{At: 1500 * time.Microsecond, Host: 2, Kind: core.EvAccepted, Peer: 3, Seq: 9}
	s := e.String()
	for _, want := range []string{"host=2", "accepted", "peer=3", "seq=9"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	minimal := trace.Entry{Host: 1, Kind: core.EvParentTimeout}
	if s := minimal.String(); strings.Contains(s, "peer=") || strings.Contains(s, "seq=") {
		t.Errorf("String() = %q shows zero-valued fields", s)
	}
}

func TestWriteTo(t *testing.T) {
	b := trace.NewBuffer(10)
	b.Add(entry(1, core.EvAccepted, 1))
	b.Add(entry(2, core.EvAccepted, 2))
	var sb strings.Builder
	if _, err := b.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 2 {
		t.Errorf("WriteTo produced %d lines, want 2", got)
	}
}

func TestConcurrentAdds(t *testing.T) {
	b := trace.NewBuffer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Add(entry(1, core.EvAccepted, uint64(i)))
			}
		}()
	}
	wg.Wait()
	if b.Total() != 800 {
		t.Errorf("Total = %d, want 800", b.Total())
	}
	if b.Len() != 128 {
		t.Errorf("Len = %d, want 128", b.Len())
	}
}
