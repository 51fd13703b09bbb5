// Package multi implements multiple-source broadcast the way the paper
// prescribes (§2): "a multiple-source broadcast can be performed reliably
// by running several identical single-source protocols."
//
// A Bus is one host's bundle of protocol instances — one core.Host per
// stream (a stream is identified by its source host). Messages carry
// their stream ID; the bus demultiplexes inbound traffic to the right
// instance and multiplexes outbound traffic onto a shared transport. Each
// instance keeps its own INFO sets, parent graph, and timers, exactly as
// if it ran alone; the paper argues — and the package's tests confirm —
// that this composition preserves per-stream reliability.
package multi

import (
	"fmt"
	"slices"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// StreamID identifies one broadcast stream by its source host.
type StreamID = core.HostID

// Env is the bus's window on the world: like core.Env, plus the stream
// dimension.
type Env interface {
	// Send transmits m on the given stream, best-effort.
	Send(to core.HostID, stream StreamID, m core.Message)
	// Deliver hands an accepted message of a stream to the application.
	Deliver(stream StreamID, seq seqset.Seq, payload []byte)
}

// Config assembles a Bus.
type Config struct {
	// ID is this host's identity.
	ID core.HostID
	// Peers lists every participating host (including ID), in one
	// core.Roster that every instance shares.
	Peers []core.HostID
	// Sources lists the hosts that broadcast; one protocol instance runs
	// per entry. Every source must appear in Peers.
	Sources []core.HostID
	// Params tunes every instance identically; zero value uses defaults.
	Params core.Params
	// Observer receives protocol events from all instances; may be nil.
	Observer core.Observer
	// JitterSeed seeds the health layer's deterministic backoff jitter in
	// every instance (relevant only when Params enables backoff).
	JitterSeed int64
}

// Bus is one host's set of per-stream protocol instances. Like
// core.Host, it is single-threaded: the runtime must serialize calls.
type Bus struct {
	id core.HostID
	// streams holds one instance per stream, ascending by stream: the
	// order every walk takes. A bus runs a handful, so lookups scan it.
	streams []instance
}

// instance is one stream's protocol host.
type instance struct {
	stream StreamID
	host   *core.Host
}

// instanceEnv adapts one stream's instance to the shared Env.
type instanceEnv struct {
	env    Env
	stream StreamID
}

func (e instanceEnv) Send(to core.HostID, m core.Message) {
	e.env.Send(to, e.stream, m)
}

func (e instanceEnv) Deliver(seq seqset.Seq, payload []byte) {
	e.env.Deliver(e.stream, seq, payload)
}

// NewBus constructs a bus with one instance per source.
func NewBus(cfg Config, env Env) (*Bus, error) {
	if env == nil {
		return nil, fmt.Errorf("multi: nil Env")
	}
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("multi: no sources")
	}
	roster, err := core.NewRoster(cfg.Peers, nil)
	if err != nil {
		return nil, fmt.Errorf("multi: %w", err)
	}
	sources := slices.Clone(cfg.Sources)
	slices.Sort(sources)
	b := &Bus{id: cfg.ID, streams: make([]instance, 0, len(sources))}
	for i, src := range sources {
		if i > 0 && src == sources[i-1] {
			return nil, fmt.Errorf("multi: duplicate source %d", src)
		}
		h, err := core.NewHost(core.Config{
			ID:         cfg.ID,
			Source:     src,
			Roster:     roster,
			Params:     cfg.Params,
			Observer:   cfg.Observer,
			JitterSeed: cfg.JitterSeed,
		}, instanceEnv{env: env, stream: src})
		if err != nil {
			return nil, fmt.Errorf("multi: stream %d: %w", src, err)
		}
		b.streams = append(b.streams, instance{stream: src, host: h})
	}
	return b, nil
}

// ID returns the bus's host identity.
func (b *Bus) ID() core.HostID { return b.id }

// Streams returns the stream IDs, sorted.
func (b *Bus) Streams() []StreamID {
	out := make([]StreamID, len(b.streams))
	for i, in := range b.streams {
		out[i] = in.stream
	}
	return out
}

// Instance returns the protocol instance for one stream (nil if the
// stream is unknown); read-only use by tests and inspectors.
func (b *Bus) Instance(stream StreamID) *core.Host {
	for _, in := range b.streams {
		if in.stream == stream {
			return in.host
		}
	}
	return nil
}

// Start initializes every instance's periodic schedule.
func (b *Bus) Start(now time.Duration) {
	for _, in := range b.streams {
		in.host.Start(now)
	}
}

// Tick clocks every instance.
func (b *Bus) Tick(now time.Duration) {
	for _, in := range b.streams {
		in.host.Tick(now)
	}
}

// HandleMessage routes one inbound message to its stream's instance.
// Messages for unknown streams are dropped — a host that does not run a
// stream cannot help it.
func (b *Bus) HandleMessage(now time.Duration, from core.HostID, costBit bool, stream StreamID, m core.Message) {
	if h := b.Instance(stream); h != nil {
		h.HandleMessage(now, from, costBit, m)
	}
}

// Broadcast generates the next message on this host's own stream. It
// errors if this host is not a source.
func (b *Bus) Broadcast(now time.Duration, payload []byte) (seqset.Seq, error) {
	h := b.Instance(b.id)
	if h == nil {
		return 0, fmt.Errorf("multi: host %d is not a source", b.id)
	}
	return h.Broadcast(now, payload), nil
}
