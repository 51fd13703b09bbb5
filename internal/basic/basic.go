// Package basic implements the paper's §1 baseline: the "simple and
// obvious" broadcast where the source sends a separately addressed copy
// of every message to every host and retransmits until acknowledged.
//
// The paper evaluates its protocol against exactly this algorithm — "the
// only known alternative for networks with nonprogrammable servers" — so
// the reproduction needs a faithful implementation over the same
// simulated substrate: per-destination copies, positive acknowledgments,
// periodic retransmission, and nothing else (no sharing of delivery
// responsibility among hosts, no topology adaptation).
package basic

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
)

// Kind enumerates baseline message types.
type Kind int

const (
	// KindData carries one broadcast message copy.
	KindData Kind = iota + 1
	// KindAck acknowledges receipt of one sequence number.
	KindAck
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is a baseline protocol message.
type Message struct {
	Kind    Kind
	Seq     seqset.Seq
	Payload []byte
}

// Env is the baseline's window on the world, mirroring core.Env.
type Env interface {
	Send(to core.HostID, m Message)
	Deliver(seq seqset.Seq, payload []byte)
}

// Params tunes the baseline.
type Params struct {
	// RetryPeriod is how often the source retransmits unacknowledged
	// copies.
	RetryPeriod time.Duration
	// TickInterval is the clock granularity, as in core.Params.
	TickInterval time.Duration
}

// DefaultParams returns the reference tuning.
func DefaultParams() Params {
	return Params{
		RetryPeriod:  500 * time.Millisecond,
		TickInterval: 25 * time.Millisecond,
	}
}

// Validate reports the first problem with p, or nil.
func (p Params) Validate() error {
	if p.RetryPeriod <= 0 {
		return fmt.Errorf("basic: RetryPeriod must be positive, got %v", p.RetryPeriod)
	}
	if p.TickInterval <= 0 {
		return fmt.Errorf("basic: TickInterval must be positive, got %v", p.TickInterval)
	}
	return nil
}

// Source is the broadcasting host. Single-threaded, like core.Host.
type Source struct {
	id      core.HostID
	peers   []core.HostID // all destinations (excludes self)
	params  Params
	env     Env
	store   map[seqset.Seq][]byte
	unacked map[seqset.Seq]map[core.HostID]bool
	// lastSend tracks when each message's copies were last transmitted,
	// so a retry happens only after a full RetryPeriod of silence — not
	// while the original copies' acks are still in flight.
	lastSend map[seqset.Seq]time.Duration
	nextSeq  seqset.Seq
}

// NewSource constructs the baseline source. peers must list every
// destination host (the source itself is filtered out if present).
func NewSource(id core.HostID, peers []core.HostID, params Params, env Env) (*Source, error) {
	if env == nil {
		return nil, fmt.Errorf("basic: nil Env")
	}
	if params == (Params{}) {
		params = DefaultParams()
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if id <= 0 {
		return nil, fmt.Errorf("basic: invalid source id %d", id)
	}
	roster, err := core.NewRoster(peers, nil)
	if err != nil {
		return nil, fmt.Errorf("basic: %w", err)
	}
	return &Source{
		id:       id,
		peers:    slices.DeleteFunc(roster.Peers(), func(p core.HostID) bool { return p == id }),
		params:   params,
		env:      env,
		store:    make(map[seqset.Seq][]byte),
		unacked:  make(map[seqset.Seq]map[core.HostID]bool),
		lastSend: make(map[seqset.Seq]time.Duration),
		nextSeq:  1,
	}, nil
}

// ID returns the source host's identity.
func (s *Source) ID() core.HostID { return s.id }

// Broadcast sends the next message to every destination and begins
// retransmitting until each acknowledges. It returns the sequence number.
func (s *Source) Broadcast(now time.Duration, payload []byte) seqset.Seq {
	seq := s.nextSeq
	s.nextSeq++
	s.store[seq] = append([]byte(nil), payload...)
	s.env.Deliver(seq, s.store[seq])
	pending := make(map[core.HostID]bool, len(s.peers))
	m := Message{Kind: KindData, Seq: seq, Payload: s.store[seq]}
	for _, p := range s.peers {
		pending[p] = true
		s.env.Send(p, m)
	}
	s.unacked[seq] = pending
	s.lastSend[seq] = now
	return seq
}

// Outstanding reports the number of (message, host) pairs still awaiting
// acknowledgment.
func (s *Source) Outstanding() int {
	n := 0
	for _, pending := range s.unacked {
		n += len(pending)
	}
	return n
}

// HandleMessage processes an acknowledgment.
func (s *Source) HandleMessage(_ time.Duration, from core.HostID, m Message) {
	if m.Kind != KindAck {
		return
	}
	if pending, ok := s.unacked[m.Seq]; ok {
		delete(pending, from)
		if len(pending) == 0 {
			delete(s.unacked, m.Seq)
			delete(s.lastSend, m.Seq)
		}
	}
}

// Tick retransmits the copies of every message that has waited a full
// RetryPeriod without complete acknowledgment. The baseline keeps
// retrying even through partitions — the wasteful behaviour the paper
// calls out in §5.
func (s *Source) Tick(now time.Duration) {
	seqs := make([]seqset.Seq, 0, len(s.unacked))
	for seq := range s.unacked {
		if now-s.lastSend[seq] >= s.params.RetryPeriod {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		s.lastSend[seq] = now
		m := Message{Kind: KindData, Seq: seq, Payload: s.store[seq]}
		hosts := make([]core.HostID, 0, len(s.unacked[seq]))
		for h := range s.unacked[seq] {
			hosts = append(hosts, h)
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
		for _, h := range hosts {
			s.env.Send(h, m)
		}
	}
}

// Receiver is a baseline destination host: it delivers first copies and
// acknowledges every copy (acks can be lost too).
type Receiver struct {
	id       core.HostID
	source   core.HostID
	env      Env
	received seqset.Set
}

// NewReceiver constructs a baseline destination.
func NewReceiver(id, source core.HostID, env Env) (*Receiver, error) {
	if env == nil {
		return nil, fmt.Errorf("basic: nil Env")
	}
	if id <= 0 || source <= 0 || id == source {
		return nil, fmt.Errorf("basic: invalid receiver/source ids %d/%d", id, source)
	}
	return &Receiver{id: id, source: source, env: env}, nil
}

// ID returns the receiver host's identity.
func (r *Receiver) ID() core.HostID { return r.id }

// Received returns a copy of the set of received sequence numbers.
func (r *Receiver) Received() seqset.Set { return r.received.Clone() }

// HandleMessage processes a data copy: deliver if new, acknowledge always
// (a duplicate usually means the previous ack was lost).
func (r *Receiver) HandleMessage(_ time.Duration, from core.HostID, m Message) {
	if m.Kind != KindData || from != r.source {
		return
	}
	if r.received.Add(m.Seq) {
		r.env.Deliver(m.Seq, m.Payload)
	}
	r.env.Send(r.source, Message{Kind: KindAck, Seq: m.Seq})
}
