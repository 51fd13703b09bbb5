package live

import (
	"fmt"
	"sync"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/multi"
	"rbcast/internal/node"
	"rbcast/internal/seqset"
)

// FleetConfig assembles a live protocol deployment.
type FleetConfig struct {
	// Hosts lists every participant; Source must be among them.
	Hosts  []core.HostID
	Source core.HostID
	// Sources optionally lists additional broadcasting hosts: per the
	// paper's §2, each runs its own identical single-source protocol
	// instance (a stream). When empty, only Source broadcasts. Source is
	// always included.
	Sources []core.HostID
	// Clusters optionally groups hosts; within a group paths are cheap,
	// across groups expensive. Ungrouped host pairs default to cheap.
	Clusters [][]core.HostID
	// Params tunes the protocol. The zero value uses LiveParams().
	Params core.Params
	// Seed drives the transport's randomness and, via JitterSeed, the
	// health layer's deterministic backoff jitter.
	Seed int64
	// OnDeliver, if set, observes every application delivery. payload is
	// the host's stored copy (node.Config.OnDeliver): read-only, and
	// retaining it keeps up to 32 KiB of its neighbours alive. It runs on
	// the delivering host's node goroutine: calling that host's Broadcast
	// or Inspect from it, or waiting on either, blocks the host until
	// Stop. Reading Delivered, DuplicateDeliveries and NodeStats is safe
	// (TestOnDeliverMayReadItsFleet).
	OnDeliver func(host core.HostID, stream core.HostID, seq seqset.Seq, payload []byte)
}

// LiveParams returns protocol tunables scaled for sub-millisecond
// in-memory paths, so live tests converge in tens of milliseconds.
func LiveParams() core.Params {
	return core.Params{
		TickInterval:      2 * time.Millisecond,
		AttachPeriod:      20 * time.Millisecond,
		InfoClusterPeriod: 8 * time.Millisecond,
		InfoRemotePeriod:  30 * time.Millisecond,
		InfoGlobalPeriod:  60 * time.Millisecond,
		GapClusterPeriod:  12 * time.Millisecond,
		GapRemotePeriod:   40 * time.Millisecond,
		GapGlobalPeriod:   90 * time.Millisecond,
		AttachTimeout:     25 * time.Millisecond,
		ParentTimeout:     120 * time.Millisecond,
		GapFillBatch:      64,
	}
}

// Fleet is a running set of live protocol nodes: one host driver per
// host over the shared in-memory Transport.
type Fleet struct {
	Transport *Transport

	cfg   FleetConfig
	nodes map[core.HostID]*node.Driver
	rec   *recorder
}

// startDriver is swappable so tests can fail driver construction for a
// chosen host and exercise StartFleet's mid-loop error path.
var startDriver = node.Start

// port is one host's attachment to the Transport.
type port struct {
	t    *Transport
	from core.HostID
}

func (p port) Send(to core.HostID, env *node.Envelope) error {
	p.t.Send(p.from, to, env)
	return nil
}

// StartFleet constructs and starts all nodes.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("live: no hosts")
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = LiveParams()
	}
	sources := []core.HostID{cfg.Source}
	for _, s := range cfg.Sources {
		if s != cfg.Source {
			sources = append(sources, s)
		}
	}
	f := &Fleet{
		Transport: NewTransport(cfg.Hosts, cfg.Seed),
		cfg:       cfg,
		nodes:     make(map[core.HostID]*node.Driver, len(cfg.Hosts)),
		rec:       newRecorder(),
	}
	if cfg.Clusters != nil {
		f.Transport.SetClusters(cfg.Clusters)
	}
	for _, id := range cfg.Hosts {
		id := id
		// Start spawns the node goroutine as it registers the host, so
		// the error path below can Stop a half-built fleet: every
		// registered driver has a goroutine to wait for.
		d, err := startDriver(node.Config{
			Bus: multi.Config{
				ID:         id,
				Peers:      cfg.Hosts,
				Sources:    sources,
				Params:     cfg.Params,
				JitterSeed: cfg.Seed,
			},
			OnDeliver: func(stream core.HostID, seq seqset.Seq, payload []byte) {
				f.rec.record(id, stream, seq)
				if cfg.OnDeliver != nil {
					cfg.OnDeliver(id, stream, seq, payload)
				}
			},
		}, port{t: f.Transport, from: id})
		if err != nil {
			f.Stop()
			return nil, err
		}
		f.nodes[id] = d
		f.Transport.attach(id, d)
	}
	return f, nil
}

// Broadcast injects the next data message on the primary source's stream
// and returns once that node's goroutine has processed it.
func (f *Fleet) Broadcast(payload []byte) (seqset.Seq, error) {
	return f.BroadcastFrom(f.cfg.Source, payload)
}

// BroadcastFrom injects the next data message on the given source's
// stream.
func (f *Fleet) BroadcastFrom(source core.HostID, payload []byte) (seqset.Seq, error) {
	d, ok := f.nodes[source]
	if !ok {
		return 0, fmt.Errorf("live: host %d not running", source)
	}
	return d.Broadcast(payload)
}

// Inspect runs fn on the host's goroutine against the primary stream's
// protocol instance and waits for it — the only safe way to read a live
// host's state.
func (f *Fleet) Inspect(id core.HostID, fn func(h *core.Host)) error {
	return f.InspectStream(id, f.cfg.Source, fn)
}

// InspectStream runs fn against one stream's instance at one host.
func (f *Fleet) InspectStream(id core.HostID, stream core.HostID, fn func(h *core.Host)) error {
	d, ok := f.nodes[id]
	if !ok {
		return fmt.Errorf("live: unknown host %d", id)
	}
	return d.Inspect(stream, fn)
}

// NodeStats sums the host drivers' counters: frames sent and received,
// codec errors, and inbox overflow drops.
func (f *Fleet) NodeStats() node.Stats {
	var sum node.Stats
	for _, d := range f.nodes {
		s := d.Stats()
		sum.Sent += s.Sent
		sum.SendErrors += s.SendErrors
		sum.Received += s.Received
		sum.DecodeErrors += s.DecodeErrors
		sum.InboxDrops += s.InboxDrops
	}
	return sum
}

// DeliveredAll reports whether every host has delivered 1..n on the
// primary stream.
func (f *Fleet) DeliveredAll(n seqset.Seq) bool {
	return f.rec.deliveredAll(f.cfg.Hosts, f.cfg.Source, n)
}

// WaitDelivered blocks until every host has delivered 1..n on the
// primary stream or the timeout elapses.
func (f *Fleet) WaitDelivered(n seqset.Seq, timeout time.Duration) bool {
	return f.WaitStreamDelivered(f.cfg.Source, n, timeout)
}

// WaitStreamDelivered blocks until every host has delivered 1..n on the
// given stream or the timeout elapses.
func (f *Fleet) WaitStreamDelivered(stream core.HostID, n seqset.Seq, timeout time.Duration) bool {
	return f.rec.wait(func() bool {
		return f.rec.deliveredAllLocked(f.cfg.Hosts, stream, n)
	}, timeout)
}

// WaitHostDelivered blocks until the given host has delivered 1..n on
// the primary stream or the timeout elapses.
func (f *Fleet) WaitHostDelivered(h core.HostID, n seqset.Seq, timeout time.Duration) bool {
	return f.rec.wait(func() bool {
		return f.rec.hostHasAllLocked(h, f.cfg.Source, n)
	}, timeout)
}

// Delivered returns the sequence numbers host h has delivered on the
// primary stream.
func (f *Fleet) Delivered(h core.HostID) seqset.Set {
	return f.rec.snapshot(h, f.cfg.Source)
}

// DeliveredOn returns the sequence numbers host h has delivered on the
// given stream.
func (f *Fleet) DeliveredOn(h core.HostID, stream core.HostID) seqset.Set {
	return f.rec.snapshot(h, stream)
}

// DuplicateDeliveries counts repeated Deliver calls for one
// (host, stream, seq); the protocol guarantees zero.
func (f *Fleet) DuplicateDeliveries() int { return f.rec.duplicates() }

// Stop terminates all nodes and waits for their goroutines. Safe to
// call more than once.
func (f *Fleet) Stop() {
	f.Transport.stop()
	for _, d := range f.nodes {
		d.Stop()
	}
}

type hostStream struct {
	host   core.HostID
	stream core.HostID
}

// recorder tracks deliveries with a condition variable so tests can wait
// without polling loops.
type recorder struct {
	mu   sync.Mutex
	cond *sync.Cond
	got  map[hostStream]*seqset.Set
	dups int
}

func newRecorder() *recorder {
	r := &recorder{got: make(map[hostStream]*seqset.Set)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *recorder) record(h core.HostID, stream core.HostID, q seqset.Seq) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := hostStream{host: h, stream: stream}
	s, ok := r.got[key]
	if !ok {
		s = &seqset.Set{}
		r.got[key] = s
	}
	if !s.Add(q) {
		r.dups++
	}
	r.cond.Broadcast()
}

func (r *recorder) snapshot(h core.HostID, stream core.HostID) seqset.Set {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.got[hostStream{host: h, stream: stream}]; ok {
		return s.Clone()
	}
	return seqset.Set{}
}

func (r *recorder) duplicates() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dups
}

func (r *recorder) hostHasAllLocked(h core.HostID, stream core.HostID, n seqset.Seq) bool {
	s, ok := r.got[hostStream{host: h, stream: stream}]
	if !ok {
		return n == 0
	}
	return s.Len() >= int(n) && s.Max() == n && s.GapCount() == 0
}

func (r *recorder) deliveredAll(hosts []core.HostID, stream core.HostID, n seqset.Seq) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deliveredAllLocked(hosts, stream, n)
}

func (r *recorder) deliveredAllLocked(hosts []core.HostID, stream core.HostID, n seqset.Seq) bool {
	for _, h := range hosts {
		if !r.hostHasAllLocked(h, stream, n) {
			return false
		}
	}
	return true
}

// wait blocks on the condition variable until pred holds or timeout.
// pred runs with the recorder's lock held.
func (r *recorder) wait(pred func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// A waker nudges the cond periodically so timeouts are honored even
	// with no deliveries arriving.
	stopWaker := make(chan struct{})
	defer close(stopWaker)
	go func() {
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopWaker:
				return
			case <-ticker.C:
				r.cond.Broadcast()
			}
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if pred() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		r.cond.Wait()
	}
}
