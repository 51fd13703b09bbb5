// Package live runs the protocol in real time: one host driver
// (internal/node) per host over an in-memory transport with injectable
// delay, loss, and partitions. The same core.Host state machine that
// the deterministic harness drives runs here unchanged, demonstrating
// that the protocol core is runtime-agnostic — and exercising it under
// genuine concurrency and the binary wire codec.
package live

import (
	"math/rand"
	"sync"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/node"
)

// PathConfig describes the host-to-host path in one direction pair. The
// live transport abstracts the subnetwork at path level: what the
// protocol observes (delay, loss, cost bit, reachability) is what
// matters, not individual switches.
type PathConfig struct {
	// Up reports whether the pair can communicate at all.
	Up bool
	// Expensive sets the cost bit on messages crossing this path.
	Expensive bool
	// Delay is the one-way latency; Jitter adds uniform [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// LossProb silently drops messages.
	LossProb float64
}

// DefaultCheapPath is the intra-cluster default: fast and reliable.
func DefaultCheapPath() PathConfig {
	return PathConfig{Up: true, Delay: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}
}

// DefaultExpensivePath is the inter-cluster default.
func DefaultExpensivePath() PathConfig {
	return PathConfig{Up: true, Expensive: true, Delay: 2 * time.Millisecond, Jitter: time.Millisecond}
}

type pathKey struct{ a, b core.HostID }

func keyFor(a, b core.HostID) pathKey {
	if a > b {
		a, b = b, a
	}
	return pathKey{a: a, b: b}
}

// Transport is the in-memory network. Safe for concurrent use.
type Transport struct {
	mu    sync.Mutex
	paths map[pathKey]PathConfig
	// sinks holds every known host; the driver is nil until attached.
	sinks   map[core.HostID]*node.Driver
	rng     *rand.Rand
	stopped bool

	// Stats are updated under mu.
	sent, dropped, lost uint64
}

// NewTransport creates a transport for the given hosts with every path
// set to the cheap default.
func NewTransport(hosts []core.HostID, seed int64) *Transport {
	t := &Transport{
		paths: make(map[pathKey]PathConfig),
		sinks: make(map[core.HostID]*node.Driver, len(hosts)),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for _, h := range hosts {
		t.sinks[h] = nil
	}
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			t.paths[keyFor(a, b)] = DefaultCheapPath()
		}
	}
	return t
}

// SetPath configures the path between two hosts (both directions).
func (t *Transport) SetPath(a, b core.HostID, cfg PathConfig) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.paths[keyFor(a, b)] = cfg
}

// Path returns the current path configuration between two hosts.
func (t *Transport) Path(a, b core.HostID) PathConfig {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.paths[keyFor(a, b)]
}

// SetClusters configures paths so that hosts within one group communicate
// over cheap paths and hosts in different groups over expensive ones.
func (t *Transport) SetClusters(groups [][]core.HostID) {
	group := make(map[core.HostID]int)
	for g, hosts := range groups {
		for _, h := range hosts {
			group[h] = g + 1
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for key := range t.paths {
		ga, gb := group[key.a], group[key.b]
		if ga != 0 && ga == gb {
			t.paths[key] = DefaultCheapPath()
		} else {
			t.paths[key] = DefaultExpensivePath()
		}
	}
}

// SetReachable flips only the Up bit between two hosts.
func (t *Transport) SetReachable(a, b core.HostID, up bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := keyFor(a, b)
	cfg := t.paths[key]
	cfg.Up = up
	t.paths[key] = cfg
}

// PartitionGroups cuts every path between hosts of different groups
// (paths within a group are untouched).
func (t *Transport) PartitionGroups(groups [][]core.HostID) {
	group := make(map[core.HostID]int)
	for g, hosts := range groups {
		for _, h := range hosts {
			group[h] = g + 1
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for key := range t.paths {
		if group[key.a] != group[key.b] {
			cfg := t.paths[key]
			cfg.Up = false
			t.paths[key] = cfg
		}
	}
}

// HealAll brings every path up.
func (t *Transport) HealAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, cfg := range t.paths {
		cfg.Up = true
		t.paths[key] = cfg
	}
}

// Send transmits an encoded envelope, which it now owns, applying the
// path's failure model. It never blocks: a host that is unreachable,
// unknown, or has no driver attached loses the envelope, exactly like a
// congested network.
func (t *Transport) Send(from, to core.HostID, env *node.Envelope) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		env.Release()
		return
	}
	cfg, ok := t.paths[keyFor(from, to)]
	sink, known := t.sinks[to]
	switch {
	case !ok || !known || !cfg.Up:
		t.dropped++
	case cfg.LossProb > 0 && t.rng.Float64() < cfg.LossProb:
		t.lost++
	case sink == nil:
		t.dropped++
	default:
		delay := cfg.Delay
		if cfg.Jitter > 0 {
			delay += time.Duration(t.rng.Int63n(int64(cfg.Jitter)))
		}
		t.sent++
		t.mu.Unlock()
		costBit := cfg.Expensive
		time.AfterFunc(delay, func() { sink.Offer(env, costBit) })
		return
	}
	t.mu.Unlock()
	env.Release()
}

// Stats returns what the path model counted: envelopes scheduled for
// delivery, dropped (path down, unknown or unattached destination), and
// lost to LossProb. Codec errors and inbox overflow are the drivers'
// (Fleet.NodeStats).
func (t *Transport) Stats() (sent, dropped, lost uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent, t.dropped, t.lost
}

// stop makes all future sends no-ops.
func (t *Transport) stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
}

// attach registers the driver that receives host h's traffic.
func (t *Transport) attach(h core.HostID, d *node.Driver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sinks[h] = d
}
