// Package adversary is the deterministic fault-injection layer: it
// turns chosen simulated hosts into Byzantine participants without
// touching a line of protocol code.
//
// The paper's failure model is benign — links lose, duplicate, and
// reorder; hosts fall silent — so the protocol in internal/core has no
// defenses against hosts that actively lie. The related Byzantine
// reliable-broadcast literature (Imbs & Raynal; Bracha) is about
// exactly such hosts. This package lets the harness and soak sweeps
// explore that frontier: which lies the paper's protocol masks for
// free, and which violate its guarantees in ways the invariant checker
// must detect.
//
// An adversary host keeps running the unmodified correct algorithm;
// its hostility is injected at the netsim transmit seam
// (netsim.TransmitHook), where every outbound message can be dropped,
// rewritten, duplicated, or redirected before it enters the network.
// That placement mirrors the paper's architecture argument: servers
// are nonprogrammable, so the only place a host can misbehave is its
// own network interface.
//
// Behaviors compose: each is a pure rewrite of the outbound
// transmission list, applied in order, driven only by an explicit
// per-host detrand stream — so a run with adversaries is exactly as
// deterministic as one without, and soak sweeps stay byte-identical
// across worker counts.
package adversary

import (
	"fmt"
	"hash/fnv"
	"sort"

	"rbcast/internal/core"
	"rbcast/internal/detrand"
	"rbcast/internal/netsim"
)

// Send is one candidate transmission at the adversary layer: a protocol
// message bound for one destination, with an optional forged cost bit.
type Send struct {
	To           core.HostID
	M            core.Message
	ForceCostBit bool
}

// Stats counts hostile actions one adversary host actually performed.
type Stats struct {
	Equivocated uint64 `json:"equivocated,omitempty"`
	CostForged  uint64 `json:"cost_forged,omitempty"`
	InfoLies    uint64 `json:"info_lies,omitempty"`
	Replayed    uint64 `json:"replayed,omitempty"`
	Silenced    uint64 `json:"silenced,omitempty"`
	Hostile     uint64 `json:"hostile,omitempty"`
}

// add accumulates counters (for controller-level totals).
func (s *Stats) add(o Stats) {
	s.Equivocated += o.Equivocated
	s.CostForged += o.CostForged
	s.InfoLies += o.InfoLies
	s.Replayed += o.Replayed
	s.Silenced += o.Silenced
	s.Hostile += o.Hostile
}

// Ctx is the per-adversary-host mutable state shared by its behaviors.
type Ctx struct {
	// Self is the adversary host's own identity.
	Self core.HostID
	// RNG is the host's private deterministic stream; behaviors must
	// draw all randomness here.
	RNG *detrand.Rand
	// Stats accumulates this host's hostile-action counters.
	Stats *Stats

	// history is the replay ring buffer (see Replay).
	history []Send
	// applications counts hook activations, for every-Nth behaviors.
	applications uint64
	// fakeDigest remembers, per (sequence number, victim), the digest of
	// the equivocated payload sent there, so forged echo/ready votes stay
	// consistent with the forged data (see Equivocate).
	fakeDigest map[seqDest]uint64
}

type seqDest struct {
	seq uint64
	to  core.HostID
}

// Behavior rewrites one outbound transmission list. Implementations
// must be deterministic: same inputs and same Ctx.RNG stream, same
// output, with no map iteration feeding the result order.
type Behavior interface {
	Name() string
	Apply(ctx *Ctx, outs []Send) []Send
}

// Controller owns the adversary hosts of one simulated network.
type Controller struct {
	hosts map[core.HostID]*hostState
}

type hostState struct {
	ctx       *Ctx
	behaviors []Behavior
	// outs and wire are the hook's candidate list and its result, kept
	// from one transmission to the next: the network reads the result —
	// and copies the messages it points at in outs — before the hook can
	// run again (netsim.TransmitHook).
	outs []Send
	wire []netsim.Outbound
}

// Attach installs transmit hooks for every listed host. The per-host
// RNG streams are derived from (seed, host ID) alone, so setup order —
// including the map's iteration order — cannot influence any run.
func Attach(net *netsim.Network, seed int64, hosts map[core.HostID][]Behavior) (*Controller, error) {
	c := &Controller{hosts: make(map[core.HostID]*hostState, len(hosts))}
	for id, behaviors := range hosts {
		if len(behaviors) == 0 {
			return nil, fmt.Errorf("adversary: host %d has no behaviors", id)
		}
		st := &hostState{
			ctx: &Ctx{
				Self:       id,
				RNG:        detrand.New(hostSeed(seed, id)),
				Stats:      &Stats{},
				fakeDigest: make(map[seqDest]uint64),
			},
			behaviors: behaviors,
		}
		if err := net.SetTransmitHook(netsim.HostID(id), st.hook); err != nil {
			return nil, err
		}
		c.hosts[id] = st
	}
	return c, nil
}

// hostSeed mixes the scenario seed with the host identity, FNV-style.
func hostSeed(seed int64, id core.HostID) int64 {
	d := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(uint64(id) >> (8 * i))
	}
	d.Write(buf[:])
	return int64(d.Sum64())
}

// hook is the netsim.TransmitHook for one adversary host. A protocol
// message arrives as a *core.Message, as netsim.SendValue hands it, and
// leaves as pointers into outs, where the behaviors wrote their rewrites,
// so a transmission costs no box.
func (st *hostState) hook(to netsim.HostID, payload any) []netsim.Outbound {
	m, ok := payload.(*core.Message)
	if !ok {
		// Not a protocol message (foreign traffic in some future runtime):
		// pass through untouched.
		return append(st.wire[:0], netsim.Outbound{To: to, Payload: payload})
	}
	st.ctx.applications++
	// The last transmission's candidates go now, the network having copied
	// them, and the payloads and INFO sets they point at with them.
	clear(st.outs)
	outs := append(st.outs[:0], Send{To: core.HostID(to), M: *m})
	for _, b := range st.behaviors {
		outs = b.Apply(st.ctx, outs)
	}
	wire := st.wire[:0]
	for i := range outs {
		wire = append(wire, netsim.Outbound{
			To:           netsim.HostID(outs[i].To),
			Payload:      &outs[i].M,
			ForceCostBit: outs[i].ForceCostBit,
		})
	}
	// What a behavior dropped from the list goes at once.
	clear(outs[len(outs):cap(outs)])
	st.outs, st.wire = outs, wire
	return wire
}

// Hosts returns the adversary-controlled host IDs, sorted.
func (c *Controller) Hosts() []core.HostID {
	out := make([]core.HostID, 0, len(c.hosts))
	for id := range c.hosts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Controls reports whether id is an adversary-controlled host.
func (c *Controller) Controls(id core.HostID) bool {
	_, ok := c.hosts[id]
	return ok
}

// StatsOf returns a copy of one host's hostile-action counters.
func (c *Controller) StatsOf(id core.HostID) Stats {
	if st, ok := c.hosts[id]; ok {
		return *st.ctx.Stats
	}
	return Stats{}
}

// Totals aggregates counters across all adversary hosts.
func (c *Controller) Totals() Stats {
	var t Stats
	for _, id := range c.Hosts() {
		t.add(*c.hosts[id].ctx.Stats)
	}
	return t
}

// mapMsg applies f to a message, descending into bundle parts (bundles
// never nest). f receiving a non-bundle message returns its rewrite.
func mapMsg(m core.Message, f func(core.Message) core.Message) core.Message {
	if m.Kind != core.MsgBundle {
		return f(m)
	}
	parts := make([]core.Message, len(m.Parts))
	for i, p := range m.Parts {
		parts[i] = f(p)
	}
	m.Parts = parts
	return m
}
