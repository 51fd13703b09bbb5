package netsim

import (
	"fmt"
	"time"
	"unsafe"

	"rbcast/internal/sim"
)

// Lane discipline: every transmission executes on the lane owning the
// host/server it currently touches. A host's protocol code runs as lane
// events on its own lane (or from a parked context), so Send derives the
// executing lane from the sender. Host links never cross lanes (a host
// shares its server's lane); server-to-server hops may, in which case
// the hop's delay — at least the shard plan's lookahead for any
// cross-lane link — rides through sim.Loop.ScheduleCross into the
// destination lane's next epoch.

// flight is one message copy in transit. The paper's servers are
// fixed-function store-and-forward switches, so a hop needs no
// continuation, only this record: every link traversal mutates it and
// schedules its run event — bound once, when the record is first
// carved from its chunk — on the lane the copy lands on. A flight is
// owned by the lane executing its current hop: it is taken from that
// lane's free list in Send (or when a link duplicates the copy) and
// returned to the executing lane's list wherever the copy's journey ends,
// so flights migrate between lanes with the traffic and no list is ever
// shared.
type flight struct {
	net *Network
	env Envelope
	dst *hostPort
	// lane is the lane the pending (or running) step executes on.
	lane int
	// at is the server the copy arrives at next; unused once deliver is
	// set.
	at *server
	// deliver marks the final step: the copy is crossing dst's access
	// link and lands at the host handler.
	deliver bool
	// inBox says env.Payload points into box: the copy carries a payload
	// sent by value (SendValue), which a duplicate must not share.
	inBox bool
	// box is the record's own payload storage, carved from a lane's chunk
	// of boxes. It stays with the record across journeys, so a warm
	// SendValue allocates nothing.
	box  payloadBox
	run  sim.Event
	next *flight // free-list link
}

// payloadBox is a flight's storage for one payload sent by value. The
// flight cannot name the payload's type, so what depends on it — copying
// the value for a link duplicate — is a method of the typed box behind
// this interface. (A generic function value stored on the flight would do
// the same job and allocate a closure over its type dictionary on every
// send.)
type payloadBox interface {
	// copyTo places a copy of the stored value in dst's own storage; ls
	// is the executing lane's state.
	copyTo(ls *laneState, dst *flight)
}

type box[P any] struct{ v P }

func (b *box[P]) copyTo(ls *laneState, dst *flight) { place(ls, dst, &b.v) }

// boxChunk is how many boxes a lane allocates at a time. A chunk holds its
// own cursor, so the lane keeps it behind an interface as a pointer, which
// costs no allocation of its own.
const boxChunk = 64

type boxes[P any] struct {
	b    [boxChunk]box[P]
	used int
}

// place copies *v into f's own storage and points the envelope at it. The
// storage is made on the record's first journey with a P — carved from
// the chunk of ls, the executing lane's state, never from that of f.lane,
// which on a recycled record names the lane of its last journey — and
// reused on every later one.
func place[P any](ls *laneState, f *flight, v *P) {
	b, ok := f.box.(*box[P])
	if !ok {
		c, ok := ls.boxes.(*boxes[P])
		if !ok || c.used == boxChunk {
			c = new(boxes[P])
			ls.boxes = c
		}
		b = &c.b[c.used]
		c.used++
		f.box = b
	}
	b.v = *v
	f.env.Payload = &b.v
	f.inBox = true
}

// flightChunk is how many flights are allocated at a time: one 8 KiB size
// class's worth.
const flightChunk = 8192 / int(unsafe.Sizeof(flight{}))

// newFlight takes an idle flight from the lane's free list; when the
// list is empty it carves one from the lane's current chunk (binding its
// run event), allocating the next chunk when that is used up.
func (ls *laneState) newFlight(n *Network) *flight {
	if f := ls.free; f != nil {
		ls.free = f.next
		f.next = nil
		return f
	}
	if len(ls.chunk) == 0 {
		ls.chunk = make([]flight, flightChunk)
	}
	f := &ls.chunk[0]
	ls.chunk = ls.chunk[1:]
	f.net = n
	f.run = f.step
	ls.made++
	return f
}

// release ends a copy's journey: the record drops its references — its
// payload storage stays, holding a value nothing points at any more —
// and joins the executing lane's free list.
func (ls *laneState) release(f *flight) {
	f.env = Envelope{}
	f.dst, f.at, f.deliver, f.inBox = nil, nil, false, false
	f.next = ls.free
	ls.free = f
}

// step is the event a link traversal schedules: the copy lands at its
// next server, or — on the last hop — at the destination host.
func (f *flight) step() {
	n := f.net
	if !f.deliver {
		n.arriveAtServer(f)
		return
	}
	ls := n.perLane[f.lane]
	ls.stats.delivered++
	// Release after the handler returns: a payload sent by value lives in
	// this record, and the handler was promised it until then. A handler
	// that sends therefore takes another record.
	if h := f.dst.handler; h != nil {
		h(n.eng.NowOf(f.lane), f.env)
	}
	ls.release(f)
}

// Send hands a message from host `from` to its server for delivery to
// host `to`. This is the only communication service hosts get: a single
// destination per call, exactly as the paper's nonprogrammable-server
// model dictates. Delivery is best-effort: the message can be lost,
// duplicated, reordered, or silently dropped by link failures, and no
// failure is ever reported to the sender. The handler receives payload
// itself; see SendValue for a send that does not box its payload.
func (n *Network) Send(from, to HostID, payload any) error {
	src, dst, err := n.endpoints(from, to)
	if err != nil {
		return err
	}
	if src.transmit != nil {
		n.viaHook(src, to, payload, func(dst *hostPort, out Outbound) {
			f := n.perLane[src.lane].newFlight(n)
			f.env.Payload = out.Payload
			n.transmitOne(f, src, dst, out.ForceCostBit)
		})
		return nil
	}
	f := n.perLane[src.lane].newFlight(n)
	f.env.Payload = payload
	n.transmitOne(f, src, dst, false)
	return nil
}

// SendValue is Send for a payload passed by value: the value is copied
// into storage owned by the in-flight record, so a warm send allocates
// nothing, and the destination's handler finds a *P in Envelope.Payload.
// That pointer is valid until the handler returns — the storage is reused
// by a later send — so a handler keeps the value, never the pointer. A
// copy duplicated by a link carries its own copy of the value.
//
// A transmit hook is handed a *P too, into a record's storage, and hands
// back a *P for each value it sends: the one it was handed, or one into
// storage of its own (TransmitHook). Each is copied into a record of its
// own before the hook runs again, so a send through a hook costs no box;
// anything else a hook returns travels as Send would carry it.
func SendValue[P any](n *Network, from, to HostID, payload P) error {
	src, dst, err := n.endpoints(from, to)
	if err != nil {
		return err
	}
	if src.transmit != nil {
		ls := n.perLane[src.lane]
		staged := ls.newFlight(n)
		place(ls, staged, &payload)
		n.viaHook(src, to, staged.env.Payload, func(dst *hostPort, out Outbound) {
			f := ls.newFlight(n)
			if v, ok := out.Payload.(*P); ok {
				place(ls, f, v)
			} else {
				f.env.Payload = out.Payload
			}
			n.transmitOne(f, src, dst, out.ForceCostBit)
		})
		// Only now: what the hook let through may point into staged.
		ls.release(staged)
		return nil
	}
	ls := n.perLane[src.lane]
	f := ls.newFlight(n)
	place(ls, f, &payload)
	n.transmitOne(f, src, dst, false)
	return nil
}

// endpoints resolves a send's two hosts.
func (n *Network) endpoints(from, to HostID) (src, dst *hostPort, err error) {
	if src = n.host(from); src == nil {
		return nil, nil, fmt.Errorf("netsim: unknown sender host %d", from)
	}
	if dst = n.host(to); dst == nil {
		return nil, nil, fmt.Errorf("netsim: unknown destination host %d", to)
	}
	if from == to {
		return nil, nil, fmt.Errorf("netsim: host %d sending to itself", from)
	}
	return src, dst, nil
}

// viaHook is the transmit seam: src's hook (an adversary controller)
// decides what actually hits the wire, and each transmission it returns
// goes to emit with its destination resolved. The correct-host code above
// Send observes a successful send either way — exactly the visibility a
// hostile network interface would give it.
func (n *Network) viaHook(src *hostPort, to HostID, payload any, emit func(dst *hostPort, out Outbound)) {
	for _, out := range src.transmit(to, payload) {
		dst := n.host(out.To)
		if dst == nil || out.To == src.id {
			// A hook emitting an unreachable or self destination is a
			// behavior bug, not a network condition; drop silently like
			// any other undeliverable traffic.
			n.perLane[src.lane].stats.droppedNoRoute++
			continue
		}
		emit(dst, out)
	}
}

// transmitOne pushes one concrete transmission, its payload already on
// f, into the network: the envelope and its class, stats, observer hooks,
// then the sender's access link toward its server.
func (n *Network) transmitOne(f *flight, src, dst *hostPort, forceCost bool) {
	lane := src.lane
	ls := n.perLane[lane]
	f.env = Envelope{From: src.id, To: dst.id, CostBit: forceCost, Payload: f.env.Payload, SentAt: n.eng.NowOf(lane)}
	if n.Classify != nil {
		// Once, here, past any transmit hook's rewriting: the hop
		// observers below read the byte and never open the payload.
		f.env.Class = n.Classify(f.env.Payload)
	}
	f.dst = dst
	f.lane = lane
	ls.stats.hostSends++
	clusters := n.trueClustersOf(lane)
	inter := clusters[src.idx] != clusters[dst.idx]
	if inter {
		ls.stats.interClusterSends++
	}
	if n.OnSend != nil {
		n.OnSend(lane, f.env, inter)
	}
	// First hop: the sender's access link up to its server.
	f.at = src.srv
	n.traverseHostLink(f, src)
}

// traverseHostLink models one traversal of a host access link (in either
// direction), applying its delay, loss, and duplication; the copy's next
// step runs on the far side. Host links never cross lanes: the executing
// lane owns both the host and its server.
func (n *Network) traverseHostLink(f *flight, hp *hostPort) {
	ls := n.perLane[f.lane]
	if !hp.up {
		ls.stats.droppedLinkDown++
		ls.release(f)
		return
	}
	ls.stats.byClass[hp.cfg.Class]++
	if n.OnHostLinkTransmit != nil {
		n.OnHostLinkTransmit(f.lane, hp.id, f.env)
	}
	if hp.cfg.Class == Expensive {
		f.env.CostBit = true
	}
	f.env.Hops++
	n.deliverAcross(f, f.lane, &hp.cfg)
}

// arriveAtServer is the per-hop forwarding decision: the server consults
// its current routing table (adaptive: recomputed on topology change) and
// forwards toward the destination's server, or up the destination's host
// link if it is local. The executing lane, f.lane, owns server f.at.
func (n *Network) arriveAtServer(f *flight) {
	ls := n.perLane[f.lane]
	// Adaptive routing can loop transiently while tables converge after a
	// failure; a hop budget bounds such messages' lifetime, and the drop
	// is silent, as all drops are in this model.
	if f.env.Hops > 4+2*(len(n.servers)-1) {
		ls.stats.droppedNoRoute++
		ls.release(f)
		return
	}
	at := f.at
	if at == f.dst.srv {
		f.deliver = true
		n.traverseHostLink(f, f.dst)
		return
	}
	h := n.routesFrom(f.lane, at)[f.dst.srv.id]
	l := h.link
	if l == nil {
		ls.stats.droppedNoRoute++
		ls.release(f)
		return
	}
	ls.stats.byClass[l.cfg.Class]++
	if n.OnLinkTransmit != nil {
		n.OnLinkTransmit(f.lane, l.id, l.cfg.Class, f.env)
	}
	if l.cfg.Class == Expensive {
		f.env.CostBit = true
	}
	f.env.Hops++
	f.at = h.next
	n.deliverAcross(f, h.next.lane, &l.cfg)
}

// deliverAcross applies a link's loss, duplication, and delay+jitter,
// scheduling the step of each surviving copy on toLane. Randomness draws
// from the executing (sending) lane's stream — loss, then duplication,
// then one jitter draw per copy, original first — so the draw sequence
// depends only on that lane's deterministic event order (jitter is
// additive, so a cross-lane hop's delay never falls below the link's
// base Delay — the shard plan's lookahead bound).
func (n *Network) deliverAcross(f *flight, toLane int, cfg *LinkConfig) {
	fromLane := f.lane
	ls := n.perLane[fromLane]
	rng := n.eng.RandOf(fromLane)
	if cfg.LossProb > 0 && rng.Float64() < cfg.LossProb {
		ls.stats.lost++
		ls.release(f)
		return
	}
	var dup *flight
	if cfg.DupProb > 0 && rng.Float64() < cfg.DupProb {
		ls.stats.duplicated++
		dup = ls.newFlight(n)
		dup.env, dup.dst, dup.at, dup.deliver = f.env, f.dst, f.at, f.deliver
		if f.inBox {
			f.box.copyTo(ls, dup)
		}
	}
	for _, c := range [2]*flight{f, dup} {
		if c == nil {
			break
		}
		d := cfg.Delay
		if cfg.Jitter > 0 {
			d += time.Duration(rng.Int63n(int64(cfg.Jitter)))
		}
		c.lane = toLane
		n.eng.ScheduleCross(fromLane, toLane, d, c.run)
	}
}
