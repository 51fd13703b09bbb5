// Package node is the real-time host driver: everything a runtime needs
// to run one host's protocol instances on a wall clock, except how bytes
// leave the host and how the cost bit is observed.
//
// A Driver owns the host's multi.Bus and serializes every interaction
// with it on one goroutine, per core.Host's single-threaded contract:
// the tick timer, inbound envelopes, and the Broadcast/Inspect
// rendezvous all execute there, against a clock that starts with the
// driver. It also owns the envelope codec (a 4-byte stream ID, then a
// wire frame), the one reusable wire.Decoder, and the counters. A
// runtime supplies a Transport — internal/live an in-memory path model,
// internal/udp a socket — and hands what arrives to Offer together with
// the cost bit it observed.
//
// Inbox policy: each driver has one bounded inbox of inboxDepth
// envelopes, modelling finite network buffering. Offer never blocks; an
// envelope offered to a full inbox is dropped, its buffer recycled, and
// Stats.InboxDrops incremented. The protocol tolerates arbitrary loss
// by design, so a host that falls behind loses frames, not liveness.
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/multi"
	"rbcast/internal/seqset"
	"rbcast/internal/wire"
)

// inboxDepth bounds the envelopes queued for one host.
const inboxDepth = 4096

// streamLen is the envelope's stream-ID prefix.
const streamLen = 4

// ErrStopped is returned by Broadcast and Inspect once the driver has
// been stopped.
var ErrStopped = errors.New("node: stopped")

// Envelope is one encoded, stream-prefixed frame — the stream ID, then
// the wire frame — in a reused buffer. It has one owner at a time, and
// the last owner calls Release. A Transport may append its own trailer
// before transmitting.
type Envelope []byte

// The free lists of envelopes and commands are buffered channels, not
// sync.Pools: a pool is emptied at every garbage collection, and a node
// would allocate its working set again after each one. They hold at most
// freeEnvelopes envelopes and freeCommands commands, one per concurrent
// Broadcast or Inspect caller. An in-flight peak of envelopes beyond what
// the list holds is met by carving: a miss makes envelopeChunk envelopes
// at once, envelopeSize bytes each, out of one buffer and one array of
// headers, takes the first and puts the rest on the list, so a burst costs
// two allocations per envelopeChunk envelopes. An envelope whose buffer
// grew past maxEnvelope (a UDP datagram's bound) is dropped on Release
// rather than kept.
const (
	freeEnvelopes = 1024
	freeCommands  = 64
	envelopeChunk = 32
	envelopeSize  = 512
	maxEnvelope   = 64 * 1024
)

var envelopes = make(chan *Envelope, freeEnvelopes)

// NewEnvelope returns an empty envelope for a transport to fill with
// received bytes.
func NewEnvelope() *Envelope {
	select {
	case e := <-envelopes:
		return e
	default:
	}
	buf := make([]byte, envelopeChunk*envelopeSize)
	carved := make([]Envelope, envelopeChunk)
	for i := range carved {
		// Capacity cut to the share: an envelope that outgrows it moves
		// to a buffer of its own instead of writing into the next one.
		carved[i] = buf[i*envelopeSize : i*envelopeSize : (i+1)*envelopeSize]
	}
	for i := 1; i < envelopeChunk; i++ {
		select {
		case envelopes <- &carved[i]:
		default: // the list filled meanwhile; the rest go unused
			return &carved[0]
		}
	}
	return &carved[0]
}

// Release returns the envelope's buffer for reuse.
func (e *Envelope) Release() {
	if cap(*e) > maxEnvelope {
		return
	}
	*e = (*e)[:0]
	select {
	case envelopes <- e:
	default:
	}
}

// EncodeEnvelope renders a frame on the given stream (streams are keyed
// by source host) into an envelope from the free list.
func EncodeEnvelope(stream core.HostID, f wire.Frame) (*Envelope, error) {
	e := NewEnvelope()
	out, err := wire.AppendEncode(binary.BigEndian.AppendUint32(*e, uint32(stream)), f)
	if err != nil {
		e.Release()
		return nil, err
	}
	*e = out
	return e, nil
}

// DecodeEnvelope is the one place inbound bytes become a message. It
// splits envelope bytes into stream and frame using dec, so the frame's
// Payload and Info are valid only until dec is next used; no handler of
// core keeps either past its return.
func DecodeEnvelope(dec *wire.Decoder, data []byte) (core.HostID, wire.Frame, error) {
	if len(data) < streamLen {
		return 0, wire.Frame{}, fmt.Errorf("node: envelope too short")
	}
	f, err := dec.Decode(data[streamLen:])
	if err != nil {
		return 0, wire.Frame{}, err
	}
	return core.HostID(binary.BigEndian.Uint32(data[:streamLen])), f, nil
}

// Transport carries encoded envelopes to peers.
type Transport interface {
	// Send transmits env to a peer, best-effort and without blocking.
	// The transport owns env from the call on, whatever it returns, and
	// releases it when done.
	Send(to core.HostID, env *Envelope) error
}

// Config assembles a Driver.
type Config struct {
	// Bus configures the host's protocol instances, one per source.
	Bus multi.Config
	// OnDeliver observes every application delivery on the node
	// goroutine; may be nil. payload is the host's stored copy and shares
	// an allocation of up to 32 KiB with its neighbours (core.Env.Deliver):
	// read it freely, never write it, and copy it if it is to be kept for
	// long. The node waits for it: calling Broadcast or Inspect from it,
	// or waiting on either, blocks the node until Stop. Reading Stats is
	// safe (TestOnDeliverMayReadItsDriver).
	OnDeliver func(stream core.HostID, seq seqset.Seq, payload []byte)
}

// Stats counts a driver's traffic.
type Stats struct {
	// Sent counts envelopes handed to the transport; SendErrors those
	// that failed to encode or that the transport refused.
	Sent, SendErrors uint64
	// Received counts inbound envelopes decoded and handled;
	// DecodeErrors those rejected as malformed.
	Received, DecodeErrors uint64
	// InboxDrops counts envelopes offered while the inbox was full.
	InboxDrops uint64
}

type inbound struct {
	env     *Envelope
	costBit bool
}

// Driver runs one host.
type Driver struct {
	bus       *multi.Bus
	tr        Transport
	onDeliver func(stream core.HostID, seq seqset.Seq, payload []byte)
	tick      time.Duration
	started   time.Time

	inbox    chan inbound
	cmds     chan *command
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// dec reuses payload and interval buffers across inbound frames; it
	// is only touched from the node goroutine.
	dec wire.Decoder

	sent, sendErrors, received, decodeErrors, inboxDrops atomic.Uint64
}

// Start constructs the host's protocol instances and starts its
// goroutine.
func Start(cfg Config, tr Transport) (*Driver, error) {
	d, err := newDriver(cfg, tr)
	if err != nil {
		return nil, err
	}
	go d.run()
	return d, nil
}

func newDriver(cfg Config, tr Transport) (*Driver, error) {
	d := &Driver{
		tr:        tr,
		onDeliver: cfg.OnDeliver,
		tick:      cfg.Bus.Params.TickInterval,
		started:   time.Now(),
		inbox:     make(chan inbound, inboxDepth),
		cmds:      make(chan *command, 16),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	bus, err := multi.NewBus(cfg.Bus, (*busEnv)(d))
	if err != nil {
		return nil, err
	}
	d.bus = bus
	return d, nil
}

// now is the time hosts see: time since the driver was created.
func (d *Driver) now() time.Duration { return time.Since(d.started) }

// run is the host's event loop.
func (d *Driver) run() {
	defer close(d.done)
	ticker := time.NewTicker(d.tick)
	defer ticker.Stop()
	d.bus.Start(d.now())
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.bus.Tick(d.now())
		case in := <-d.inbox:
			d.receive(in)
		case c := <-d.cmds:
			d.exec(c)
		}
	}
}

// receive handles one inbound envelope.
func (d *Driver) receive(in inbound) {
	stream, f, err := DecodeEnvelope(&d.dec, *in.env)
	in.env.Release()
	if err != nil {
		d.decodeErrors.Add(1)
		return
	}
	d.received.Add(1)
	d.bus.HandleMessage(d.now(), f.From, in.costBit, stream, f.Message)
}

// Offer queues an inbound envelope with the cost bit the transport
// observed for it, taking ownership of env. It never blocks: when the
// inbox is full the envelope is dropped and counted.
func (d *Driver) Offer(env *Envelope, costBit bool) {
	select {
	case d.inbox <- inbound{env: env, costBit: costBit}:
	default:
		d.inboxDrops.Add(1)
		env.Release()
	}
}

// busEnv is the multi.Env face of a driver; its methods run on the node
// goroutine.
type busEnv Driver

func (e *busEnv) Send(to core.HostID, stream core.HostID, m core.Message) {
	d := (*Driver)(e)
	env, err := EncodeEnvelope(stream, wire.Frame{From: d.bus.ID(), Message: m})
	if err == nil {
		err = d.tr.Send(to, env)
	}
	if err != nil {
		d.sendErrors.Add(1)
		return
	}
	d.sent.Add(1)
}

func (e *busEnv) Deliver(stream core.HostID, seq seqset.Seq, payload []byte) {
	if e.onDeliver != nil {
		e.onDeliver(stream, seq, payload)
	}
}

// command is one Broadcast or Inspect rendezvous: what the caller asks,
// what the node goroutine answers, and the channel the answer is
// signalled on. A command is reused through the commands free list, its
// done channel with it.
type command struct {
	// payload is a Broadcast's message; host, when set, makes the command
	// an Inspect of it with inspect instead.
	payload []byte
	host    *core.Host
	inspect func(h *core.Host)

	// seq and err are a Broadcast's results, valid once done is signalled.
	seq seqset.Seq
	err error
	// done holds one token per execution; buffered, so the node goroutine
	// never waits for a caller that Stop has already released.
	done chan struct{}
}

var commands = make(chan *command, freeCommands)

// newCommand returns an empty command from the free list, or a new one.
func newCommand() *command {
	select {
	case c := <-commands:
		return c
	default:
		return &command{done: make(chan struct{}, 1)}
	}
}

// release returns an answered command to the free list, holding nothing
// of its caller's.
func (c *command) release() {
	*c = command{done: c.done}
	select {
	case commands <- c:
	default:
	}
}

// exec runs c on the node goroutine and signals its caller.
func (d *Driver) exec(c *command) {
	if c.host != nil {
		c.inspect(c.host)
	} else {
		c.seq, c.err = d.bus.Broadcast(d.now(), c.payload)
	}
	c.done <- struct{}{}
}

// call hands c to the node goroutine and waits for it. On ErrStopped the
// caller must abandon c rather than release it: the node goroutine may
// still hold it.
func (d *Driver) call(c *command) error {
	select {
	case d.cmds <- c:
	case <-d.stop:
		return ErrStopped
	}
	select {
	case <-c.done:
		return nil
	case <-d.stop:
		return ErrStopped
	}
}

// Broadcast injects the next data message on this host's own stream and
// returns once the node goroutine has processed it. It errors if the
// host is not a source.
func (d *Driver) Broadcast(payload []byte) (seqset.Seq, error) {
	c := newCommand()
	c.payload = payload
	if err := d.call(c); err != nil {
		return 0, err
	}
	seq, err := c.seq, c.err
	c.release()
	return seq, err
}

// Inspect runs fn on the node goroutine against one stream's protocol
// instance and waits for it — the only safe way to read a running
// host's state.
func (d *Driver) Inspect(stream core.HostID, fn func(h *core.Host)) error {
	h := d.bus.Instance(stream)
	if h == nil {
		return fmt.Errorf("node: unknown stream %d", stream)
	}
	c := newCommand()
	c.host, c.inspect = h, fn
	if err := d.call(c); err != nil {
		return err
	}
	c.release()
	return nil
}

// Stats returns a snapshot of the driver's counters.
func (d *Driver) Stats() Stats {
	return Stats{
		Sent:         d.sent.Load(),
		SendErrors:   d.sendErrors.Load(),
		Received:     d.received.Load(),
		DecodeErrors: d.decodeErrors.Load(),
		InboxDrops:   d.inboxDrops.Load(),
	}
}

// Stop terminates the node goroutine and waits for it. Safe to call
// more than once and from several goroutines.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}
