// Package tracedsim is the benchmark's own bare simulation driver: it
// wires sim + topo/netsim + core with the same calls, in the same order,
// as harness.Prepare does for a tree-protocol scenario, but keeps none
// of the harness's accounting. Because the layers compose only through
// callbacks and interfaces the caller supplies, the driver can take a
// span around every layer-boundary call from outside the program; with
// spans off the same driver gives the bare wall time the harness's
// overhead is measured against.
package tracedsim

import (
	"sync/atomic"
	"time"

	"rbcast/internal/core"
)

// Name identifies a span kind. Names are small integers so the per-span
// aggregate is an array index, not a map lookup, on the hot path.
type Name uint8

// Span kinds, one per layer-boundary call.
const (
	// SimRun is the root: one Loop.Run call.
	SimRun Name = iota
	// SimSchedule is one Schedule/ScheduleOn/EveryOn/ScheduleCross call
	// into the event queue.
	SimSchedule
	// NetsimSend is one Network.Send call made from the driver's
	// core.Env.Send.
	NetsimSend
	// NetsimHop is one callback netsim scheduled: a link traversal
	// landing at a server or, on the last hop, at the host handler.
	NetsimHop
	// CoreTick is one Host.Tick.
	CoreTick
	// CoreBroadcast is one Host.Broadcast.
	CoreBroadcast
	// DriverDeliver is the driver's own core.Env.Deliver callback.
	DriverDeliver
	// coreHandle0 + kind is one Host.HandleMessage of that MsgKind.
	coreHandle0
)

// maxKind is the highest core.MsgKind the tracer names.
const maxKind = int(core.MsgSnapChunk)

// numNames sizes the aggregate arrays.
const numNames = int(coreHandle0) + maxKind + 1

// HandleName returns the span kind for Host.HandleMessage of kind k.
func HandleName(k core.MsgKind) Name {
	if k < 1 || int(k) > maxKind {
		return coreHandle0
	}
	return coreHandle0 + Name(k)
}

// String returns the dotted metric-style name, e.g. "core.handle.data".
func (n Name) String() string {
	switch n {
	case SimRun:
		return "sim.run"
	case SimSchedule:
		return "sim.schedule"
	case NetsimSend:
		return "netsim.send"
	case NetsimHop:
		return "netsim.hop"
	case CoreTick:
		return "core.tick"
	case CoreBroadcast:
		return "core.broadcast"
	case DriverDeliver:
		return "driver.deliver"
	case coreHandle0:
		return "core.handle.unknown"
	}
	return "core.handle." + core.MsgKind(n-coreHandle0).String()
}

// Span is one recorded layer-boundary call. Times are nanoseconds of
// host clock since the tracer was created.
type Span struct {
	ID uint64 `json:"id"`
	// Parent is the span that caused this one: the enclosing span for a
	// nested call, the span that scheduled it for an event callback.
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	// Ctx is the execution context: the lane, or the lane count for the
	// coordinator context of a sharded run.
	Ctx   int   `json:"ctx"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Req is the broadcast sequence number on the data path, else 0.
	Req uint64 `json:"req,omitempty"`
}

// Agg is the on-the-fly aggregate of one span kind.
type Agg struct {
	Count uint64
	// BusyNS sums span durations; SelfNS sums durations minus the part
	// covered by child spans.
	BusyNS int64
	SelfNS int64
}

type frame struct {
	id     uint64
	parent uint64
	name   Name
	req    uint64
	start  int64
	child  int64 // nanoseconds covered by completed child spans
}

// laneCtx is one execution context's private tracer state. A lane's
// context is touched only by the worker executing that lane during an
// epoch and only by the coordinator between epochs, the same discipline
// (and the same happens-before edge) as the lane's event queue.
type laneCtx struct {
	stack  []frame
	agg    [numNames]Agg
	nextID uint64
	topNS  int64 // busy time of spans that started on an empty stack
	raw    []Span
	// pad keeps neighbouring contexts off one cache line.
	_ [64]byte
}

// Tracer records spans per execution context.
type Tracer struct {
	base time.Time
	ctxs []laneCtx
	// parked routes every span to the coordinator context while a global
	// event (all lanes parked) is executing. Written by the coordinator
	// between epochs only.
	parked bool
	keep   int64
	kept   atomic.Int64
}

// NewTracer returns a tracer for a loop with the given lane count,
// keeping at most keepRaw raw spans. A one-lane loop has a single
// context; a sharded loop has one per lane plus the coordinator's.
func NewTracer(lanes, keepRaw int) *Tracer {
	n := 1
	if lanes > 1 {
		n = lanes + 1
	}
	t := &Tracer{base: time.Now(), ctxs: make([]laneCtx, n), keep: int64(keepRaw)}
	for i := range t.ctxs {
		// Span IDs are unique across contexts without coordination: the
		// context index lives in the top bits.
		t.ctxs[i].nextID = uint64(i) << 40
	}
	return t
}

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *Tracer) ctxIndex(lane int) int {
	if len(t.ctxs) == 1 {
		return 0
	}
	if t.parked {
		return len(t.ctxs) - 1
	}
	return lane
}

// coordinator is the context index global events and Run calls use.
func (t *Tracer) coordinator() int { return len(t.ctxs) - 1 }

// Begin opens a span on lane's context. cause, when nonzero, overrides
// the enclosing span as the recorded parent (event callbacks pass the
// span that scheduled them).
func (t *Tracer) Begin(lane int, name Name, req, cause uint64) {
	c := &t.ctxs[t.ctxIndex(lane)]
	c.nextID++
	f := frame{id: c.nextID, parent: cause, name: name, req: req}
	if n := len(c.stack); n > 0 {
		top := &c.stack[n-1]
		if cause == 0 {
			f.parent = top.id
		}
		if req == 0 {
			f.req = top.req
		}
	}
	f.start = t.now()
	c.stack = append(c.stack, f)
}

// End closes the innermost open span on lane's context.
func (t *Tracer) End(lane int) {
	end := t.now()
	ci := t.ctxIndex(lane)
	c := &t.ctxs[ci]
	n := len(c.stack) - 1
	f := c.stack[n]
	c.stack = c.stack[:n]
	dur := end - f.start
	a := &c.agg[f.name]
	a.Count++
	a.BusyNS += dur
	a.SelfNS += dur - f.child
	if n > 0 {
		c.stack[n-1].child += dur
	} else {
		c.topNS += dur
	}
	if t.kept.Load() < t.keep && t.kept.Add(1) <= t.keep {
		c.raw = append(c.raw, Span{ID: f.id, Parent: f.parent, Name: f.name.String(),
			Ctx: ci, Start: f.start, End: end, Req: f.req})
	}
}

// Current returns the innermost open span on lane's context and its
// request id, or zeros when none is open.
func (t *Tracer) Current(lane int) (id, req uint64) {
	c := &t.ctxs[t.ctxIndex(lane)]
	if n := len(c.stack); n > 0 {
		return c.stack[n-1].id, c.stack[n-1].req
	}
	return 0, 0
}

// Totals merges the per-context aggregates. Parked contexts only.
func (t *Tracer) Totals() map[string]Agg {
	out := make(map[string]Agg)
	for i := range t.ctxs {
		for n, a := range t.ctxs[i].agg {
			if a.Count == 0 {
				continue
			}
			name := Name(n).String()
			m := out[name]
			m.Count += a.Count
			m.BusyNS += a.BusyNS
			m.SelfNS += a.SelfNS
			out[name] = m
		}
	}
	return out
}

// LaneBusyNS returns, per lane, the busy time of the spans that ran at
// the top of that lane's stack (a sharded run's per-lane work). A
// one-lane run returns a single entry.
func (t *Tracer) LaneBusyNS() []int64 {
	n := len(t.ctxs)
	if n > 1 {
		n-- // the coordinator is not a lane
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = t.ctxs[i].topNS
	}
	return out
}

// Raw returns the kept raw spans, in context order. Parked contexts
// only.
func (t *Tracer) Raw() []Span {
	var out []Span
	for i := range t.ctxs {
		out = append(out, t.ctxs[i].raw...)
	}
	return out
}
