package tracedsim

import (
	"fmt"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

// Config describes one tree-protocol run. The fields mirror the
// harness.Scenario fields the benchmark workloads set; defaults match
// the harness's.
type Config struct {
	Seed   int64
	Shards int
	Topo   topo.ClusteredConfig
	// Messages, MsgInterval and Drain shape the workload exactly as in
	// harness.Scenario; the run always stops at completion.
	Messages    int
	MsgInterval time.Duration
	Drain       time.Duration
	// PayloadFor supplies the i-th broadcast's payload (0-based).
	PayloadFor func(i int) []byte
	// Trace turns spans and counters on; off, the driver adds nothing to
	// the layers' own work but a per-host delivered set.
	Trace bool
	// KeepSpans caps the raw spans kept (aggregates cover all of them).
	KeepSpans int
	// KeepFrames caps the sent frames sampled for the codec corpus. The
	// sample is spread evenly over the run: a lane keeps every stride-th
	// frame it sends and doubles the stride whenever its share fills up.
	KeepFrames int
}

// warmUp is the simulated time before the first broadcast: the harness's
// default, which every benchmark scenario runs with.
const warmUp = 3 * time.Second

// Frame is one captured host-level send.
type Frame struct {
	From core.HostID
	Msg  core.Message
}

// laneCounts is what one lane's events count; each lane writes only its
// own element, merged from parked contexts.
type laneCounts struct {
	delivered  int
	duplicates int
	sendErrors int
	// Traced runs only.
	sends       uint64
	handleSends uint64 // sends made from inside HandleMessage
	accepted    uint64
	duplicate   uint64
	rejected    uint64
	frames      []Frame
	stride      uint64 // keep every stride-th send; 0 until the first
	_           [64]byte
}

// sample keeps frame number n (1-based) of this lane if it falls on the
// current stride, halving the kept set and doubling the stride at limit.
func (lc *laneCounts) sample(n uint64, limit int, f Frame) {
	if limit == 0 {
		return
	}
	if lc.stride == 0 {
		lc.stride = 1
	}
	if n%lc.stride != 0 {
		return
	}
	if len(lc.frames) == limit {
		kept := lc.frames[:0]
		for i := 1; i < len(lc.frames); i += 2 {
			kept = append(kept, lc.frames[i])
		}
		lc.frames = kept
		lc.stride *= 2
		if n%lc.stride != 0 {
			return
		}
	}
	lc.frames = append(lc.frames, f)
}

// Run is a prepared simulation.
type Run struct {
	cfg    Config
	eng    sim.Loop // the raw engine: the driver schedules on it directly
	Net    *netsim.Network
	Topo   *topo.Topology
	Tracer *Tracer // nil unless cfg.Trace
	hosts  map[core.HostID]*core.Host
	// delivered holds, per host, the sequence numbers delivered so far.
	delivered map[core.HostID]*seqset.Set
	lanes     []laneCounts
	expected  int
	frameCap  int
}

// Outcome is what a finished run measured.
type Outcome struct {
	EventsRun uint64
	// Wall is the host time spent inside Finish's run loop.
	Wall time.Duration
	// VirtualEnd is the simulated instant the run stopped at.
	VirtualEnd time.Duration
	Complete   bool
	Delivered  int
	Expected   int
	Duplicates int
	SendErrors int
	Net        netsim.Stats
	// Traced runs only.
	HandleSends uint64
	Accepted    uint64
	Duplicate   uint64
	Rejected    uint64
	Frames      []Frame
}

// tracedLoop is the sim.Loop handed to the topology builder on traced
// runs. netsim schedules every link traversal through ScheduleCross, so
// timing that call and wrapping its callback yields the sim.schedule and
// netsim.hop spans without touching netsim.
type tracedLoop struct {
	sim.Loop
	tr *Tracer
}

func (l *tracedLoop) ScheduleCross(from, to int, delay time.Duration, fn sim.Event) {
	cause, req := l.tr.Current(from)
	l.tr.Begin(from, SimSchedule, 0, 0)
	l.Loop.ScheduleCross(from, to, delay, func() {
		l.tr.Begin(to, NetsimHop, req, cause)
		fn()
		l.tr.End(to)
	})
	l.tr.End(from)
}

// Prepare builds the run: engine, topology, shard plan, hosts, tick
// loops and workload, in harness.Prepare's order, so that for one seed
// the event sequence is the harness's own.
func Prepare(cfg Config) (*Run, error) {
	if cfg.MsgInterval <= 0 {
		cfg.MsgInterval = 200 * time.Millisecond
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 30 * time.Second
	}
	if cfg.PayloadFor == nil {
		return nil, fmt.Errorf("tracedsim: Config.PayloadFor is nil")
	}
	var eng sim.Loop
	var sharded *sim.Sharded
	if cfg.Shards > 0 {
		sharded = sim.NewSharded(cfg.Seed, cfg.Shards)
		eng = sharded
	} else {
		eng = sim.NewEngine(cfg.Seed)
	}
	r := &Run{cfg: cfg, eng: eng}
	build := eng
	if cfg.Trace {
		// The lane count is known only after the shard plan; the tracer is
		// attached to the decorator below, before any event is scheduled.
		build = &tracedLoop{Loop: eng}
	}
	tp, err := topo.Clustered(build, cfg.Topo)
	if err != nil {
		return nil, fmt.Errorf("tracedsim: building topology: %w", err)
	}
	if sharded != nil {
		plan := tp.Net.ComputeShardPlan()
		sharded.SetLanes(plan.Weights, plan.Lookahead)
		if err := tp.Net.ApplyShardPlan(plan); err != nil {
			return nil, fmt.Errorf("tracedsim: applying shard plan: %w", err)
		}
	}
	r.Topo, r.Net = tp, tp.Net
	r.lanes = make([]laneCounts, tp.Net.Lanes())
	if cfg.Trace {
		r.Tracer = NewTracer(tp.Net.Lanes(), cfg.KeepSpans)
		r.Tracer.parked = true
		build.(*tracedLoop).tr = r.Tracer
		// Split the frame budget so lanes capture without sharing a slice.
		r.frameCap = (cfg.KeepFrames + len(r.lanes) - 1) / len(r.lanes)
	}
	if err := r.buildHosts(); err != nil {
		return nil, err
	}
	r.scheduleWorkload()
	return r, nil
}

// env is the driver's core.Env for one host.
type env struct {
	r    *Run
	id   core.HostID
	lane int
}

// reqOf returns the broadcast sequence number a message carries on the
// data path, or 0.
func reqOf(m core.Message) uint64 {
	switch m.Kind {
	case core.MsgData:
		return uint64(m.Seq)
	case core.MsgBundle:
		for _, p := range m.Parts {
			if p.Kind == core.MsgData {
				return uint64(p.Seq)
			}
		}
	}
	return 0
}

func (e env) Send(to core.HostID, m core.Message) {
	r := e.r
	tr := r.Tracer
	if tr == nil {
		if err := r.Net.Send(netsim.HostID(e.id), netsim.HostID(to), m); err != nil {
			r.lanes[e.lane].sendErrors++
		}
		return
	}
	lc := &r.lanes[e.lane]
	lc.sends++
	lc.sample(lc.sends, r.frameCap, Frame{From: e.id, Msg: m})
	tr.Begin(e.lane, NetsimSend, reqOf(m), 0)
	if err := r.Net.Send(netsim.HostID(e.id), netsim.HostID(to), m); err != nil {
		lc.sendErrors++
	}
	tr.End(e.lane)
}

func (e env) Deliver(seq seqset.Seq, _ []byte) {
	r := e.r
	if r.Tracer != nil {
		r.Tracer.Begin(e.lane, DriverDeliver, uint64(seq), 0)
		defer r.Tracer.End(e.lane)
	}
	lc := &r.lanes[e.lane]
	if !r.delivered[e.id].Add(seq) {
		lc.duplicates++
		return
	}
	lc.delivered++
}

func (r *Run) buildHosts() error {
	peers := make([]core.HostID, 0, len(r.Topo.Hosts))
	for _, h := range r.Topo.Hosts {
		peers = append(peers, core.HostID(h))
	}
	source := core.HostID(r.Topo.Source)
	params := core.DefaultParams()
	r.hosts = make(map[core.HostID]*core.Host, len(peers))
	r.delivered = make(map[core.HostID]*seqset.Set, len(peers))
	r.expected = len(peers) * r.cfg.Messages
	tr := r.Tracer
	for _, id := range peers {
		lane := r.Net.LaneOfHost(netsim.HostID(id))
		r.delivered[id] = &seqset.Set{}
		var obs core.Observer
		if tr != nil {
			lc := &r.lanes[lane]
			obs = func(ev core.Event) {
				switch ev.Kind {
				case core.EvAccepted:
					lc.accepted++
				case core.EvDuplicate:
					lc.duplicate++
				case core.EvRejected:
					lc.rejected++
				}
			}
		}
		h, err := core.NewHost(core.Config{
			ID:         id,
			Source:     source,
			Peers:      peers,
			Params:     params,
			JitterSeed: r.cfg.Seed,
			Observer:   obs,
		}, env{r: r, id: id, lane: lane})
		if err != nil {
			return fmt.Errorf("tracedsim: host %d: %w", id, err)
		}
		r.hosts[id] = h
		handler := func(now time.Duration, e netsim.Envelope) {
			m, ok := e.Payload.(core.Message)
			if !ok {
				return
			}
			h.HandleMessage(now, core.HostID(e.From), e.CostBit, m)
		}
		if tr != nil {
			lc := &r.lanes[lane]
			handler = func(now time.Duration, e netsim.Envelope) {
				m, ok := e.Payload.(core.Message)
				if !ok {
					return
				}
				before := lc.sends
				tr.Begin(lane, HandleName(m.Kind), reqOf(m), 0)
				h.HandleMessage(now, core.HostID(e.From), e.CostBit, m)
				tr.End(lane)
				lc.handleSends += lc.sends - before
			}
		}
		if err := r.Net.Handle(netsim.HostID(id), handler); err != nil {
			return err
		}
		r.tickLoop(lane, params.TickInterval, h.Tick)
	}
	return nil
}

// tickLoop mirrors harness.Runtime.tickLoop: an immediate tick, then a
// periodic one, both on the host's own lane.
func (r *Run) tickLoop(lane int, interval time.Duration, tick func(time.Duration)) {
	fn := func() { tick(r.eng.NowOf(lane)) }
	tr := r.Tracer
	if tr == nil {
		r.eng.ScheduleOn(lane, 0, fn)
		r.eng.EveryOn(lane, interval, fn)
		return
	}
	traced := func() {
		tr.Begin(lane, CoreTick, 0, 0)
		fn()
		tr.End(lane)
	}
	tr.Begin(lane, SimSchedule, 0, 0)
	r.eng.ScheduleOn(lane, 0, traced)
	tr.End(lane)
	tr.Begin(lane, SimSchedule, 0, 0)
	r.eng.EveryOn(lane, interval, traced)
	tr.End(lane)
}

func (r *Run) scheduleWorkload() {
	cfg := r.cfg
	src := r.hosts[core.HostID(r.Topo.Source)]
	tr := r.Tracer
	for i := 0; i < cfg.Messages; i++ {
		at := warmUp + time.Duration(i)*cfg.MsgInterval
		fn := func() { src.Broadcast(r.eng.Now(), cfg.PayloadFor(i)) }
		if tr == nil {
			r.eng.Schedule(at, fn)
			continue
		}
		co := tr.coordinator()
		tr.Begin(co, SimSchedule, 0, 0)
		r.eng.Schedule(at, func() {
			// A global event: every lane is parked, and whatever it calls
			// (the source's sends included) belongs to the coordinator.
			tr.parked = true
			tr.Begin(co, CoreBroadcast, uint64(i+1), 0)
			fn()
			tr.End(co)
			tr.parked = false
		})
		tr.End(co)
	}
}

// deliveredTotal sums the lanes' delivery counters. Parked contexts
// only.
func (r *Run) deliveredTotal() int {
	n := 0
	for i := range r.lanes {
		n += r.lanes[i].delivered
	}
	return n
}

// Finish runs to completion or the horizon, stepping the loop exactly
// as harness.Runtime.RunUntil does, and reports the outcome.
func (r *Run) Finish() (*Outcome, error) {
	cfg := r.cfg
	until := warmUp + time.Duration(cfg.Messages)*cfg.MsgInterval + cfg.Drain
	const step = 100 * time.Millisecond
	tr := r.Tracer
	start := time.Now()
	for r.eng.Now() < until {
		next := r.eng.Now() + step
		if next > until {
			next = until
		}
		var err error
		if tr == nil {
			err = r.eng.Run(next)
		} else {
			tr.Begin(tr.coordinator(), SimRun, 0, 0)
			tr.parked = false
			err = r.eng.Run(next)
			tr.parked = true
			tr.End(tr.coordinator())
		}
		if err != nil {
			return nil, err
		}
		if r.deliveredTotal() == r.expected {
			break
		}
	}
	out := &Outcome{
		EventsRun:  r.eng.EventsRun(),
		Wall:       time.Since(start),
		VirtualEnd: r.eng.Now(),
		Expected:   r.expected,
		Net:        *r.Net.Stats(),
	}
	for i := range r.lanes {
		lc := &r.lanes[i]
		out.Delivered += lc.delivered
		out.Duplicates += lc.duplicates
		out.SendErrors += lc.sendErrors
		out.HandleSends += lc.handleSends
		out.Accepted += lc.accepted
		out.Duplicate += lc.duplicate
		out.Rejected += lc.rejected
		out.Frames = append(out.Frames, lc.frames...)
	}
	if len(out.Frames) > cfg.KeepFrames {
		out.Frames = out.Frames[:cfg.KeepFrames]
	}
	out.Complete = out.Delivered == out.Expected
	return out, nil
}

// DeliveredPairs reports every (host, seq) delivered so far. Parked
// contexts only.
func (r *Run) DeliveredPairs() map[core.HostID][]seqset.Seq {
	out := make(map[core.HostID][]seqset.Seq, len(r.delivered))
	for id, set := range r.delivered {
		out[id] = set.Slice()
	}
	return out
}
