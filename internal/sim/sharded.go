package sim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync/atomic"
	"time"

	"rbcast/internal/detrand"
)

// Sharded is a conservative parallel discrete-event engine. Work is
// partitioned into lanes — independently clocked event queues, each a
// full sequential Engine with its own event queue and its own seeded
// detrand stream derived as hash(seed, lane) — and lanes are executed by
// a pool of worker goroutines between lockstep epoch barriers.
//
// The synchronization protocol is classic conservative lookahead: if
// every cross-lane interaction carries a delay of at least δ (the
// minimum cross-lane link latency, supplied to SetLanes), then a lane
// executing events in the window [T, T+δ) can never receive an event
// dated inside that window from another lane. Each epoch therefore runs
// every lane independently up to the barrier, with cross-lane events
// accumulating in per-lane-pair mailboxes that the coordinator drains —
// in deterministic (destination, source) lane order — while the lanes
// are parked at the barrier.
//
// Determinism contract: the trace of a seeded run depends only on the
// seed and the lane partition — never on the worker count. The partition
// is derived from the topology (netsim's ShardPlan), so running the same
// scenario with 1, 2, 4, or 8 workers yields bit-identical traces; the
// worker count is purely a throughput knob. (A sharded run is *not*
// byte-identical to a sequential-Engine run of the same seed: lanes draw
// from per-lane PRNG streams, where the sequential engine has a single
// stream. The two are distinct, individually reproducible executions.)
//
// Events scheduled through the global context (Schedule, Every) run at
// epoch barriers with every lane parked, and see their exact scheduled
// time: the coordinator caps each barrier at the next global event's
// instant, quiesces the lanes there, and only then runs the event. This
// makes the global queue the safe home for topology mutations, invariant
// probes, and monitors — they observe and mutate a fully synchronized
// simulation, exactly as they would on the sequential Engine.
type Sharded struct {
	seed    int64
	workers int // requested worker count (the Shards knob)

	global *Engine // coordinator-context clock, queue, and PRNG
	lanes  []*shardLane
	epoch  time.Duration // conservative lookahead δ

	// assign maps each live worker to the lanes it executes; built once
	// in SetLanes by greedy weight balancing. len(assign) <= workers and
	// every row is non-empty.
	assign [][]*shardLane

	// jobs/done are the per-Run worker pool channels; nil while no run
	// is in flight or when a single worker executes lanes inline.
	jobs []chan epochJob
	done chan struct{}

	// running is true while lane events are executing; guards the
	// global- and lane-scheduling entry points against misuse from
	// inside lane events. Written by the coordinator only; the channel
	// send/receive pair around each epoch orders any worker-side read.
	running bool
	// exec is the lane whose events are executing when the coordinator
	// runs lanes inline (one worker), and nil otherwise: it is how a lane
	// event's NowOf, RandOf and ScheduleCross are held to their own lane.
	// With a worker pool it stays nil, and -race is the check.
	exec *shardLane

	stopped atomic.Bool
}

// shardLane is one lane: a private sequential engine plus its outgoing
// cross-lane mailboxes (one row per destination lane). During an epoch a
// lane is touched only by the single worker executing it; between
// epochs, only by the coordinator. The epoch-job channel handoff is the
// happens-before edge between the two.
type shardLane struct {
	id  int
	eng *Engine
	out [][]crossEvent // indexed by destination lane
}

// crossEvent is one mailbox entry: an event bound for another lane,
// stamped with its absolute virtual instant.
type crossEvent struct {
	at time.Duration
	fn Event
}

// epochJob instructs a worker to run its lanes' events through limit
// (inclusive) and park their clocks at barrier.
type epochJob struct {
	lanes   []*shardLane
	limit   time.Duration
	barrier time.Duration
	done    chan<- struct{}
}

// noLookahead is the epoch length used when the partition reports no
// cross-lane links at all: effectively unbounded, so barriers fall only
// on global events and run horizons.
const noLookahead = time.Duration(1) << 50

// laneSeed derives lane's PRNG seed from the run seed, mixing both
// through FNV-1a so neighboring lanes get unrelated streams.
func laneSeed(seed int64, lane int) int64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(lane))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// NewSharded returns a sharded engine with the given run seed and worker
// count. It starts with a single lane and no lookahead bound; call
// SetLanes (typically via netsim's shard plan) before scheduling lane
// events.
func NewSharded(seed int64, workers int) *Sharded {
	if workers < 1 {
		workers = 1
	}
	s := &Sharded{seed: seed, workers: workers, global: NewEngine(seed)}
	s.SetLanes([]int{1}, 0)
	return s
}

// SetLanes partitions the engine into len(weights) lanes and fixes the
// conservative lookahead. weights biases the greedy lane→worker
// assignment (typically hosts per lane); lookahead is the minimum delay
// any cross-lane ScheduleCross will carry (≤ 0 means no lane-crossing
// links: barriers fall only on global events and run horizons, and a
// cross-lane ScheduleCross with a delay below noLookahead panics).
//
// The lane partition is part of the determinism contract — it must be
// derived from the scenario (seed, topology), never from the worker
// count. SetLanes panics if the simulation has already started or lane
// events have been scheduled: re-partitioning would orphan them.
func (s *Sharded) SetLanes(weights []int, lookahead time.Duration) {
	if len(weights) == 0 {
		panic("sim: SetLanes requires at least one lane")
	}
	if s.global.ran > 0 || s.global.now > 0 {
		panic("sim: SetLanes after the simulation started")
	}
	for _, l := range s.lanes {
		if l.eng.q.used() || l.eng.ran > 0 {
			panic("sim: SetLanes after lane events were scheduled")
		}
	}
	s.lanes = make([]*shardLane, len(weights))
	for i := range s.lanes {
		s.lanes[i] = &shardLane{
			id:  i,
			eng: NewEngine(laneSeed(s.seed, i)),
			out: make([][]crossEvent, len(weights)),
		}
	}
	if lookahead <= 0 {
		lookahead = noLookahead
	}
	s.epoch = lookahead

	w := s.workers
	if w > len(weights) {
		w = len(weights)
	}
	s.assign = make([][]*shardLane, w)
	load := make([]int, w)
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	// Heaviest lanes first, ties by lane id: with at least as many lanes
	// as workers, greedy least-loaded placement gives every worker at
	// least one lane and balances the rest.
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(weights[b], weights[a])
	})
	for _, li := range order {
		best := 0
		for wi := 1; wi < w; wi++ {
			if load[wi] < load[best] {
				best = wi
			}
		}
		s.assign[best] = append(s.assign[best], s.lanes[li])
		wt := weights[li]
		if wt < 1 {
			wt = 1
		}
		load[best] += wt
	}
}

// Now returns the global virtual time: the last barrier reached. Must
// not be called from a lane event.
func (s *Sharded) Now() time.Duration {
	s.checkParked("Now")
	return s.global.now
}

// Rand returns the global-context random source. Must not be called
// from a lane event, which uses RandOf with its own lane instead.
func (s *Sharded) Rand() *detrand.Rand {
	s.checkParked("Rand")
	return s.global.rng
}

// Lanes reports the lane count.
func (s *Sharded) Lanes() int { return len(s.lanes) }

// NowOf returns lane's clock; between Run calls it equals Now. A lane
// event may read only its own lane's clock.
func (s *Sharded) NowOf(lane int) time.Duration {
	s.checkLane("NowOf", lane)
	return s.lanes[lane].eng.now
}

// RandOf returns lane's private random source. A lane event may draw
// only from its own lane's stream.
func (s *Sharded) RandOf(lane int) *detrand.Rand {
	s.checkLane("RandOf", lane)
	return s.lanes[lane].eng.rng
}

// EventsRun reports events executed across every lane plus the global
// queue.
func (s *Sharded) EventsRun() uint64 {
	n := s.global.ran
	for _, l := range s.lanes {
		n += l.eng.ran
	}
	return n
}

// Pending reports events scheduled anywhere: lane queues, the global
// queue, and undrained mailbox entries.
func (s *Sharded) Pending() int {
	n := s.global.Pending()
	for _, l := range s.lanes {
		n += l.eng.Pending()
		for _, row := range l.out {
			n += len(row)
		}
	}
	return n
}

// Stop makes the in-flight Run/RunUntilIdle return ErrStopped at the
// next epoch barrier (or, with no run in flight, makes the next one
// return immediately). Safe to call from any event context, including
// lane events on worker goroutines.
func (s *Sharded) Stop() { s.stopped.Store(true) }

// checkParked panics when an entry point reserved for parked contexts
// is invoked from inside a lane event (DESIGN.md "Lane discipline").
func (s *Sharded) checkParked(what string) {
	if s.running {
		panic("sim: " + what + " called from a lane event, which may use only NowOf, RandOf and ScheduleCross with its own lane")
	}
}

// checkLane panics when a lane event run inline addresses a lane other
// than its own.
func (s *Sharded) checkLane(what string, lane int) {
	if x := s.exec; x != nil && x.id != lane {
		panic(fmt.Sprintf("sim: %s addresses lane %d from a lane-%d event; a lane event may address only its own lane", what, lane, x.id))
	}
}

// Schedule runs fn after delay in the global context: at an epoch
// barrier with every lane parked. Must not be called from a lane event.
func (s *Sharded) Schedule(delay time.Duration, fn Event) Timer {
	s.checkParked("Schedule")
	return s.global.Schedule(delay, fn)
}

// Every schedules fn periodically in the global context. Must not be
// called from a lane event.
func (s *Sharded) Every(period time.Duration, fn Event) Timer {
	s.checkParked("Every")
	return s.global.Every(period, fn)
}

// ScheduleOn schedules fn on lane after delay of that lane's time. Must
// be called with lanes parked (before Run or between Run calls).
func (s *Sharded) ScheduleOn(lane int, delay time.Duration, fn Event) Timer {
	s.checkParked("ScheduleOn")
	return s.lanes[lane].eng.Schedule(delay, fn)
}

// EveryOn schedules fn periodically on lane. Must be called with lanes
// parked. The periodic chain itself reschedules on the lane's private
// queue, so ticks keep firing inside epochs without coordinator help.
func (s *Sharded) EveryOn(lane int, period time.Duration, fn Event) Timer {
	s.checkParked("EveryOn")
	return s.lanes[lane].eng.Every(period, fn)
}

// ScheduleCross schedules fn on lane to, delay after lane from's current
// time. It is the only scheduling call legal from inside a lane event
// (with from the executing lane). Same-lane calls land directly on the
// lane's queue with any delay; cross-lane calls append to the from→to
// mailbox and must carry delay ≥ the lookahead given to SetLanes — the
// event's instant then provably falls at or beyond the next barrier,
// where the coordinator drains it into to's queue. It panics on a nil fn
// and on a cross-lane delay below the lookahead: such an event would
// land behind its destination's clock and run late.
// Like Schedule, an instant past the largest time.Duration saturates.
// Every simulated cross-lane transmission enqueues here, so a warm
// mailbox allocates nothing; TestMailboxEnqueueDrainZeroAllocs holds that.
func (s *Sharded) ScheduleCross(from, to int, delay time.Duration, fn Event) {
	if fn == nil {
		panic("sim: ScheduleCross called with nil event")
	}
	s.checkLane("ScheduleCross", from)
	if delay < 0 {
		delay = 0
	}
	if from != to && delay < s.epoch {
		panic(fmt.Sprintf("sim: ScheduleCross from lane %d to lane %d with delay %v, below the lookahead %v", from, to, delay, s.epoch))
	}
	l := s.lanes[from]
	at := instantAfter(l.eng.now, delay)
	if from == to {
		l.eng.pushCross(at, fn)
		return
	}
	l.out[to] = append(l.out[to], crossEvent{at: at, fn: fn})
}

// drain moves every mailbox entry into its destination lane's queue, in
// deterministic (destination, source) lane order — so same-instant
// arrivals from different source lanes always receive insertion-order
// tie-breaks in the same sequence, independent of worker count or wall
// timing. Runs on the coordinator with all lanes parked.
// It runs at every epoch barrier and allocates nothing;
// TestMailboxEnqueueDrainZeroAllocs holds that.
func (s *Sharded) drain() {
	for ti := range s.lanes {
		dst := s.lanes[ti].eng
		for si := range s.lanes {
			row := s.lanes[si].out[ti]
			for i := range row {
				dst.pushCross(row[i].at, row[i].fn)
				row[i].fn = nil
			}
			s.lanes[si].out[ti] = row[:0]
		}
	}
}

// run executes the lane's events with instants ≤ limit, then parks the
// lane clock at barrier. Called by exactly one goroutine per epoch.
func (l *shardLane) run(limit, barrier time.Duration) {
	e := l.eng
	for {
		ran, err := e.step(limit)
		if err != nil {
			// Lane engines are never stopped directly; clear defensively.
			e.stopped = false
		}
		if !ran {
			break
		}
	}
	if e.now < barrier {
		e.now = barrier
	}
}

// shardWorker is the body of one worker goroutine. It receives only a
// channel: every lane it touches arrives inside a job, so the job
// send/receive pair is the happens-before edge between coordinator and
// worker for that epoch's lane state.
func shardWorker(jobs <-chan epochJob) {
	for j := range jobs {
		for _, l := range j.lanes {
			l.run(j.limit, j.barrier)
		}
		j.done <- struct{}{}
	}
}

// startWorkers spawns the per-run worker pool and returns its shutdown
// function. With one worker (or one lane) the coordinator executes lanes
// inline and no goroutines spawn.
func (s *Sharded) startWorkers() func() {
	if len(s.assign) <= 1 {
		return func() {}
	}
	jobs := make([]chan epochJob, len(s.assign))
	for w := range jobs {
		jobs[w] = make(chan epochJob, 1)
		go shardWorker(jobs[w])
	}
	s.jobs = jobs
	s.done = make(chan struct{}, len(jobs))
	return func() {
		for _, ch := range jobs {
			close(ch)
		}
		s.jobs = nil
	}
}

// runSpan executes one epoch: every lane runs its events through limit
// and parks at barrier, in parallel when a worker pool is live.
func (s *Sharded) runSpan(limit, barrier time.Duration) {
	s.running = true
	if s.jobs == nil {
		for _, l := range s.lanes {
			s.exec = l
			l.run(limit, barrier)
		}
		s.exec = nil
	} else {
		for w, ch := range s.jobs {
			ch <- epochJob{lanes: s.assign[w], limit: limit, barrier: barrier, done: s.done}
		}
		for range s.jobs {
			<-s.done
		}
	}
	s.running = false
}

// runGlobalDue executes global-queue events with instants ≤ t, then
// advances the global clock to t. Lanes are parked throughout. If Stop
// arrives mid-sequence the remaining due events stay queued for the next
// run, mirroring the sequential engine's return-after-in-flight-event
// behavior.
func (s *Sharded) runGlobalDue(t time.Duration) error {
	for !s.stopped.Load() {
		ran, err := s.global.step(t)
		if err != nil {
			s.global.stopped = false
			return err
		}
		if !ran {
			break
		}
	}
	if s.global.now < t {
		s.global.now = t
	}
	return nil
}

// parkLanes advances every lane clock that lags behind t. Called before
// returning to the caller so that, between runs, every lane clock equals
// the global clock — the contract ScheduleOn and netsim's parked-context
// sends rely on.
func (s *Sharded) parkLanes(t time.Duration) {
	for _, l := range s.lanes {
		if l.eng.now < t {
			l.eng.now = t
		}
	}
}

// minPendingLane reports the earliest instant scheduled on any lane
// queue. Mailboxes must already be drained.
func (s *Sharded) minPendingLane() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, l := range s.lanes {
		if at, has := l.eng.peekMin(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// Run executes events until the virtual clock would pass until, then
// sets the clock to until. Events scheduled exactly at until do fire. It
// returns ErrStopped if Stop was called, honoring a Stop pending from
// outside the run before any event executes and leaving the clock
// untouched in that case.
func (s *Sharded) Run(until time.Duration) error {
	if s.stopped.CompareAndSwap(true, false) {
		return ErrStopped
	}
	if until < s.global.now {
		return fmt.Errorf("sim: Run until %v is before now %v", until, s.global.now)
	}
	stop := s.startWorkers()
	defer stop()
	s.drain()
	for {
		if err := s.runGlobalDue(s.global.now); err != nil {
			s.parkLanes(s.global.now)
			return err
		}
		s.drain()
		if s.stopped.CompareAndSwap(true, false) {
			s.parkLanes(s.global.now)
			return ErrStopped
		}
		if s.global.now >= until {
			// Final pass: lane events scheduled exactly at until fire,
			// including same-lane chains they spawn at the same instant.
			if m, ok := s.minPendingLane(); ok && m <= until {
				s.runSpan(until, until)
				s.drain()
				continue
			}
			s.parkLanes(until)
			return nil
		}
		barrier, limit := s.nextBarrier(until)
		s.runSpan(limit, barrier)
		s.drain()
		if s.global.now < barrier {
			s.global.now = barrier
		}
	}
}

// nextBarrier picks the next epoch boundary: one lookahead window past
// the next lane activity, capped at the next global event (so global
// events run at their exact instant with lanes quiesced there) and at
// the run horizon. The window is exclusive — limit is the last included
// instant — except when the barrier is the horizon itself, which Run's
// contract makes inclusive.
func (s *Sharded) nextBarrier(until time.Duration) (barrier, limit time.Duration) {
	base := s.global.now
	b := until
	if m, ok := s.minPendingLane(); ok {
		lo := m
		if lo < base {
			lo = base
		}
		if w := instantAfter(lo, s.epoch); w < b {
			b = w
		}
	}
	if g, ok := s.global.peekMin(); ok && g < b {
		b = g
	}
	if b < base {
		b = base
	}
	if b >= until {
		return until, until
	}
	return b, b - 1
}

// RunUntilIdle executes events until none remain anywhere. It returns
// ErrStopped if Stop was called.
func (s *Sharded) RunUntilIdle() error {
	if s.stopped.CompareAndSwap(true, false) {
		return ErrStopped
	}
	stop := s.startWorkers()
	defer stop()
	s.drain()
	for {
		if err := s.runGlobalDue(s.global.now); err != nil {
			s.parkLanes(s.global.now)
			return err
		}
		s.drain()
		if s.stopped.CompareAndSwap(true, false) {
			s.parkLanes(s.global.now)
			return ErrStopped
		}
		m, mok := s.minPendingLane()
		g, gok := s.global.peekMin()
		switch {
		case !mok && !gok:
			s.parkLanes(s.global.now)
			return nil
		case !mok || (gok && g <= m):
			// Only (or first) a global event: jump straight to it.
			if s.global.now < g {
				s.global.now = g
			}
		default:
			lo := m
			if lo < s.global.now {
				lo = s.global.now
			}
			b := instantAfter(lo, s.epoch)
			if gok && g < b {
				b = g
			}
			limit := b - 1
			if b == maxInstant {
				// The window ends at the end of time; nothing can be
				// scheduled beyond it, so it includes its last instant.
				limit = b
			}
			s.runSpan(limit, b)
			s.drain()
			if s.global.now < b {
				s.global.now = b
			}
		}
	}
}
