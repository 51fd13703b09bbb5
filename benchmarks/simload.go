package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"rbcast/benchmarks/tracedsim"
	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

// simSpec sizes one sim-* workload: a tree-protocol broadcast over a
// clustered WANTree topology, run to completion.
type simSpec struct {
	clusters, hostsPerCluster int
	messages                  int
	interval                  time.Duration
	payloadSize               int
	cheapLoss, expensiveLoss  float64
	// shards, when positive, makes the traced pass run the scenario on the
	// sharded engine with that many workers as well, and report it against
	// the sequential engine. The untraced pass is always sequential.
	shards int
	// drain overrides the harness's 30 s of simulated time after the last
	// broadcast; tests shorten it to plant an incomplete run.
	drain time.Duration
}

func (s simSpec) topo() topo.ClusteredConfig {
	return topo.ClusteredConfig{
		Clusters:        s.clusters,
		HostsPerCluster: s.hostsPerCluster,
		Shape:           topo.WANTree,
		Cheap:           netsim.LinkConfig{LossProb: s.cheapLoss},
		Expensive:       netsim.LinkConfig{LossProb: s.expensiveLoss},
	}
}

// payloads derives every broadcast's payload from the seed.
func (s simSpec) payloads(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, s.messages)
	for i := range out {
		out[i] = make([]byte, s.payloadSize)
		rng.Read(out[i])
	}
	return out
}

func (s simSpec) scenario(seed int64, payloads [][]byte) harness.Scenario {
	tc := s.topo()
	return harness.Scenario{
		Seed: seed,
		Build: func(eng sim.Loop) (*topo.Topology, error) {
			return topo.Clustered(eng, tc)
		},
		Protocol:         harness.ProtocolTree,
		Messages:         s.messages,
		MsgInterval:      s.interval,
		Drain:            s.drain,
		StopWhenComplete: true,
		PayloadFor:       func(i int) []byte { return payloads[i] },
	}
}

func (s simSpec) bare(seed int64, shards int, payloads [][]byte, trace bool) tracedsim.Config {
	return tracedsim.Config{
		Seed:        seed,
		Shards:      shards,
		Topo:        s.topo(),
		Messages:    s.messages,
		MsgInterval: s.interval,
		Drain:       s.drain,
		PayloadFor:  func(i int) []byte { return payloads[i] },
		Trace:       trace,
		KeepSpans:   keepSpans,
		KeepFrames:  corpusFrames,
	}
}

const (
	// keepSpans caps the raw spans a traced run writes out; aggregates
	// cover every span.
	keepSpans = 100_000
	// corpusFrames is how many of the workload's first sent frames the
	// codec and seqset timings run over.
	corpusFrames = 4096
)

// harnessRun is one harness iteration's raw measurements.
type harnessRun struct {
	it iter
	// prepare is the part of it.setup spent in harness.Prepare.
	prepare time.Duration
	res     *harness.Result
	queryMS float64
}

// runHarness sets the scenario up and finishes it once on the sequential
// engine, timing itself on the given clock and checking every expected
// (host, seq) delivery. Set-up is everything before the measured phase:
// making the inputs from the seed, and harness.Prepare.
func (s simSpec) runHarness(seed int64, now clock, out *result) (harnessRun, error) {
	var hr harnessRun
	start := now()
	payloads := s.payloads(seed)
	made := now()
	rt, err := harness.Prepare(s.scenario(seed, payloads))
	if err != nil {
		return hr, err
	}
	hr.it.setup, hr.prepare = now()-start, now()-made
	var hres *harness.Result
	hr.it.took, hr.it.mallocs, hr.it.bytes = timed(now, func() { hres, err = rt.Finish() })
	if err != nil {
		return hr, err
	}
	hr.res = hres
	hr.it.work = float64(rt.Engine.EventsRun())
	hr.it.latencyMS = []float64{float64(hr.it.took) / float64(time.Millisecond)}

	q := time.Now()
	hr.it.attempted = hres.ExpectedCount
	missing := hres.ExpectedCount - hres.DeliveredCount
	mismatched := 0
	for _, per := range hres.DeliveredDigest {
		for seq, digest := range per {
			if want, ok := hres.BroadcastDigest[seq]; ok && digest != want {
				mismatched++
			}
		}
	}
	hr.it.failed = missing + hres.DuplicateDeliveries + mismatched
	if !hres.Complete {
		out.problemf("run incomplete: %d of %d deliveries", hres.DeliveredCount, hres.ExpectedCount)
	}
	if hres.DuplicateDeliveries != 0 || hres.ForeignDeliveries != 0 || mismatched != 0 {
		out.problemf("%d duplicate, %d foreign, %d wrong-payload deliveries",
			hres.DuplicateDeliveries, hres.ForeignDeliveries, mismatched)
	}
	if len(hres.EventErrors) != 0 || hres.SendErrors != 0 {
		out.problemf("%d event errors, %d send errors", len(hres.EventErrors), hres.SendErrors)
	}
	hr.it.exact = map[string]float64{
		"events_run":                 hr.it.work,
		"host_sends":                 float64(hres.NetStats.HostSends),
		"wire_bytes":                 float64(hres.WireBytes),
		"virt_deliver_p50_ms":        simMS(hres.Delays.Quantile(0.5)),
		"virt_deliver_p90_ms":        simMS(hres.Delays.Quantile(0.9)),
		"inter_cluster_data_per_msg": hres.InterClusterDataPerMessage(),
	}
	hr.queryMS = float64(time.Since(q)) / float64(time.Millisecond)
	return hr, nil
}

func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s simSpec) run(c runCfg, out *result) error {
	if c.trace {
		return s.runTraced(c, out)
	}
	iters, err := iterate(c.seconds, true, out, func(out *result, now clock, _ bool) (iter, error) {
		hr, err := s.runHarness(c.seed, now, out)
		return hr.it, err
	})
	if err != nil {
		return err
	}
	endToEndFrom(out, iters)
	return nil
}

// runBare runs the benchmark's own driver once.
func (s simSpec) runBare(cfg tracedsim.Config) (*tracedsim.Run, *tracedsim.Outcome, error) {
	runtime.GC()
	run, err := tracedsim.Prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	o, err := run.Finish()
	if err != nil {
		return nil, nil, err
	}
	if !o.Complete || o.Duplicates != 0 || o.SendErrors != 0 {
		return nil, nil, fmt.Errorf("bare driver (trace=%v): %d/%d delivered, %d duplicates, %d send errors",
			cfg.Trace, o.Delivered, o.Expected, o.Duplicates, o.SendErrors)
	}
	return run, o, nil
}

// runTraced produces the per-layer numbers: the harness once (its own
// cost against the bare driver), the bare driver with spans off (the
// base both overhead ratios divide by) and with spans on, where the spec
// asks for it the sharded engine against the sequential one, the network
// alone on the workload's topology, and the codec and seqset over the
// frames the traced run sent.
func (s simSpec) runTraced(c runCfg, out *result) error {
	start := time.Now()
	budget := time.Duration(c.seconds * float64(time.Second))
	set := out.set
	payloads := s.payloads(c.seed)

	// The bare driver brackets the harness run, and the faster of the two
	// is the base both overhead ratios divide by: the first also warms the
	// heap up, and a slow phase of the machine that hits one of three
	// neighbouring runs would otherwise turn up as a negative overhead.
	_, base, err := s.runBare(s.bare(c.seed, 0, payloads, false))
	if err != nil {
		return err
	}
	runtime.GC()
	hr, err := s.runHarness(c.seed, wallClock, out)
	if err != nil {
		return err
	}
	_, again, err := s.runBare(s.bare(c.seed, 0, payloads, false))
	if err != nil {
		return err
	}
	if s.shards > 0 {
		// The same scenario on the sharded engine: a different, equally
		// valid trace, so only its speed is compared, against the sequential
		// run made right before it; and once more with spans on, for how
		// evenly the lanes are loaded.
		_, par, err := s.runBare(s.bare(c.seed, s.shards, payloads, false))
		if err != nil {
			return err
		}
		set("sim.shard_speedup", ratio(ratio(float64(par.EventsRun), par.Wall.Seconds()),
			ratio(float64(again.EventsRun), again.Wall.Seconds())), 1)
		run, _, err := s.runBare(s.bare(c.seed, s.shards, payloads, true))
		if err != nil {
			return err
		}
		var busiest, sum float64
		lanes := run.Tracer.LaneBusyNS()
		for _, b := range lanes {
			sum += float64(b)
			busiest = max(busiest, float64(b))
		}
		set("sim.lane_busy_imbalance", ratio(busiest, sum/float64(len(lanes))), len(lanes))
	}
	if again.Wall < base.Wall {
		base = again
	}
	out.Attempted, out.Failed = hr.it.attempted, hr.it.failed
	if got := uint64(hr.it.work); got != base.EventsRun {
		out.problemf("bare driver ran %d events, the harness %d", base.EventsRun, got)
	}
	set("harness.prepare_s", hr.prepare.Seconds(), 1)
	set("harness.overhead_ratio", ratio(hr.it.took.Seconds(), base.Wall.Seconds())-1, 1)
	set("harness.result_query_ms", hr.queryMS, 1)
	set("harness.sends_per_delivery", ratio(float64(hr.res.TotalSends()), float64(hr.res.DeliveredCount)), 1)
	set("harness.virt_deliver_p50_ms", hr.it.exact["virt_deliver_p50_ms"], hr.res.Delays.Count())
	set("harness.virt_deliver_p90_ms", hr.it.exact["virt_deliver_p90_ms"], hr.res.Delays.Count())
	set("harness.wire_bytes_per_delivery", ratio(float64(hr.res.WireBytes), float64(hr.res.DeliveredCount)), 1)
	set("harness.inter_cluster_data_per_msg", hr.it.exact["inter_cluster_data_per_msg"], 1)

	// Traced iterations, until the budget is spent; aggregates are summed
	// over them and divided by their own counts, so more iterations only
	// steady the means.
	var tr tracedAgg
	var lastRun *tracedsim.Run
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		run, o, err := s.runBare(s.bare(c.seed, 0, payloads, true))
		if err != nil {
			return err
		}
		if o.EventsRun != base.EventsRun {
			out.problemf("traced run executed %d events, untraced %d", o.EventsRun, base.EventsRun)
		}
		tr.add(run, o)
		lastRun = run
	}
	tr.report(set, base.Wall)
	out.K = tr.runs

	iso := isolatedNetsim(s.topo(), c.seed)
	set("netsim.isolated_ns_per_send", iso.nsPerSend, iso.sends)
	set("netsim.isolated_allocs_per_send", iso.allocsPerSend, iso.sends)
	corpusTimings(tr.frames, set)

	return writeTrace(c, out.Workload, lastRun.Tracer.Raw(), tr.totals)
}

// tracedAgg sums traced iterations.
type tracedAgg struct {
	runs int
	// fastest is the shortest traced iteration, compared with the faster
	// of the two untraced runs.
	fastest time.Duration
	events  uint64
	totals  map[string]tracedsim.Agg
	net     netsim.Stats

	handleSends, accepted, duplicate, rejected uint64
	frames                                     []tracedsim.Frame
}

func (t *tracedAgg) add(run *tracedsim.Run, o *tracedsim.Outcome) {
	t.runs++
	if t.fastest == 0 || o.Wall < t.fastest {
		t.fastest = o.Wall
	}
	t.events += o.EventsRun
	if t.totals == nil {
		t.totals = make(map[string]tracedsim.Agg)
		t.frames = o.Frames
		t.net = o.Net
	}
	for name, a := range run.Tracer.Totals() {
		sum := t.totals[name]
		sum.Count += a.Count
		sum.BusyNS += a.BusyNS
		sum.SelfNS += a.SelfNS
		t.totals[name] = sum
	}
	t.handleSends += o.HandleSends
	t.accepted += o.Accepted
	t.duplicate += o.Duplicate
	t.rejected += o.Rejected
}

// report turns the summed spans into the per-layer metrics. Counts are
// per iteration; times are means per call.
func (t *tracedAgg) report(set func(string, float64, int), baseWall time.Duration) {
	runs := float64(t.runs)
	perCall := func(name string) (float64, int) {
		a := t.totals[name]
		return ratio(float64(a.SelfNS), float64(a.Count)), int(a.Count)
	}
	self := func(name string) float64 { return float64(t.totals[name].SelfNS) }
	count := func(name string) float64 { return float64(t.totals[name].Count) / runs }

	var handleSelf, handleCalls float64
	for name, a := range t.totals {
		if strings.HasPrefix(name, "core.handle.") {
			handleSelf += float64(a.SelfNS)
			handleCalls += float64(a.Count)
		}
	}
	netsimSelf := self("netsim.send") + self("netsim.hop")
	coreSelf := handleSelf + self("core.tick") + self("core.broadcast")
	driverSelf := self("driver.deliver")
	// The whole is the wall time of Loop.Run. The spans sit around calls
	// out of the engine, so the engine's own share is what the other three
	// leave.
	capacity := float64(t.totals["sim.run"].BusyNS)
	simSelf := capacity - netsimSelf - coreSelf - driverSelf
	set("sim.busy_share", ratio(simSelf, capacity), t.runs)
	set("netsim.busy_share", ratio(netsimSelf, capacity), t.runs)
	set("core.busy_share", ratio(coreSelf, capacity), t.runs)
	set("driver.busy_share", ratio(driverSelf, capacity), t.runs)

	set("sim.events_run", float64(t.events)/runs, t.runs)
	set("sim.schedule_calls", count("sim.schedule"), t.runs)
	set("sim.queue_self_ns_per_event", ratio(simSelf, float64(t.events)), int(t.events))
	var hops uint64
	for _, n := range t.net.LinkTransmissions {
		hops += n
	}
	set("netsim.host_sends", float64(t.net.HostSends), 1)
	set("netsim.link_hops", float64(hops), 1)
	set("netsim.hops_per_send", ratio(float64(hops), float64(t.net.HostSends)), 1)
	set("netsim.lost", float64(t.net.Lost), 1)
	set("netsim.dropped", float64(t.net.DroppedLinkDown+t.net.DroppedNoRoute), 1)
	v, n := perCall("netsim.send")
	set("netsim.send_self_ns", v, n)
	v, n = perCall("netsim.hop")
	set("netsim.hop_self_ns", v, n)

	for _, kind := range tracedKinds {
		k := kind.String()
		v, n := perCall("core.handle." + k)
		set("core.handle_calls."+k, count("core.handle."+k), t.runs)
		set("core.handle_self_ns."+k, v, n)
	}
	set("core.tick_calls", count("core.tick"), t.runs)
	v, n = perCall("core.tick")
	set("core.tick_self_ns", v, n)
	v, n = perCall("core.broadcast")
	set("core.broadcast_self_ns", v, n)
	set("core.sends_per_handle", ratio(float64(t.handleSends), handleCalls), int(handleCalls))
	data := t.accepted + t.duplicate + t.rejected
	set("core.data_accept_ratio", ratio(float64(t.accepted), float64(data)), int(data))

	var spans float64
	for _, a := range t.totals {
		spans += float64(a.Count)
	}
	set("trace.spans", spans/runs, t.runs)
	set("trace.overhead_ratio", ratio(t.fastest.Seconds(), baseWall.Seconds())-1, t.runs)
}
