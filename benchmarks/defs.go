package main

import (
	"rbcast/internal/core"
	"rbcast/internal/soak"
)

// metricDef is one named metric. BENCHMARK.json at the root of the repo
// lists exactly these (a test holds the two together); bounds live here
// so -compare needs no file beside the two results it is given.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "higher" or "lower".
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before it counts as a regression; per-layer
	// metrics have none, and BENCHMARK.json then has no such key.
	Bound float64 `json:"bound,omitempty"`
}

// Units. Simulated-clock values carry their own unit so that no reader
// mistakes them for host time.
const (
	unitSeconds = "s"
	unitMS      = "ms"
	unitUS      = "us"
	unitNS      = "ns"
	unitSimMS   = "sim_ms"
	unitPerSec  = "1/s"
	unitCount   = "count"
	unitBytes   = "B"
	unitRatio   = "ratio"
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one; what "work" and
// "request" mean per workload, and which clock its times are read from,
// is in README.md. The time metrics carry the widest bound the contract
// allows: on the shared two-core box this was built on, ten runs of the
// same code still spread by up to a tenth after the thread's CPU clock and
// the reference kernel have taken the machine's own phases out (README.md,
// "Machine speed"), and the check that accepts a benchmark wants that
// spread under a third of the bound.
var endToEnd = []metricDef{
	{"setup_s", unitSeconds, "lower", 0.25},
	{"work_per_s", unitPerSec, "higher", 0.25},
	{"allocs_per_work", unitCount, "lower", 0.05},
	{"bytes_per_work", unitBytes, "lower", 0.05},
	{"latency_p50_ms", unitMS, "lower", 0.25},
	{"latency_p90_ms", unitMS, "lower", 0.25},
}

// tracedKinds are the message kinds that occur in the sim-* workloads
// under default Params.
var tracedKinds = []core.MsgKind{core.MsgData, core.MsgInfo, core.MsgAttachReq, core.MsgAttachAccept, core.MsgAttachReject, core.MsgDetach}

// soakClasses are the classes soak-sweep draws from.
var soakClasses = []soak.Class{soak.ClassMixed, soak.ClassRecovery, soak.ClassLateJoiner, soak.ClassByzantine}

// perLayer are the metrics of single layers, from the traced run. A
// layer a workload bypasses reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("sim.events_run", unitCount, "lower")
	add("sim.schedule_calls", unitCount, "lower")
	add("sim.queue_self_ns_per_event", unitNS, "lower")
	add("sim.busy_share", unitRatio, "lower")
	add("sim.shard_speedup", unitRatio, "higher")
	add("sim.lane_busy_imbalance", unitRatio, "lower")

	add("netsim.host_sends", unitCount, "lower")
	add("netsim.link_hops", unitCount, "lower")
	add("netsim.hops_per_send", unitRatio, "lower")
	add("netsim.lost", unitCount, "lower")
	add("netsim.dropped", unitCount, "lower")
	add("netsim.send_self_ns", unitNS, "lower")
	add("netsim.hop_self_ns", unitNS, "lower")
	add("netsim.busy_share", unitRatio, "lower")
	add("netsim.isolated_ns_per_send", unitNS, "lower")
	add("netsim.isolated_allocs_per_send", unitCount, "lower")

	for _, k := range tracedKinds {
		add("core.handle_calls."+k.String(), unitCount, "lower")
		add("core.handle_self_ns."+k.String(), unitNS, "lower")
	}
	add("core.tick_calls", unitCount, "lower")
	add("core.tick_self_ns", unitNS, "lower")
	add("core.broadcast_self_ns", unitNS, "lower")
	add("core.sends_per_handle", unitRatio, "lower")
	add("core.data_accept_ratio", unitRatio, "higher")
	add("core.busy_share", unitRatio, "lower")

	add("seqset.diff_ns", unitNS, "lower")
	add("seqset.union_ns", unitNS, "lower")
	add("seqset.applydelta_ns", unitNS, "lower")
	add("seqset.runs_mean", unitCount, "lower")
	add("wire.appendencode_ns_per_frame", unitNS, "lower")
	add("wire.decode_ns_per_frame", unitNS, "lower")
	add("wire.decoder_ns_per_frame", unitNS, "lower")
	add("wire.decode_allocs_per_frame", unitCount, "lower")
	add("wire.encodedsize_ns_per_frame", unitNS, "lower")
	add("wire.bytes_per_frame", unitBytes, "lower")

	add("harness.prepare_s", unitSeconds, "lower")
	add("harness.overhead_ratio", unitRatio, "lower")
	add("harness.result_query_ms", unitMS, "lower")
	add("harness.sends_per_delivery", unitRatio, "lower")
	// The simulated results: exact per seed, so a change meant only to
	// speed the simulator up must leave them identical.
	add("harness.virt_deliver_p50_ms", unitSimMS, "lower")
	add("harness.virt_deliver_p90_ms", unitSimMS, "lower")
	add("harness.wire_bytes_per_delivery", unitBytes, "lower")
	add("harness.inter_cluster_data_per_msg", unitCount, "lower")

	add("soak.newspec_us", unitUS, "lower")
	for _, c := range soakClasses {
		add("soak.seeds."+string(c), unitCount, "higher")
		add("soak.failed."+string(c), unitCount, "lower")
		add("soak.run_ms_p50."+string(c), unitMS, "lower")
	}

	add("udp.datagrams_sent", unitCount, "lower")
	add("udp.datagrams_per_delivery", unitRatio, "lower")
	add("udp.decode_errors", unitCount, "lower")
	add("udp.send_errors", unitCount, "lower")
	add("udp.cpu_us_per_delivery", unitUS, "lower")
	add("udp.deliver_p99_ms", unitMS, "lower")
	add("udp.gen_late_p99_ms", unitMS, "lower")
	add("udp.tree_form_ms", unitMS, "lower")

	add("trace.overhead_ratio", unitRatio, "lower")
	add("trace.spans", unitCount, "lower")
	add("driver.busy_share", unitRatio, "lower")
	return out
}

// defsFor returns the metrics a run reports: the end-to-end ones
// untraced, the per-layer ones traced.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// exactPerLayer names the per-layer metrics that are pure functions of
// (workload, seed): -compare requires them to agree exactly.
var exactPerLayer = []string{
	"sim.events_run", "netsim.host_sends", "netsim.link_hops", "netsim.lost",
	"harness.virt_deliver_p50_ms", "harness.virt_deliver_p90_ms",
	"harness.wire_bytes_per_delivery", "harness.inter_cluster_data_per_msg",
}
