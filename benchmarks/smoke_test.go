package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/seqset"
	"rbcast/internal/soak"
)

// Toy-scale versions of the four workloads: the same code paths in a
// fraction of a second each, so tier-1 stays fast.
var (
	toySim  = simSpec{clusters: 3, hostsPerCluster: 2, messages: 20, interval: 5 * time.Millisecond, payloadSize: 32, cheapLoss: 0.01, expensiveLoss: 0.05}
	toySoak = soakSpec{classes: soakClasses, seedsPerClass: 1}
	toyUDP  = udpSpec{hosts: 3, rate: 400, window: 150 * time.Millisecond, warmWindow: 50 * time.Millisecond, payloadSize: 16, limitMS: 5, grace: 2 * time.Second}
)

func toySuite() []workload {
	wide := toySim
	wide.shards = 2
	return []workload{
		{name: "sim-stream", run: toySim.run},
		{name: "sim-wide-seq", run: wide.run},
		{name: "soak-sweep", run: toySoak.run},
		{name: "udp-loopback", run: toyUDP.run},
	}
}

func loadBenchmarkJSON(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the tables in
// defs.go and main.go together.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if got := strings.Join(b.Command, " "); got != "go run ./benchmarks" {
		t.Errorf("command = %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(suite) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(suite))
	}
	for i, w := range b.Workloads {
		if w.Name != suite[i].name || w.Why != suite[i].why {
			t.Errorf("workload %d: JSON has %q (%q), code has %q (%q)", i, w.Name, w.Why, suite[i].name, suite[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end-to-end metrics: JSON %+v, code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per-layer metrics: JSON %+v, code %+v", b.PerLayer, perLayer)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !legalName.MatchString(d.Name) || !legalUnit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: illegal name or unit", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q named twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, name := range exactPerLayer {
		if !seen[name] {
			t.Errorf("exact metric %q is not a per-layer metric", name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at toy scale,
// untraced and traced, through the single-workload entry point and
// checks the line the driver reads.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	defer func(old []workload) { suite = old }(suite)
	suite = toySuite()
	b := loadBenchmarkJSON(t)
	for _, w := range suite {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.2", "--trace", trace,
					"-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
					t.Fatalf("result: %s", lines[len(lines)-1])
				}
				want := make(map[string]string)
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := line.Metrics[name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s missing", name)
					case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
						t.Errorf("metric %s = %v", name, *m.Value)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					case trace == "0" && *m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, *m.Value)
					}
				}
				for _, name := range layersOf(w.name) {
					if trace == "1" && *line.Metrics[name].Value == 0 {
						t.Errorf("%s bypasses no layer of %s, yet it reads 0", w.name, name)
					}
				}
			})
		}
	}
}

// layersOf names one per-layer metric per layer the workload must
// exercise.
func layersOf(workload string) []string {
	switch workload {
	case "soak-sweep":
		return []string{"soak.newspec_us", "soak.seeds.mixed", "soak.run_ms_p50.byzantine", "trace.spans"}
	case "udp-loopback":
		return []string{"udp.datagrams_sent", "udp.cpu_us_per_delivery", "udp.deliver_p99_ms", "udp.tree_form_ms"}
	}
	names := []string{"sim.events_run", "sim.busy_share", "netsim.hop_self_ns", "netsim.isolated_ns_per_send",
		"core.handle_self_ns.data", "core.tick_self_ns", "core.data_accept_ratio", "wire.decode_ns_per_frame",
		"seqset.diff_ns", "harness.virt_deliver_p50_ms", "trace.overhead_ratio", "driver.busy_share"}
	if workload == "sim-wide-seq" {
		names = append(names, "sim.shard_speedup", "sim.lane_busy_imbalance")
	}
	return names
}

// TestBusyShares checks the "where an event's nanoseconds go" table: the
// sim share is what the measured three leave of the whole, so each share
// must lie strictly between 0 and 1.
func TestBusyShares(t *testing.T) {
	res := &result{Workload: "toy", Metrics: make(map[string]measured)}
	if err := toySim.run(runCfg{seed: 1, seconds: 0.1, trace: true}, res); err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"sim", "netsim", "core", "driver"} {
		share := res.Metrics[layer+".busy_share"].Value
		if share <= 0 || share >= 1 {
			t.Errorf("%s.busy_share = %v", layer, share)
		}
	}
}

// TestPlantedFailures plants one failure per kind of workload and
// expects failed operations and a non-zero exit from each.
func TestPlantedFailures(t *testing.T) {
	incomplete := toySim
	incomplete.drain = time.Millisecond // the horizon ends before the last broadcast arrives
	trap := toySoak
	trap.classes = []soak.Class{soak.ClassMixed, soak.ClassPartitionTrap} // every trap seed fails by design
	lossy := toyUDP
	lossy.grace = 300 * time.Millisecond
	lossy.dropDeliver = func(host core.HostID, seq seqset.Seq) bool { return host == 2 && seq == 5 }

	defer func(old []workload) { suite = old }(suite)
	suite = append(toySuite(),
		workload{name: "planted-sim", run: incomplete.run},
		workload{name: "planted-soak", run: trap.run},
		workload{name: "planted-udp", run: lossy.run},
	)
	for _, name := range []string{"planted-sim", "planted-soak", "planted-udp"} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", name, "-seconds", "0.1"}, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("exit 0 despite the planted failure\n%s", stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("no result line: %v\n%s\n%s", err, stdout.String(), stderr.String())
			}
			if line.Correct || line.Failed == 0 || line.Attempted == 0 {
				t.Errorf("result %+v: want correct=false and failed > 0", line)
			}
			if ratio(float64(line.Failed), float64(line.Attempted)) <= 0 {
				t.Errorf("failed_ratio = 0")
			}
		})
	}
}
