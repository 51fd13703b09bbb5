// Command benchmarks is the repository's benchmark: four workloads over
// the simulator, the soak engine and the real-socket runtime, the
// end-to-end metrics a user of each sees, and a separate traced pass
// that splits the same work by layer. README.md in this directory says
// why each workload exists and what every metric means.
//
// Usage:
//
//	go run ./benchmarks                          # whole suite, untraced then traced
//	go run ./benchmarks -workload sim-stream -seed 1 -seconds 25 -trace 0
//	go run ./benchmarks -compare a.json b.json   # two suite results against the bounds
//	go run ./benchmarks -aa                      # the suite twice, compared with itself
//	go run ./benchmarks -describe > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(c runCfg, out *result) error
}

// suite lists the workloads in the order they run. Tests append
// deliberately broken ones.
var suite = []workload{
	{
		name: "sim-stream",
		why:  "data plane: 10 000 lossy broadcasts over 24 hosts; core.HandleMessage, gap fill and harness recording dominate",
		run: simSpec{clusters: 6, hostsPerCluster: 4, messages: 10_000, interval: 5 * time.Millisecond,
			payloadSize: 256, cheapLoss: 0.01, expensiveLoss: 0.05}.run,
	},
	{
		name: "sim-wide-seq",
		why:  "control plane at scale: 512 hosts, O(n^2) INFO traffic, deep event heap; queue and netsim transmit dominate; the traced pass also times the sharded engine on 2 workers against the sequential one",
		run: simSpec{clusters: 64, hostsPerCluster: 8, messages: 5, interval: 200 * time.Millisecond,
			payloadSize: 32, shards: 2}.run,
	},
	{
		name: "soak-sweep",
		why:  "the only workload with faults: 150 seeds each of four soak classes, with per-seed set-up, link flaps, partitions, sync and invariant checks",
		run:  soakSpec{classes: soakClasses, seedsPerClass: 150}.run,
	},
	{
		name: "udp-loopback",
		why:  "the only non-simulated path: six nodes on loopback sockets, open loop of 2 000 broadcasts/s; bypasses sim, netsim and harness",
		run: udpSpec{hosts: 6, rate: 2000, window: 3 * time.Second, warmWindow: 300 * time.Millisecond,
			payloadSize: 64, limitMS: 5, grace: 10 * time.Second}.run,
	},
}

// defaultSeconds is how long one run measures when -seconds is not
// given; BENCHMARK.json's run_seconds says the same.
const defaultSeconds = 25

func findWorkload(name string) (workload, bool) {
	for _, w := range suite {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs one workload once, traced or not.
func runOne(w workload, c runCfg) (*result, error) {
	res := &result{Workload: w.name, Seed: c.seed, Trace: c.trace, Metrics: make(map[string]measured)}
	start := time.Now()
	if err := w.run(c, res); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.WallS = time.Since(start).Seconds()
	fillUnits(res, defsFor(c.trace))
	if res.Attempted < 1 {
		res.problemf("no operation attempted")
	}
	return res, nil
}

// contractLine is the object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contract() contractLine {
	defs := defsFor(r.Trace)
	line := contractLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = contractMetric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return line
}

// printResult prints every metric of a run by name, with its unit.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "## %s  %s  seed=%d  K=%d  attempted=%d failed=%d failed_ratio=%g  wall=%.1fs\n",
		r.Workload, mode, r.Seed, r.K, r.Attempted, r.Failed, r.failedRatio(), r.WallS)
	if !r.Trace {
		fmt.Fprintf(w, "# machine speed %.3f of nominal (q1=%.3f q3=%.3f)\n", r.Speed.Value, r.Speed.Q1, r.Speed.Q3)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		note := ""
		if m.Unsupported {
			note = "  (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintf(w, "%-36s %16.6g %-7s q1=%-12.6g q3=%-12.6g n=%d%s\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N, note)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "!! %s\n", p)
	}
}

// header identifies the machine and the code a suite result came from.
type header struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	TotalWallS float64 `json:"total_wall_s"`
}

// suiteResult is what a whole-suite run writes and -compare reads.
type suiteResult struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

// gitSHA reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// runSuites runs every workload untraced and then traced, n times over,
// and returns one suite result per repetition. The repetitions of one
// workload run back to back: this machine's speed drifts by a tenth or
// more over minutes, and -aa is to show the benchmark's own noise, not
// how far the machine moved between two whole suites.
func runSuites(stdout io.Writer, n int, seed int64, seconds float64, outDir string) ([]*suiteResult, error) {
	start := time.Now()
	h := header{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Seed: seed, Seconds: seconds,
	}
	fmt.Fprintf(stdout, "# git %s  %s  GOMAXPROCS=%d NumCPU=%d  cpu %q  seed=%d seconds=%g\n",
		h.GitSHA, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Seed, h.Seconds)
	srs := make([]*suiteResult, n)
	for i := range srs {
		srs[i] = &suiteResult{Header: h}
	}
	for _, trace := range []bool{false, true} {
		for _, w := range suite {
			for _, sr := range srs {
				res, err := runOne(w, runCfg{seed: seed, seconds: seconds, trace: trace, outDir: outDir})
				if err != nil {
					return nil, err
				}
				printResult(stdout, res)
				sr.Results = append(sr.Results, res)
			}
		}
	}
	total := time.Since(start).Seconds()
	for _, sr := range srs {
		sr.Header.TotalWallS = total
	}
	fmt.Fprintf(stdout, "# total wall %.1fs\n", total)
	return srs, nil
}

func (sr *suiteResult) correct() bool {
	for _, r := range sr.Results {
		if !r.correct() {
			return false
		}
	}
	return true
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

// benchmarkDoc is BENCHMARK.json: exactly the keys the contract names.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []docWorkload `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describeBenchmark prints BENCHMARK.json from the tables in the code,
// so a change to a workload or a metric regenerates the file instead of
// editing it by hand.
func describeBenchmark(w io.Writer) error {
	doc := benchmarkDoc{
		Command:    []string{"go", "run", "./benchmarks"},
		Paths:      []string{"benchmarks"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, wl := range suite {
		doc.Workloads = append(doc.Workloads, docWorkload{wl.name, wl.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and end with the result as one JSON line; empty runs the suite")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join("benchmarks", "out"), "directory for traces and suite results")
	compare := fs.Bool("compare", false, "compare two suite results: -compare a.json b.json")
	aa := fs.Bool("aa", false, "run the suite twice and compare the two results")
	describe := fs.Bool("describe", false, "print BENCHMARK.json as the code defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 1
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}

	switch {
	case *describe:
		if err := describeBenchmark(stdout); err != nil {
			return fail(err)
		}
		return 0

	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two suite result files"))
		}
		a, err := readSuite(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readSuite(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compareSuites(stdout, a, b) {
			return 1
		}
		return 0

	case *aa:
		pair, err := runSuites(stdout, 2, *seed, *seconds, *outDir)
		if err != nil {
			return fail(err)
		}
		for i, sr := range pair {
			if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("aa-%d.json", i+1)), sr); err != nil {
				return fail(err)
			}
		}
		if !compareSuites(stdout, pair[0], pair[1]) || !pair[0].correct() || !pair[1].correct() {
			return 1
		}
		return 0

	case *name == "":
		srs, err := runSuites(stdout, 1, *seed, *seconds, *outDir)
		if err != nil {
			return fail(err)
		}
		sr := srs[0]
		path := filepath.Join(*outDir, "result.json")
		if err := writeJSON(path, sr); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "# result written to %s\n", path)
		if !sr.correct() {
			return 1
		}
		return 0
	}

	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runOne(w, runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		return fail(err)
	}
	printResult(stdout, res)
	line, err := json.Marshal(res.contract())
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
