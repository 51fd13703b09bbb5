package main

import (
	"fmt"
	"runtime"
	"time"
)

// runCfg is one invocation of one workload.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives the traced run's spans and aggregates.
	outDir string
}

// measured is one metric's value in one run.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1 and Q3 are the quartiles over the run's iterations; N counts the
	// samples behind Value.
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	N  int     `json:"n"`
	// Unsupported marks a percentile with fewer than ten samples beyond
	// it: printed because the contract wants every metric on every
	// workload, flagged because it is a poor estimate.
	Unsupported bool `json:"unsupported,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	K         int      `json:"k"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Notes are remarks that fail nothing, such as a missed latency limit.
	Notes   []string            `json:"notes,omitempty"`
	Metrics map[string]measured `json:"metrics"`
	// Speed is the machine's speed over the iterations of an untraced run,
	// as the reference kernel measured it; 1 where timings are not scaled.
	Speed measured `json:"machine_speed"`
	WallS float64  `json:"wall_s"`
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

func (r *result) failedRatio() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// set records a per-layer metric that has one value per run.
func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = measured{Value: v, Q1: v, Q3: v, N: n}
}

// problemf records a failed correctness check.
func (r *result) problemf(format string, args ...any) {
	// A broken run can fail the same check once per delivery; a handful
	// say as much as thousands.
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// clock reads the time base of a run's timings: wallClock, or threadCPU
// on a CPU-bound workload.
type clock func() time.Duration

var processStart = time.Now()

func wallClock() time.Duration { return time.Since(processStart) }

// iter is one timed iteration of an untraced run.
type iter struct {
	// setup and took are the lengths of the set-up and of the measured
	// phase on the run's clock.
	setup time.Duration
	took  time.Duration
	// work is the iteration's units of work (README.md says which unit
	// each workload counts).
	work    float64
	mallocs uint64
	bytes   uint64
	// latencyMS holds the wait of each request on the run's clock, in ms.
	latencyMS []float64
	attempted int
	failed    int
	// exact holds simulated counts: pure functions of the seed that must
	// repeat across the iterations of a run.
	exact map[string]float64
	// speed is the machine's speed around this iteration over the nominal
	// one; 1 on a run whose timings are not scaled.
	speed float64
}

// timed runs f between two heap snapshots and reports how long it took
// on the given clock and the process-wide allocations it caused.
func timed(now clock, f func()) (took time.Duration, mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	f()
	took = now() - start
	runtime.ReadMemStats(&after)
	return took, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// minIters is the least number of timed iterations in a run, however
// short --seconds is.
const minIters = 3

// iterate runs one untimed warm-up iteration and then timed ones until
// the next would overrun seconds. All iterations use the same inputs, so
// their spread is noise. one is told which kind it is running, for
// workloads whose warm-up can be shorter than a timed iteration, and
// which clock to time itself with.
//
// A cpuBound workload does its work on the goroutine that calls one. It
// is timed in that thread's CPU time, and the reference kernel runs before
// and after every iteration: the mean of the two speeds scales the
// iteration's timings (reference.go says why). Otherwise the clock is the
// wall clock and nothing is scaled.
func iterate(seconds float64, cpuBound bool, res *result, one func(res *result, now clock, warm bool) (iter, error)) ([]iter, error) {
	now := wallClock
	var ref *reference
	before := 1.0
	if cpuBound {
		if _, err := threadCPUTime(); err != nil {
			return nil, fmt.Errorf("no per-thread CPU clock on this platform: %w", err)
		}
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		now = threadCPU
	}
	if _, err := one(res, now, true); err != nil {
		return nil, fmt.Errorf("warm-up iteration: %w", err)
	}
	// Each iteration's garbage is collected outside its timed part, so
	// that every iteration starts from the same heap.
	runtime.GC()
	if cpuBound {
		// A hundredth of the run per measurement: 0.25 s in a run of 25 s.
		ref = newReference(time.Duration(seconds * float64(time.Second) / 100))
		ref.speed() // the kernel's own warm-up
		before = ref.speed()
	}
	var iters []iter
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for {
		itStart := time.Now()
		it, err := one(res, now, false)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", len(iters)+1, err)
		}
		runtime.GC()
		after := 1.0
		if ref != nil {
			after = ref.speed()
		}
		it.speed = (before + after) / 2
		before = after
		iters = append(iters, it)
		last := time.Since(itStart)
		if len(iters) >= minIters && time.Since(start)+last > budget {
			return iters, nil
		}
	}
}

// endToEndFrom folds a run's iterations into the end-to-end metrics:
// each is the median over the iterations, with the quartiles.
func endToEndFrom(res *result, iters []iter) {
	var speed, setup, rate, allocs, bytes, p50s, p90s []float64
	for i, it := range iters {
		res.Attempted += it.attempted
		res.Failed += it.failed
		// A second on a machine at speed f is f seconds at nominal speed.
		speed = append(speed, it.speed)
		setup = append(setup, it.setup.Seconds()*it.speed)
		rate = append(rate, ratio(it.work, it.took.Seconds()*it.speed))
		allocs = append(allocs, ratio(float64(it.mallocs), it.work))
		bytes = append(bytes, ratio(float64(it.bytes), it.work))
		s := sorted(it.latencyMS)
		p50s = append(p50s, quantile(s, 0.5)*it.speed)
		p90s = append(p90s, quantile(s, 0.9)*it.speed)
		for name, v := range it.exact {
			if first := iters[0].exact[name]; v != first {
				res.problemf("iteration %d: simulated %s = %v, iteration 1 had %v", i+1, name, v, first)
			}
		}
	}
	res.K = len(iters)
	res.Speed = overIterations(speed)
	res.Metrics["setup_s"] = overIterations(setup)
	res.Metrics["work_per_s"] = overIterations(rate)
	res.Metrics["allocs_per_work"] = overIterations(allocs)
	res.Metrics["bytes_per_work"] = overIterations(bytes)
	// Each iteration has its own latency percentiles over its requests; n
	// is the number of requests in one iteration.
	requests := len(iters[0].latencyMS)
	for _, p := range []struct {
		name string
		q    float64
		per  []float64
	}{{"latency_p50_ms", 0.5, p50s}, {"latency_p90_ms", 0.9, p90s}} {
		m := overIterations(p.per)
		m.N, m.Unsupported = requests, !supported(requests, p.q)
		res.Metrics[p.name] = m
	}
}

// fillUnits stamps each metric with its declared unit and zero-fills
// the declared metrics the run did not set (layers the workload
// bypasses).
func fillUnits(res *result, defs []metricDef) {
	for _, d := range defs {
		m := res.Metrics[d.Name]
		m.Unit = d.Unit
		res.Metrics[d.Name] = m
	}
}
