package main

import (
	"math/rand"
	"runtime"
	"time"

	"rbcast/benchmarks/tracedsim"
	"rbcast/internal/soak"
)

// soakSpec sizes the soak-sweep workload: seeds 1..seedsPerClass of each
// class, generated and run one after another. Scenario cost varies
// several-fold from seed to seed, so sweeps over different scenario seeds
// would differ by their mix, not by the code; the population is fixed
// (and every seed of it is known to pass) and --seed decides the order
// the scenarios run in.
type soakSpec struct {
	classes       []soak.Class
	seedsPerClass int
}

// soakJob is one scenario of the sweep.
type soakJob struct {
	class soak.Class
	seed  int64
}

// jobs lists the sweep's scenarios in the order seed shuffles them into.
func (s soakSpec) jobs(seed int64) []soakJob {
	jobs := make([]soakJob, 0, len(s.classes)*s.seedsPerClass)
	for _, class := range s.classes {
		for i := 1; i <= s.seedsPerClass; i++ {
			jobs = append(jobs, soakJob{class, int64(i)})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// soakIter is one sweep's measurements beyond the common ones.
type soakIter struct {
	it       iter
	runMS    map[soak.Class][]float64
	failedBy map[soak.Class]int
	spans    []tracedsim.Span
}

// sweep generates and runs every job once, timing itself on the given
// clock; spans, when traced, are on the wall clock.
func sweep(jobs []soakJob, trace bool, now clock, out *result) soakIter {
	si := soakIter{runMS: make(map[soak.Class][]float64), failedBy: make(map[soak.Class]int)}
	base := time.Now()
	span := func(name string, req int64, start time.Time) {
		if trace {
			si.spans = append(si.spans, tracedsim.Span{ID: uint64(len(si.spans) + 1), Name: name,
				Start: int64(start.Sub(base)), End: int64(time.Since(base)), Req: uint64(req)})
		}
	}

	specs := make([]soak.Spec, len(jobs))
	start := now()
	for i, j := range jobs {
		t := time.Now()
		specs[i] = soak.NewSpec(j.class, j.seed)
		span("soak.newspec."+string(j.class), j.seed, t)
	}
	si.it.setup = now() - start

	si.it.latencyMS = make([]float64, 0, len(jobs))
	si.it.took, si.it.mallocs, si.it.bytes = timed(now, func() {
		for i, j := range jobs {
			t, began := time.Now(), now()
			rep := soak.RunSpec(specs[i])
			ms := float64(now()-began) / float64(time.Millisecond)
			span("soak.runspec."+string(j.class), j.seed, t)
			si.it.latencyMS = append(si.it.latencyMS, ms)
			si.runMS[j.class] = append(si.runMS[j.class], ms)
			if !rep.Pass {
				si.failedBy[j.class]++
				si.it.failed++
				out.problemf("soak class %s seed %d failed: %v", j.class, rep.Seed, rep.Violations)
			}
		}
	})
	si.it.work = float64(len(jobs))
	si.it.attempted = len(jobs)
	return si
}

func (s soakSpec) run(c runCfg, out *result) error {
	if c.trace {
		return s.runTraced(c, out)
	}
	jobs := s.jobs(c.seed)
	iters, err := iterate(c.seconds, true, out, func(out *result, now clock, _ bool) (iter, error) {
		return sweep(jobs, false, now, out).it, nil
	})
	if err != nil {
		return err
	}
	endToEndFrom(out, iters)
	return nil
}

// runTraced sweeps once with spans off (the base of the overhead ratio)
// and then with spans on until the budget is spent.
func (s soakSpec) runTraced(c runCfg, out *result) error {
	start := time.Now()
	budget := time.Duration(c.seconds * float64(time.Second))
	set := out.set

	jobs := s.jobs(c.seed)
	sweep(jobs, false, wallClock, &result{}) // warm-up
	runtime.GC()
	base := sweep(jobs, false, wallClock, out)

	var walls, newSpecUS []float64
	runMS := make(map[soak.Class][]float64)
	var last soakIter
	for n := 0; n == 0 || time.Since(start)+last.it.took < budget; n++ {
		runtime.GC()
		last = sweep(jobs, true, wallClock, out)
		walls = append(walls, last.it.took.Seconds())
		newSpecUS = append(newSpecUS, float64(last.it.setup.Microseconds())/float64(len(jobs)))
		for class, ms := range last.runMS {
			runMS[class] = append(runMS[class], ms...)
		}
		out.Attempted += last.it.attempted
		out.Failed += last.it.failed
	}
	out.K = len(walls)
	set("soak.newspec_us", median(newSpecUS), len(newSpecUS)*len(jobs))
	for _, class := range s.classes {
		name := string(class)
		set("soak.seeds."+name, float64(len(last.runMS[class])), 1)
		set("soak.failed."+name, float64(last.failedBy[class]), 1)
		set("soak.run_ms_p50."+name, median(runMS[class]), len(runMS[class]))
	}
	set("trace.spans", float64(len(last.spans)), 1)
	set("trace.overhead_ratio", ratio(median(walls), base.it.took.Seconds())-1, len(walls))

	aggs := make(map[string]tracedsim.Agg)
	for _, sp := range last.spans {
		a := aggs[sp.Name]
		a.Count++
		a.BusyNS += sp.End - sp.Start
		a.SelfNS += sp.End - sp.Start
		aggs[sp.Name] = a
	}
	return writeTrace(c, out.Workload, last.spans, aggs)
}
