// Command rbsoak sweeps thousands of seeded random broadcast scenarios
// through the full invariant suite, in parallel, and reports every
// failing seed with a shrunk reproduction and a replay command line.
//
// Usage examples:
//
//	rbsoak                                  # 1000 mixed seeds, all cores
//	rbsoak -class partition -count 5000
//	rbsoak -class churn -budget 30s -csv churn.csv
//	rbsoak -class partition-trap -count 5   # watch the engine catch bugs
//	rbsoak -class mixed -seeds 81 -count 1 -workers 1 -v
//	rbsoak -count 200 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Per-seed results are byte-identical regardless of -workers; only wall
// time changes. The exit status is 0 when every seed passed, 1 when any
// failed, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rbcast/internal/soak"
)

func main() {
	os.Exit(run())
}

// classList renders the registered classes for the -class usage string,
// so new classes show up in -h without touching this file.
func classList() string {
	names := make([]string, 0, len(soak.Classes()))
	for _, c := range soak.Classes() {
		names = append(names, string(c))
	}
	return strings.Join(names, "|")
}

func run() int {
	var (
		class   = flag.String("class", "mixed", "scenario class: "+classList())
		seeds   = flag.Int64("seeds", 1, "first seed of the sweep")
		count   = flag.Int("count", 1000, "number of consecutive seeds to run")
		workers = flag.Int("workers", 0, "worker pool size (0 = all cores)")
		shards  = flag.Int("shards", 0, "per-scenario parallel shard workers (0 = sequential engine)")
		budget  = flag.Duration("budget", 0, "wall-clock budget; stops dispatching new seeds once exceeded (0 = none)")
		csvFile = flag.String("csv", "", "write per-seed results as CSV to this file")
		jsFile  = flag.String("json", "", "write the full summary (specs included) as JSON to this file")
		shrink  = flag.Bool("shrink", true, "shrink failing seeds to minimal reproducing specs")
		verbose = flag.Bool("v", false, "print each seed's result as it completes")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (inspect with `go tool pprof`)")
		memProf = flag.String("memprofile", "", "record every allocation of the sweep and write the allocs profile to this `file` (inspect with go tool pprof -sample_index=alloc_objects)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rbsoak: unexpected arguments %v\n", flag.Args())
		return 2
	}
	cls, err := soak.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsoak:", err)
		return 2
	}
	if *count < 1 {
		fmt.Fprintf(os.Stderr, "rbsoak: -count %d, want >= 1\n", *count)
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbsoak:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "rbsoak:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// Every allocation, not one per 512 KiB: the counts read off this
		// profile are exact and repeat from run to run.
		runtime.MemProfileRate = 1
	}
	defer writeMemProfile("rbsoak", *memProf)

	cfg := soak.Config{
		Class:     cls,
		SeedStart: *seeds,
		Seeds:     *count,
		Workers:   *workers,
		Shards:    *shards,
		Budget:    *budget,
	}
	if !*verbose && *count > 1 {
		cfg.Progress = func(done, failed int) {
			if done%100 == 0 || done == *count {
				fmt.Fprintf(os.Stderr, "\r%d/%d seeds, %d failed", done, *count, failed)
				if done == *count {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	sum, err := soak.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsoak:", err)
		return 2
	}
	if *verbose {
		for _, r := range sum.Reports {
			status := "pass"
			if !r.Pass {
				status = "FAIL"
			}
			fmt.Printf("seed %d: %s (%d hosts, %d msgs, delivered %d/%d, %d events)\n",
				r.Seed, status, r.Hosts, r.Messages, r.Delivered, r.Expected, r.EventsRun)
			for _, v := range r.Violations {
				fmt.Printf("  violation: %s\n", v)
			}
		}
	}
	fmt.Println(sum.Table())

	if *csvFile != "" {
		if err := writeFile(*csvFile, sum.WriteCSV); err != nil {
			fmt.Fprintln(os.Stderr, "rbsoak:", err)
			return 1
		}
		fmt.Printf("per-seed results written to %s\n", *csvFile)
	}
	if *jsFile != "" {
		if err := writeFile(*jsFile, sum.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "rbsoak:", err)
			return 1
		}
		fmt.Printf("summary written to %s\n", *jsFile)
	}

	failures := sum.Failures()
	if len(failures) == 0 {
		return 0
	}
	fmt.Printf("\n%d failing seed(s):\n", len(failures))
	for _, f := range failures {
		var sh *soak.ShrinkResult
		if *shrink {
			r := soak.Shrink(soak.NewSpec(cls, f.Seed), 0)
			sh = &r
		}
		fmt.Print(soak.FailureText(cls, f, sh))
	}
	return 1
}

// writeMemProfile dumps the allocs profile — everything allocated since
// the start, which a GC first has to publish — best-effort.
func writeMemProfile(tool, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
