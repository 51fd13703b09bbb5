// Command rbsim runs one broadcast simulation and prints its metrics.
//
// Usage examples:
//
//	rbsim -clusters 4 -hosts 3 -messages 50
//	rbsim -proto basic -shape chain -wan-loss 0.25
//	rbsim -partition 2:5s:25s -messages 40 -trace 30
//	rbsim -messages 500 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The simulation is deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
	"rbcast/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		clusters  = flag.Int("clusters", 3, "number of clusters")
		hosts     = flag.Int("hosts", 3, "hosts per cluster")
		shape     = flag.String("shape", "tree", "WAN shape: star|chain|tree|mesh|ring")
		proto     = flag.String("proto", "tree", "protocol: tree|basic")
		messages  = flag.Int("messages", 20, "number of broadcast messages")
		interval  = flag.Duration("interval", 200*time.Millisecond, "time between broadcasts")
		seed      = flag.Int64("seed", 1, "simulation seed")
		shards    = flag.Int("shards", 0, "parallel shard workers (0 = sequential engine; any positive count gives identical results)")
		cheapLoss = flag.Float64("lan-loss", 0, "loss probability on cheap links")
		wanLoss   = flag.Float64("wan-loss", 0, "loss probability on expensive links")
		partition = flag.String("partition", "", "cluster:start:end, e.g. 2:5s:25s")
		drain     = flag.Duration("drain", 30*time.Second, "extra time after the last broadcast")
		traceN    = flag.Int("trace", 0, "print the last N protocol events")
		full      = flag.Bool("full-horizon", false, "run the whole horizon even after completion")
		dotFile   = flag.String("dot", "", "write the final parent graph as Graphviz DOT to this file")
		csvFile   = flag.String("csv", "", "write the per-delivery timeline as CSV to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
		memProf   = flag.String("memprofile", "", "record every allocation of the run and write the allocs profile to this `file` (inspect with go tool pprof -sample_index=alloc_objects)")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbsim:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "rbsim:", err)
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
	defer writeMemProfile(*memProf)

	shapes := map[string]topo.WANShape{
		"star": topo.WANStar, "chain": topo.WANChain, "tree": topo.WANTree,
		"mesh": topo.WANMesh, "ring": topo.WANRing,
	}
	wanShape, ok := shapes[strings.ToLower(*shape)]
	if !ok {
		fmt.Fprintf(os.Stderr, "rbsim: unknown shape %q\n", *shape)
		return 2
	}
	var protocol harness.Protocol
	switch strings.ToLower(*proto) {
	case "tree":
		protocol = harness.ProtocolTree
	case "basic":
		protocol = harness.ProtocolBasic
	default:
		fmt.Fprintf(os.Stderr, "rbsim: unknown protocol %q\n", *proto)
		return 2
	}

	var events []harness.TimedEvent
	if *partition != "" {
		ev, err := parsePartition(*partition)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbsim:", err)
			return 2
		}
		events = ev
	}

	buf := trace.NewBuffer(4096)
	scenario := harness.Scenario{
		Name:   "rbsim",
		Seed:   *seed,
		Shards: *shards,
		Build: func(eng sim.Loop) (*topo.Topology, error) {
			return topo.Clustered(eng, topo.ClusteredConfig{
				Clusters:        *clusters,
				HostsPerCluster: *hosts,
				Shape:           wanShape,
				Cheap:           netsim.LinkConfig{Class: netsim.Cheap, LossProb: *cheapLoss},
				Expensive:       netsim.LinkConfig{Class: netsim.Expensive, LossProb: *wanLoss},
			})
		},
		Protocol:         protocol,
		Messages:         *messages,
		MsgInterval:      *interval,
		Drain:            *drain,
		Events:           events,
		StopWhenComplete: !*full,
		CollectEvents:    *traceN > 0,
	}
	rt, err := harness.Prepare(scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsim:", err)
		return 1
	}
	res, err := rt.Finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsim:", err)
		return 1
	}
	fmt.Println(res.Summary())
	if *csvFile != "" {
		f, err := os.Create(*csvFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbsim: creating csv:", err)
			return 1
		}
		err = res.WriteDeliveryCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbsim: writing csv:", err)
			return 1
		}
		fmt.Printf("delivery timeline written to %s\n", *csvFile)
	}
	if *dotFile != "" && protocol == harness.ProtocolTree {
		if err := os.WriteFile(*dotFile, []byte(rt.ParentGraphDOT()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rbsim: writing dot:", err)
			return 1
		}
		fmt.Printf("parent graph written to %s\n", *dotFile)
	}
	if len(res.EventErrors) > 0 {
		fmt.Fprintf(os.Stderr, "rbsim: scheduled event errors: %v\n", res.EventErrors)
	}
	if *traceN > 0 {
		for _, ev := range res.Events {
			buf.Add(trace.FromEvent(ev))
		}
		entries := buf.Entries()
		if len(entries) > *traceN {
			entries = entries[len(entries)-*traceN:]
		}
		fmt.Printf("last %d protocol events:\n", len(entries))
		for _, e := range entries {
			fmt.Println(" ", e)
		}
	}
	if !res.Complete {
		fmt.Fprintf(os.Stderr, "rbsim: incomplete delivery (%d/%d)\n",
			res.DeliveredCount, res.ExpectedCount)
		return 1
	}
	return 0
}

// parsePartition turns "cluster:start:end" into isolate/restore events.
func parsePartition(s string) ([]harness.TimedEvent, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -partition %q, want cluster:start:end", s)
	}
	var cluster int
	if _, err := fmt.Sscanf(parts[0], "%d", &cluster); err != nil {
		return nil, fmt.Errorf("bad -partition cluster %q: %w", parts[0], err)
	}
	start, err := time.ParseDuration(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad -partition start: %w", err)
	}
	end, err := time.ParseDuration(parts[2])
	if err != nil {
		return nil, fmt.Errorf("bad -partition end: %w", err)
	}
	if end <= start {
		return nil, fmt.Errorf("-partition end %v not after start %v", end, start)
	}
	return harness.PartitionWindow(cluster, start, end), nil
}

// writeMemProfile dumps the allocs profile — everything allocated since
// the start, which a GC first has to publish — best-effort.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsim:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "rbsim:", err)
	}
}
