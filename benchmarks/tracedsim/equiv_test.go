package tracedsim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

func testPayload(i int) []byte { return []byte(fmt.Sprintf("payload-%04d", i)) }

// TestDriverMatchesHarness pins the claim the per-layer numbers rest on:
// for one seed the bare driver runs the very simulation harness.Run
// does — same event count, same host sends, same delivered (host, seq)
// set — on the sequential and the sharded engine, and turning spans on
// changes none of it.
func TestDriverMatchesHarness(t *testing.T) {
	tc := topo.ClusteredConfig{
		Clusters:        4,
		HostsPerCluster: 3,
		Shape:           topo.WANTree,
		Cheap:           netsim.LinkConfig{LossProb: 0.01},
		Expensive:       netsim.LinkConfig{LossProb: 0.05},
	}
	const messages = 40
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt, err := harness.Prepare(harness.Scenario{
				Seed:   7,
				Shards: shards,
				Build: func(eng sim.Loop) (*topo.Topology, error) {
					return topo.Clustered(eng, tc)
				},
				Messages:         messages,
				MsgInterval:      20 * time.Millisecond,
				StopWhenComplete: true,
				PayloadFor:       testPayload,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete {
				t.Fatalf("harness run incomplete: %d/%d", res.DeliveredCount, res.ExpectedCount)
			}
			want := make(map[core.HostID][]seqset.Seq)
			for h, per := range res.DeliveredAt {
				for seq := range per {
					want[h] = append(want[h], seq)
				}
				sort.Slice(want[h], func(i, j int) bool { return want[h][i] < want[h][j] })
			}

			var untracedEvents uint64
			for _, trace := range []bool{false, true} {
				run, err := Prepare(Config{
					Seed:        7,
					Shards:      shards,
					Topo:        tc,
					Messages:    messages,
					MsgInterval: 20 * time.Millisecond,
					PayloadFor:  testPayload,
					Trace:       trace,
					KeepSpans:   1000,
					KeepFrames:  64,
				})
				if err != nil {
					t.Fatal(err)
				}
				out, err := run.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !out.Complete || out.Duplicates != 0 || out.SendErrors != 0 {
					t.Fatalf("trace=%v: outcome %+v", trace, out)
				}
				if got, want := out.EventsRun, rt.Engine.EventsRun(); got != want {
					t.Errorf("trace=%v: EventsRun = %d, harness ran %d", trace, got, want)
				}
				if got, want := out.Net.HostSends, res.NetStats.HostSends; got != want {
					t.Errorf("trace=%v: host sends = %d, harness made %d", trace, got, want)
				}
				if got := run.DeliveredPairs(); !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: delivered (host, seq) set differs from the harness's", trace)
				}
				if !trace {
					untracedEvents = out.EventsRun
					continue
				}
				if out.EventsRun != untracedEvents {
					t.Errorf("traced run executed %d events, untraced %d", out.EventsRun, untracedEvents)
				}
				checkTrace(t, run, out)
			}
		})
	}
}

// checkTrace checks the tracer's own bookkeeping on a finished run.
func checkTrace(t *testing.T, run *Run, out *Outcome) {
	t.Helper()
	totals := run.Tracer.Totals()
	if got := totals["netsim.send"].Count; got != out.Net.HostSends {
		t.Errorf("netsim.send spans = %d, host sends = %d", got, out.Net.HostSends)
	}
	if got, want := totals["driver.deliver"].Count, uint64(out.Delivered); got != want {
		t.Errorf("driver.deliver spans = %d, deliveries = %d", got, want)
	}
	if got, want := totals["netsim.hop"].Count, totals["sim.schedule"].Count; got > want {
		t.Errorf("netsim.hop spans %d exceed sim.schedule spans %d", got, want)
	}
	var handled uint64
	for name, a := range totals {
		if a.SelfNS < 0 || a.SelfNS > a.BusyNS {
			t.Errorf("%s: self %d ns outside [0, busy %d ns]", name, a.SelfNS, a.BusyNS)
		}
		if strings.HasPrefix(name, "core.handle.") {
			handled += a.Count
		}
	}
	if handled != out.Net.Delivered {
		t.Errorf("core.handle spans = %d, netsim delivered %d messages", handled, out.Net.Delivered)
	}
	raw := run.Tracer.Raw()
	if len(raw) == 0 || len(raw) > 1000 {
		t.Fatalf("kept %d raw spans, want 1..1000", len(raw))
	}
	for _, s := range raw {
		if s.End < s.Start || s.ID == 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
	if len(out.Frames) == 0 || len(out.Frames) > 64 {
		t.Errorf("captured %d frames, want 1..64", len(out.Frames))
	}
	if out.Accepted == 0 {
		t.Error("observer counted no accepted data messages")
	}
}
