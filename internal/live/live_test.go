package live_test

import (
	"sync"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/live"
	"rbcast/internal/seqset"
)

// Live tests run real goroutines on real clocks; timeouts are generous
// to stay robust on loaded machines while typical convergence is tens of
// milliseconds.
const waitBudget = 15 * time.Second

func startFleet(t *testing.T, cfg live.FleetConfig) *live.Fleet {
	t.Helper()
	f, err := live.StartFleet(cfg)
	if err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	t.Cleanup(f.Stop)
	return f
}

func TestLiveBroadcastSingleCluster(t *testing.T) {
	f := startFleet(t, live.FleetConfig{
		Hosts:  []core.HostID{1, 2, 3, 4, 5},
		Source: 1,
		Seed:   1,
	})
	for i := 0; i < 10; i++ {
		if _, err := f.Broadcast([]byte("payload")); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
	}
	if !f.WaitDelivered(10, waitBudget) {
		t.Fatalf("not all hosts delivered 10 messages; host 2 has %v", f.Delivered(2))
	}
	if d := f.DuplicateDeliveries(); d != 0 {
		t.Errorf("duplicate deliveries = %d", d)
	}
	if s := f.NodeStats(); s.DecodeErrors != 0 || s.SendErrors != 0 {
		t.Errorf("wire codec errors: %+v", s)
	}
}

func TestLiveBroadcastClustered(t *testing.T) {
	clusters := [][]core.HostID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	f := startFleet(t, live.FleetConfig{
		Hosts:    []core.HostID{1, 2, 3, 4, 5, 6, 7, 8, 9},
		Source:   1,
		Clusters: clusters,
		Seed:     2,
	})
	for i := 0; i < 8; i++ {
		if _, err := f.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !f.WaitDelivered(8, waitBudget) {
		for _, h := range []core.HostID{4, 7, 9} {
			t.Logf("host %d delivered %v", h, f.Delivered(h))
		}
		t.Fatal("clustered live broadcast incomplete")
	}
	// Hosts should have inferred their clusters from cost bits.
	var cl []core.HostID
	if err := f.Inspect(5, func(h *core.Host) { cl = h.Cluster() }); err != nil {
		t.Fatal(err)
	}
	want := map[core.HostID]bool{4: true, 5: true, 6: true}
	for _, id := range cl {
		if !want[id] {
			t.Errorf("host 5 believes %d is a cluster mate (cluster %v)", id, cl)
		}
	}
}

func TestLiveBroadcastUnderLoss(t *testing.T) {
	hosts := []core.HostID{1, 2, 3, 4}
	f := startFleet(t, live.FleetConfig{Hosts: hosts, Source: 1, Seed: 3})
	lossy := live.DefaultCheapPath()
	lossy.LossProb = 0.2
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			f.Transport.SetPath(a, b, lossy)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := f.Broadcast([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if !f.WaitDelivered(10, waitBudget) {
		t.Fatalf("lossy live broadcast incomplete; host 3 has %v", f.Delivered(3))
	}
	if d := f.DuplicateDeliveries(); d != 0 {
		t.Errorf("duplicate deliveries = %d", d)
	}
}

func TestLivePartitionHeals(t *testing.T) {
	groups := [][]core.HostID{{1, 2}, {3, 4}}
	f := startFleet(t, live.FleetConfig{
		Hosts:    []core.HostID{1, 2, 3, 4},
		Source:   1,
		Clusters: groups,
		Seed:     4,
	})
	// Let the tree form, then cut the second cluster off.
	if _, err := f.Broadcast([]byte("m1")); err != nil {
		t.Fatal(err)
	}
	if !f.WaitDelivered(1, waitBudget) {
		t.Fatal("initial broadcast incomplete")
	}
	f.Transport.PartitionGroups(groups)
	for i := 0; i < 5; i++ {
		if _, err := f.Broadcast([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	// The isolated cluster cannot receive them yet.
	if f.WaitHostDelivered(3, 6, 300*time.Millisecond) {
		t.Fatal("partitioned host received messages through a cut path")
	}
	f.Transport.HealAll()
	if !f.WaitDelivered(6, waitBudget) {
		t.Fatalf("delivery did not resume after heal; host 3 has %v, host 4 has %v",
			f.Delivered(3), f.Delivered(4))
	}
}

func TestLiveConcurrentBroadcasters(t *testing.T) {
	// Hammer Broadcast from several goroutines; the fleet must serialize
	// them onto the source's loop without data races (run under -race).
	f := startFleet(t, live.FleetConfig{
		Hosts:  []core.HostID{1, 2, 3},
		Source: 1,
		Seed:   5,
	})
	const per = 5
	var wg sync.WaitGroup
	seqs := make(chan seqset.Seq, 4*per)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := f.Broadcast([]byte("c"))
				if err != nil {
					t.Errorf("Broadcast: %v", err)
					return
				}
				seqs <- seq
			}
		}()
	}
	wg.Wait()
	close(seqs)
	seen := map[seqset.Seq]bool{}
	for s := range seqs {
		if seen[s] {
			t.Errorf("sequence %d assigned twice", s)
		}
		seen[s] = true
	}
	if len(seen) != 4*per {
		t.Fatalf("assigned %d distinct seqs, want %d", len(seen), 4*per)
	}
	if !f.WaitDelivered(seqset.Seq(4*per), waitBudget) {
		t.Fatal("concurrent broadcasts incomplete")
	}
}

func TestLiveStopIdempotentAndPrompt(t *testing.T) {
	f, err := live.StartFleet(live.FleetConfig{
		Hosts:  []core.HostID{1, 2},
		Source: 1,
		Seed:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		f.Stop()
		f.Stop() // second call is a no-op
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(waitBudget):
		t.Fatal("Stop did not return")
	}
	if _, err := f.Broadcast([]byte("x")); err == nil {
		t.Error("Broadcast succeeded after Stop")
	}
}

func TestLiveFleetValidation(t *testing.T) {
	if _, err := live.StartFleet(live.FleetConfig{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := live.StartFleet(live.FleetConfig{
		Hosts:  []core.HostID{1, 2},
		Source: 9, // not a participant
	}); err == nil {
		t.Error("source outside Hosts accepted")
	}
}

func TestLiveInspect(t *testing.T) {
	f := startFleet(t, live.FleetConfig{
		Hosts:  []core.HostID{1, 2},
		Source: 1,
		Seed:   7,
	})
	var id core.HostID
	if err := f.Inspect(2, func(h *core.Host) { id = h.ID() }); err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("Inspect saw host %d, want 2", id)
	}
	if err := f.Inspect(99, func(*core.Host) {}); err == nil {
		t.Error("Inspect of unknown host succeeded")
	}
}
