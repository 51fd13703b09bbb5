package live_test

import (
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/live"
	"rbcast/internal/node"
	"rbcast/internal/wire"
)

func hosts4() []core.HostID { return []core.HostID{1, 2, 3, 4} }

func TestTransportDefaultsCheap(t *testing.T) {
	tr := live.NewTransport(hosts4(), 1)
	cfg := tr.Path(1, 4)
	if !cfg.Up || cfg.Expensive {
		t.Errorf("default path = %+v, want up and cheap", cfg)
	}
	// Path is symmetric.
	if tr.Path(4, 1) != cfg {
		t.Error("Path not symmetric")
	}
}

func TestTransportSetClusters(t *testing.T) {
	tr := live.NewTransport(hosts4(), 1)
	tr.SetClusters([][]core.HostID{{1, 2}, {3, 4}})
	if tr.Path(1, 2).Expensive {
		t.Error("intra-cluster path expensive")
	}
	if !tr.Path(1, 3).Expensive {
		t.Error("inter-cluster path cheap")
	}
	if !tr.Path(2, 4).Up {
		t.Error("inter-cluster path down by default")
	}
}

func TestTransportPartitionAndHeal(t *testing.T) {
	tr := live.NewTransport(hosts4(), 1)
	groups := [][]core.HostID{{1, 2}, {3, 4}}
	tr.PartitionGroups(groups)
	if tr.Path(1, 3).Up {
		t.Error("cross-group path still up after partition")
	}
	if !tr.Path(1, 2).Up || !tr.Path(3, 4).Up {
		t.Error("intra-group path cut by partition")
	}
	tr.HealAll()
	if !tr.Path(1, 3).Up {
		t.Error("path still down after HealAll")
	}
}

func TestTransportSetReachable(t *testing.T) {
	tr := live.NewTransport(hosts4(), 1)
	tr.SetReachable(2, 3, false)
	if tr.Path(2, 3).Up {
		t.Error("SetReachable(false) ignored")
	}
	// Only the Up bit moved; the rest of the config is intact.
	if tr.Path(2, 3).Expensive {
		t.Error("SetReachable changed the path class")
	}
	tr.SetReachable(2, 3, true)
	if !tr.Path(2, 3).Up {
		t.Error("SetReachable(true) ignored")
	}
}

func TestTransportDropsAccounting(t *testing.T) {
	tr := live.NewTransport(hosts4(), 1)
	detach := func() *node.Envelope {
		env, err := node.EncodeEnvelope(0, wire.Frame{From: 1, Message: core.Message{Kind: core.MsgDetach}})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	tr.SetReachable(1, 2, false)
	tr.Send(1, 2, detach())
	_, dropped, _ := tr.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	// Loss accounting.
	lossy := live.DefaultCheapPath()
	lossy.LossProb = 1
	tr.SetPath(1, 3, lossy)
	tr.Send(1, 3, detach())
	_, _, lost := tr.Stats()
	if lost != 1 {
		t.Errorf("lost = %d, want 1", lost)
	}
	// Sends to unknown hosts drop rather than panic.
	tr.Send(1, 99, detach())
	_, dropped, _ = tr.Stats()
	if dropped != 2 {
		t.Errorf("dropped = %d after unknown destination, want 2", dropped)
	}
}

func TestTransportDelayApplied(t *testing.T) {
	tr := live.NewTransport(hosts4(), 1)
	slow := live.PathConfig{Up: true, Delay: 60 * time.Millisecond}
	tr.SetPath(1, 2, slow)
	// Start a fleet? No — transports deliver to drivers owned by the
	// fleet; here we only verify config plumbing.
	if got := tr.Path(1, 2).Delay; got != 60*time.Millisecond {
		t.Errorf("Delay = %v", got)
	}
}
