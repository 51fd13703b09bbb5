package live

import (
	"fmt"
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/node"
)

// TestStartFleetErrorPathDoesNotHang is a regression test for a shutdown
// deadlock: StartFleet used to register every node first and spawn the
// node goroutines in a second loop, so a mid-loop construction error
// called Stop while already-registered nodes had no goroutine — and Stop
// blocked forever waiting for them, since the node goroutine's deferred
// close is the only thing that signals its exit. Nodes must be spawned
// as they are registered. Run under -race this also exercises the live node
// goroutine racing fleet teardown.
func TestStartFleetErrorPathDoesNotHang(t *testing.T) {
	orig := startDriver
	calls := 0
	startDriver = func(cfg node.Config, tr node.Transport) (*node.Driver, error) {
		calls++
		if calls == 2 {
			return nil, fmt.Errorf("injected driver failure for host %d", cfg.Bus.ID)
		}
		return orig(cfg, tr)
	}
	defer func() { startDriver = orig }()

	type result struct {
		f   *Fleet
		err error
	}
	got := make(chan result, 1)
	go func() {
		f, err := StartFleet(FleetConfig{Hosts: []core.HostID{1, 2, 3}, Source: 1})
		got <- result{f, err}
	}()
	select {
	case r := <-got:
		if r.err == nil {
			if r.f != nil {
				r.f.Stop()
			}
			t.Fatal("StartFleet succeeded despite failing driver start")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StartFleet hung in its error path: Stop waited on nodes whose goroutine never started")
	}
}
