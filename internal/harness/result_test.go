package harness_test

import (
	"testing"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/topo"
)

func TestResultAccessors(t *testing.T) {
	rt, err := harness.Prepare(harness.Scenario{
		Seed:             53,
		Build:            clusteredBuild(2, 2, topo.WANStar),
		Protocol:         harness.ProtocolTree,
		Messages:         8,
		StopWhenComplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("setup: incomplete")
	}
	if got := res.DeliveryRatio(); got != 1 {
		t.Errorf("DeliveryRatio = %v, want 1", got)
	}
	if res.InterClusterData() == 0 {
		t.Error("InterClusterData = 0 on a 2-cluster run")
	}
	if res.InterClusterControl() == 0 {
		t.Error("InterClusterControl = 0 despite info exchange across clusters")
	}
	if res.DataLinkTraversalsPerMessage() <= 0 {
		t.Error("DataLinkTraversalsPerMessage not positive")
	}
	if res.TotalMessages() != 8 {
		t.Errorf("TotalMessages = %d", res.TotalMessages())
	}
	if len(res.HostList) != 4 {
		t.Errorf("HostList = %v", res.HostList)
	}
	if res.WireBytes == 0 {
		t.Error("WireBytes = 0 for a tree run")
	}
	// Leaders: exactly one per true cluster after convergence, of two.
	if ok, why := rt.InducesClusterTree(); !ok {
		t.Errorf("no cluster tree after convergence: %s", why)
	}
	if n := rt.Net.ClusterCount(); n != 2 {
		t.Errorf("%d true clusters, want 2", n)
	}
	// Final parents: the source has none, everyone else does.
	if p := rt.TreeHost(core.HostID(rt.Topo.Source)).Parent(); p != core.Nil {
		t.Errorf("source final parent = %d", p)
	}
	parented := 0
	for _, h := range rt.TreeHosts {
		if h.Parent() != core.Nil {
			parented++
		}
	}
	if parented != 3 {
		t.Errorf("parented hosts = %d, want 3", parented)
	}
}

func TestResultZeroMessageRun(t *testing.T) {
	res, err := harness.Run(harness.Scenario{
		Seed:     54,
		Build:    clusteredBuild(1, 2, topo.WANStar),
		Protocol: harness.ProtocolTree,
		Messages: 0,
		Drain:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DeliveryRatio(); got != 1 {
		t.Errorf("DeliveryRatio with zero expected = %v, want 1", got)
	}
	if got := res.InterClusterDataPerMessage(); got != 0 {
		t.Errorf("InterClusterDataPerMessage = %v with no messages", got)
	}
	if got := res.DataLinkTraversalsPerMessage(); got != 0 {
		t.Errorf("DataLinkTraversalsPerMessage = %v with no messages", got)
	}
	if !res.Complete {
		t.Error("zero-message run not complete")
	}
}

func TestProtocolString(t *testing.T) {
	if harness.ProtocolTree.String() != "tree" || harness.ProtocolBasic.String() != "basic" {
		t.Error("protocol strings wrong")
	}
	if s := harness.Protocol(9).String(); s == "" {
		t.Error("unknown protocol renders empty")
	}
}
