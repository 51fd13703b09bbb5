package topo_test

import (
	"slices"
	"testing"

	"rbcast/internal/netsim"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

func TestClusteredShapesAndCounts(t *testing.T) {
	shapes := []topo.WANShape{topo.WANStar, topo.WANChain, topo.WANTree, topo.WANMesh, topo.WANRing}
	for _, shape := range shapes {
		t.Run(shape.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			tp, err := topo.Clustered(eng, topo.ClusteredConfig{
				Clusters:        4,
				HostsPerCluster: 3,
				Shape:           shape,
			})
			if err != nil {
				t.Fatalf("Clustered: %v", err)
			}
			if len(tp.Hosts) != 12 {
				t.Errorf("hosts = %d, want 12", len(tp.Hosts))
			}
			if got := tp.Net.ClusterCount(); got != 4 {
				t.Errorf("true clusters = %d, want 4", got)
			}
			wantWAN := map[topo.WANShape]int{
				topo.WANStar: 3, topo.WANChain: 3, topo.WANTree: 3,
				topo.WANMesh: 6, topo.WANRing: 4,
			}[shape]
			if len(tp.WANLinks) != wantWAN {
				t.Errorf("WAN links = %d, want %d", len(tp.WANLinks), wantWAN)
			}
			// Generated clustering must agree with simulator ground truth.
			truth := tp.Net.TrueClusters()
			for c, hosts := range tp.HostsByCluster {
				for _, h := range hosts {
					if truth.Of(h) != truth.Of(hosts[0]) {
						t.Errorf("cluster %d host %d not in same true cluster", c, h)
					}
					if got := tp.ClusterOf(h); got != c {
						t.Errorf("ClusterOf(%d) = %d, want %d", h, got, c)
					}
				}
			}
			// Hosts in different generated clusters are in different true
			// clusters.
			if truth.Of(tp.HostsByCluster[0][0]) == truth.Of(tp.HostsByCluster[1][0]) {
				t.Error("distinct generated clusters map to one true cluster")
			}
		})
	}
}

func TestClusteredValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := topo.Clustered(eng, topo.ClusteredConfig{Clusters: 0, HostsPerCluster: 1}); err == nil {
		t.Error("Clusters=0 accepted")
	}
	if _, err := topo.Clustered(eng, topo.ClusteredConfig{Clusters: 1, HostsPerCluster: 0}); err == nil {
		t.Error("HostsPerCluster=0 accepted")
	}
}

func TestClusteredConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	tp, err := topo.Clustered(eng, topo.ClusteredConfig{
		Clusters:        5,
		HostsPerCluster: 2,
		Shape:           topo.WANTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tp.Hosts {
		for _, b := range tp.Hosts {
			if a != b && !tp.Net.PathExists(a, b) {
				t.Errorf("no path %d → %d in fresh topology", a, b)
			}
		}
	}
}

func TestIsolateAndRestoreCluster(t *testing.T) {
	eng := sim.NewEngine(1)
	tp, err := topo.Clustered(eng, topo.ClusteredConfig{
		Clusters:        3,
		HostsPerCluster: 2,
		Shape:           topo.WANChain,
	})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := tp.IsolateCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) == 0 {
		t.Fatal("IsolateCluster cut nothing")
	}
	victim := tp.HostsByCluster[2][0]
	if tp.Net.PathExists(tp.Source, victim) {
		t.Error("path to isolated cluster still exists")
	}
	// Intra-cluster connectivity survives.
	if !tp.Net.PathExists(tp.HostsByCluster[2][0], tp.HostsByCluster[2][1]) {
		t.Error("isolated cluster lost internal connectivity")
	}
	if err := tp.RestoreLinks(cut); err != nil {
		t.Fatal(err)
	}
	if !tp.Net.PathExists(tp.Source, victim) {
		t.Error("path not restored after repair")
	}
}

// TestWANLinksOfCluster: on every topology that records WAN links, the
// links of cluster c are exactly those with an end in c's servers, given
// here as indices into WANLinks. Figure 3.1's middle switch is cluster 3.
func TestWANLinksOfCluster(t *testing.T) {
	star := func(eng sim.Loop) (*topo.Topology, error) {
		return topo.Clustered(eng, topo.ClusteredConfig{Clusters: 4, HostsPerCluster: 2, Shape: topo.WANStar})
	}
	cases := []struct {
		name  string
		build func(sim.Loop) (*topo.Topology, error)
		want  [][]int
	}{
		{"Figure31", topo.Figure31, [][]int{{0}, {1}, {2}, {0, 1, 2}}},
		{"Figure32", topo.Figure32, [][]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}},
		{"Figure41", topo.Figure41, [][]int{{0, 1}, {0, 2}, {1, 2}}},
		{"Clustered star", star, [][]int{{0, 1, 2}, {0}, {1}, {2}}},
	}
	for _, tc := range cases {
		tp, err := tc.build(sim.NewEngine(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(tc.want) != len(tp.ServersByCluster) {
			t.Fatalf("%s: %d clusters of servers, the table has %d", tc.name, len(tp.ServersByCluster), len(tc.want))
		}
		for c, idx := range tc.want {
			var want []netsim.LinkID
			for _, i := range idx {
				want = append(want, tp.WANLinks[i])
			}
			if got := tp.WANLinksOfCluster(c); !slices.Equal(got, want) {
				t.Errorf("%s: WANLinksOfCluster(%d) = %v, want %v", tc.name, c, got, want)
			}
		}
	}
}

func TestFigure31(t *testing.T) {
	eng := sim.NewEngine(1)
	tp, err := topo.Figure31(eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Hosts) != 3 || tp.Source != 1 {
		t.Fatalf("hosts = %v, source = %d", tp.Hosts, tp.Source)
	}
	// Every host is its own cluster (expensive links only).
	if got := tp.Net.ClusterCount(); got != 3 {
		t.Errorf("clusters = %d, want 3", got)
	}
	// Full connectivity via the middle switch.
	for _, a := range tp.Hosts {
		for _, b := range tp.Hosts {
			if a != b && !tp.Net.PathExists(a, b) {
				t.Errorf("no path %d → %d", a, b)
			}
		}
	}
}

func TestFigure32(t *testing.T) {
	eng := sim.NewEngine(1)
	tp, err := topo.Figure32(eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Hosts) != 9 {
		t.Fatalf("hosts = %d, want 9", len(tp.Hosts))
	}
	if got := tp.Net.ClusterCount(); got != 4 {
		t.Errorf("clusters = %d, want 4", got)
	}
	// Cluster C (index 3) must touch exactly two WAN links (to C′ and C″).
	if got := len(tp.WANLinksOfCluster(3)); got != 2 {
		t.Errorf("WAN links of C = %d, want 2", got)
	}
	// The merge repair joins C″ and C into one true cluster.
	if _, err := topo.MergeFigure32Clusters(tp); err != nil {
		t.Fatal(err)
	}
	truth := tp.Net.TrueClusters()
	if truth.Of(tp.HostsByCluster[2][0]) != truth.Of(tp.HostsByCluster[3][0]) {
		t.Error("merge did not join C″ and C")
	}
	if got := tp.Net.ClusterCount(); got != 3 {
		t.Errorf("clusters after merge = %d, want 3", got)
	}
}

func TestFigure41(t *testing.T) {
	eng := sim.NewEngine(1)
	tp, err := topo.Figure41(eng)
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.Net.ClusterCount(); got != 3 {
		t.Errorf("clusters = %d, want 3", got)
	}
	cut, err := topo.IsolateFigure41Source(tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 2 {
		t.Fatalf("cut %d links, want 2", len(cut))
	}
	if tp.Net.PathExists(1, 2) || tp.Net.PathExists(1, 3) {
		t.Error("source still reachable after isolation")
	}
	if !tp.Net.PathExists(2, 3) {
		t.Error("i–j connectivity lost; the figure requires it")
	}
	if err := tp.RestoreLinks(cut); err != nil {
		t.Fatal(err)
	}
	if !tp.Net.PathExists(1, 2) {
		t.Error("source unreachable after repair")
	}
}

func TestHostLinksAreCheap(t *testing.T) {
	// The model's clusters are defined over cheap communication; host
	// access links must be cheap or TrueClusters degrades to singletons.
	eng := sim.NewEngine(1)
	tp, err := topo.Clustered(eng, topo.ClusteredConfig{
		Clusters:        2,
		HostsPerCluster: 2,
		HostLink:        netsim.LinkConfig{Class: netsim.Cheap},
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := tp.Net.TrueClusters()
	if truth.Of(1) != truth.Of(2) {
		t.Error("same-cluster hosts not in one true cluster")
	}
}
