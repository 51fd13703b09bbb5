package harness

import (
	"slices"
	"testing"

	"rbcast/internal/core"
)

// TestParentCycleIsDeterministic: on a graph with two disjoint cycles
// and a tail leading into one of them, the walk always reports the cycle
// the lowest host reaches, listed from the host that walk re-entered —
// never whichever a map iteration happened to meet first.
func TestParentCycleIsDeterministic(t *testing.T) {
	// 1 → 5 → 6 → 7 → 5 (a tail into the cycle 5,6,7); 2 → 3 → 4 → 2;
	// 8 is the root.
	parents := map[core.HostID]core.HostID{1: 5, 5: 6, 6: 7, 7: 5, 2: 3, 3: 4, 4: 2}
	parent := func(id core.HostID) core.HostID { return parents[id] }
	hosts := []core.HostID{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 100; i++ {
		from, cycle := parentCycle(hosts, parent)
		if from != 1 || !slices.Equal(cycle, []core.HostID{5, 6, 7}) {
			t.Fatalf("call %d: cycle %v reached from %d, want [5 6 7] from 1", i, cycle, from)
		}
	}
	if from, cycle := parentCycle(hosts[1:], parent); from != 2 || !slices.Equal(cycle, []core.HostID{2, 3, 4}) {
		t.Errorf("without host 1: cycle %v reached from %d, want [2 3 4] from 2", cycle, from)
	}
	delete(parents, 7)
	delete(parents, 4)
	if from, cycle := parentCycle(hosts, parent); cycle != nil {
		t.Errorf("acyclic graph: cycle %v reported from %d", cycle, from)
	}
}

// TestUnrooted covers the spanning-tree walk's three reports and its
// host order on a synthetic graph rooted at 1.
func TestUnrooted(t *testing.T) {
	hosts := []core.HostID{1, 2, 3, 4}
	cases := []struct {
		name    string
		parents map[core.HostID]core.HostID
		want    string
	}{
		{"tree", map[core.HostID]core.HostID{2: 1, 3: 2, 4: 2}, ""},
		{"source has a parent", map[core.HostID]core.HostID{1: 2, 2: 1, 3: 1, 4: 1}, "source has parent 2"},
		{"detached host", map[core.HostID]core.HostID{2: 1, 4: 3}, "host 3's ancestry ends at NIL"},
		{"cycle off the tree", map[core.HostID]core.HostID{2: 1, 3: 4, 4: 3}, "host 3's ancestry does not terminate (cycle)"},
	}
	for _, tt := range cases {
		parent := func(id core.HostID) core.HostID { return tt.parents[id] }
		if got := unrooted(hosts, 1, parent); got != tt.want {
			t.Errorf("%s: unrooted = %q, want %q", tt.name, got, tt.want)
		}
	}
}
