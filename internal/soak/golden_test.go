package soak

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// TestGoldenTraces holds seeded behaviour to the parent commit's, where
// the determinism tests compare a run only with itself: for every class,
// on both trace families (sequential engine, sharded engine), the
// SeedReports of seeds 1..10 must hash to the committed line. A change
// that moves a trace on purpose pastes what this prints.
func TestGoldenTraces(t *testing.T) {
	var got strings.Builder
	for _, class := range Classes() {
		for _, shards := range []int{0, 2} {
			sum, err := Run(Config{Class: class, SeedStart: 1, Seeds: 10, Shards: shards})
			if err != nil {
				t.Fatalf("Run(%s, shards=%d): %v", class, shards, err)
			}
			reports, err := json.Marshal(sum.Reports)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(reports)
			fmt.Fprintf(&got, "%s %d %016x\n", class, shards, h.Sum64())
		}
	}
	want, err := os.ReadFile("testdata/traces.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("soak traces differ from testdata/traces.golden. If simulated behaviour was meant to move, this is the new file (git diff then shows which classes moved):\n%s", got.String())
	}
}
