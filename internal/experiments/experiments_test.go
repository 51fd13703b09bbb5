package experiments_test

import (
	"os"
	"strings"
	"testing"

	"rbcast/internal/experiments"
)

// Every experiment's qualitative claim must hold — these are the
// reproduction's acceptance tests. Each experiment also runs under a
// second seed in -count=1 mode to guard against seed-luck (see
// TestAlternateSeed, which uses a subset for time).

func TestRegistry(t *testing.T) {
	all := experiments.All()
	if len(all) != 17 {
		t.Fatalf("registry holds %d experiments, want 17", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if _, ok := experiments.ByID(strings.ToLower(r.ID)); !ok {
			t.Errorf("ByID(%q) case-insensitive lookup failed", r.ID)
		}
	}
	if _, ok := experiments.ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

// TestAllExperimentsHold runs every experiment at seed 1, checks its
// verdict, and holds what the seventeen print, in registry order, to the
// committed capture byte for byte: a refactor gets an identity gate, a
// deliberate protocol change regenerates the file on purpose.
func TestAllExperimentsHold(t *testing.T) {
	all := experiments.All()
	renders := make([]string, len(all))
	// The subtests are parallel, so they finish after this function
	// returns; its cleanup runs once they all have.
	t.Cleanup(func() {
		want, err := os.ReadFile("../../experiments_output.txt")
		if err != nil {
			t.Error(err)
			return
		}
		rest := string(want)
		for i, r := range all {
			if renders[i] == "" {
				return // left out by -run, or failed to run and said so
			}
			got := renders[i] + "\n\n"
			if !strings.HasPrefix(rest, got) {
				t.Errorf("%s is the first experiment to differ from experiments_output.txt; it printed:\n%s\n"+
					"If simulated behaviour was meant to move, regenerate the capture from the repository root and re-check the figures EXPERIMENTS.md quotes:\n"+
					"  go run ./cmd/rbexp | grep -v '(wall clock: ' > experiments_output.txt", r.ID, renders[i])
				return
			}
			rest = rest[len(got):]
		}
		if rest != "" {
			t.Errorf("experiments_output.txt holds %d bytes after the last experiment", len(rest))
		}
	})
	for i, r := range all {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := r.Run(1)
			if err != nil {
				t.Fatalf("run error: %v", err)
			}
			renders[i] = rep.Render()
			if err := rep.Check(); err != nil {
				t.Errorf("claim does not hold:\n%s", renders[i])
			}
			if rep.ID() != r.ID {
				t.Errorf("report id %q != runner id %q", rep.ID(), r.ID)
			}
			if !strings.Contains(renders[i], rep.ID()) {
				t.Error("Render does not include the experiment id")
			}
		})
	}
}

func TestAlternateSeed(t *testing.T) {
	// A different seed must not flip the verdicts; run the cheaper
	// experiments to bound test time.
	for _, id := range []string{"F3.1", "F4.1", "E1", "E4", "E7", "E12", "E13", "E14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("unknown id %s", id)
			}
			rep, err := r.Run(20260704)
			if err != nil {
				t.Fatalf("run error: %v", err)
			}
			if err := rep.Check(); err != nil {
				t.Errorf("claim does not hold under alternate seed:\n%s", rep.Render())
			}
		})
	}
}
