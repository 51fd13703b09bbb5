package soak

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rbcast/internal/metrics"
)

// ReplayCommand returns a command line that re-runs exactly one seed,
// single-worker, verbosely — the deterministic reproduction of a sweep
// failure.
func ReplayCommand(class Class, seed int64) string {
	return fmt.Sprintf("go run ./cmd/rbsoak -class %s -seeds %d -count 1 -workers 1 -v", class, seed)
}

// Table renders the sweep overview.
func (s *Summary) Table() string {
	var (
		delivered, sends, events uint64
		completeMS               int64
		completed                int
	)
	for _, r := range s.Reports {
		delivered += uint64(r.Delivered)
		sends += r.TotalSends
		events += r.EventsRun
		if r.CompleteAtMS > 0 {
			completeMS += r.CompleteAtMS
			completed++
		}
	}
	failures := s.Failures()
	t := metrics.NewTable("metric", "value")
	t.AddRow("class", string(s.Class))
	t.AddRow("seeds", fmt.Sprintf("%d..%d", s.SeedStart, s.SeedStart+int64(s.Requested)-1))
	t.AddRow("scenarios run", len(s.Reports))
	t.AddRow("workers", s.Workers)
	t.AddRow("passed", len(s.Reports)-len(failures))
	t.AddRow("failed", len(failures))
	t.AddRow("elapsed", s.Elapsed)
	t.AddRow("scenarios/sec", metrics.PerSecond(uint64(len(s.Reports)), s.Elapsed))
	t.AddRow("sim events/sec", metrics.PerSecond(events, s.Elapsed))
	t.AddRow("deliveries", delivered)
	t.AddRow("protocol sends", sends)
	if completed > 0 {
		t.AddRow("mean completion (virtual)",
			time.Duration(completeMS/int64(completed))*time.Millisecond)
	}
	return t.String()
}

// WriteCSV emits one row per seed, ready for external tools. The
// byte stream is deterministic for a given class and seed range.
func (s *Summary) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"seed", "pass", "hosts", "clusters", "messages", "delivered", "expected",
		"complete_at_ms", "mean_delay_us", "p99_delay_us", "total_sends",
		"events_run", "unreachable_sends", "suppressed_sends", "resync_bursts",
		"post_heal_ms", "sync_rounds", "sync_failovers", "snap_resumes",
		"snap_installs", "catchup_wire_bytes",
		"equivocations", "foreign_deliveries", "detected", "violations",
	}); err != nil {
		return err
	}
	for _, r := range s.Reports {
		if err := cw.Write([]string{
			strconv.FormatInt(r.Seed, 10),
			strconv.FormatBool(r.Pass),
			strconv.Itoa(r.Hosts),
			strconv.Itoa(r.Clusters),
			strconv.Itoa(r.Messages),
			strconv.Itoa(r.Delivered),
			strconv.Itoa(r.Expected),
			strconv.FormatInt(r.CompleteAtMS, 10),
			strconv.FormatInt(r.MeanDelayUS, 10),
			strconv.FormatInt(r.P99DelayUS, 10),
			strconv.FormatUint(r.TotalSends, 10),
			strconv.FormatUint(r.EventsRun, 10),
			strconv.FormatUint(r.UnreachableSends, 10),
			strconv.FormatUint(r.SuppressedSends, 10),
			strconv.FormatUint(r.ResyncBursts, 10),
			strconv.FormatInt(r.PostHealMS, 10),
			strconv.FormatUint(r.SyncRounds, 10),
			strconv.FormatUint(r.SyncFailovers, 10),
			strconv.FormatUint(r.SnapResumes, 10),
			strconv.FormatUint(r.SnapInstalls, 10),
			strconv.FormatUint(r.CatchupWireBytes, 10),
			strconv.FormatUint(r.Equivocations, 10),
			strconv.Itoa(r.ForeignDeliveries),
			strings.Join(r.Detected, "; "),
			strings.Join(r.Violations, "; "),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("soak: writing CSV: %w", err)
	}
	return nil
}

// WriteJSON emits the full summary, specs included.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// FailureText renders one failure with its replay command and, when a
// shrink pass ran, the minimal reproducing spec.
func FailureText(class Class, rep SeedReport, shrunk *ShrinkResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d FAILED (%d hosts, %d clusters, %d messages):\n",
		rep.Seed, rep.Hosts, rep.Clusters, rep.Messages)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	fmt.Fprintf(&b, "  replay: %s\n", ReplayCommand(class, rep.Seed))
	if shrunk != nil && shrunk.Reduced {
		fmt.Fprintf(&b, "  shrunk to %d hosts, %d clusters, %d messages, %d steps (%d attempts):\n",
			shrunk.Spec.Hosts(), shrunk.Spec.Clusters, shrunk.Spec.Messages,
			len(shrunk.Spec.Steps), shrunk.Attempts)
		if data, err := json.MarshalIndent(shrunk.Spec, "    ", "  "); err == nil {
			fmt.Fprintf(&b, "    %s\n", data)
		}
	}
	return b.String()
}
