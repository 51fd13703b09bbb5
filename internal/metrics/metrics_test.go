package metrics_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rbcast/internal/metrics"
)

func TestDurationsEmpty(t *testing.T) {
	var d metrics.Durations
	if d.Count() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.Median() != 0 {
		t.Error("zero-value Durations not all-zero")
	}
}

func TestDurationsSummary(t *testing.T) {
	var d metrics.Durations
	for i, v := range []time.Duration{3, 1, 2, 5, 4} {
		if i == 2 {
			d.Grow(100) // room for more keeps the samples already there
		}
		d.Add(v * time.Millisecond)
	}
	if d.Count() != 5 {
		t.Errorf("Count = %d", d.Count())
	}
	if d.Mean() != 3*time.Millisecond {
		t.Errorf("Mean = %v, want 3ms", d.Mean())
	}
	if d.Min() != time.Millisecond || d.Max() != 5*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if d.Median() != 3*time.Millisecond {
		t.Errorf("Median = %v, want 3ms", d.Median())
	}
	if d.Quantile(0) != time.Millisecond || d.Quantile(1) != 5*time.Millisecond {
		t.Errorf("extreme quantiles wrong: %v %v", d.Quantile(0), d.Quantile(1))
	}
	// Out-of-range quantiles clamp.
	if d.Quantile(-1) != d.Quantile(0) || d.Quantile(2) != d.Quantile(1) {
		t.Error("quantile clamping wrong")
	}
}

func TestDurationsAddAfterQuery(t *testing.T) {
	var d metrics.Durations
	d.Add(5 * time.Millisecond)
	_ = d.Median() // forces sort
	d.Add(time.Millisecond)
	if d.Min() != time.Millisecond {
		t.Error("sample added after query ignored by Min")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var d metrics.Durations
		for i := 0; i < int(n)+1; i++ {
			d.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := d.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return d.Min() <= d.Mean() && d.Mean() <= d.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := metrics.NewTable("name", "value", "delay")
	tb.AddRow("alpha", 42, 1500*time.Microsecond)
	tb.AddRow("a-much-longer-name", 7.25, time.Second)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "delay") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(out, "7.25") {
		t.Errorf("float not formatted: %s", out)
	}
	if !strings.Contains(out, "2ms") { // 1500µs rounds to 2ms
		t.Errorf("duration not rounded: %s", out)
	}
	// Columns align: all lines equal width per column — check separator
	// covers the longest cell.
	if len(lines[1]) < len(lines[2]) {
		t.Errorf("separator shorter than data row:\n%s", out)
	}
}

func TestRatio(t *testing.T) {
	if got := metrics.Ratio(10, 2); got != "5.0×" {
		t.Errorf("Ratio = %q", got)
	}
	if got := metrics.Ratio(1, 0); got != "∞" {
		t.Errorf("Ratio by zero = %q", got)
	}
}
