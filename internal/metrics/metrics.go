// Package metrics provides the small statistics toolkit the experiment
// harness uses: duration samples with quantiles, and plain-text table
// rendering for experiment output.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Durations collects duration samples and answers summary queries. The
// zero value is ready to use.
type Durations struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (d *Durations) Add(v time.Duration) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Grow makes room for n more samples, so that the next n of them, added
// or merged, allocate nothing.
func (d *Durations) Grow(n int) { d.samples = slices.Grow(d.samples, n) }

// Count returns the number of samples.
func (d *Durations) Count() int { return len(d.samples) }

// Merge appends every sample of o. Summary queries are order-blind, so
// merging per-shard sample sets in any fixed order yields identical
// statistics.
func (d *Durations) Merge(o *Durations) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	d.samples = append(d.samples, o.samples...)
	d.sorted = false
}

// Mean returns the average, or 0 with no samples.
func (d *Durations) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.samples {
		sum += v
	}
	return sum / time.Duration(len(d.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (d *Durations) Min() time.Duration {
	d.sort()
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (d *Durations) Max() time.Duration {
	d.sort()
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[len(d.samples)-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank, or 0 with
// no samples.
func (d *Durations) Quantile(q float64) time.Duration {
	d.sort()
	if len(d.samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q*float64(len(d.samples)-1) + 0.5)
	return d.samples[idx]
}

// Median returns the 0.5 quantile.
func (d *Durations) Median() time.Duration { return d.Quantile(0.5) }

func (d *Durations) sort() {
	if d.sorted {
		return
	}
	// Durations are totally ordered, so any sort yields the same sequence
	// and every quantile is what a stable sort would give.
	slices.Sort(d.samples)
	d.sorted = true
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Ratio formats a/b as a "×" factor, guarding b == 0.
func Ratio(a, b float64) string {
	if b == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.1f×", a/b)
}
