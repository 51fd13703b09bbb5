package main

import (
	"fmt"
	"io"
)

// Row labels of a comparison.
const (
	labelOK         = "ok"
	labelRegressed  = "regressed"
	labelUnresolved = "unresolved"
	labelDiffers    = "DIFFERS"
	labelExact      = "exact"
	labelMissing    = "MISSING"
)

// spread is the distance between a metric's quartiles as a share of
// its value.
func spread(m measured) float64 {
	if m.Value == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

// judge labels one workload x end-to-end metric pairing: worse is how
// much worse b's value is than a's, as a share of a's.
func judge(d metricDef, a, b measured) (worse float64, label string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		// One side's iterations sit further apart than the bound: that run
		// was too disturbed to tell a regression of that size from noise.
		return worse, labelUnresolved
	case worse > d.Bound:
		return worse, labelRegressed
	}
	return worse, labelOK
}

func findResult(sr *suiteResult, workload string, trace bool) *result {
	for _, r := range sr.Results {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// compareSuites prints, per workload and end-to-end metric, both
// values, the relative change with its base, and the bound, and checks
// that the simulated results agree exactly. It reports whether every
// pairing was there to compare and nothing regressed or differed: a
// result that lacks a workload or a metric fails, it does not pass for
// want of data. Results from different seeds are refused, because their
// simulated results cannot be held against each other.
func compareSuites(w io.Writer, a, b *suiteResult) bool {
	fmt.Fprintf(w, "# a: git %s seed=%d   b: git %s seed=%d\n", a.Header.GitSHA, a.Header.Seed, b.Header.GitSHA, b.Header.Seed)
	if a.Header.Seed != b.Header.Seed {
		fmt.Fprintf(w, "the two results come from different seeds; run both with one seed\n")
		return false
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s  %-28s %6s  %s\n", "workload", "metric", "a", "b", "b worse than a by", "bound", "verdict")
	good := true
	missing := func(workload, what string) {
		good = false
		fmt.Fprintf(w, "%-14s %-34s not in both results  %s\n", workload, what, labelMissing)
	}
	for _, wl := range suite {
		ra, rb := findResult(a, wl.name, false), findResult(b, wl.name, false)
		ta, tb := findResult(a, wl.name, true), findResult(b, wl.name, true)
		if ra == nil || rb == nil {
			missing(wl.name, "untraced run")
			continue
		}
		for _, d := range endToEnd {
			ma, inA := ra.Metrics[d.Name]
			mb, inB := rb.Metrics[d.Name]
			if !inA || !inB {
				missing(wl.name, d.Name)
				continue
			}
			worse, label := judge(d, ma, mb)
			if label == labelRegressed {
				good = false
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g  %+7.2f%% of %-16.6g %5.0f%%  %s\n",
				wl.name, d.Name, ma.Value, mb.Value, 100*worse, ma.Value, 100*d.Bound, label)
		}
		if fa, fb := ra.failedRatio(), rb.failedRatio(); fb > fa {
			good = false
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g  any increase regresses                %s\n",
				wl.name, "failed_ratio", fa, fb, labelRegressed)
		}
		if ta == nil || tb == nil {
			missing(wl.name, "traced run")
			continue
		}
		for _, name := range exactPerLayer {
			ma, inA := ta.Metrics[name]
			mb, inB := tb.Metrics[name]
			if !inA || !inB {
				missing(wl.name, name)
				continue
			}
			if ma.Value == 0 && mb.Value == 0 {
				continue // a layer this workload bypasses
			}
			label := labelExact
			if ma.Value != mb.Value {
				label, good = labelDiffers, false
			}
			fmt.Fprintf(w, "%-14s %-34s %14.9g %14.9g  %s\n", wl.name, name, ma.Value, mb.Value, label)
		}
	}
	return good
}
