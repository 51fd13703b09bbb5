package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantileAndSupport(t *testing.T) {
	xs := sorted([]float64{5, 1, 4, 2, 3})
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
	if supported(99, 0.9) || !supported(100, 0.9) || !supported(20, 0.5) || supported(19, 0.5) {
		t.Error("a percentile is supported exactly when ten samples lie beyond it")
	}
}

func TestJudge(t *testing.T) {
	up := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	down := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	tight := func(v float64) measured { return measured{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) measured { return measured{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	for _, c := range []struct {
		name  string
		d     metricDef
		a, b  measured
		label string
	}{
		{"same", up, tight(100), tight(100), labelOK},
		{"higher-better improves", up, tight(100), tight(150), labelOK},
		{"higher-better drops within bound", up, tight(100), tight(92), labelOK},
		{"higher-better drops past bound", up, tight(100), tight(85), labelRegressed},
		{"lower-better rises past bound", down, tight(1), tight(1.2), labelRegressed},
		{"lower-better falls", down, tight(1), tight(0.5), labelOK},
		{"spread wider than bound", up, wide(100), tight(85), labelUnresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.label {
			t.Errorf("%s: %s, want %s", c.name, got, c.label)
		}
	}
}

// fakeSuite builds a suite result in which every end-to-end metric of
// every workload reads v and the exact per-layer metrics read exact.
func fakeSuite(v, exact float64) *suiteResult {
	sr := &suiteResult{Header: header{GitSHA: "test", Seed: 1}}
	for _, w := range suite {
		un := &result{Workload: w.name, Attempted: 10, Metrics: make(map[string]measured)}
		for _, d := range endToEnd {
			un.Metrics[d.Name] = measured{Value: v, Q1: v, Q3: v, N: 5, Unit: d.Unit}
		}
		tr := &result{Workload: w.name, Trace: true, Attempted: 10, Metrics: make(map[string]measured)}
		for _, name := range exactPerLayer {
			tr.Metrics[name] = measured{Value: exact}
		}
		sr.Results = append(sr.Results, un, tr)
	}
	return sr
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	paths := make(map[string]string)
	for name, sr := range map[string]*suiteResult{
		"base":   fakeSuite(100, 7),
		"same":   fakeSuite(100, 7),
		"slower": fakeSuite(50, 7), // work_per_s halves; the lower-is-better metrics improve
		"drift":  fakeSuite(100, 8),
	} {
		paths[name] = filepath.Join(dir, name+".json")
		if err := writeJSON(paths[name], sr); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		other string
		code  int
		want  string
	}{
		{"same", 0, labelExact},
		{"slower", 1, labelRegressed},
		{"drift", 1, labelDiffers},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", paths["base"], paths[c.other]}, &stdout, &stderr)
		if code != c.code {
			t.Errorf("base vs %s: exit %d, want %d\n%s%s", c.other, code, c.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), c.want) {
			t.Errorf("base vs %s: no %q row in\n%s", c.other, c.want, stdout.String())
		}
		if c.other == "slower" && !strings.Contains(stdout.String(), "+50.00% of 100") {
			t.Errorf("the relative change must be printed with its base:\n%s", stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", paths["base"]}, &stdout, &stderr); code == 0 {
		t.Error("-compare with one file must fail")
	}
	failing := fakeSuite(100, 7)
	failing.Results[0].Failed = 1
	stdout.Reset()
	if compareSuites(&stdout, fakeSuite(100, 7), failing) {
		t.Errorf("a rise in failed_ratio must regress:\n%s", stdout.String())
	}
}

// TestCompareFailsOnMissingData: a result that lacks what the other has
// must fail the comparison, whichever side it is on.
func TestCompareFailsOnMissingData(t *testing.T) {
	dropped := fakeSuite(100, 7)
	dropped.Results = dropped.Results[2:] // the first workload, untraced and traced
	untracedOnly := fakeSuite(100, 7)
	untracedOnly.Results = untracedOnly.Results[:len(untracedOnly.Results)-1]
	noMetric := fakeSuite(100, 7)
	delete(noMetric.Results[0].Metrics, "work_per_s")
	otherSeed := fakeSuite(100, 7)
	otherSeed.Header.Seed = 2
	for name, sr := range map[string]*suiteResult{
		"dropped workload": dropped, "dropped traced run": untracedOnly, "dropped metric": noMetric,
		"no results": {Header: header{Seed: 1}}, "other seed": otherSeed,
	} {
		for _, pair := range [][2]*suiteResult{{fakeSuite(100, 7), sr}, {sr, fakeSuite(100, 7)}} {
			var out bytes.Buffer
			if compareSuites(&out, pair[0], pair[1]) {
				t.Errorf("%s: comparison passed\n%s", name, out.String())
			}
			if want := labelMissing; name != "other seed" && !strings.Contains(out.String(), want) {
				t.Errorf("%s: no %s row in\n%s", name, want, out.String())
			}
		}
	}
}
