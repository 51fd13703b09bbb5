package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rbcast/benchmarks/tracedsim"
)

// traceFile is what a traced run leaves in the output directory: the
// per-name aggregates over every span, and the first raw spans.
type traceFile struct {
	Workload   string                   `json:"workload"`
	Seed       int64                    `json:"seed"`
	Aggregates map[string]tracedsim.Agg `json:"aggregates"`
	Spans      []tracedsim.Span         `json:"spans"`
}

// writeTrace writes the traced run's spans out once the run has ended.
func writeTrace(c runCfg, workload string, spans []tracedsim.Span, aggs map[string]tracedsim.Agg) error {
	if c.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: c.seed, Aggregates: aggs, Spans: spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, c.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
