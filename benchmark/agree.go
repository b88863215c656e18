package main

// -agree: two full untraced sets on the same code and seed must agree
// within the benchmark's own bounds. The table it prints — both values
// and their relative difference, next to the bound — is the evidence a
// bound was set from.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is BENCHMARK.json, as far as the benchmark reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// exact names the pairings that are pure counts of the simulated
// models' ledger over rounds that do not depend on each other: with one
// seed they must repeat exactly, whatever the machine does and however
// many rounds fit. (archive_warm's rounds share one archive's memory
// tier, and the server's ledger follows how many ticks were fed.)
var exact = map[string]bool{
	"batch_perquery/virtual_ms_per_frame": true,
	"mux_churn/virtual_ms_per_frame":      true,
	"archive_cold/virtual_ms_per_frame":   true,
}

// exactTolerance allows for the sum of a different number of identical
// rounds rounding differently.
const exactTolerance = 1e-9

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func runAgree(base runEnv, stdout, stderr io.Writer) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -agree reads the bounds from BENCHMARK.json in the working directory: %v\n", err)
		return 1
	}
	var sets [2]map[string]*outcome
	for i := range sets {
		sets[i] = map[string]*outcome{}
		for _, w := range workloads {
			o, err := execute(w, base)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if o.Failed > 0 {
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed the oracle\n", w.Name, o.Failed, o.Attempted)
				return 1
			}
			sets[i][w.Name] = o
		}
	}
	rec, _ := json.Marshal(runRecord(&base))
	fmt.Fprintf(stdout, "# agree %s\n", rec)
	if n := compareSets(man, sets, stdout); n > 0 {
		fmt.Fprintf(stderr, "benchmark: -agree: %d metrics differ between two sets of the same code by more than their bound\n", n)
		return 1
	}
	return 0
}

// compareSets prints the table and counts the disagreements.
func compareSets(man *manifest, sets [2]map[string]*outcome, stdout io.Writer) int {
	fmt.Fprintf(stdout, "%-16s %-24s %16s %16s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	disagreements := 0
	for _, w := range workloads {
		for _, m := range man.EndToEnd {
			a, b := sets[0][w.Name].Metrics[m.Name], sets[1][w.Name].Metrics[m.Name]
			// Either set may be the worse one: agreement is symmetric.
			diff := math.Max(worsening(m.Better, a, b), worsening(m.Better, b, a))
			verdict := ""
			switch {
			case exact[w.Name+"/"+m.Name] && diff > exactTolerance:
				verdict = "  NOT IDENTICAL"
				disagreements++
			case diff > m.Bound:
				verdict = "  DISAGREE"
				disagreements++
			}
			fmt.Fprintf(stdout, "%-16s %-24s %16.6f %16.6f %8.2f%% %6.1f%%%s\n", w.Name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return disagreements
}
