// Command vqbench regenerates the paper's tables and figures. Each
// experiment prints its report in the paper's row/series structure; see
// DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	vqbench [-exp all|fig13a|fig13b|fig14|fig15|fig16|table5|table6|table7|memo|planner|lazy|edge|multi|muxscan|churn|rescan|fleet|chaos|search|fidelity|text|dag]
//	        [-seed N] [-scale F] [-parallel N] [-burn] [-csv] [-json FILE]
//	vqbench -check bench_baselines.json
//
// Every knob also loads from a -config JSON file and $VQBENCH_*
// environment variables (defaults < file < env < flags; DESIGN.md
// §11), so CI matrices can pin seeds and scales without editing
// command lines.
//
// The experiment vocabulary is the experiments table below — the -exp
// help text is derived from it, and the usage line above is pinned to
// it by a test, so the three cannot drift apart.
//
// The multi experiment exercises the parallel multi-query scheduler
// (sequential vs. -parallel workers over the 8-query serving workload);
// muxscan compares the single-pass shared-scan engine (ExecuteShared)
// against isolated and scheduler-based per-query execution on the same
// workload, reporting detector/tracker invocation counts from the
// ledger; churn measures the dynamic serving layer under attach/detach
// arrival and departure against per-query streams; rescan runs the
// workload twice over one persistent result store — the warm pass must
// do strictly fewer detector/tracker invocations than the cold pass;
// fleet compares batched cross-source inference over a correlated
// three-camera clip set against N isolated daemons — identical
// per-source verdicts at equal detector invocation counts, with lower
// total virtual time and a cross-camera global-id join; chaos runs the
// fleet workload under deterministic fault injection (E19) — retries
// absorb recoverable faults at ≥99% verdict parity, breakers degrade
// gracefully, a disabled injector is bit-identical, and store faults
// downgrade tiers without changing answers; search measures the
// appearance index's index-then-verify path against the full rescan on
// a 1x and a 3x archive (E20) — bit-identical answers with sub-linear
// verified-frame and virtual-cost growth; fidelity archives the clip at
// every reduced tier of the fidelity lattice and answers an accuracy-
// budgeted query from the cheapest satisfying tier (E22) — at least 5x
// cheaper than the live scan within the declared accuracy floor, with
// strict queries still answered live and bit-identically; text drives
// the language frontend and the lazy open-vocabulary verifier (E23) —
// every golden sentence compiles bit-identical to its hand-built plan,
// and the verifier runs on under 10% of frames with verdicts identical
// to the ask-on-every-frame baseline.
// -json writes every selected report as a JSON array to FILE in
// addition to the normal output.
//
// -check runs the CI bench-regression gate instead of experiments: it
// loads the named baselines file, reads the BENCH_*.json artifacts it
// references, and exits non-zero when any gated metric regresses beyond
// tolerance. Before reading any artifact it crosschecks the baselines'
// file references against the experiments table: a referenced artifact
// no experiment produces, or a produced artifact no baseline gates, is
// a hard failure — the gate must never pass vacuously.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"vqpy/internal/bench"
	"vqpy/internal/config"
	"vqpy/internal/metrics"
)

// experiment is one -exp dispatch entry: a report-producing runner, or
// a text-only explainer (run and text are mutually exclusive).
// artifact names the BENCH_*.json file CI writes for the experiment
// ("" for ungated experiments); the -check gate crosschecks it against
// the baselines file's references.
type experiment struct {
	name     string
	run      func(bench.Config) (*metrics.Report, error)
	text     func(bench.Config) (string, error)
	artifact string
}

// experiments is the single source of truth for the -exp vocabulary,
// in "all" execution order. The flag's help text is derived from it;
// main_test.go pins the doc comment's usage line and the baselines
// artifact pairing to it.
var experiments = []experiment{
	{name: "fig13a", run: bench.RunFig13a},
	{name: "fig13b", run: bench.RunFig13b},
	{name: "fig14", run: bench.RunFig14},
	{name: "fig15", run: bench.RunFig15},
	{name: "fig16", run: bench.RunFig16},
	{name: "table5", run: bench.RunTable5},
	{name: "table6", run: bench.RunTable6},
	{name: "table7", run: bench.RunTable7},
	{name: "memo", run: bench.RunMemoAblation},
	{name: "planner", run: bench.RunPlannerAblation},
	{name: "lazy", run: bench.RunLazyAblation},
	{name: "edge", run: bench.RunEdgeAblation},
	{name: "multi", run: bench.RunMultiQuery, artifact: "BENCH_1.json"},
	{name: "muxscan", run: bench.RunMuxScan, artifact: "BENCH_2.json"},
	{name: "churn", run: bench.RunChurn, artifact: "BENCH_3.json"},
	{name: "rescan", run: bench.RunRescan, artifact: "BENCH_4.json"},
	{name: "fleet", run: bench.RunFleet, artifact: "BENCH_5.json"},
	{name: "chaos", run: bench.RunChaos, artifact: "BENCH_6.json"},
	{name: "search", run: bench.RunSearch, artifact: "BENCH_7.json"},
	{name: "fidelity", run: bench.RunFidelity, artifact: "BENCH_8.json"},
	{name: "text", run: bench.RunText, artifact: "BENCH_9.json"},
	{name: "dag", text: bench.ExplainSuspectDAG},
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func findExperiment(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// crosscheckArtifacts verifies the baselines' artifact references and
// the experiments table agree both ways: every referenced file is
// produced by a registered experiment, and every experiment that
// produces an artifact is gated by at least one check. Either mismatch
// means the CI gate would pass while covering less than it claims.
func crosscheckArtifacts(referenced []string) error {
	produced := make(map[string]string, len(experiments))
	for _, e := range experiments {
		if e.artifact != "" {
			produced[e.artifact] = e.name
		}
	}
	gated := make(map[string]bool, len(referenced))
	var problems []string
	for _, f := range referenced {
		gated[f] = true
		if _, ok := produced[f]; !ok {
			problems = append(problems, fmt.Sprintf("baselines gate %s but no registered experiment produces it", f))
		}
	}
	for _, e := range experiments {
		if e.artifact != "" && !gated[e.artifact] {
			problems = append(problems, fmt.Sprintf("experiment %q produces %s but no baseline check gates it", e.name, e.artifact))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("artifact/baseline pairing broken:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// benchConfig is vqbench's typed configuration (internal/config): the
// flags, their $VQBENCH_* bindings and the -config file keys.
type benchConfig struct {
	Exp      string  `flag:"exp" json:"exp" usage:"experiment to run"`
	Seed     uint64  `flag:"seed" json:"seed" usage:"experiment seed"`
	Scale    float64 `flag:"scale" json:"scale" usage:"workload duration scale (1.0 = paper-like)"`
	Parallel int     `flag:"parallel" json:"parallel" usage:"worker pool size for the multi experiment"`
	Burn     bool    `flag:"burn" json:"burn" usage:"do real CPU work proportional to virtual cost"`
	CSV      bool    `flag:"csv" json:"csv" usage:"emit CSV instead of tables"`
	JSONPath string  `flag:"json" json:"json_path" usage:"also write selected reports as a JSON array to this file"`
	Check    string  `flag:"check" json:"check" usage:"check benchmark artifacts against this baselines file and exit (regression gate)"`
}

// Validate rejects unknown experiment selections with the full
// vocabulary in the message.
func (c *benchConfig) Validate() error {
	if c.Exp == "all" {
		return nil
	}
	if _, ok := findExperiment(c.Exp); !ok {
		return fmt.Errorf("unknown experiment %q (want all, %s)", c.Exp, strings.Join(experimentNames(), ", "))
	}
	return nil
}

func main() {
	cfg := benchConfig{Exp: "all", Seed: 20240501, Scale: 1.0, Parallel: 4}
	res, err := config.Load(&cfg, config.Options{
		Name: "vqbench", EnvPrefix: "VQBENCH", Args: os.Args[1:],
		// The -exp help text carries the run-time experiment vocabulary.
		Usage: map[string]string{
			"exp": "experiment to run (all, " + strings.Join(experimentNames(), ", ") + ")",
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqbench: %v\n", err)
		os.Exit(2)
	}

	if cfg.Check != "" {
		// The gate reads previously written artifacts; combining it with
		// experiment selection or output flags is a misconfigured CI
		// step, not a request.
		if res.Explicit("exp") || res.Explicit("json") || res.Explicit("csv") {
			fmt.Fprintln(os.Stderr, "vqbench: -check cannot be combined with -exp/-json/-csv")
			os.Exit(2)
		}
		files, err := bench.BaselineFiles(cfg.Check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqbench: %v\n", err)
			os.Exit(1)
		}
		if err := crosscheckArtifacts(files); err != nil {
			fmt.Fprintf(os.Stderr, "vqbench: %v\n", err)
			os.Exit(1)
		}
		summary, err := bench.CheckBaselines(cfg.Check)
		if summary != "" {
			fmt.Println(summary)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("baselines %s: all checks passed\n", cfg.Check)
		return
	}

	bcfg := bench.Config{Seed: cfg.Seed, Scale: cfg.Scale, Burn: cfg.Burn, Workers: cfg.Parallel}
	selected := []string{cfg.Exp}
	if cfg.Exp == "all" {
		selected = experimentNames()
	}
	var reports []*metrics.Report
	for _, name := range selected {
		e, ok := findExperiment(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "vqbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if e.text != nil {
			out, err := e.text(bcfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vqbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(out)
			continue
		}
		start := time.Now()
		rep, err := e.run(bcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		reports = append(reports, rep)
		if cfg.CSV {
			fmt.Printf("# %s\n%s\n", rep.Title, rep.CSV())
		} else {
			fmt.Println(rep.String())
		}
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", name, time.Since(start).Seconds())
	}
	if cfg.JSONPath != "" {
		if len(reports) == 0 {
			// A gate consuming this file would read "null" and pass
			// vacuously; refuse instead.
			fmt.Fprintf(os.Stderr, "vqbench: -json with no reports produced (exp %q)\n", cfg.Exp)
			os.Exit(1)
		}
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vqbench: json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(cfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vqbench: json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d report(s) to %s\n", len(reports), cfg.JSONPath)
	}
}
