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
// The experiment vocabulary is bench.Experiments: the -exp help text
// (one line per experiment: what it reproduces and what it shows) is
// derived from it, and the usage line above is pinned to it by a test,
// so the three cannot drift apart. -json writes every selected report
// as a JSON array to FILE in addition to the normal output.
//
// -check runs the bench-regression gate instead of a selection: it
// loads the named baselines file, runs every gated experiment once at
// the configuration the file pins, and exits non-zero when a gated
// metric is missing, not finite, or beyond its bound. `go test
// ./internal/bench` runs the same gate on the repo's file.
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

func experimentNames() []string {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	return names
}

// expUsage is the -exp help text: the vocabulary, then what each
// experiment reproduces and shows.
func expUsage() string {
	var b strings.Builder
	b.WriteString("experiment to run (all, " + strings.Join(experimentNames(), ", ") + ")")
	for _, e := range bench.Experiments {
		fmt.Fprintf(&b, "\n  %-8s %s: %s", e.Name, e.Title, e.Desc)
	}
	return b.String()
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
	Check    string  `flag:"check" json:"check" usage:"run the gated experiments and check them against this baselines file, then exit (regression gate)"`
}

// Validate rejects unknown experiment selections with the full
// vocabulary in the message.
func (c *benchConfig) Validate() error {
	if c.Exp == "all" {
		return nil
	}
	if _, ok := bench.FindExperiment(c.Exp); !ok {
		return fmt.Errorf("unknown experiment %q (want all, %s)", c.Exp, strings.Join(experimentNames(), ", "))
	}
	return nil
}

func main() {
	cfg := benchConfig{Exp: "all", Seed: 20240501, Scale: 1.0, Parallel: 4}
	res, err := config.Load(&cfg, config.Options{
		Name: "vqbench", EnvPrefix: "VQBENCH", Args: os.Args[1:],
		// The -exp help text carries the run-time experiment vocabulary.
		Usage: map[string]string{"exp": expUsage()},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vqbench: %v\n", err)
		os.Exit(2)
	}

	if cfg.Check != "" {
		// The gate runs its own fixed selection at its own configuration;
		// combining it with experiment selection or output flags is a
		// misconfigured CI step, not a request.
		if res.Explicit("exp") || res.Explicit("json") || res.Explicit("csv") {
			fmt.Fprintln(os.Stderr, "vqbench: -check cannot be combined with -exp/-json/-csv")
			os.Exit(2)
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
		e, _ := bench.FindExperiment(name) // Validate vetted the name
		if e.Text != nil {
			out, err := e.Text(bcfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vqbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(out)
			continue
		}
		start := time.Now()
		rep, err := e.Run(bcfg)
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
