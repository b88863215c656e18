package bench

// The bench-regression gate: bench_baselines.json pins one run
// configuration and bounds on the scalars the gated experiments report
// at it, and CheckBaselines runs those experiments and applies the
// bounds in the same process — `vqbench -check` and `go test` are both
// such a process, so no artifact file sits between measuring and
// gating. Every gated value comes off the virtual-time ledger or an
// answer comparison and is deterministic for the pinned configuration;
// tolerance only absorbs intentional workload drift.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"vqpy/internal/metrics"
)

// BaselineCheck is one gated metric.
type BaselineCheck struct {
	// Exp names the experiment (Experiments table) reporting the metric.
	Exp string `json:"exp"`
	// Metric names a Report.Metrics scalar of that experiment.
	Metric string `json:"metric"`
	// Max / Min bound the value (either or both). Max passes while
	// value <= Max*(1+tol); Min while value >= Min*(1-tol).
	Max *float64 `json:"max,omitempty"`
	Min *float64 `json:"min,omitempty"`
	// Tolerance overrides the file-level tolerance for this check
	// (0 is meaningful: an exact bound).
	Tolerance *float64 `json:"tolerance,omitempty"`
}

// Baselines is the bench_baselines.json schema.
type Baselines struct {
	// Seed, Scale and Workers are the one configuration every gated
	// experiment runs at; the bounds below were measured there.
	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	// Tolerance is the default relative slack applied to every bound.
	Tolerance float64         `json:"tolerance"`
	Checks    []BaselineCheck `json:"checks"`
}

// CheckBaselines loads a baselines file, runs every experiment it names
// once at the file's configuration and verifies all bounds. It returns
// a per-check summary (one line each) and an error describing every
// violation.
func CheckBaselines(path string) (string, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("bench: baselines: %w", err)
	}
	var base Baselines
	if err := json.Unmarshal(blob, &base); err != nil {
		return "", fmt.Errorf("bench: baselines %s: %w", path, err)
	}
	reports, err := base.run()
	if err != nil {
		return "", fmt.Errorf("bench: baselines %s: %w", path, err)
	}
	return base.check(reports)
}

// run executes each experiment the checks name, once, at the pinned
// configuration. Checks and the experiments table must agree both ways
// first — a check naming something that is not a gated experiment, or a
// gated experiment no check names, means the gate covers less than it
// claims. An experiment's own self-check failing (answers diverged,
// warm not below cold, ...) fails the gate outright.
func (base *Baselines) run() (map[string]*metrics.Report, error) {
	named := make(map[string]bool)
	for _, c := range base.Checks {
		if e, ok := FindExperiment(c.Exp); !ok || !e.Gated {
			return nil, fmt.Errorf("check %q names %q, which is not a gated experiment", c.Metric, c.Exp)
		}
		named[c.Exp] = true
	}
	cfg := Config{Seed: base.Seed, Scale: base.Scale, Workers: base.Workers}
	reports := make(map[string]*metrics.Report, len(named))
	for _, e := range Experiments {
		if !e.Gated {
			continue
		}
		if !named[e.Name] {
			return nil, fmt.Errorf("gated experiment %q has no baseline check", e.Name)
		}
		rep, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.Name, err)
		}
		reports[e.Name] = rep
	}
	return reports, nil
}

// check applies every bound to the reports of run. A metric the
// experiment did not report, a value that is not a finite number (NaN
// compares false against every bound and would pass them all) and a
// check without bounds are violations like a bound exceeded: the gate
// must never pass vacuously.
func (base *Baselines) check(reports map[string]*metrics.Report) (string, error) {
	var lines, violations []string
	violate := func(format string, args ...any) { violations = append(violations, fmt.Sprintf(format, args...)) }
	if len(base.Checks) == 0 {
		violate("no checks")
	}
	for _, c := range base.Checks {
		v, ok := 0.0, false
		if rep := reports[c.Exp]; rep != nil {
			v, ok = rep.Metric(c.Metric)
		}
		tol := base.Tolerance
		if c.Tolerance != nil {
			tol = *c.Tolerance
		}
		status := "ok"
		switch {
		case c.Max == nil && c.Min == nil:
			status = "FAIL (no bounds)"
			violate("%s %s: check has neither max nor min", c.Exp, c.Metric)
		case !ok:
			status = "FAIL (not reported)"
			violate("%s %s: metric not reported by the experiment", c.Exp, c.Metric)
		case math.IsNaN(v) || math.IsInf(v, 0):
			status = "FAIL (not finite)"
			violate("%s %s = %v is not a finite number", c.Exp, c.Metric, v)
		case c.Max != nil && v > *c.Max*(1+tol):
			status = fmt.Sprintf("FAIL (above max %.4g +%.0f%%)", *c.Max, tol*100)
			violate("%s %s = %.4g exceeds max %.4g (tolerance %.0f%%)", c.Exp, c.Metric, v, *c.Max, tol*100)
		case c.Min != nil && v < *c.Min*(1-tol):
			status = fmt.Sprintf("FAIL (below min %.4g -%.0f%%)", *c.Min, tol*100)
			violate("%s %s = %.4g below min %.4g (tolerance %.0f%%)", c.Exp, c.Metric, v, *c.Min, tol*100)
		}
		lines = append(lines, fmt.Sprintf("%-10s %-32s %10.4g  %s", c.Exp, c.Metric, v, status))
	}
	summary := strings.Join(lines, "\n")
	if len(violations) > 0 {
		return summary, fmt.Errorf("bench: %d baseline violation(s):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	return summary, nil
}
