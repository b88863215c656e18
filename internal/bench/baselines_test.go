package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vqpy/internal/metrics"
)

const repoBaselines = "../../bench_baselines.json"

// parseBaselines decodes a baselines document.
func parseBaselines(t *testing.T, blob string) *Baselines {
	t.Helper()
	var base Baselines
	if err := json.Unmarshal([]byte(blob), &base); err != nil {
		t.Fatal(err)
	}
	return &base
}

// TestCheckBaselines exercises the bound arithmetic on fixed reports:
// passing bounds, violations beyond tolerance, values saved by
// tolerance, and missing metrics all behave as the gate relies on.
func TestCheckBaselines(t *testing.T) {
	rep := &metrics.Report{Title: "fixture"}
	rep.SetMetric("trk", 600)
	rep.SetMetric("ratio", 0.60)
	reports := map[string]*metrics.Report{"churn": rep}

	summary, err := parseBaselines(t, `{"tolerance":0.1,"checks":[
		{"exp":"churn","metric":"trk","max":600},
		{"exp":"churn","metric":"trk","min":600},
		{"exp":"churn","metric":"ratio","max":0.85,"tolerance":0}
	]}`).check(reports)
	if err != nil {
		t.Fatalf("passing baselines failed: %v\n%s", err, summary)
	}
	if got := strings.Count(summary, "\n") + 1; got != 3 || !strings.Contains(summary, "trk") {
		t.Errorf("summary is not one line per check:\n%s", summary)
	}

	for _, tc := range []struct {
		name, blob string
		wantErr    bool
	}{
		// 600 against max 570 (+10% → 627) passes; with tolerance 0 it fails.
		{"saved by tolerance", `{"tolerance":0.1,"checks":[{"exp":"churn","metric":"trk","max":570}]}`, false},
		{"beyond tolerance", `{"tolerance":0,"checks":[{"exp":"churn","metric":"trk","max":570}]}`, true},
		{"missing metric", `{"tolerance":0.1,"checks":[{"exp":"churn","metric":"nope","max":1}]}`, true},
		{"missing report", `{"tolerance":0.1,"checks":[{"exp":"fleet","metric":"trk","max":600}]}`, true},
		{"no bounds", `{"tolerance":0.1,"checks":[{"exp":"churn","metric":"trk"}]}`, true},
		{"no checks", `{"tolerance":0.1,"checks":[]}`, true},
	} {
		if _, err := parseBaselines(t, tc.blob).check(reports); (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}

	if _, err := CheckBaselines(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing baselines file passed")
	}
	// Checks and the experiments table must pair both ways before
	// anything runs.
	if _, err := parseBaselines(t, `{"checks":[{"exp":"fig14","metric":"x","max":1}]}`).run(); err == nil ||
		!strings.Contains(err.Error(), "fig14") {
		t.Errorf("check on an ungated experiment: %v", err)
	}
	if _, err := parseBaselines(t, `{"checks":[{"exp":"multi","metric":"multi_identical","min":1}]}`).run(); err == nil ||
		!strings.Contains(err.Error(), "has no baseline check") {
		t.Errorf("gated experiments without checks: %v", err)
	}
}

// TestRepoBaselines is the bench-regression gate itself, on the
// checked-in file: every gated experiment runs at the pinned
// configuration and every bound must hold — a renamed or dropped metric
// fails here like a regressed one.
func TestRepoBaselines(t *testing.T) {
	summary, err := CheckBaselines(repoBaselines)
	t.Logf("\n%s", summary)
	if err != nil {
		t.Fatal(err)
	}
}

// TestBaselineMutations shows the gate is not vacuous on the repo file:
// tightening any one kind of bound past its measured value, gating a
// metric nothing reports, or a non-finite value each fail, and each
// failure names exactly the mutated check.
func TestBaselineMutations(t *testing.T) {
	blob, err := os.ReadFile(repoBaselines)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := parseBaselines(t, string(blob)).run()
	if err != nil {
		t.Fatal(err)
	}
	value := func(c *BaselineCheck) float64 {
		v, ok := reports[c.Exp].Metric(c.Metric)
		if !ok {
			t.Fatalf("%s does not report %s", c.Exp, c.Metric)
		}
		return v
	}
	zero := 0.0
	for _, tc := range []struct {
		name, exp, metric string
		mutate            func(c *BaselineCheck)
	}{
		{"min raised past the value", "search", "search_full_virtual_growth",
			func(c *BaselineCheck) { v := value(c) * 1.5; c.Min = &v }},
		{"max lowered past the value", "fleet", "fleet_virtual_ratio",
			func(c *BaselineCheck) { v := value(c) * 0.5; c.Max = &v }},
		{"zero-tolerance max lowered by one", "churn", "churn_shared_tracker_inv",
			func(c *BaselineCheck) { v := value(c) - 1; c.Max, c.Tolerance = &v, &zero }},
		{"metric nothing reports", "text", "text_parity",
			func(c *BaselineCheck) { c.Metric = "text_parity_renamed" }},
		{"NaN", "fidelity", "fidelity_accuracy",
			func(c *BaselineCheck) { reports[c.Exp].SetMetric(c.Metric, math.NaN()) }},
		{"+Inf", "rescan", "rescan_virtual_ratio",
			func(c *BaselineCheck) { reports[c.Exp].SetMetric(c.Metric, math.Inf(1)) }},
	} {
		base := parseBaselines(t, string(blob))
		var c *BaselineCheck
		for i := range base.Checks {
			if base.Checks[i].Exp == tc.exp && base.Checks[i].Metric == tc.metric {
				c = &base.Checks[i]
			}
		}
		if c == nil {
			t.Fatalf("%s: repo baselines have no check %s %s", tc.name, tc.exp, tc.metric)
		}
		measured := value(c)
		tc.mutate(c)
		_, err := base.check(reports)
		reports[tc.exp].SetMetric(tc.metric, measured) // undo a poisoned value
		if err == nil {
			t.Errorf("%s: gate passed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "1 baseline violation") || !strings.Contains(err.Error(), c.Exp+" "+c.Metric) {
			t.Errorf("%s: want exactly one violation naming %s %s, got: %v", tc.name, c.Exp, c.Metric, err)
		}
	}
	// Unmutated, the same reports pass: the failures above are the
	// mutations' doing.
	if _, err := parseBaselines(t, string(blob)).check(reports); err != nil {
		t.Fatalf("unmutated baselines fail on the same reports: %v", err)
	}
}
