package main

// Pins the -exp vocabulary: the experiments table is the source of
// truth, and both the doc comment's usage line and the derived flag
// help must cover every dispatch key (the drift this guards against:
// an experiment wired into the table but invisible in the docs).

import (
	"os"
	"strings"
	"testing"

	"vqpy/internal/bench"
)

func TestExperimentTableIsWellFormed(t *testing.T) {
	seen := make(map[string]bool, len(bench.Experiments))
	for _, e := range bench.Experiments {
		if e.Name == "" || e.Name == "all" {
			t.Errorf("experiment name %q is reserved", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if (e.Run == nil) == (e.Text == nil) {
			t.Errorf("experiment %q must set exactly one of Run/Text", e.Name)
		}
		if e.Title == "" || e.Desc == "" || strings.Contains(e.Desc, "\n") {
			t.Errorf("experiment %q needs a title and a one-line description", e.Name)
		}
		if e.Gated && e.Run == nil {
			t.Errorf("gated experiment %q reports no metrics", e.Name)
		}
		if got, ok := bench.FindExperiment(e.Name); !ok || got.Name != e.Name {
			t.Errorf("FindExperiment(%q) did not resolve", e.Name)
		}
	}
	if _, ok := bench.FindExperiment("no-such-experiment"); ok {
		t.Error("FindExperiment resolved an unknown name")
	}
}

func TestUsageDocCoversEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	usage := ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, "-exp all|") {
			usage = line
			break
		}
	}
	if usage == "" {
		t.Fatal("doc comment has no '-exp all|...' usage line")
	}
	for _, name := range experimentNames() {
		if !strings.Contains(usage, "|"+name) {
			t.Errorf("usage line omits experiment %q: %s", name, strings.TrimSpace(usage))
		}
	}
}

func TestFlagHelpCoversEveryExperiment(t *testing.T) {
	vocabulary, lines, _ := strings.Cut(expUsage(), "\n")
	for _, e := range bench.Experiments {
		if !strings.Contains(vocabulary, e.Name) {
			t.Errorf("-exp help vocabulary omits experiment %q", e.Name)
		}
		if !strings.Contains(lines, e.Title+": "+e.Desc) {
			t.Errorf("-exp help omits what %q reproduces and shows", e.Name)
		}
	}
}
