package lint

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchHasOneRunnerAndOneGate keeps measurement and gating one path
// each (DESIGN.md §4). Structurally, in non-test files: internal/bench
// builds sessions in exactly one function and reads the wall clock only
// in the arm runner's file; cmd/vqbench declares no experiments table of
// its own (it reads bench.Experiments). And as text: CI speaks Go — the
// workflow shells out to no curl or jq and passes no BENCH_ artifact
// between steps — and bench_baselines.json gates no wall-clock metric
// (those restate virtual gates through the burn loop and flap with the
// runner).
func TestBenchHasOneRunnerAndOneGate(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	parse := func(dir string) []*ast.File {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no Go files under %s: %v", dir, err)
		}
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		return files
	}

	sessionBuilders := map[string]bool{}
	for _, file := range parse("internal/bench") {
		name := filepath.Base(fset.Position(file.Pos()).Filename)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, _ := sel.X.(*ast.Ident)
				switch {
				case pkg != nil && pkg.Name == "vqpy" && sel.Sel.Name == "NewSession":
					sessionBuilders[fn.Name.Name] = true
				case pkg != nil && pkg.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") && name != "runner.go":
					t.Errorf("%s: time.%s outside runner.go: arms are timed by the runner", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if len(sessionBuilders) != 1 {
		t.Errorf("internal/bench calls vqpy.NewSession from %d functions, want exactly 1 (Config.session): %v", len(sessionBuilders), sessionBuilders)
	}

	for _, file := range parse("cmd/vqbench") {
		ast.Inspect(file, func(n ast.Node) bool {
			if spec, ok := n.(*ast.ValueSpec); ok {
				for _, name := range spec.Names {
					if strings.Contains(strings.ToLower(name.Name), "experiments") {
						t.Errorf("%s: cmd/vqbench declares %s: the experiments table lives in internal/bench", fset.Position(name.Pos()), name.Name)
					}
				}
			}
			return true
		})
	}

	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, word := range []string{"curl", "jq", "BENCH_"} {
		if strings.Contains(string(ci), word) {
			t.Errorf("ci.yml contains %q: daemon flows are Go tests and the gate runs its own experiments", word)
		}
	}

	blob, err := os.ReadFile(filepath.Join(root, "bench_baselines.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Checks []struct{ Metric string }
	}
	if err := json.Unmarshal(blob, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Checks) == 0 {
		t.Error("bench_baselines.json has no checks")
	}
	for _, c := range base.Checks {
		if strings.Contains(c.Metric, "wall") || strings.Contains(c.Metric, "speedup") {
			t.Errorf("bench_baselines.json gates wall-clock metric %q", c.Metric)
		}
	}
}
