package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPlanHasOneBatchDriver keeps three forks from growing back
// (DESIGN.md §5.4, §7.1). Structurally, in non-test files: internal/plan
// builds executors in exactly two places (Planner.executor, and the
// profiling executor that must never see the store) and touches the
// materialized-result cache from exactly one Get and one Put (the batch
// driver, Planner.run); internal/sqlbase — the EVA baseline the planner
// is compared against — imports neither internal/plan nor
// internal/core; and the record framing's checksum (hash/crc32) is
// imported by exactly one package outside benchmark/ (internal/reclog).
func TestPlanHasOneBatchDriver(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var executors, gets, puts []string
	crcPackages := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, imp := range file.Imports {
			switch name, _ := strconv.Unquote(imp.Path.Value); {
			case name == "hash/crc32" && !strings.HasSuffix(dir, "/benchmark"):
				crcPackages[dir] = true
			case strings.HasSuffix(dir, "internal/sqlbase") &&
				(name == "vqpy/internal/plan" || name == "vqpy/internal/core"):
				t.Errorf("%s imports %s: sqlbase is the baseline, it shares no code with the planner",
					fset.Position(imp.Pos()), name)
			}
		}
		if !strings.HasSuffix(dir, "internal/plan") {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pos := fset.Position(call.Pos()).String()
			switch x := sel.X.(type) {
			case *ast.Ident:
				if x.Name == "exec" && sel.Sel.Name == "NewExecutor" {
					executors = append(executors, pos)
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "ResultCache" && sel.Sel.Name == "Get" {
					gets = append(gets, pos)
				}
				if x.Sel.Name == "ResultCache" && sel.Sel.Name == "Put" {
					puts = append(puts, pos)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(executors) != 2 {
		t.Errorf("internal/plan calls exec.NewExecutor from %d places, want exactly 2 (Planner.executor, profileOne): %v", len(executors), executors)
	}
	if len(gets) != 1 || len(puts) != 1 {
		t.Errorf("internal/plan has %d ResultCache.Get and %d ResultCache.Put call sites, want 1 each (Planner.run): %v %v", len(gets), len(puts), gets, puts)
	}
	if len(crcPackages) != 1 {
		t.Errorf("hash/crc32 is imported by %d packages outside benchmark/, want exactly 1 (internal/reclog): %v", len(crcPackages), crcPackages)
	}
}
