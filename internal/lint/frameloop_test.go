package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExecHasOneFrameLoop keeps internal/exec's frame loops from growing
// back (DESIGN.md §5.4): every execution path — live, store-served,
// backfill, index verification, fidelity replay — must go through the
// one per-frame step and the one archived-scan reader. Structurally, in
// the package's non-test files: runFrame and finalize are each called
// from exactly one place, the store's archived-frame reader
// (store.ScanReader.Frame) from exactly one function, archivedScan, and
// MuxStream's mutex is only ever named in mux.go.
func TestExecHasOneFrameLoop(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "exec")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["exec"]
	if pkg == nil {
		t.Fatalf("no package exec under %s", dir)
	}

	callSites := map[string][]string{}      // method name → positions of its calls
	callers := map[string]map[string]bool{} // method name → enclosing functions
	var muxMuOutside []string
	for path, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
						name := sel.Sel.Name
						callSites[name] = append(callSites[name], fset.Position(x.Pos()).String())
						if callers[name] == nil {
							callers[name] = map[string]bool{}
						}
						callers[name][fn.Name.Name] = true
					}
				case *ast.SelectorExpr:
					if recv, ok := x.X.(*ast.Ident); ok && recv.Name == "m" && x.Sel.Name == "mu" &&
						filepath.Base(path) != "mux.go" {
						muxMuOutside = append(muxMuOutside, fset.Position(x.Pos()).String())
					}
				}
				return true
			})
		}
	}

	for _, name := range []string{"runFrame", "finalize"} {
		if sites := callSites[name]; len(sites) != 1 {
			t.Errorf("%s has %d call sites, want exactly 1 (the lane step): %v", name, len(sites), sites)
		}
	}
	if fns := callers["Frame"]; len(fns) != 1 || !fns["archivedScan"] {
		names := make([]string, 0, len(fns))
		for fn := range fns {
			names = append(names, fn)
		}
		sort.Strings(names)
		t.Errorf("the store's ScanReader.Frame is called from %v, want exactly [archivedScan]", names)
	}
	for _, pos := range muxMuOutside {
		t.Errorf("%s: MuxStream.mu named outside mux.go; lock only in mux.go's methods", pos)
	}
}
