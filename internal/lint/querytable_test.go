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

// TestServeHasOneQueryTable keeps vqserve's second copies from growing
// back (DESIGN.md §8.3): a fleet-wide query is a row of the one query
// table reached through the one POST /queries registry, and a faulty
// source is handled by the one stall/drop/quarantine machine in
// serve.step. Structurally, in non-test files: internal/serve registers
// no route under /fleet/ and has exactly one struct field of an id-keyed
// registration-table type (map[int]*T), and fault.Poll — what a
// quarantine machine is built around — is called from exactly one place
// outside internal/fault.
func TestServeHasOneQueryTable(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var tables, polls []string
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
		inServe := strings.HasSuffix(dir, "internal/serve")
		inFault := strings.HasSuffix(dir, "internal/fault")
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fault" && sel.Sel.Name == "Poll" && !inFault {
					polls = append(polls, fset.Position(x.Pos()).String())
				}
				if inServe && (sel.Sel.Name == "HandleFunc" || sel.Sel.Name == "Handle") && len(x.Args) > 0 {
					if lit, ok := x.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if pattern, _ := strconv.Unquote(lit.Value); strings.Contains(pattern, "/fleet/") {
							t.Errorf("%s: route %q: fleet queries go through POST /queries", fset.Position(x.Pos()), pattern)
						}
					}
				}
			case *ast.StructType:
				if !inServe {
					return true
				}
				for _, f := range x.Fields.List {
					m, ok := f.Type.(*ast.MapType)
					if !ok {
						continue
					}
					// map[int]*T over a type of the package itself.
					key, _ := m.Key.(*ast.Ident)
					val, _ := m.Value.(*ast.StarExpr)
					if key == nil || key.Name != "int" || val == nil {
						continue
					}
					if _, local := val.X.(*ast.Ident); local {
						tables = append(tables, fset.Position(f.Pos()).String())
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Errorf("internal/serve has %d id-keyed registration tables, want exactly 1 (Server.queries): %v", len(tables), tables)
	}
	if len(polls) != 1 {
		t.Errorf("fault.Poll has %d call sites outside internal/fault, want exactly 1 (serve.step): %v", len(polls), polls)
	}
}
