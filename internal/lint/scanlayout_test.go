package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestStoreOwnsTheScanLayout keeps the archived-frame layout behind
// internal/store (DESIGN.md §7.1). Structurally, in non-test files:
// outside internal/store nothing reads a scan record's IDs by index,
// compares a record's Detect or calls a method named GetScan /
// GetScanRef — those are the layout rules store.ScanReader owns; and
// inside internal/store and internal/index the tiers stay typed —
// fmt.Sprintf only ever builds a warning (it is an argument of
// append(x.warnings, …), never a map key), and the pin/refcount
// machinery's identifiers do not exist.
func TestStoreOwnsTheScanLayout(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
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
		inStore := strings.HasSuffix(dir, "internal/store")
		typedTiers := inStore || strings.HasSuffix(dir, "internal/index")

		// ast.Inspect visits a node before its children, so the two sets
		// are filled by the time the expressions they excuse are reached.
		assigned := map[ast.Expr]bool{}    // left-hand sides of assignments
		warningText := map[ast.Expr]bool{} // arguments of append(x.warnings, …)
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			pos := fset.Position(n.Pos())
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					assigned[lhs] = true
				}
			case *ast.IndexExpr:
				if !inStore && selects(x.X, "IDs") && !assigned[x] {
					t.Errorf("%s: a scan record's IDs are read by index outside internal/store; use store.ScanFrame.Class", pos)
				}
			case *ast.BinaryExpr:
				if !inStore && (x.Op == token.EQL || x.Op == token.NEQ) && (selects(x.X, "Detect") || selects(x.Y, "Detect")) {
					t.Errorf("%s: a record's Detect is compared outside internal/store; the reader reports store.MissDetector", pos)
				}
			case *ast.CallExpr:
				if fn, ok := x.Fun.(*ast.Ident); ok && fn.Name == "append" && selects(x.Args[0], "warnings") {
					for _, arg := range x.Args[1:] {
						warningText[arg] = true
					}
				}
				switch {
				case selects(x.Fun, "GetScan") || selects(x.Fun, "GetScanRef"):
					t.Errorf("%s: scan records are read through store.ScanReader only", pos)
				case typedTiers && selects(x.Fun, "Sprintf") && !warningText[x]:
					t.Errorf("%s: fmt.Sprintf outside warning text; tier and index keys are structs", pos)
				}
			case *ast.Ident:
				switch x.Name {
				case "pin", "unpin", "refs", "oldestUnpinned":
					if typedTiers {
						t.Errorf("%s: identifier %s: the hot tier is a plain LRU, nothing pins its entries", pos, x.Name)
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
}

// selects reports whether e is a selector expression x.name.
func selects(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}
