// Package lint holds the repository's in-tree hygiene checkers: the
// doc-comment lint (the revive `exported` rule, reimplemented on go/ast
// so CI needs no external tool) and the markdown link checker. Both are
// enforced by `go test ./internal/lint` — tier-1 and CI's build-test
// job — over the one path list in lint_test.go (repoDocPaths).
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CheckDocs reports every exported top-level identifier without a doc
// comment in the given paths. Each path is a .go file or a directory
// (whose non-test .go files are checked, non-recursively — pass
// sub-packages explicitly). The rule matches revive's `exported`:
// exported functions, methods on exported receivers, and each exported
// type / const / var spec must carry a doc comment, either its own or
// its declaration group's.
func CheckDocs(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, filepath.Join(p, name))
		}
	}
	sort.Strings(files)

	var issues []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		issues = append(issues, checkFileDocs(fset, f)...)
	}
	return issues, nil
}

// checkFileDocs walks one parsed file's top-level declarations.
func checkFileDocs(fset *token.FileSet, f *ast.File) []string {
	var issues []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		issues = append(issues, fmt.Sprintf("%s:%d: exported %s %s is missing a doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			report(d.Pos(), kind, d.Name.Name)
		case *ast.GenDecl:
			if d.Doc != nil && len(d.Specs) == 1 {
				continue // the group doc documents the sole spec
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil || d.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(s.Pos(), kindOf(d.Tok), n.Name)
							break
						}
					}
				}
			}
		}
	}
	return issues
}

// kindOf names a GenDecl token for diagnostics.
func kindOf(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	}
	return tok.String()
}

// exportedReceiver reports whether a method's receiver base type is
// exported (methods on unexported types need no doc comment).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
