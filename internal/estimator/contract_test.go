package estimator_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestContractDeclaredOnce parses every non-test Go file under internal/,
// cmd/ and examples/ and keeps the estimator contract single: one
// declaration of an interface named Estimator (this package's), no type
// assertion or type-switch case on an anonymous interface (a capability
// is asserted by its name here), and no CloneEstimator method returning
// an untyped value.
func TestContractDeclaredOnce(t *testing.T) {
	fset := token.NewFileSet()
	var decls []string
	for _, root := range []string{"../../internal", "../../cmd", "../../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if _, ok := n.Type.(*ast.InterfaceType); ok && n.Name.Name == "Estimator" {
						decls = append(decls, fset.Position(n.Pos()).String())
					}
				case *ast.TypeAssertExpr:
					if _, ok := n.Type.(*ast.InterfaceType); ok {
						t.Errorf("%s: type assertion to an anonymous interface", fset.Position(n.Pos()))
					}
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							if _, ok := e.(*ast.InterfaceType); ok {
								t.Errorf("%s: type-switch case on an anonymous interface", fset.Position(e.Pos()))
							}
						}
					}
				case *ast.FuncDecl:
					if n.Recv != nil && n.Name.Name == "CloneEstimator" && n.Type.Results != nil {
						for _, r := range n.Type.Results.List {
							if untyped(r.Type) {
								t.Errorf("%s: CloneEstimator returns an untyped value", fset.Position(n.Pos()))
							}
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
	if len(decls) != 1 || !strings.Contains(filepath.ToSlash(decls[0]), "internal/estimator/") {
		t.Errorf("interfaces named Estimator are declared at %v, want one, in package estimator", decls)
	}
}

// untyped reports whether e is `any` or an empty interface literal.
func untyped(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "any"
	case *ast.InterfaceType:
		return len(e.Methods.List) == 0
	}
	return false
}
