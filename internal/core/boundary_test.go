package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	iofs "io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestOneServingModel holds the serving path to one data model: the only
// ModelKind core declares is PartitionedRlistModel, and the packages that
// serve datasets — the root package, the server, replication and the CLI —
// import none of the paper layouts in internal/experiments.
func TestOneServingModel(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nonTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, file := range pkgs["core"].Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if isModelKind(vs.Type) || anyModelKindConversion(vs.Values) {
					for _, n := range vs.Names {
						kinds = append(kinds, n.Name)
					}
				}
			}
		}
	}
	if len(kinds) != 1 || kinds[0] != "PartitionedRlistModel" {
		t.Errorf("core declares ModelKind values %v, want only PartitionedRlistModel", kinds)
	}

	for _, dir := range []string{"../..", "../server", "../repl", "../../cmd/orpheus"} {
		pkgs, err := parser.ParseDir(fset, dir, nonTest, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package", dir)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); path == "orpheusdb/internal/experiments" {
						t.Errorf("%s imports %s", name, path)
					}
				}
			}
		}
	}
}

// nonTest is a parser.ParseDir filter that skips test files.
func nonTest(fi iofs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

func isModelKind(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "ModelKind"
}

func anyModelKindConversion(values []ast.Expr) bool {
	for _, v := range values {
		if call, ok := v.(*ast.CallExpr); ok && isModelKind(call.Fun) {
			return true
		}
	}
	return false
}
