package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryCounterIsCounted fails when a declared Ctr* counter is never
// the counter argument of a Stats.Add or Stats.Inc call in the
// module's non-test code: a counter nothing increments reads 0 on
// working code, and a report of it shows nothing.
func TestEveryCounterIsCounted(t *testing.T) {
	fset := token.NewFileSet()
	stats, err := parser.ParseFile(fset, "stats.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range stats.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, spec := range g.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(name.Name, "Ctr") {
						declared[name.Name] = false
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no Ctr* constants found in stats.go")
	}

	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "Inc") {
				return true
			}
			var name string
			switch arg := call.Args[0].(type) {
			case *ast.Ident: // inside package sim
				name = arg.Name
			case *ast.SelectorExpr: // sim.CtrX elsewhere
				if pkg, ok := arg.X.(*ast.Ident); ok && pkg.Name == "sim" {
					name = arg.Sel.Name
				}
			}
			if _, ok := declared[name]; ok {
				declared[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var never []string
	for name, counted := range declared {
		if !counted {
			never = append(never, name)
		}
	}
	sort.Strings(never)
	if len(never) > 0 {
		t.Fatalf("counters declared but never passed to Stats.Add/Inc: %v", never)
	}
}
