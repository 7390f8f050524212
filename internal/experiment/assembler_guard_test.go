package experiment

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneAssembler keeps Build the only code that wires a simulated
// stack. It parses every non-test Go file of the module outside bench/
// (a module of its own, with its own probes) and internal/wire/ (a UDP
// daemon, not a simulated world), and requires each stack constructor to
// be called from another package exactly once, in the builder. A call
// site elsewhere fails the test with its file:line: wire the new caller
// through Build (an Option, or a field set on the built World) instead.
func TestOneAssembler(t *testing.T) {
	const module = "github.com/manetlab/rpcc"
	constructors := map[string][]string{
		module + "/internal/mobility":    {"NewField"},
		module + "/internal/churn":       {"NewProcess"},
		module + "/internal/netsim":      {"New"},
		module + "/internal/data":        {"NewRegistry"},
		module + "/internal/cache":       {"NewStores"},
		module + "/internal/consistency": {"NewAuditor"},
		module + "/internal/node":        {"NewChassis"},
		module + "/internal/core":        {"New"},
		module + "/internal/pushpull":    {"NewPush", "NewPull"},
	}
	builder := filepath.Join("internal", "experiment", "world.go")
	root := filepath.Join("..", "..")

	sites := map[string][]token.Position{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "wire") || d.Name() == "testdata" ||
				rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkg, name := imports[id.Name], sel.Sel.Name; slices.Contains(constructors[pkg], name) {
				key := path.Base(pkg) + "." + name
				sites[key] = append(sites[key], fset.Position(call.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for pkg, names := range constructors {
		for _, name := range names {
			key := path.Base(pkg) + "." + name
			inBuilder := 0
			for _, pos := range sites[key] {
				if pos.Filename == builder {
					inBuilder++
				} else {
					t.Errorf("%s: %s called outside experiment's builder (%s)", pos, key, builder)
				}
			}
			if inBuilder != 1 {
				t.Errorf("%s: %d call sites in %s, want 1", key, inBuilder, builder)
			}
		}
	}
}
