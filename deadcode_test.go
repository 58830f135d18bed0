package hyperhet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// interfaceMethods are method names that code outside the module calls
// through an interface (fmt, errors, net/http, encoding/json, log/slog),
// so a declaration can be live with no reference in the module's source.
var interfaceMethods = map[string]bool{
	"String":        true,
	"Error":         true,
	"Unwrap":        true,
	"ServeHTTP":     true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"WithAttrs":     true,
	"WithGroup":     true,
}

// deadExports lists every exported top-level function or method declared
// in a file under internal/ whose name no file references outside the
// declaration itself. files maps slash paths relative to the module root
// to parsed non-test sources; every file counts as a referrer. The match
// is by name only, so a reference to a same-named function, method or
// field elsewhere keeps a declaration alive: the lint can miss dead code,
// but whatever it reports has no caller. Unexported code is staticcheck's
// (U1000).
func deadExports(files map[string]*ast.File) []string {
	refs := map[string]int{} // identifiers by name, declared names excluded
	type decl struct {
		name, label string
		self        int // uses of its own name inside its body
	}
	var decls []decl
	for path, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				refs[n.Name.Name]-- // the declared name, counted as an Ident below
			case *ast.Ident:
				refs[n.Name]++
			}
			return true
		})
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || interfaceMethods[fn.Name.Name] {
				continue
			}
			label := path + ": " + fn.Name.Name
			if fn.Recv != nil {
				label = path + ": " + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			self := 0
			if fn.Body != nil {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == fn.Name.Name {
						self++
					}
					return true
				})
			}
			decls = append(decls, decl{fn.Name.Name, label, self})
		}
	}
	var dead []string
	for _, d := range decls {
		if refs[d.name] <= d.self {
			dead = append(dead, d.label)
		}
	}
	slices.Sort(dead)
	return dead
}

// receiverType names a method's receiver type without its pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.IndexExpr:
		return receiverType(t.X)
	case *ast.IndexListExpr:
		return receiverType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// moduleSources parses every non-test .go file of the module, skipping
// testdata and directories starting with "." or "_" as the go command does.
func moduleSources(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestInternalExportsHaveNonTestCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for path, src := range map[string]string{
		"internal/p/p.go": "package p\n\ntype T int\n\n" +
			"func Used() int { return Used2() }\n\n" +
			"func Used2() int { return 0 }\n\n" +
			"func Dead(n int) int {\n\tif n > 0 {\n\t\treturn Dead(n - 1)\n\t}\n\treturn 0\n}\n\n" +
			"func (T) String() string { return \"t\" }\n",
		"cmd/x/main.go": "package main\n\nimport \"m/internal/p\"\n\nfunc main() { p.Used() }\n",
	} {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
	}
	if got := deadExports(files); !slices.Equal(got, []string{"internal/p/p.go: Dead"}) {
		t.Fatalf("lint found %q, want exactly the recursive Dead", got)
	}
	for _, d := range deadExports(moduleSources(t)) {
		t.Errorf("%s has no caller outside tests: delete it, or move it into a _test.go file if tests use it", d)
	}
}
