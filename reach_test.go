package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachExempt names the exports no non-test file has to name, with the
// reason. A bare name exempts a method that a stdlib interface calls.
var reachExempt = map[string]string{
	"String": "fmt.Stringer", "Error": "error", "Unwrap": "errors.Unwrap",
	"Len": "sort.Interface", "Less": "sort.Interface", "Swap": "sort.Interface",
	"Push": "heap.Interface", "Pop": "heap.Interface", "ServeHTTP": "http.Handler",
	"MarshalJSON": "json.Marshaler", "UnmarshalJSON": "json.Unmarshaler",
	"Read": "io.Reader", "Write": "io.Writer", "Close": "io.Closer",
	"mat.NewFromData":        "the constructor over caller-owned storage, counterpart of New",
	"store.Store.Duplicates": "recovery accounting the store's truncation tests assert",
	"surrogate.Train":        "regenerates surrogate/testdata/coeffs.json under -update-surrogate",
	"ime.SolveSequential":    "the sequential IMe reference the parallel solver and the monitor Example check against",
	"scalapack.Dgesv":        "the sequential LAPACK reference the parallel solver and the monitor Example check against",
}

// TestEveryExportIsReached fails on an exported top-level declaration
// under internal/ that no non-test .go file of the module names: code only
// its own tests reach. Any identifier spelling the name counts as a use,
// whatever it resolves to, so the check can miss dead code but never flags
// live code.
func TestEveryExportIsReached(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	decls := map[*ast.Ident]string{} // declaring identifier → pkg.[Recv.]Name, "" if unchecked
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dl := range f.Decls {
			recv, ids := "", []*ast.Ident{}
			if fd, ok := dl.(*ast.FuncDecl); ok {
				ids = append(ids, fd.Name)
				if fd.Recv != nil { // the receiver's type name, without * or type parameters
					recv = strings.FieldsFunc(types.ExprString(fd.Recv.List[0].Type), func(r rune) bool { return r == '*' || r == '[' })[0] + "."
				}
			} else {
				for _, s := range dl.(*ast.GenDecl).Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids = append(ids, s.Name)
					case *ast.ValueSpec:
						ids = append(ids, s.Names...)
					}
				}
			}
			for _, id := range ids {
				decls[id] = ""
				if internal && id.IsExported() {
					decls[id] = f.Name.Name + "." + recv + id.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if _, declaring := decls[id]; ok && !declaring {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for id, key := range decls {
		method := strings.Count(key, ".") == 2
		if key != "" && !used[id.Name] && reachExempt[key] == "" && !(method && reachExempt[id.Name] != "") {
			unreached = append(unreached, key+" "+fset.Position(id.Pos()).String())
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported declarations are named by no non-test file; delete each or move it into a _test.go file:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
}
