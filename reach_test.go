package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachExempt names the exports no non-test file has to name, with the
// reason. A bare name exempts a method that a stdlib interface calls; a
// qualified one must name a declaration that exists.
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
	declared := map[string]bool{}
	for id, key := range decls {
		declared[key] = true
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
	for key := range reachExempt {
		if strings.Contains(key, ".") && !declared[key] {
			t.Errorf("reachExempt names %s, which no file under internal/ declares; delete the exemption", key)
		}
	}
}

// setExempt names the exported fields no non-test code has to write, with
// the reason; each must name a field that exists.
var setExempt = map[string]string{
	"core.ResilienceOptions.Detect":         "the pinned resilience record carries detect_s",
	"sparse.Options.Tol":                    "the non-convergence test goes through it",
	"sparse.Options.MaxIter":                "the non-convergence and allocation tests go through it",
	"telemetry.SLOTrackerOptions.Now":       "clock seam for tests",
	"telemetry.SLOTrackerOptions.SnapEvery": "clock seam for tests",
}

// TestEveryFieldIsSet fails on an exported field of an exported struct
// under internal/ that no non-test code of the module writes: an option
// nothing sets. A write is a composite-literal key or position, an
// assignment, ++/--, or &x.F; writing x.F.G writes F too. An assignment
// inside `if x.F == zero` (or <=) only fills in a default and does not
// count. A field with a json tag counts as written, since decoding sets it.
func TestEveryFieldIsSet(t *testing.T) {
	fset := token.NewFileSet()
	imp := &moduleImporter{fset: fset, std: importer.Default(), pkgs: map[string]*modulePackage{}}
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	written := map[*types.Var]bool{}
	fields := map[*types.Var]string{} // exported field → pkg.Type.Field
	for dir := range dirs {
		mp, err := imp.load(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range mp.files {
			markWrites(f, mp.info, written)
		}
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := mp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); fv.Exported() && !fv.Embedded() && !tagged {
					fields[fv] = mp.pkg.Name() + "." + name + "." + fv.Name()
				}
			}
		}
	}
	var unset []string
	declared := map[string]bool{}
	for fv, key := range fields {
		declared[key] = true
		if !written[fv] && setExempt[key] == "" {
			unset = append(unset, key+" "+fset.Position(fv.Pos()).String())
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d exported fields are written by no non-test code; delete each with the code only it reaches:\n%s",
			len(unset), strings.Join(unset, "\n"))
	}
	for key := range setExempt {
		if !declared[key] {
			t.Errorf("setExempt names %s, which is no exported field of an exported struct under internal/; delete the exemption", key)
		}
	}
}

// markWrites adds to written every field f writes, except assignments that
// only fill in a default.
func markWrites(f *ast.File, info *types.Info, written map[*types.Var]bool) {
	// field returns the field e selects, or nil.
	field := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var).Origin()
			}
		}
		return nil
	}
	// write marks the fields along the selector and index chain of e.
	write := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if fv := field(x); fv != nil {
					written[fv] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	defaults := map[ast.Stmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || (cond.Op != token.EQL && cond.Op != token.LEQ) {
			return true
		}
		if fv := field(cond.X); fv != nil {
			ast.Inspect(ifs.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && field(as.Lhs[0]) == fv {
					defaults[as] = true
				}
				return true
			})
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if !defaults[n] {
				for _, l := range n.Lhs {
					write(l)
				}
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if fv, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[fv.Origin()] = true
					}
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// moduleImporter type-checks the module's packages from their non-test
// source and imports the standard library from export data.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modulePackage // by directory relative to the module root
}

type modulePackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "repro/"); ok {
		mp, err := m.load(dir)
		if err != nil {
			return nil, err
		}
		return mp.pkg, nil
	}
	return m.std.Import(path)
}

func (m *moduleImporter) load(dir string) (*modulePackage, error) {
	if mp := m.pkgs[dir]; mp != nil {
		return mp, nil
	}
	// Only the files the compiler would build here: a kernel has one file
	// per architecture, each declaring the same functions.
	pkgs, err := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool {
		match, err := build.Default.MatchFile(dir, fi.Name())
		return err == nil && match && !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("%s: %d packages", dir, len(pkgs))
	}
	mp := &modulePackage{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			mp.files = append(mp.files, f)
		}
	}
	conf := types.Config{Importer: m}
	if mp.pkg, err = conf.Check("repro/"+dir, m.fset, mp.files, mp.info); err != nil {
		return nil, err
	}
	m.pkgs[dir] = mp
	return mp, nil
}
