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

// reachExempt names the declarations no non-test code has to reach, with
// the reason. A bare name exempts an exported method that a stdlib
// interface calls from inside the standard library; a qualified one must
// name a declaration that exists.
var reachExempt = map[string]string{
	"String": "fmt.Stringer", "Error": "error", "Unwrap": "errors.Unwrap",
	"Len": "sort.Interface", "Less": "sort.Interface", "Swap": "sort.Interface",
	"Push": "heap.Interface", "Pop": "heap.Interface", "ServeHTTP": "http.Handler",
	"MarshalJSON": "json.Marshaler", "UnmarshalJSON": "json.Unmarshaler",
	"Read": "io.Reader", "Write": "io.Writer", "Close": "io.Closer",
	"mat.NewFromData":        "the constructor over caller-owned storage, counterpart of New",
	"store.Store.Duplicates": "recovery accounting the store's truncation tests assert",
	"mpi.World.Nodes":        "post-run energy inspection, read by tests in six packages",
	"surrogate.Train":        "regenerates surrogate/testdata/coeffs.json under -update-surrogate",
	"ime.SolveSequential":    "the sequential IMe reference the parallel solver and the monitor Example check against",
	"scalapack.Dgesv":        "the sequential LAPACK reference the parallel solver and the monitor Example check against",
}

// TestEveryExportIsReached fails on a declaration under internal/ that no
// non-test .go file of the module reaches: an exported top-level
// declaration, or a method of any name, that only its own tests use. Names
// resolve with go/types: a use is an identifier or selector that denotes
// the declaration itself, generic instances included. A method is also
// reached when a method of an interface it implements is used; for a
// generic interface, such as a type parameter's constraint, when its type
// is some instantiation's type argument.
func TestEveryExportIsReached(t *testing.T) {
	fset, pkgs := loadModule(t)
	used := map[types.Object]bool{}
	var viaInterface []*types.Func // used interface methods
	typeArgs := map[*types.TypeName]bool{}
	use := func(obj types.Object) {
		obj = origin(obj)
		if f, ok := obj.(*types.Func); ok && !used[f] {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaInterface = append(viaInterface, f)
			}
		}
		used[obj] = true
	}
	for _, mp := range pkgs {
		for _, obj := range mp.info.Uses {
			use(obj)
		}
		for _, sel := range mp.info.Selections {
			use(sel.Obj())
		}
		for _, inst := range mp.info.Instances {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				if tn := typeName(inst.TypeArgs.At(i)); tn != nil {
					typeArgs[tn] = true
				}
			}
		}
	}
	// implemented reports whether m, a method of the named type tn, is
	// reached through a used interface method.
	implemented := func(tn *types.TypeName, m *types.Func) bool {
		for _, im := range viaInterface {
			if im.Name() != m.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type()
			if n, ok := iface.(*types.Named); ok && n.Origin().TypeParams().Len() > 0 {
				if typeArgs[tn] {
					return true
				}
				continue
			}
			it := iface.Underlying().(*types.Interface)
			if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
				return true
			}
		}
		return false
	}
	var unreached []string
	declared := map[string]bool{}
	check := func(key string, obj types.Object, reached bool) {
		declared[key] = true
		if !reached && !used[obj] && reachExempt[key] == "" {
			unreached = append(unreached, key+" "+fset.Position(obj.Pos()).String())
		}
	}
	for _, mp := range pkgs {
		if !strings.HasPrefix(mp.dir, "internal/") {
			continue
		}
		scope := mp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(mp.pkg.Name()+"."+name, obj, false)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				stdlib := m.Exported() && reachExempt[m.Name()] != ""
				check(mp.pkg.Name()+"."+name+"."+m.Name(), m, stdlib || implemented(tn, m))
			}
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d declarations are reached by no non-test file; delete each or move it into a _test.go file:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
	for key := range reachExempt {
		if strings.Contains(key, ".") && !declared[key] {
			t.Errorf("reachExempt names %s, which no file under internal/ declares; delete the exemption", key)
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// typeName returns the declaration of the named type t is or points to,
// or nil.
func typeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
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
	fset, pkgs := loadModule(t)
	written := map[*types.Var]bool{}
	fields := map[*types.Var]string{} // exported field → pkg.Type.Field
	for _, mp := range pkgs {
		for _, f := range mp.files {
			markWrites(f, mp.info, written)
		}
		if !strings.HasPrefix(mp.dir, "internal/") {
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

// readExempt names the fields no non-test code has to read by name, with
// the reason; each must name a field, or a struct type whose fields it
// exempts, that exists. A json-tagged field is read by encoding, and a
// field of a struct some map is keyed by is read by every lookup, so
// neither needs an entry.
var readExempt = map[string]string{
	"campaign.experimentsData": "text/template data of EXPERIMENTS.md",
	"campaign.capEffect":       "text/template data of EXPERIMENTS.md",
	"mat.sysKey":               "the key of the sync.Map of cached systems",
	"sparse.Solution.X":        "the solution vector, the answer the solver exists to return",
}

// TestEveryFieldIsRead fails on a field of a struct type declared at the
// top level of a package under internal/ that no non-test code of the
// module reads: a value written and never used. A read is any selector
// that is not the left side of a plain =, so x.F += 1, x.F++, &x.F and
// x.F.G = v all read F.
func TestEveryFieldIsRead(t *testing.T) {
	fset, pkgs := loadModule(t)
	read := map[*types.Var]bool{}
	keyed := map[*types.Struct]bool{} // structs some map is keyed by
	for _, mp := range pkgs {
		for _, f := range mp.files {
			markReads(f, mp.info, read)
		}
		for _, tv := range mp.info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				if st, ok := m.Key().Underlying().(*types.Struct); ok {
					keyed[st] = true
				}
			}
		}
	}
	var unread []string
	declared := map[string]bool{}
	for _, mp := range pkgs {
		if !strings.HasPrefix(mp.dir, "internal/") {
			continue
		}
		scope := mp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || keyed[st] {
				continue
			}
			typ := mp.pkg.Name() + "." + name
			declared[typ] = true
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); fv.Embedded() || tagged || fv.Name() == "_" {
					continue
				}
				key := typ + "." + fv.Name()
				declared[key] = true
				if !read[fv] && readExempt[key] == "" && readExempt[typ] == "" {
					unread = append(unread, key+" "+fset.Position(fv.Pos()).String())
				}
			}
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d fields are read by no non-test code; delete each with the writes and computations only it reaches:\n%s",
			len(unread), strings.Join(unread, "\n"))
	}
	for key := range readExempt {
		if !declared[key] {
			t.Errorf("readExempt names %s, which is no checked field or struct under internal/; delete the exemption", key)
		}
	}
}

// markReads adds to read every field f selects other than on the left of
// a plain assignment.
func markReads(f *ast.File, info *types.Info, read map[*types.Var]bool) {
	stored := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, l := range as.Lhs {
				stored[ast.Unparen(l)] = true
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && !stored[sel] {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				read[s.Obj().(*types.Var).Origin()] = true
			}
		}
		return true
	})
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

// loadModule type-checks every package of the module from its non-test
// source, in directory order.
func loadModule(t *testing.T) (*token.FileSet, []*modulePackage) {
	fset := token.NewFileSet()
	imp := &moduleImporter{fset: fset, std: importer.Default(), pkgs: map[string]*modulePackage{}}
	var pkgs []*modulePackage
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				mp, err := imp.load(filepath.ToSlash(path))
				pkgs = append(pkgs, mp)
				return err
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// moduleImporter type-checks the module's packages from their non-test
// source and imports the standard library from export data.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modulePackage // by directory relative to the module root
}

type modulePackage struct {
	dir   string // relative to the module root
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
	mp := &modulePackage{dir: dir, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
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
