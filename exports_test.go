package xtreesim_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestEveryInternalExportHasACaller fails on a declaration under
// internal/ that only its own package's tests use: code whose one caller
// is the test that pins it.  It type-checks every package of the
// checkout, with its tests, and the benchmark module (xbench/), and counts
// a use only when it resolves to the declaration.
//
//   - A function, method, constant, variable or type is listed when
//     nothing outside its package's _test.go files uses it.  A method is
//     exempt when its receiver implements an interface with a method of
//     that name, one declared in the module or one the standard library
//     calls through: its calls resolve to the interface.
//   - An exported struct field without a json tag is listed when nothing
//     outside its package's tests writes it (a composite-literal key, an
//     assignment, ++/-- or &x.F) and nothing outside its package reads
//     it: a knob that only tests set.
func TestEveryInternalExportHasACaller(t *testing.T) {
	scan.Do(func() { scan.orphans, scan.err = findOrphans(".") })
	if scan.err != nil {
		t.Fatal(scan.err)
	}
	if len(scan.orphans) > 0 {
		t.Errorf("%d declarations under internal/ have no caller outside their own package's tests; "+
			"delete them with their tests:\n\t%s", len(scan.orphans), strings.Join(scan.orphans, "\n\t"))
	}
}

// scan keeps the result across -count and -cpu repetitions: the checkout
// does not change between them.
var scan struct {
	sync.Once
	orphans []string
	err     error
}

// stdlibInterfaces are the standard-library interfaces whose methods fmt,
// errors, encoding/json, io, net/http, sort and container/heap call with
// no call spelled out in this module (error is added from the universe).
var stdlibInterfaces = [][2]string{
	{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"}, {"net/http", "ResponseWriter"},
	{"net/http", "Flusher"}, {"net/http", "Handler"}, {"sort", "Interface"}, {"container/heap", "Interface"},
}

// module type-checks the packages of a checkout into one types.Info.
// Import path xtreesim/rel is directory rel, which holds for the root
// module and for xbench/, whose module path extends it; other imports are
// the standard library, type-checked from source.  A package is checked
// once, with its in-package tests, and its external tests against it.
type module struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	info   *types.Info
	pkgs   map[string]*types.Package // by import path
	active map[string]bool           // import paths being checked
	files  map[*ast.File]string      // file -> its slash path under root
}

const modulePath = "xtreesim"

func (m *module) Import(p string) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(p, modulePath); ok && (rel == "" || rel[0] == '/') {
		return m.load(strings.TrimPrefix(rel, "/"))
	}
	return m.std.Import(p)
}

// load type-checks the package in directory rel.  Any type error fails
// it: a package skipped would under-count the uses of others.
func (m *module) load(rel string) (*types.Package, error) {
	p := path.Join(modulePath, rel)
	if pkg := m.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	if m.active[p] {
		return nil, fmt.Errorf("import cycle through %s", p)
	}
	m.active[p] = true
	dir := filepath.Join(m.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files, xtests []*ast.File
	for _, e := range entries {
		// MatchFile applies build constraints, so that of a pair of
		// files split by a build tag only one is checked.
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if !ok || e.IsDir() {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		m.files[f] = path.Join(rel, e.Name())
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtests = append(xtests, f)
		} else {
			files = append(files, f)
		}
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[p] = pkg
	if len(xtests) > 0 {
		if _, err := conf.Check(p+"_test", m.fset, xtests, m.info); err != nil {
			return nil, err
		}
	}
	return pkg, nil
}

// decl is a declaration under internal/ and what uses it.
type decl struct {
	obj     types.Object
	dir     string // its package's directory
	field   bool   // an exported struct field without a json tag
	used    bool   // not a field: a use outside the package's tests
	written bool   // a field: a write outside the package's tests
	readOut bool   // a field: a read outside the package
}

// findOrphans type-checks every package under root and lists the
// declarations under internal/ that have no use outside their own
// package's tests.
func findOrphans(root string) ([]string, error) {
	fset := token.NewFileSet()
	m := &module{
		root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{}, active: map[string]bool{}, files: map[*ast.File]string{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if gofiles, err := filepath.Glob(filepath.Join(p, "*.go")); err != nil || len(gofiles) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err == nil {
			_, err = m.load(filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	decls := map[token.Pos]*decl{} // by the position of the declared name
	var ifaces []*types.Interface
	for _, si := range stdlibInterfaces {
		pkg, err := m.std.Import(si[0])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for f, name := range m.files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		internal := strings.HasPrefix(name, "internal/")
		add := func(id *ast.Ident, field bool) {
			if internal && id.Name != "_" && id.Name != "init" {
				decls[id.Pos()] = &decl{obj: m.info.Defs[id], dir: path.Dir(name), field: field}
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, false)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, false)
						it, ok := types.Unalias(m.info.Defs[s.Name].Type()).Underlying().(*types.Interface)
						if ok && s.TypeParams == nil {
							ifaces = append(ifaces, it)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, false)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					if fl.Tag != nil {
						tag, _ := strconv.Unquote(fl.Tag.Value) // a literal that type-checked
						if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
							continue
						}
					}
					for _, id := range fl.Names {
						if id.IsExported() {
							add(id, true)
						}
					}
				}
			}
			return true
		})
	}

	// A use resolves to the declared object or, through a generic type, to
	// an instance of it, which keeps the declaration's position.
	for f, name := range m.files {
		dir, test := path.Dir(name), strings.HasSuffix(name, "_test.go")
		written := fieldWrites(f)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || m.info.Uses[id] == nil {
				return true
			}
			switch d := decls[m.info.Uses[id].Pos()]; {
			case d == nil:
			case !d.field:
				d.used = d.used || dir != d.dir || !test
			case written[id]:
				d.written = d.written || dir != d.dir || !test
			default:
				d.readOut = d.readOut || dir != d.dir
			}
			return true
		})
	}

	var orphans []string
	for _, d := range decls {
		recv := receiver(d.obj)
		if d.field && (d.written || d.readOut) || !d.field && d.used || recv != nil && implemented(recv, d.obj.Name(), ifaces) {
			continue
		}
		label := d.obj.Name()
		if recv != nil {
			label = recv.Obj().Name() + "." + label
		}
		if d.field {
			label = "field " + label
		}
		orphans = append(orphans, fset.Position(d.obj.Pos()).String()+": "+label)
	}
	sort.Strings(orphans)
	return orphans, nil
}

// fieldWrites lists the identifiers in f that name a struct field being
// written: a composite-literal key, the target of an assignment or of
// ++/--, or the operand of &.
func fieldWrites(f *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			w[s.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				w[id] = true
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		}
		return true
	})
	return w
}

// receiver returns the type a method is declared on, or nil when obj is
// no method.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := types.Unalias(fn.Type().(*types.Signature).Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// implemented reports whether recv implements one of ifaces that has a
// method of the given name.  The method set of *recv holds recv's too.
func implemented(recv *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}
