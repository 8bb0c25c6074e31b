package xtreesim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibCalled names methods the standard library calls through its
// interfaces (fmt, errors, encoding/json, sort, container/heap, io,
// net/http): a method of such a name has callers that no source spells out.
var stdlibCalled = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true,
	"As": true, "MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "Read": true, "Write": true,
	"Close": true, "ReadFrom": true, "WriteTo": true, "ServeHTTP": true, "Header": true,
	"WriteHeader": true, "Flush": true,
}

// TestEveryInternalExportHasACaller fails on an exported top-level name
// under internal/ that only its own package's tests use: code whose one
// caller is the test that pins it.  A use is any identifier or selector
// with the name anywhere in the checkout, other packages' tests and the
// benchmark module (xbench/) included, but not the declaring package's
// own tests.
func TestEveryInternalExportHasACaller(t *testing.T) {
	type export struct{ dir, name, label, at string }
	var exports []export
	usedIn := map[string]map[string]bool{} // name -> using dirs; a dir's tests use as dir+"_test"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, test := filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{} // the names a declaration introduces are no uses
		for _, d := range f.Decls {
			var names []*ast.Ident
			recv := ""
			switch d := d.(type) {
			case *ast.FuncDecl:
				names = append(names, d.Name)
				if d.Recv != nil {
					recv = receiverType(d.Recv.List[0].Type) + "."
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = append(names, s.Names...)
					}
				}
			}
			for _, id := range names {
				declared[id] = true
				if !test && strings.HasPrefix(dir, "internal/") && id.IsExported() &&
					(recv == "" || !stdlibCalled[id.Name]) {
					exports = append(exports, export{dir, id.Name, recv + id.Name, fset.Position(id.Pos()).String()})
				}
			}
		}
		user := dir
		if test {
			user += "_test"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][user] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, e := range exports {
		if users := usedIn[e.name]; len(users) == 0 || len(users) == 1 && users[e.dir+"_test"] {
			orphans = append(orphans, e.at+": "+e.label)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported names under internal/ have no caller outside their own package's tests; "+
			"delete them with their tests, or unexport them:\n\t%s", len(orphans), strings.Join(orphans, "\n\t"))
	}
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
