// Package deadcode is the repository's dead-surface census: every
// top-level func, method and type declared in a non-test file outside
// benchmark/ and examples/ whose name no non-test file uses. The list is
// committed as dead.txt and may only shrink — run it with `make
// deadcode`.
//
// The census matches by name, not by type, so it undercounts: a method
// shares its liveness with every other method of the same name. Confirm
// a deletion with the compiler, not with this list.
package deadcode

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// root is the module root, relative to this package's directory.
const root = "../.."

// usesOnly holds the top-level directories whose files count as uses
// but whose own declarations are not censused: the benchmark's and the
// walkthroughs'.
var usesOnly = map[string]bool{"benchmark": true, "examples": true}

// stdlibMethods are the standard-library interface methods the repo
// implements; the runtime or a stdlib package calls them, so their names
// need not appear at a call site.
var stdlibMethods = []string{
	"String", "Error", "Unwrap", "ServeHTTP", "Read", "Write", "Close",
	"Len", "Less", "Swap", "Push", "Pop", "MarshalJSON",
}

// decl is one censused top-level declaration; key is
// "<dir>.<Name>" or "<dir>.<Recv>.<Name>".
type decl struct {
	key, name string
	method    bool
}

func TestDeadCode(t *testing.T) {
	var decls []decl
	// A name is used when it occurs as an identifier more often than
	// top-level declarations declare it.
	occurs, declared := map[string]int{}, map[string]int{}
	ifaceMethods := map[string]bool{}
	for _, m := range stdlibMethods {
		ifaceMethods[m] = true
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				occurs[n.Name]++
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})

		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := path.Dir(rel)
		census := !usesOnly[strings.SplitN(rel, "/", 2)[0]]
		add := func(key, name string, method bool) {
			declared[name]++
			if census {
				decls = append(decls, decl{key: dir + "." + key, name: name, method: method})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, d.Name.Name, false)
				} else {
					add(recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						add(ts.Name.Name, ts.Name.Name, false)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dead := map[string]bool{}
	for _, d := range decls {
		switch {
		case d.name == "_", d.method && ifaceMethods[d.name]:
		case !d.method && (d.name == "main" || d.name == "init"):
		case occurs[d.name] == declared[d.name]:
			dead[d.key] = true
		}
	}

	data, err := os.ReadFile("dead.txt")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			listed[line] = true
		}
	}
	var added, revived []string
	for k := range dead {
		if !listed[k] {
			added = append(added, k)
		}
	}
	for k := range listed {
		if !dead[k] {
			revived = append(revived, k)
		}
	}
	sort.Strings(added)
	sort.Strings(revived)
	for _, k := range added {
		t.Errorf("newly dead: %s — no non-test file uses it; delete it", k)
	}
	for _, k := range revived {
		t.Errorf("listed in dead.txt but deleted or in use: %s — delete its line", k)
	}
	t.Logf("dead-surface census: %d names (dead.txt lists %d)", len(dead), len(listed))
}

// recvName returns the receiver's base type name: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
