// Package deadcode is the repository's dead-surface census: every
// top-level func, method and type declared in a non-test file outside
// benchmark/ and examples/ that no non-test identifier resolves to. The
// list is committed as dead.txt and may only shrink — run it with `make
// deadcode`.
//
// The census is type-resolved. One `go list -deps -export -json ./...`
// gives the package order and the standard library's export data; the
// module's packages are then type-checked from source with go/types, in
// dependency order. A declaration is live when:
//   - a non-test identifier resolves to it (a generic method through
//     its origin, so a call on Server[H] reaches Server's method);
//   - it is a method that implements an interface method some non-test
//     identifier resolves to;
//   - it is a method on stdlibMethods, called by the runtime or a
//     standard-library package rather than at a call site.
//
// A file the host's build constraints exclude (axpy_other.go off
// amd64) is checked as well, with the package's other files that do not
// redeclare its names, and its uses count.
package deadcode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// root is the module root, relative to this package's directory.
const root = "../.."

// usesOnly holds the top-level directories whose files count as uses
// but whose own declarations are not censused: the benchmark's and the
// walkthroughs'.
var usesOnly = map[string]bool{"benchmark": true, "examples": true}

// stdlibMethods are the standard-library interface methods the repo
// implements; the runtime or a stdlib package calls them, so they need
// not be reached from a call site.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "MarshalJSON": true,
}

// listedPkg is the part of `go list -json` the census reads.
type listedPkg struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles, IgnoredGoFiles []string
	Module                  *struct{ Path string }
	Error                   *struct{ Err string }
}

// census type-checks the module and records what is declared and what
// is used, both as "<dir>.<Name>" or "<dir>.<Recv>.<Name>" keys.
type census struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	src    map[string]*types.Package
	// decls maps a censused declaration's key to its object.
	decls map[string]types.Object
	// live holds the keys some non-test identifier resolves to.
	live map[string]bool
	// ifaceUses holds the interface methods some non-test identifier
	// resolves to.
	ifaceUses map[*types.Func]bool
}

func TestDeadCode(t *testing.T) {
	start := time.Now()
	pkgs, err := goList()
	if err != nil {
		t.Fatal(err)
	}
	c := &census{
		module:    pkgs[len(pkgs)-1].Module.Path,
		fset:      token.NewFileSet(),
		src:       map[string]*types.Package{},
		decls:     map[string]types.Object{},
		live:      map[string]bool{},
		ifaceUses: map[*types.Func]bool{},
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Error != nil {
			t.Fatalf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	for _, p := range pkgs {
		if !p.Standard {
			if err := c.check(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	dead := map[string]bool{}
	for key, obj := range c.decls {
		if !c.live[key] && !c.implementsUsed(obj) {
			dead[key] = true
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
		t.Errorf("newly dead: %s — no non-test identifier resolves to it; delete it", k)
	}
	for _, k := range revived {
		t.Errorf("listed in dead.txt but deleted or in use: %s — delete its line", k)
	}
	t.Logf("dead-surface census: %d names (dead.txt lists %d) in %v",
		len(dead), len(listed), time.Since(start).Round(time.Millisecond))
}

// goList runs `go list -deps -export -json ./...` at the module root.
// Its packages come in dependency order, the module's last.
func goList() ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Import resolves the module's packages to their source-checked
// packages and everything else to its export data.
func (c *census) Import(path string) (*types.Package, error) {
	if p := c.src[path]; p != nil {
		return p, nil
	}
	return c.std.Import(path)
}

// check type-checks one module package from source, then each of its
// build-excluded files.
func (c *census) check(p listedPkg) error {
	files := make([]*ast.File, len(p.GoFiles))
	for i, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[i] = f
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: c}).Check(p.ImportPath, c.fset, files, info)
	if err != nil {
		return err
	}
	c.src[p.ImportPath] = pkg
	for _, obj := range info.Uses {
		c.use(obj)
	}

	dir := c.dir(p.ImportPath)
	if !usesOnly[strings.SplitN(dir, "/", 2)[0]] {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name != "_" && (d.Recv != nil || d.Name.Name != "main" && d.Name.Name != "init") {
						c.declare(info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name != "_" {
							c.declare(info.Defs[ts.Name])
						}
					}
				}
			}
		}
	}

	for _, name := range p.IgnoredGoFiles {
		if err := c.checkExcluded(p, files, name); err != nil {
			return err
		}
	}
	return nil
}

// checkExcluded type-checks a file the host's build constraints
// exclude, beside the package's files that declare none of its
// top-level names, and counts its uses. Errors are expected (the kept
// files may need what the dropped ones declared) and ignored.
func (c *census) checkExcluded(p listedPkg, files []*ast.File, name string) error {
	f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	own := topLevelNames(f)
	kept := []*ast.File{f}
	for _, g := range files {
		clash := false
		for n := range topLevelNames(g) {
			clash = clash || own[n]
		}
		if !clash {
			kept = append(kept, g)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := &types.Config{Importer: c, Error: func(error) {}}
	conf.Check(p.ImportPath, c.fset, kept, info)
	file := c.fset.File(f.Pos())
	for id, obj := range info.Uses {
		if c.fset.File(id.Pos()) == file {
			c.use(obj)
		}
	}
	return nil
}

// topLevelNames returns the names a file declares at package level,
// methods as "Recv.Name".
func topLevelNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			} else {
				names[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

// dir is a module package's directory relative to the module root.
func (c *census) dir(importPath string) string {
	if importPath == c.module {
		return "."
	}
	return strings.TrimPrefix(importPath, c.module+"/")
}

// key names a top-level func, method or type of the module, or returns
// "" for anything else. An instantiated generic method maps to its
// origin.
func (c *census) key(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil || pkg.Path() != c.module && !strings.HasPrefix(pkg.Path(), c.module+"/") {
		return ""
	}
	switch obj := obj.(type) {
	case *types.TypeName:
		if obj.Parent() == pkg.Scope() {
			return c.dir(pkg.Path()) + "." + obj.Name()
		}
	case *types.Func:
		obj = obj.Origin()
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return c.dir(pkg.Path()) + "." + obj.Name()
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
			return c.dir(pkg.Path()) + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	return ""
}

// use records what one identifier resolves to.
func (c *census) use(obj types.Object) {
	if k := c.key(obj); k != "" {
		c.live[k] = true
		return
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			c.ifaceUses[f.Origin()] = true
		}
	}
}

// declare enters one censused declaration.
func (c *census) declare(obj types.Object) {
	if k := c.key(obj); k != "" {
		c.decls[k] = obj
	}
}

// implementsUsed reports whether obj is a method that the standard
// library calls, or that implements an interface method in use.
func (c *census) implementsUsed(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if stdlibMethods[f.Name()] {
		return true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for m := range c.ifaceUses {
		if m.Name() != f.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
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
