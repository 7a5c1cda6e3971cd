package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// deadexport is the lint:ignore name that keeps an uncalled export on
// purpose, e.g. a fixture shared by several packages' tests.
const deadexport = "deadexport"

// TestEveryInternalExportHasCaller is the whole-program half of the suite:
// every exported function, method and constant under internal/ must be
// referenced from a non-test file of the root module or of bench/ (its own
// module, which imports internal/ packages). A method also counts as used
// when its type satisfies an interface that has it, the stdlib's implicit
// ones (fmt.Stringer, error, json.Marshaler, ...) included. Code that no
// program reaches is deleted, or moved into the _test.go file that uses it.
func TestEveryInternalExportHasCaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var programs [][]*Package
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		pkgs, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, pkgs)
	}
	for _, f := range uncalledExports(programs...) {
		t.Error(f)
	}
}

// TestUncalledExportsFixture pins what the whole-program check reports on
// a fixture program: an uncalled function, method and constant, a
// self-recursive function, a bare suppression, and an uncalled function
// named like a field that is read; and what it leaves alone: called names,
// interface methods, and a suppression with a reason.
func TestUncalledExportsFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	ld := &testdataLoader{
		moduleDir: root,
		gopath:    filepath.Join("testdata", "deadexport"),
		fset:      token.NewFileSet(),
		cache:     make(map[string]*Package),
		exports:   make(map[string]string),
	}
	var pkgs []*Package
	for _, path := range []string{"x/cmd/app", "x/internal/lib"} {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	var got []string
	for _, f := range uncalledExports(pkgs) {
		got = append(got, fmt.Sprintf("%d: %s: %s", f.Pos.Line, f.Analyzer, f.Message))
	}
	want := []string{
		"13: deadexport: const lib.Unused has no caller outside tests",
		"25: deadexport: func lib.Dead has no caller outside tests",
		"36: deadexport: func lib.Lone has no caller outside tests",
		"42: deadexport: method lib.T.Dead has no caller outside tests",
		"61: lint: malformed lint:ignore: want \"//lint:ignore <analyzer>[,<analyzer>] <reason>\" — the reason is mandatory",
		"62: deadexport: func lib.BareIgnore has no caller outside tests",
		"68: deadexport: func lib.Shadow has no caller outside tests",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// uncalledExports reports every exported function, method and constant of
// an internal package that no non-test file references. Each element of
// programs is one Load result; names are matched across them by key, since
// a package imported through export data is a different types.Package
// from the same package loaded from source.
func uncalledExports(programs ...[]*Package) []Finding {
	used := make(map[string]bool)
	for _, pkgs := range programs {
		markReferenced(pkgs, used)
		markImplementations(pkgs, used)
	}
	var out []Finding
	for _, pkgs := range programs {
		for _, pkg := range pkgs {
			if !PathHasSegment(pkg.Path, "internal") {
				continue
			}
			sup, malformed := suppressions(pkg)
			out = append(out, malformed...)
			for _, obj := range exportedObjects(pkg.Types) {
				if used[objectKey(obj)] {
					continue
				}
				posn := pkg.Fset.Position(obj.Pos())
				if sup.covers(deadexport, posn) {
					continue
				}
				out = append(out, Finding{Analyzer: deadexport, Pos: posn, Message: describe(obj) + " has no caller outside tests"})
			}
		}
	}
	sortFindings(out)
	return out
}

// exportedObjects lists a package's exported functions and constants and
// the exported methods of its named types.
func exportedObjects(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func, *types.Const:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// markReferenced records every object a non-test file refers to. A
// function's references to itself do not count, so a recursive export
// with no other caller is still reported.
func markReferenced(pkgs []*Package, used map[string]bool) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil && obj != self {
							used[objectKey(obj)] = true
						}
					}
					return true
				})
			}
		}
	}
}

// markImplementations records the methods through which a named type of
// the program satisfies an interface visible to it: one declared or
// written in the program, one exported by a package it imports, or error.
func markImplementations(pkgs []*Package, used map[string]bool) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, obj := range implicitInterfaces.Scope().Names() {
		ifaces = append(ifaces, implicitInterfaces.Scope().Lookup(obj).Type().Underlying().(*types.Interface))
	}
	addIface := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	var concrete []*types.Named
	addNamed := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			return
		}
		addIface(tn.Type())
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 && !types.IsInterface(named) {
			concrete = append(concrete, named)
		}
	}

	seen := make(map[*types.Package]bool)
	// Imports come from export data, a separate types.Package per
	// importing program, so an internal package's types are visited here
	// too: that copy is the one its importers' interfaces are written
	// against.
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if PathHasSegment(p.Path(), "internal") {
				addNamed(obj)
			} else if tn, ok := obj.(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		seen[pkg.Types] = true
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				addNamed(obj)
			}
		}
		for _, tv := range pkg.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			visit(imp)
		}
	}

	for _, named := range concrete {
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[objectKey(obj)] = true
				}
			}
		}
	}
}

// implicitInterfaces holds the method sets the errors package asserts
// inline, so no package scope declares them.
var implicitInterfaces = func() *types.Package {
	const src = `package implicit
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "implicit.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("implicit", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return pkg
}()

// objectKey names obj the same way whichever load it came from:
// "path.Name" for package-level objects, "path.Type.Method" for methods.
// Struct fields and local names get no key: the check never reports them,
// and reading a field must not mark a package-level func of the same name.
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		named := recvNamed(fn.Origin())
		if named == nil {
			return "" // a method of an interface literal
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named type fn is a method of, or nil.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// describe renders obj for a finding, e.g. "method core.Model.Predict".
func describe(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Const:
		return "const " + obj.Pkg().Name() + "." + obj.Name()
	case *types.Func:
		if named := recvNamed(obj); named != nil {
			return "method " + obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	return "func " + obj.Pkg().Name() + "." + obj.Name()
}
