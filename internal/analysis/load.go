package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
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
)

// A Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// newInfo allocates the full set of type-information maps the analyzers
// consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// exportSet resolves import paths to compiled export-data files and wraps
// the standard gc importer over them. go/importer's gc mode with a lookup
// function never touches GOPATH, so dependencies resolve identically in
// cmd/sizelessvet and the analysistest harness.
type exportSet struct {
	files map[string]string // import path -> export data file
	imp   types.ImporterFrom
}

func newExportSet(fset *token.FileSet, files map[string]string) *exportSet {
	es := &exportSet{files: files}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := es.files[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	es.imp = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return es
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	Export     string
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -e -deps -export -json` for the patterns in dir and
// decodes the JSON stream. -export compiles nothing new beyond what a
// build would and populates each package's export-data path from the build
// cache, which is what lets the type checker resolve every import without
// source-typechecking the standard library.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=Dir,ImportPath,Name,Standard,Export,DepOnly,GoFiles,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load lists, parses, and type-checks the packages matching patterns,
// rooted at dir (the module directory). Only non-test Go files are
// analyzed: the suite's invariants govern library runtime behaviour, and
// tests legitimately spawn goroutines, manufacture contexts, and reorder
// work.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	es := newExportSet(fset, exports)
	var out []*Package
	for _, t := range targets {
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := typecheck(fset, t.ImportPath, files, es.imp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func typecheck(fset *token.FileSet, importPath string, filenames []string, imp types.ImporterFrom) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(build.Default.Compiler, build.Default.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadTestdata loads one GOPATH-style package from an analysistest tree:
// gopath/src/<path>/*.go. Imports resolve first against sibling testdata
// packages (type-checked recursively from source), then against the real
// module and standard library via export data, so fixture packages can
// exercise analyzers against both fake and real dependencies.
func LoadTestdata(moduleDir, gopath, path string) (*Package, error) {
	fset := token.NewFileSet()
	ld := &testdataLoader{
		moduleDir: moduleDir,
		gopath:    gopath,
		fset:      fset,
		cache:     make(map[string]*Package),
		exports:   make(map[string]string),
	}
	return ld.load(path)
}

type testdataLoader struct {
	moduleDir string
	gopath    string
	fset      *token.FileSet
	cache     map[string]*Package
	exports   map[string]string
	es        *exportSet
}

func (l *testdataLoader) dirFor(path string) (string, bool) {
	dir := filepath.Join(l.gopath, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir, true
	}
	return "", false
}

func (l *testdataLoader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: no testdata package %q under %s", path, l.gopath)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: testdata package %q has no Go files", path)
	}
	info := newInfo()
	conf := types.Config{
		Importer: (*testdataImporter)(l),
		Sizes:    types.SizesFor(build.Default.Compiler, build.Default.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking testdata %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

// testdataImporter resolves testdata-sibling imports from source and
// everything else through export data fetched lazily with go list.
type testdataImporter testdataLoader

func (l *testdataImporter) Import(path string) (*types.Package, error) {
	ld := (*testdataLoader)(l)
	if _, ok := ld.dirFor(path); ok {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if _, ok := ld.exports[path]; !ok {
		listed, err := goList(ld.moduleDir, path)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				ld.exports[p.ImportPath] = p.Export
			}
		}
		if _, ok := ld.exports[path]; !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	if ld.es == nil {
		ld.es = newExportSet(ld.fset, ld.exports)
	}
	return ld.es.imp.Import(path)
}
