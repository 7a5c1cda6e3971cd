// Package analysistest runs an analyzer over golden-file fixture packages
// and checks its findings against // want comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract: a comment
//
//	code() // want `regexp` `another`
//
// declares that the analyzer must report diagnostics on that line matching
// the backquoted regular expressions, in order; every reported diagnostic
// must be matched by a want, and every want must be matched by a
// diagnostic. Fixture packages live in GOPATH layout under
// <analyzer>/testdata/src/<importpath>/ so `go build ./...` and
// `go vet ./...` ignore them.
package analysistest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sizeless/internal/analysis"
)

// moduleDir locates the repository root (the directory holding go.mod) so
// fixtures can resolve standard-library and module imports through the
// loader regardless of which package's test binary is running.
func moduleDir(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("analysistest: no go.mod above working directory")
		}
		dir = parent
	}
}

// TestData returns the testdata directory of the calling test's package.
//
//lint:ignore deadexport test fixture: every analyzer's test locates its fixtures through it
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each fixture package from dir (a testdata root containing
// src/), applies the analyzer, and diffs findings against the fixtures'
// want comments. Suppressions (//lint:ignore) are honoured exactly as in
// cmd/sizelessvet, so fixtures assert both that violations are reported
// and that justified exceptions stay silent.
//
//lint:ignore deadexport test fixture: every analyzer's test runs its fixtures through it
func Run(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	mod := moduleDir(t)
	for _, path := range paths {
		pkg, err := analysis.LoadTestdata(mod, dir, path)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		check(t, pkg, findings)
	}
}

// want is one expected-diagnostic pattern.
type want struct {
	posn token.Position
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile("`([^`]+)`")

// check matches findings against the package's want comments.
func check(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	// Collect wants per file:line by rescanning each fixture's raw comments;
	// scanner (not the AST) keeps this robust to comment placement.
	wants := make(map[string][]*want) // "file:line" -> patterns in order
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var sc scanner.Scanner
		file := token.NewFileSet().AddFile(name, -1, len(src))
		sc.Init(file, src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			text := strings.TrimSpace(strings.TrimPrefix(lit, "//"))
			if !strings.HasPrefix(text, "want ") && text != "want" {
				continue
			}
			posn := file.Position(pos)
			key := fmt.Sprintf("%s:%d", posn.Filename, posn.Line)
			for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
				}
				wants[key] = append(wants[key], &want{posn: posn, re: re})
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.hit && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", key, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: no diagnostic matched want `%s`", key, w.re)
			}
		}
	}
}
