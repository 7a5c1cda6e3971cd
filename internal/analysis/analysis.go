// Package analysis is the repository's static-analysis framework: a
// self-contained reimplementation of the narrow slice of
// golang.org/x/tools/go/analysis that the sizelessvet suite needs
// (Analyzer, Pass, diagnostics, suppression), built only on the standard
// library's go/ast, go/types, and go/token.
//
// The real x/tools module is deliberately not a dependency: this module is
// dependency-free and must stay buildable offline, so the framework mirrors
// the x/tools API shape closely enough that the analyzers would port to the
// upstream driver by changing one import, while the loader (load.go) does
// the package loading x/tools' go/packages would normally do.
//
// # Invariants enforced by the suite
//
// Each analyzer under internal/analysis/<name> machine-checks one invariant
// the engine's results depend on:
//
//   - poolescape: values drawn from a sync.Pool (or a Borrow-style pooled
//     helper) must stay function-local — never returned, stored in fields
//     or globals, or captured by goroutines.
//   - boundedgo: library packages fan out through internal/pool.Run only;
//     naked go statements are reserved for internal/pool itself, main
//     packages, and tests.
//   - determinism: no seedless global math/rand draws, no time.Now-derived
//     seeds, and no map-iteration order feeding float accumulators or
//     slices in the numeric packages — seed-reproducibility is what makes
//     the §5 parity oracles bit-exact.
//   - ctxflow: library code must not manufacture context.Background or
//     context.TODO (nil-ctx defaulting guards excepted) and must not drop
//     an in-scope ctx by passing a manufactured or nil context down.
//   - shardlock: recommender methods must not call other locking Service
//     methods or invoke user callbacks while holding a shard mutex.
//
// One whole-program rule is a test in this package rather than an
// analyzer, since it needs every package of the program at once:
//
//   - deadexport (TestEveryInternalExportHasCaller): every exported
//     function, method and constant under internal/ is referenced from a
//     non-test file of the root module or of bench/. A method also counts
//     as used when its type satisfies an interface that has it, the
//     stdlib's implicit ones (fmt.Stringer, error, json.Marshaler)
//     included. It honours the same lint:ignore comments.
//
// # Suppressing a finding
//
// A deliberate exception is silenced with a staticcheck-style comment on
// the flagged line or the line directly above it:
//
//	//lint:ignore <analyzer> <reason why this is safe>
//
// The reason is mandatory; a bare //lint:ignore is itself reported. Several
// names may be given comma-separated. Suppressions are honoured by both the
// analysistest harness and cmd/sizelessvet, so every exception is grepable
// and carries its justification next to the code.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite would port to the
// upstream driver mechanically.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:ignore comments.
	Name string
	// Doc is the one-paragraph invariant statement shown by -list.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.Path() }

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding inside a package, positioned by token.Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: position translated through the file
// set and attributed to its analyzer — the unit cmd/sizelessvet prints and
// analysistest matches against // want comments.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package, resolves positions, drops
// findings silenced by a well-formed lint:ignore comment, and reports
// malformed suppressions. Findings come back sorted by file, line, column,
// then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		sup, malformed := suppressions(pkg)
		out = append(out, malformed...)
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				posn := pkg.Fset.Position(d.Pos)
				if sup.covers(a.Name, posn) {
					continue
				}
				out = append(out, Finding{Analyzer: a.Name, Pos: posn, Message: d.Message})
			}
		}
	}
	sortFindings(out)
	return out, nil
}

// sortFindings orders findings by file, line, column, then analyzer name.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignorePrefix is the suppression marker, staticcheck-compatible so editors
// already highlight it.
const ignorePrefix = "lint:ignore"

// suppressionIndex records, per file and line, which analyzers a
// lint:ignore comment silences. A comment covers its own line and the line
// below it (comment-above-the-statement, the common form).
type suppressionIndex map[string]map[int]map[string]bool

func (s suppressionIndex) covers(analyzer string, posn token.Position) bool {
	lines := s[posn.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{posn.Line, posn.Line - 1} {
		if names := lines[line]; names[analyzer] || names["all"] {
			return true
		}
	}
	return false
}

// suppressions indexes every lint:ignore comment in the package and
// reports malformed ones (no analyzer name, or no reason) as findings under
// the pseudo-analyzer name "lint".
func suppressions(pkg *Package) (suppressionIndex, []Finding) {
	idx := make(suppressionIndex)
	var malformed []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				names, reason, _ := strings.Cut(rest, " ")
				if names == "" || strings.TrimSpace(reason) == "" {
					malformed = append(malformed, Finding{
						Analyzer: "lint",
						Pos:      posn,
						Message:  "malformed lint:ignore: want \"//lint:ignore <analyzer>[,<analyzer>] <reason>\" — the reason is mandatory",
					})
					continue
				}
				fileLines := idx[posn.Filename]
				if fileLines == nil {
					fileLines = make(map[int]map[string]bool)
					idx[posn.Filename] = fileLines
				}
				lineNames := fileLines[posn.Line]
				if lineNames == nil {
					lineNames = make(map[string]bool)
					fileLines[posn.Line] = lineNames
				}
				for _, n := range strings.Split(names, ",") {
					lineNames[strings.TrimSpace(n)] = true
				}
			}
		}
	}
	return idx, malformed
}
