// Command sizelessvet runs the repository's invariant-enforcing analyzer
// suite (internal/analysis): poolescape, boundedgo, determinism, ctxflow,
// and shardlock.
//
// Usage (the CI entry point — identical locally and in CI):
//
//	go run ./cmd/sizelessvet ./...
//	go run ./cmd/sizelessvet -only boundedgo,ctxflow ./internal/recommender
//	go run ./cmd/sizelessvet -list
//
// It exits 0 when the tree is clean, 1 when findings are reported, and 2
// on driver errors. Findings print as file:line:col: analyzer: message.
//
// Deliberate exceptions are suppressed in source with
// "//lint:ignore <analyzer> <reason>"; see internal/analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sizeless/internal/analysis"
	"sizeless/internal/analysis/boundedgo"
	"sizeless/internal/analysis/ctxflow"
	"sizeless/internal/analysis/determinism"
	"sizeless/internal/analysis/poolescape"
	"sizeless/internal/analysis/shardlock"
)

// suite is the full analyzer set, in report order.
var suite = []*analysis.Analyzer{
	boundedgo.Analyzer,
	ctxflow.Analyzer,
	determinism.Analyzer,
	poolescape.Analyzer,
	shardlock.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sizelessvet", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: sizelessvet [-list] [-only a,b] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := moduleDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sizelessvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("sizelessvet: unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// moduleDir walks up from the working directory to the go.mod root so
// `go run ./cmd/sizelessvet ./...` behaves the same from any subdirectory.
func moduleDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("sizelessvet: no go.mod found above working directory")
		}
		dir = parent
	}
}
