// Package fngen implements the synthetic function generator of paper §3.1.
// It randomly combines catalog segments into Lambda-handler-shaped
// functions, guarantees no duplicate function is ever produced (via a
// behaviour hash ledger), and emits the deployment artifacts the paper's
// generator produces: a SAM template plus setup/teardown scripts for every
// managed service the function touches.
package fngen

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sizeless/internal/segments"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// Options configures generation.
type Options struct {
	// MinSegments/MaxSegments bound how many segments a function combines.
	// Defaults: 1 and 4.
	MinSegments int
	MaxSegments int
	// Catalog overrides the segment catalog (nil = segments.Catalog()).
	Catalog []segments.Segment
}

func (o Options) withDefaults() Options {
	if o.MinSegments <= 0 {
		o.MinSegments = 1
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 4
	}
	if o.MaxSegments < o.MinSegments {
		o.MaxSegments = o.MinSegments
	}
	if o.Catalog == nil {
		o.Catalog = segments.Catalog()
	}
	return o
}

// Generator produces unique synthetic functions. Construct with New.
type Generator struct {
	opts Options
	rng  *xrand.Stream
	seen map[string]bool
	next int
}

// New returns a Generator drawing from rng.
func New(rng *xrand.Stream, opts Options) *Generator {
	return &Generator{
		opts: opts.withDefaults(),
		rng:  rng.Derive("fngen"),
		seen: make(map[string]bool),
	}
}

// ErrExhausted is returned when the generator cannot find a fresh function
// after many attempts (practically impossible with continuous parameters,
// but guarded to avoid an unbounded loop).
var ErrExhausted = errors.New("fngen: could not generate a unique function")

// Generate produces n unique functions.
func (g *Generator) Generate(n int) ([]*workload.Spec, error) {
	out := make([]*workload.Spec, 0, n)
	for i := 0; i < n; i++ {
		fn, err := g.GenerateOne()
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

// GenerateOne produces a single unique function. Uniqueness is by
// behaviour hash (workload.Spec.Hash), which ignores the assigned name.
func (g *Generator) GenerateOne() (*workload.Spec, error) {
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		spec := g.buildSpec()
		hash := spec.Hash()
		if g.seen[hash] {
			continue
		}
		g.seen[hash] = true
		spec.Name = fmt.Sprintf("synthetic-%04d", g.next)
		g.next++
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("fngen: generated invalid spec: %w", err)
		}
		return spec, nil
	}
	return nil, ErrExhausted
}

// buildSpec draws a random segment combination and instantiates it.
func (g *Generator) buildSpec() *workload.Spec {
	catalog := g.opts.Catalog
	k := g.drawSegmentCount()
	if k > len(catalog) {
		k = len(catalog)
	}
	perm := g.rng.Perm(len(catalog))[:k]

	spec := &workload.Spec{
		SegmentNames: make([]string, 0, k),
		BaseHeapMB:   15, // Node.js runtime + handler scaffolding
		CodeMB:       1.5,
		PayloadKB:    g.rng.Uniform(0.5, 16),
		ResponseKB:   g.rng.Uniform(0.5, 8),
		NoiseCoV:     g.rng.Uniform(0.06, 0.20),
	}
	for _, idx := range perm {
		seg := catalog[idx]
		frag := seg.Build(g.rng)
		spec.SegmentNames = append(spec.SegmentNames, seg.Name)
		spec.Ops = append(spec.Ops, frag.Ops...)
		spec.BaseHeapMB += frag.HeapMB
		spec.CodeMB += frag.CodeMB
	}
	return spec
}

// drawSegmentCount picks how many segments to combine. The distribution is
// biased toward fewer segments so the population keeps plenty of extreme
// single-task profiles (pure CPU, pure wait) alongside the mixed ones —
// the corners of the feature space the regression model must cover.
func (g *Generator) drawSegmentCount() int {
	lo, hi := g.opts.MinSegments, g.opts.MaxSegments
	if lo >= hi {
		return lo
	}
	// Geometric-ish decay: each extra segment is half as likely.
	k := lo
	for k < hi && g.rng.Bernoulli(0.5) {
		k++
	}
	return k
}

// GeneratedCount reports how many unique functions this generator has
// produced so far.
func (g *Generator) GeneratedCount() int { return len(g.seen) }

// SAMTemplate renders the AWS SAM template.yaml the paper's generator emits
// for a function, parameterized by memory size.
func SAMTemplate(spec *workload.Spec, memoryMB int) string {
	var b strings.Builder
	b.WriteString("AWSTemplateFormatVersion: '2010-09-09'\n")
	b.WriteString("Transform: AWS::Serverless-2016-10-31\n")
	fmt.Fprintf(&b, "Description: Synthetic function %s (segments: %s)\n",
		spec.Name, strings.Join(spec.SegmentNames, ", "))
	b.WriteString("Resources:\n")
	fmt.Fprintf(&b, "  %s:\n", resourceName(spec.Name))
	b.WriteString("    Type: AWS::Serverless::Function\n")
	b.WriteString("    Properties:\n")
	b.WriteString("      Handler: monitored-lambda.handler\n")
	b.WriteString("      Runtime: nodejs12.x\n")
	fmt.Fprintf(&b, "      MemorySize: %d\n", memoryMB)
	b.WriteString("      Timeout: 900\n")
	b.WriteString("      Environment:\n")
	b.WriteString("        Variables:\n")
	fmt.Fprintf(&b, "          FUNCTION_HASH: %s\n", spec.Hash())
	b.WriteString("          METRICS_TABLE: !Ref MetricsTable\n")
	b.WriteString("  MetricsTable:\n")
	b.WriteString("    Type: AWS::Serverless::SimpleTable\n")
	return b.String()
}

// SetupScript aggregates the setup stanzas for every service the function
// uses, one per line, deduplicated and sorted for stable output.
func SetupScript(spec *workload.Spec) string {
	return scriptFor(spec, services.SetupScript)
}

// TeardownScript aggregates the teardown stanzas.
func TeardownScript(spec *workload.Spec) string {
	return scriptFor(spec, services.TeardownScript)
}

func scriptFor(spec *workload.Spec, stanza func(services.Kind) string) string {
	kinds := spec.Services()
	lines := make([]string, 0, len(kinds)+1)
	lines = append(lines, "#!/bin/sh", "set -eu")
	for _, k := range kinds {
		lines = append(lines, stanza(k))
	}
	sort.Strings(lines[2:])
	return strings.Join(lines, "\n") + "\n"
}

func resourceName(name string) string {
	var b strings.Builder
	upper := true
	for _, r := range name {
		switch {
		case r == '-' || r == '_':
			upper = true
		case upper:
			b.WriteString(strings.ToUpper(string(r)))
			upper = false
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
