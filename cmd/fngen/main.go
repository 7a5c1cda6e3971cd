// Command fngen is the synthetic function generator CLI (paper §3.1): it
// emits generated function descriptions, their SAM deployment templates,
// and the setup/teardown scripts for the managed services they use.
//
// Usage:
//
//	fngen -n 5 -seed 1            # print 5 generated functions
//	fngen -n 1 -template -mem 512 # also print the SAM template
//	fngen -n 1 -scripts           # also print setup/teardown scripts
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sizeless/internal/fngen"
	"sizeless/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fngen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fngen", flag.ContinueOnError)
	n := fs.Int("n", 3, "number of functions to generate")
	seed := fs.Int64("seed", 1, "generator seed")
	minSeg := fs.Int("min-segments", 1, "minimum segments per function")
	maxSeg := fs.Int("max-segments", 4, "maximum segments per function")
	template := fs.Bool("template", false, "print the SAM template per function")
	mem := fs.Int("mem", 256, "memory size for the SAM template (MB)")
	scripts := fs.Bool("scripts", false, "print setup/teardown scripts per function")
	if err := fs.Parse(args); err != nil {
		return err
	}

	gen := fngen.New(xrand.New(*seed), fngen.Options{
		MinSegments: *minSeg,
		MaxSegments: *maxSeg,
	})
	specs, err := gen.Generate(*n)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		fmt.Printf("%s  segments=[%s]  hash=%s\n",
			spec.Name, strings.Join(spec.SegmentNames, ","), spec.Hash()[:12])
		fmt.Printf("  heap=%.1fMB code=%.1fMB payload=%.1fKB ops=%d services=%v\n",
			spec.BaseHeapMB, spec.CodeMB, spec.PayloadKB, len(spec.Ops), spec.Services())
		if *template {
			fmt.Println("--- template.yaml ---")
			fmt.Print(fngen.SAMTemplate(spec, *mem))
		}
		if *scripts {
			fmt.Println("--- setup.sh ---")
			fmt.Print(fngen.SetupScript(spec))
			fmt.Println("--- teardown.sh ---")
			fmt.Print(fngen.TeardownScript(spec))
		}
	}
	return nil
}
