// Command bench is the repository's end-to-end and per-layer benchmark. It
// drives four workloads through the public entry points of serve,
// recommender, core, optimizer, harness and the root sizeless API, checks
// every output against an oracle, and prints one JSON result line per
// workload:
//
//	bash bench/run.sh --workload ingest-http --seed 1 --seconds 20 --trace 0
//
// See bench/README.md for the workloads, the metrics and the paired-run
// recipe.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload;
// perLayer are those of a traced run. BENCHMARK.json lists the same names
// and units (TestBenchmarkJSONMatchesCatalog). The end-to-end timings are
// at the reference host speed (speed.go); their wall-clock values are the
// wall.* metrics. The latency tail is end-to-end but sits with the traced
// metrics: with about ten samples beyond it, its run-to-run spread
// reaches past the largest bound the end-to-end list may carry.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"latency_p50_ms", "ms"},
		{"throughput_per_s", "1/s"},
		{"live_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"wall.setup_s", "s"},
		{"wall.latency_p50_ms", "ms"},
		{"wall.throughput_per_s", "1/s"},
		{"host.probe_us", "us"},
		{"latency_tail_ms", "ms"},
		{"loadgen.lag_tail_ms", "ms"},
		{"loadgen.sent", "count"},
		{"serve.post_us", "us"},
		{"serve.decode_us", "us"},
		{"serve.decode_mb_s", "MB/s"},
		{"serve.encode_us", "us"},
		{"serve.http_self_us", "us"},
		{"serve.commit_wait_us", "us"},
		{"serve.queue_depth_max", "count"},
		{"serve.rejected", "count"},
		{"serve.fleet_read_us", "us"},
		{"serve.snapshot_ms", "ms"},
		{"recommender.ingest_us", "us"},
		{"recommender.recommend_batch_us", "us"},
		{"recommender.self_us", "us"},
		{"recommender.drift_checks", "count"},
		{"recommender.recomputes", "count"},
		{"recommender.recompute_share", "fraction"},
		{"recommender.changed_share", "fraction"},
		{"monitoring.drift_us", "us"},
		{"monitoring.summarize_us", "us"},
		{"core.predict_us", "us"},
		{"core.predict_batch_us_per_row", "us"},
		{"core.train_s", "s"},
		{"core.train_row_epochs_per_s", "1/s"},
		{"optimizer.optimize_us", "us"},
		{"harness.generate_s", "s"},
		{"harness.sim_invocations_per_s", "1/s"},
		{"quality.optimal_share", "fraction"},
		{"quality.top2_share", "fraction"},
		{"quality.speedup_pct", "%"},
		{"quality.cost_change_pct", "%"},
		{"go.gc_cpu_share", "fraction"},
		{"trace.coverage", "fraction"},
	}
)

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	// e2e holds the end-to-end metrics; layers the per-layer ones, filled
	// only by a traced run. A layer the workload does not exercise is
	// reported as 0.
	e2e    map[string]float64
	layers map[string]float64
	// windows holds, for each timed end-to-end metric, when it was
	// measured.
	windows map[string]interval
	// notes are human-readable context lines (percentile used, sample
	// counts); problems are oracle failures, which make the run incorrect.
	notes    []string
	problems []string
	spans    []span
}

// interval is a stretch of wall-clock time.
type interval struct{ from, to time.Time }

// since is the interval from t until now.
func since(t time.Time) interval { return interval{t, time.Now()} }

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, windows: map[string]interval{}}
}

// timed stores an end-to-end timing measured over w.
func (o *outcome) timed(name string, v float64, w interval) {
	o.e2e[name] = v
	o.windows[name] = w
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// setTiming stores the median and tail of a latency sample taken over w.
func (o *outcome) setTiming(what string, t timing, w interval) {
	o.timed("latency_p50_ms", ms(t.P50), w)
	o.layers["latency_tail_ms"] = ms(t.Tail)
	o.notef("%s latency: p50 %.3f ms, p%g %.3f ms, n=%d", what, ms(t.P50), 100*t.TailPct, ms(t.Tail), t.N)
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   *tracer
	sc      scale
	dir     string // scratch directory: snapshots, span files, results
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

// workloads are the workloads BENCHMARK.json lists, in its order.
var workloads = []workload{
	{"ingest-http", runIngestHTTP},
	{"ingest-shift", runIngestShift},
	{"recommend-http", runRecommendHTTP},
	{"offline-pipeline", runOfflinePipeline},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// deadline caps one workload run, set-up included, so a hang fails the run
// instead of stalling whoever waits for it.
const deadline = 170 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := strings.Join(workloadNames(), ", ")
	name := fs.String("workload", "", "workload to run: "+names+", or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span file and layer table")
	dir := fs.String("dir", filepath.Join(".bench_build", "bench"), "directory for snapshots, span files and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s, or all)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	code := 0
	for _, w := range selected {
		n := w.name
		cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, sc: defaultScale(), dir: *dir}
		if *traceFlag == 1 {
			cfg.trace = newTracer()
		}
		wctx, cancel := context.WithTimeout(ctx, deadline)
		// A workload stuck past its deadline, however it got stuck, still
		// ends the process, with the stacks that show where.
		watchdog := time.AfterFunc(deadline+5*time.Second, func() {
			fmt.Fprintf(stderr, "bench: %s did not stop at its deadline\n", n)
			_ = pprof.Lookup("goroutine").WriteTo(stderr, 2)
			os.Exit(3)
		})
		out, err := measure(wctx, w, cfg)
		watchdog.Stop()
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if err := report(stdout, n, cfg, out); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if len(out.problems) > 0 {
			code = 1
		}
	}
	return code
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult selects the metrics of the run's kind: end-to-end for an
// untraced run, per-layer for a traced one.
func buildResult(out *outcome, traced bool) (result, error) {
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layers
	}
	r := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !traced && !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return r, nil
}

// report prints the human-readable lines, writes the span file of a traced
// run, and ends with the JSON result line.
func report(w io.Writer, name string, cfg config, out *outcome) error {
	traced := cfg.trace != nil
	res, err := buildResult(out, traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %.0f  trace %v\n", name, cfg.seed, cfg.seconds.Seconds(), traced)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_share %.4f\n", out.attempted, out.failed, float64(out.failed)/float64(out.attempted))
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, out.e2e[d.name], d.unit)
	}
	if traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, out.layers[d.name], d.unit)
		}
		table := layerTable(out.spans)
		printLayerTable(w, table)
		path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
		if err := writeTrace(path, out.spans, table); err != nil {
			return err
		}
		fmt.Fprintf(w, "  spans: %s (%d spans)\n", path, len(out.spans))
	}
	if err := overhead(w, name, cfg, out); err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "  ORACLE FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// overhead keeps the end-to-end numbers of the latest untraced run per
// workload and seed, and a traced run prints its own numbers minus them:
// the tracing overhead.
func overhead(w io.Writer, name string, cfg config, out *outcome) error {
	path := filepath.Join(cfg.dir, fmt.Sprintf("untraced-%s-seed%d.json", name, cfg.seed))
	if cfg.trace == nil {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return err
		}
		b, err := json.Marshal(out.e2e)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Fprintf(w, "  tracing overhead: no untraced run with seed %d to compare against\n", cfg.seed)
		return nil
	}
	if err != nil {
		return err
	}
	var untraced map[string]float64
	if err := json.Unmarshal(b, &untraced); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintln(w, "  tracing overhead (traced − untraced):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "    %-30s %+14.4f %s\n", d.name, out.e2e[d.name]-untraced[d.name], d.unit)
	}
	return nil
}
