// Command perfbench is the repository's benchmark. It times what users
// of fetchphi run, from outside, through public functions and the
// observation-only hooks the packages already offer:
//
//   - sweep: the full claim-reproducing sweep (E1–E8, E10) to N=256,
//     its artifact fold and the claims evaluation;
//   - explore: an exhaustive K=2 model check of g-dsm at N=3 on CC
//     and DSM;
//   - native: contended acquire/release of the paper's G-CC lock on
//     real atomics, next to six reference locks.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep|explore|native --seed N --seconds S --trace 0|1
//
// sweep and explore repeat their fixed work until --seconds have
// passed; native makes a fixed number of rounds, 8 per second asked
// for. Only sweep takes --seed: it selects the experiments' scheduler
// seed family from those at which the sweep is known to pass (see
// perfbench/metrics.json). An untraced run prints the end-to-end
// metrics, each the median over the run's repetitions; a traced run
// prints the per-layer metrics listed in perfbench/metrics.json,
// including each layer's self time and the tracing overhead. The last line of standard output is
// one JSON object. Every run checks the workload's outputs and exits 1
// when any check fails.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

//go:embed metrics.json
var metricsJSON []byte

// catalog is perfbench/metrics.json: the per-layer metrics, with the
// end-to-end metric and workload each one should move, and the
// recorded sweep digests.
type catalog struct {
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		// Workloads are the workloads the metric applies to; on the
		// others it reads 0.
		Workloads []string `json:"workloads"`
		// Moves names the end-to-end metric and workload the metric
		// should move.
		Moves string `json:"moves"`
	} `json:"per_layer"`
	// SweepDigests maps an experiments seed to the digest the full
	// sweep must reproduce at that seed.
	SweepDigests map[string]string `json:"sweep_digests"`
	// SweepSeeds are the experiments seeds the sweep workload runs.
	SweepSeeds []int64 `json:"sweep_seeds"`
	// FailingSeeds are experiments seeds at which the full sweep of
	// this program fails: the experiments that show the failure, and
	// a part of its message.
	FailingSeeds map[string]struct {
		Experiments []string `json:"experiments"`
		Failure     string   `json:"failure"`
	} `json:"failing_seeds"`
}

// sweepSeed is the experiments seed the sweep workload runs for the
// workload seed n: SweepSeeds[n mod len(SweepSeeds)], so that seed 1,
// cmd/report's default, stays seed 1.
func (c catalog) sweepSeed(n int64) int64 {
	k := int64(len(c.SweepSeeds))
	return c.SweepSeeds[(n%k+k)%k]
}

func loadCatalog() catalog {
	var c catalog
	if err := json.Unmarshal(metricsJSON, &c); err != nil {
		panic(fmt.Sprintf("perfbench: metrics.json: %v", err)) // embedded at build time
	}
	return c
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"heap_mb", "MB"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// dir is a scratch directory inside the checkout for artifacts.
	dir string
	// workers is the number of busy threads a workload may use.
	workers int
	// out receives the workload's report lines.
	out io.Writer
}

// result is what a workload reports.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
}

var workloads = map[string]func(config) result{
	"sweep":   sweepWorkload,
	"explore": exploreWorkload,
	"native":  nativeWorkload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sweep, explore or native")
	seed := fs.Int64("seed", 1, "workload seed (sweep only; explore and native take none)")
	seconds := fs.Float64("seconds", 10, "measure for at least this long")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload sweep|explore|native, --seconds > 0 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cat := loadCatalog()
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir,
		workers: runtime.NumCPU(), out: stdout}
	res := w(cfg)

	out := map[string]metric{}
	if cfg.traced {
		res.metrics["fail_ratio"] = failRatio(res.failed, res.attempted)
		for _, m := range cat.PerLayer {
			out[m.Name] = metric{res.metrics[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out[m.name] = metric{res.metrics[m.name], m.unit}
		}
	}
	printMetrics(stdout, out)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed != 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// setupReps is how many set-ups one timing window times. It is kept
// small enough that a window's garbage does not start a collection.
const setupReps = 301

// The host's speed drifts over tenths of a second, so one window reads
// the speed of its moment. A run times setupWindows windows, each after
// setupGap of untimed set-ups, and reports the median over windows.
const (
	setupWindows = 30
	setupGap     = 50 * time.Millisecond
)

// timeSetup runs f untimed for setupGap to warm caches and the
// allocator, collects the garbage and times setupReps runs of f; it
// does so setupWindows times and returns the median over windows of
// each window's median duration, in seconds.
func timeSetup(f func()) float64 {
	ds := make([]float64, setupReps)
	windows := make([]float64, setupWindows)
	for w := range windows {
		for end := time.Now().Add(setupGap); time.Now().Before(end); {
			f()
		}
		runtime.GC()
		for i := range ds {
			t := time.Now()
			f()
			ds[i] = time.Since(t).Seconds()
		}
		windows[w] = median(ds)
	}
	return median(windows)
}

// repeat runs rep until cfg.seconds have passed, at least once. A
// traced run alternates untraced and traced repetitions, starting
// untraced, and runs at least one of each, so its tracing overhead
// compares like with like. The traced repetitions share one tracer,
// which repeat returns (nil for an untraced run).
func repeat(cfg config, rep func(tr *tracer)) *tracer {
	var shared *tracer
	if cfg.traced {
		shared = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = shared
		}
		rep(tr)
		if time.Since(start).Seconds() >= cfg.seconds && (!cfg.traced || i >= 1) {
			return shared
		}
	}
}

// traceMetrics adds the metrics every traced run reports: each layer's
// self time, the traced wall time the self times add up to, the span
// count and the tracing overhead. It returns an error when a span
// escapes its parent.
func traceMetrics(m map[string]float64, spans []span, traced, untraced []float64) error {
	if err := checkNesting(spans); err != nil {
		return err
	}
	for layer, d := range selfTimes(spans) {
		m["self_s."+layer] = d.Seconds()
	}
	var wall time.Duration
	for _, s := range spans {
		if s.parent < 0 {
			wall += s.end - s.start
		}
	}
	m["trace.wall_s"] = wall.Seconds()
	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_s"] = median(traced) - median(untraced)
	return nil
}
