// Command perfbench is the repository's benchmark: it runs one named
// workload against the serving stack, built from the library exactly as
// annaserve and annarouter configure it with their flag defaults, checks
// the outputs, and prints its metrics. Run it from the root of the
// repository through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload zipf-single --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics, measured from outside the program. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// preceded by a {"stamp": {...}} line recording the environment and the
// inputs. A failed correctness check exits with status 1. See README.md
// for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"anna/internal/simd"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: zipf-single, bulk-uniform or cluster-rw")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// The generator and the program share one process; give it every
	// CPU the process may use, whatever the environment says.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	c := &config{
		spec: spec, seed: *seed, trace: *traceOn == 1, setups: 3,
		seconds: time.Duration(*seconds * float64(time.Second)),
		logger:  slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	if c.trace {
		// The traced run reports set-up only split by layer.
		c.setups = 1
	}
	// Durable state lives in the checkout's build directory, on the
	// filesystem both sides of a comparison share.
	dir, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work directory: %v\n", err)
		os.Exit(1)
	}
	c.work = dir

	res, sys, err := execute(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !c.trace {
		// Only the serving stack is still referenced: the benchmark's
		// inputs went out of scope with execute. The second collection
		// empties the sync.Pool caches the first one moved aside.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		res.metrics["heap_mb"] = float64(m.HeapAlloc) / (1 << 20)
	}
	runtime.KeepAlive(sys)
	if err := sys.close(); err != nil {
		res.fail("shutting the stack down: %v", err)
	}

	res.stamp["seed"] = *seed
	res.stamp["nproc"] = nproc
	res.stamp["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.stamp["cpu"] = cpuModel()
	res.stamp["go"] = runtime.Version()
	res.stamp["simd"] = simd.Dispatch()
	defs := endToEnd
	if c.trace {
		defs = perLayer
		res.stamp["not_measured"] = absent[spec.Name]
	}
	out := report(res, defs)
	printHuman(res, defs)
	stamp, err := json.Marshal(map[string]any{"stamp": res.stamp})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding stamp: %v\n", err)
		os.Exit(1)
	}
	last, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(stamp))
	fmt.Println(string(last))
	if !res.correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report builds the final line: every metric of defs, by name with its
// unit. An end-to-end metric that was not measured, or is not a finite
// number, fails the run; a per-layer one whose layer the workload does
// not run reads 0 (the stamp says why).
func report(res *result, defs []metricDef) output {
	out := output{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok, v = false, 0
		}
		if !ok && d.Bound > 0 {
			res.fail("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	out.Correct = res.correct
	return out
}

// printHuman writes the metrics and any failed check to stderr; a
// per-layer metric comes with its layer and the end-to-end metric it
// should move, on which workload.
func printHuman(res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %-6s", d.Name, res.metrics[d.Name], d.Unit)
		if d.Layer != "" {
			fmt.Fprintf(os.Stderr, "  [%s] moves %s on %s", d.Layer, d.Moves, d.On)
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel returns the processor's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
