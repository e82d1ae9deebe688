// Command perfbench is the repository's end-to-end benchmark. One
// invocation builds one workload's world from a seed, times a fixed amount
// of work per unit through the program's public entry points until the
// time budget is spent, checks every unit's output, and prints one JSON
// object as the last line of standard output.
//
// Usage (from the repository root, normally through run.py, which builds
// this binary first):
//
//	perfbench --workload scan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (set-up time,
// throughput, CPU per operation, heap high-water, failure ratio). With
// --trace 1 the budget is split between an untraced and a traced pass and
// the result carries the per-layer metrics: the CPU-profile ledger, runtime
// deltas, the benchmark's own spans around public calls, and the tracing
// overhead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 20190501, "world seed (core.Config.Seed / core.ScaleConfig.Seed)")
		seconds  = flag.Float64("seconds", 20, "measured seconds (split between the untraced and traced pass with --trace 1)")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		buildDir = flag.String("build-dir", ".bench_build", "directory for CPU profiles")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(w.procs)
	res, err := run(w.make(*seed, w.procs), *name, *seed,
		time.Duration(*seconds*float64(time.Second)), *trace == 1, *buildDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
