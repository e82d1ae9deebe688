package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// workload is one benchmark workload. Its units are numbered from 0, and
// unit k's inputs are a pure function of (seed, k): running unit k twice
// must give the same digest.
type workload interface {
	// build constructs the world unit k runs on. Its wall time is one
	// set-up sample.
	build(k int) error
	// perUnitWorld reports whether every unit runs on a world of its own,
	// built just before it, or all units share the first world built.
	perUnitWorld() bool
	// run executes unit k and checks its output; tr is nil on untraced
	// passes.
	run(k int, tr *tracer) outcome
	// close retires the current world, if any.
	close()
}

// outcome is what one unit did.
type outcome struct {
	ops      int    // operations completed: the throughput numerator
	tried    int    // fail_ratio denominator
	failures int    // fail_ratio numerator
	digest   string // hash of the unit's rendered output
	err      error  // the unit errored or failed an output check
}

// unitStat is one measured unit.
type unitStat struct {
	wall time.Duration
	cpu  time.Duration
	heap uint64
	rt0  []metrics.Sample // runtime metrics before and after the unit
	rt1  []metrics.Sample
	out  outcome
}

const (
	// sharedWorldBuilds is how often a shared world is built to sample
	// set-up time; the last build is the one measured. The scan world's
	// build time moved by a third between runs with three builds.
	sharedWorldBuilds = 5
	// minUnits is the fewest units a pass measures, however long they
	// take, so every median has at least this many samples.
	minUnits = 3
)

// bench runs one workload's units and keeps what the result needs.
type bench struct {
	w       workload
	heap    *heapSampler
	setup   []float64      // seconds per world build
	digests map[int]string // first digest seen per unit
	units   int            // units run and checked
	failed  int            // units that errored or failed a check
}

// build retires the current world and builds unit k's. The old world is
// collected first, so every build starts from the same heap.
func (b *bench) build(k int) error {
	b.w.close()
	runtime.GC()
	start := time.Now()
	if err := b.w.build(k); err != nil {
		return fmt.Errorf("building the world of unit %d: %w", k, err)
	}
	b.setup = append(b.setup, time.Since(start).Seconds())
	fmt.Fprintf(os.Stderr, "build %d: %.4fs\n", k, b.setup[len(b.setup)-1])
	return nil
}

// unit runs unit k and checks that its digest equals the one unit k
// produced before, if it ran before. The heap is collected first, so every
// unit starts from the same heap state.
func (b *bench) unit(k int, tr *tracer) unitStat {
	runtime.GC()
	b.heap.reset()
	rt0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	out := b.w.run(k, tr)
	wall, cpu := time.Since(start), processCPU()-cpu0
	st := unitStat{wall: wall, cpu: cpu, heap: b.heap.high(), rt0: rt0, rt1: readRuntime(), out: out}
	if ref, ok := b.digests[k]; !ok {
		b.digests[k] = out.digest
	} else if out.err == nil && ref != out.digest {
		st.out.err = fmt.Errorf("digest %.12s differs from the earlier run's %.12s", out.digest, ref)
	}
	b.units++
	fmt.Fprintf(os.Stderr, "unit %d: wall %.3fs cpu %.3fs ops %d heap %d allocs %d gcs %d fail %d/%d digest %.12s\n",
		k, st.wall.Seconds(), st.cpu.Seconds(), out.ops, st.heap,
		st.rt1[4].Value.Uint64()-rt0[4].Value.Uint64(), st.rt1[5].Value.Uint64()-rt0[5].Value.Uint64(),
		out.failures, out.tried, out.digest)
	if st.out.err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: unit %d: %v\n", k, st.out.err)
	}
	return st
}

// pass measures units 0, 1, 2, ... until their wall times add up to
// budget (and at least minUnits ran). World builds and the collections
// between units are not part of any unit's time.
func (b *bench) pass(budget time.Duration, tr *tracer) ([]unitStat, error) {
	var stats []unitStat
	var spent time.Duration
	for k := 0; spent < budget || k < minUnits; k++ {
		if b.w.perUnitWorld() {
			if err := b.build(k); err != nil {
				return nil, err
			}
		}
		st := b.unit(k, tr)
		stats = append(stats, st)
		spent += st.wall
	}
	return stats, nil
}

// run is one invocation: set-up, a warm-up unit, the untraced pass and,
// when traced, the traced pass with the CPU profile.
func run(w workload, name string, seed int64, budget time.Duration, traced bool, buildDir string) (*result, error) {
	defer w.close()
	calibStart := calibrate()
	b := &bench{w: w, heap: startHeapSampler(), digests: make(map[int]string)}
	defer b.heap.close()

	builds := 1
	if !w.perUnitWorld() {
		builds = sharedWorldBuilds
	}
	for i := 0; i < builds; i++ {
		if err := b.build(0); err != nil {
			return nil, err
		}
	}
	// Warm-up: unit 0 once, untimed, so caches fill and lazy set-up
	// finishes; it also fixes unit 0's reference digest.
	b.unit(0, nil)

	plainBudget := budget
	if traced {
		plainBudget = budget / 2
	}
	plain, err := b.pass(plainBudget, nil)
	if err != nil {
		return nil, err
	}

	var metrics map[string]metric
	ledgerOK := true
	if traced {
		tr := newTracer()
		led, tracedUnits, err := b.profiledPass(budget-plainBudget, tr,
			filepath.Join(buildDir, "prof", fmt.Sprintf("%s-seed%d.pprof", name, seed)))
		if err != nil {
			return nil, err
		}
		if err := ledgerCheck(name, led); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ledger check: %v\n", err)
			ledgerOK = false
		}
		metrics = tr.metrics()
		for _, l := range layers {
			metrics[l+".cpu_share"] = metric{led.share(l), "ratio"}
		}
		var use runtimeUse
		for _, u := range plain {
			use.add(u.rt0, u.rt1)
		}
		for k, v := range use.metrics(totalOps(plain)) {
			metrics[k] = v
		}
		metrics["trace.overhead"] = metric{ratio(medianRate(plain), medianRate(tracedUnits)), "ratio"}
	} else {
		metrics = endToEnd(b.setup, plain)
	}

	calibEnd := calibrate()
	if traced {
		metrics["host.calib_ms"] = metric{(calibStart + calibEnd) / 2, "ms"}
	}
	fmt.Printf("{\"host.calib_ms\": {\"start\": %.4f, \"end\": %.4f}}\n", calibStart, calibEnd)
	return &result{
		Correct:   b.failed == 0 && ledgerOK,
		Attempted: b.units,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

// profiledPass runs the traced pass under a CPU profile written to path and
// returns the profile's ledger.
func (b *bench) profiledPass(budget time.Duration, tr *tracer, path string) (ledger, []unitStat, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return ledger{}, nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return ledger{}, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return ledger{}, nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	units, err := b.pass(budget, tr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("writing the CPU profile: %w", cerr)
	}
	if err != nil {
		return ledger{}, nil, err
	}
	led, err := profileLedger(path)
	return led, units, err
}

// ledgerCheck holds the ledger to the shape the repository's profiles
// show: geo dominates the scan among the repository layers, and the
// DNS-only campaign spends next to nothing in geo and nothing in TLS. A
// failure here is a ledger bug, not a finding.
func ledgerCheck(name string, l ledger) error {
	switch name {
	case "scan":
		for _, layer := range append(append([]string{}, moduleLayers...), "tls") {
			if l.share(layer) > l.share("geo") {
				return fmt.Errorf("scan: %s.cpu_share %.3f exceeds geo's %.3f", layer, l.share(layer), l.share("geo"))
			}
		}
	case "campaign-dns":
		if g := l.share("geo"); g > 0.05 {
			return fmt.Errorf("campaign-dns: geo.cpu_share %.3f, want near zero", g)
		}
		if t := l.share("tls"); t != 0 {
			return fmt.Errorf("campaign-dns: tls.cpu_share %.4f, want zero", t)
		}
	}
	return nil
}

// endToEnd renders the untraced pass's end-to-end metrics: medians over
// units for the timings and the heap, a ratio over all units for failures.
func endToEnd(setup []float64, units []unitStat) map[string]metric {
	var rates, cpus, heaps []float64
	var tried, failures int
	for _, u := range units {
		ops := float64(max(u.out.ops, 1))
		rates = append(rates, float64(u.out.ops)/u.wall.Seconds())
		cpus = append(cpus, float64(u.cpu)/float64(time.Microsecond)/ops)
		heaps = append(heaps, float64(u.heap))
		tried += u.out.tried
		failures += u.out.failures
	}
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"ops_per_s":       {median(rates), "1/s"},
		"cpu_us_per_op":   {median(cpus), "us"},
		"heap_peak_bytes": {median(heaps), "bytes"},
		"fail_ratio":      {ratio(float64(failures), float64(tried)), "ratio"},
	}
}

func medianRate(units []unitStat) float64 {
	rates := make([]float64, len(units))
	for i, u := range units {
		rates[i] = float64(u.out.ops) / u.wall.Seconds()
	}
	return median(rates)
}

func totalOps(units []unitStat) int {
	n := 0
	for _, u := range units {
		n += u.out.ops
	}
	return n
}
