package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the heap high-water mark: a background goroutine reads
// the live heap every 2ms and keeps the maximum since the last reset. The
// live heap is what the last GC cycle marked (runtime/metrics, no
// stop-the-world); it changes once per cycle, so a 2ms sampler sees every
// cycle's value. The heap including not-yet-collected garbage peaks at
// about twice that under GOGC=100, but at the instant before a collection,
// which a sampler catches only by chance: at this program's allocation
// rates its reading moved by up to a third between units of one run.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset starts a new high-water window at the current heap size.
func (h *heapSampler) reset() {
	h.peak.Store(0)
	h.sample()
}

// high returns the high-water mark since the last reset.
func (h *heapSampler) high() uint64 {
	h.sample()
	return h.peak.Load()
}

// close stops the sampling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// runtimeNames are the runtime/metrics read around every unit.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runtimeUse sums runtime/metrics deltas over measured units, so the
// collections the benchmark forces between units are not counted.
type runtimeUse struct {
	sums    []float64 // per runtimeNames entry; the histogram's stays 0
	latency []uint64  // scheduler-latency histogram deltas per bucket
	buckets []float64
}

// add folds one unit's readings taken before and after it.
func (u *runtimeUse) add(before, after []metrics.Sample) {
	if u.sums == nil {
		u.sums = make([]float64, len(runtimeNames))
	}
	for i := range after {
		switch after[i].Value.Kind() {
		case metrics.KindUint64:
			u.sums[i] += float64(after[i].Value.Uint64() - before[i].Value.Uint64())
		case metrics.KindFloat64:
			u.sums[i] += after[i].Value.Float64() - before[i].Value.Float64()
		case metrics.KindFloat64Histogram:
			a, b := after[i].Value.Float64Histogram(), before[i].Value.Float64Histogram()
			if u.latency == nil {
				u.latency, u.buckets = make([]uint64, len(a.Counts)), a.Buckets
			}
			for j := range a.Counts {
				u.latency[j] += a.Counts[j] - b.Counts[j]
			}
		}
	}
}

// metrics renders the runtime per-layer metrics for units that completed
// ops operations.
func (u *runtimeUse) metrics(ops int) map[string]metric {
	if u.sums == nil {
		u.sums = make([]float64, len(runtimeNames))
	}
	gcCPU, totalCPU, idleCPU := u.sums[0], u.sums[1], u.sums[2]
	perOp := func(v float64) float64 { return v / float64(max(ops, 1)) }
	return map[string]metric{
		"gc.rt_cpu_share":       {ratio(gcCPU, totalCPU-idleCPU), "ratio"},
		"gc.alloc_bytes_per_op": {perOp(u.sums[3]), "B/op"},
		"gc.allocs_per_op":      {perOp(u.sums[4]), "allocs/op"},
		"gc.cycles":             {u.sums[5], "count"},
		"sync.mutex_wait_s":     {u.sums[6], "s"},
		"sched.latency_us_p99":  {histQuantile(u.latency, u.buckets, 0.99) * 1e6, "us"},
	}
}

// histQuantile is the q-quantile of a runtime histogram's bucket counts,
// read as the upper edge of the bucket it falls in (the lower edge for the
// open top bucket); 0 for no observations.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the midpoint median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// calibrate times a fixed pure-CPU kernel (a splitmix64 chain, no memory
// traffic, no allocation) three times and returns the fastest, in
// milliseconds. Comparing it across invocations shows a noisy neighbour or
// a slower host, independently of the program under test.
func calibrate() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(rep)
		for i := 0; i < 5_000_000; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			x ^= z ^ (z >> 31)
		}
		calibSink.Store(x)
		best = math.Min(best, float64(time.Since(start))/float64(time.Millisecond))
	}
	return best
}

// calibSink keeps the calibration kernel's result live.
var calibSink atomic.Uint64
