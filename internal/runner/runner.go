// Package runner is the parallel execution engine for the measurement
// pipeline: a bounded worker pool that shards an indexed workload across N
// goroutines and merges results deterministically.
//
// Determinism contract: Map(workers, n, fn) returns exactly
// [fn(0), fn(1), ..., fn(n-1)] — each result is stored at its input index,
// so the merged slice is identical for every worker count, including
// workers=1. Callers keep reports bit-for-bit reproducible by (a) deriving
// any randomness inside fn(i) from the task's own identity (index, address,
// vantage key) rather than from call order, and (b) reducing the returned
// slice in index order. The pool itself adds no ordering of its own: work
// items are handed out through a single atomic counter (natural
// backpressure — a worker takes a new index only when it finishes the
// previous one) and the pool always joins every worker before returning, so
// no goroutines outlive the call.
//
// Telemetry: when the context carries an obs.Recorder, MapCtx instruments
// the pool — task counts and pool-wide virtual busy time (deterministic),
// plus worker counts, in-flight high-water marks and per-worker task/busy
// shares (volatile; their split across workers depends on scheduling).
// Each worker goroutine records into its own shard registry (installed via
// obs.WithMetricsRegistry, so instrumented code deep in the task sees it
// through obs.Metrics) and the shards fold into the study registry with
// Registry.Merge after the pool joins — the same positional-merge
// discipline as results, which removes cross-worker contention on hot
// counters without changing any merged total. MapCtx also feeds the
// recorder's progress Phase named after the pool (done/total task counts
// for the /progress endpoint). Name the pool with obs.WithPool before
// calling. Map stays uninstrumented: it has no context to carry a
// recorder.
package runner

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"dnsencryption.info/doe/internal/obs"
)

// Map runs fn(i) for every i in [0, n) on at most `workers` goroutines and
// returns the results in input order. workers <= 1 degenerates to a serial
// loop on the calling goroutine; workers is clamped to n so short workloads
// never spawn idle goroutines. Map returns only after every worker has
// exited.
//
//doelint:ctxroot -- context-free convenience entry point; a background context carries no recorder, so the pool stays uninstrumented
func Map[T any](workers, n int, fn func(i int) T) []T {
	out, _ := MapCtx(context.Background(), workers, n, func(_ context.Context, i int) T { return fn(i) })
	return out
}

// poolMeters carries the pool-wide instruments one MapCtx call records
// into; the zero value (telemetry off) is inert. The in-flight ledger and
// worker-count gauge stay on the parent registry — they are inherently
// cross-worker — while everything a task records goes through a worker's
// shard registry (workerMeters) and folds back at join.
type poolMeters struct {
	enabled     bool
	pool        string
	parent      *obs.Registry
	phase       *obs.Phase // live done/total progress for /progress
	inflightMax *obs.Gauge // volatile
	inflight    atomic.Int64
	shards      []*obs.Registry // one per worker goroutine; folded at join
}

func newPoolMeters(ctx context.Context, workers, n int) *poolMeters {
	reg := obs.Metrics(ctx)
	if reg == nil {
		return &poolMeters{}
	}
	pool := obs.PoolName(ctx, "pool")
	m := &poolMeters{
		enabled:     true,
		pool:        pool,
		parent:      reg,
		phase:       obs.FromContext(ctx).Phase(pool),
		inflightMax: reg.VolatileGauge("runner_inflight_max", "pool", pool),
	}
	m.phase.AddTotal(int64(n))
	// Max, not Set: one pool name may serve several MapCtx calls (both
	// campaign platforms share "campaign"), so keep the high-water mark.
	reg.VolatileGauge("runner_workers", "pool", pool).Max(int64(workers))
	return m
}

// workerMeters is one worker goroutine's recording surface: a shard
// registry all task-side metrics land in, contention-free, plus the
// counter handles resolved once per worker. The serial path records
// straight into the parent registry (shard == parent, nothing to fold).
type workerMeters struct {
	shard       *obs.Registry
	tasks       *obs.Counter // deterministic: pool-wide task count
	workerTasks *obs.Counter // volatile: this worker's share
}

// workerCtx builds the per-worker context: a shard registry override (so
// obs.Metrics(ctx) inside the task resolves shard-local instruments), the
// busy-time sink, and the per-worker task counter. Deterministic families
// (runner_tasks_total, runner_virtual_busy_us_total) are recorded in the
// shard too; counter merges are plain addition, so the folded totals are
// identical to what shared counters would have accumulated.
func (m *poolMeters) workerCtx(ctx context.Context, worker int, sharded bool) (context.Context, *workerMeters) {
	if !m.enabled {
		return ctx, nil
	}
	reg := m.parent
	if sharded {
		reg = obs.NewRegistry()
		m.shards[worker] = reg
		ctx = obs.WithMetricsRegistry(ctx, reg)
	}
	w := strconv.Itoa(worker)
	total := reg.Counter("runner_virtual_busy_us_total", "pool", m.pool)
	busy := reg.VolatileCounter("runner_worker_virtual_busy_us", "pool", m.pool, "worker", w)
	wm := &workerMeters{
		shard:       reg,
		tasks:       reg.Counter("runner_tasks_total", "pool", m.pool),
		workerTasks: reg.VolatileCounter("runner_worker_tasks", "pool", m.pool, "worker", w),
	}
	return obs.WithWorkerSink(ctx, total, busy), wm
}

func (m *poolMeters) taskStart(wm *workerMeters) {
	if !m.enabled {
		return
	}
	wm.tasks.Add(1)
	wm.workerTasks.Add(1)
	m.inflightMax.Max(m.inflight.Add(1))
}

func (m *poolMeters) taskEnd() {
	if !m.enabled {
		return
	}
	m.inflight.Add(-1)
	m.phase.Done(1)
}

// fold merges every worker shard into the parent registry, in worker
// order. Merge is associative and commutative, so the order is a
// convention (matching the positional result merge), not a correctness
// requirement; any fold tree yields byte-identical snapshots.
func (m *poolMeters) fold() error {
	if !m.enabled {
		return nil
	}
	var errs []error
	for _, shard := range m.shards {
		if shard == nil {
			continue
		}
		if err := m.parent.Merge(shard); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, workers
// stop taking new indices and MapCtx returns ctx.Err() alongside the
// partial results (indices that never ran hold T's zero value). In-flight
// fn calls are not interrupted — fn observes ctx itself if it wants
// mid-task cancellation — but the pool still joins every worker before
// returning, so shutdown leaks no goroutines.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	if err := pool(ctx, clampWorkers(workers, n), n, func(ctx context.Context, _, i int) { out[i] = fn(ctx, i) }); err != nil {
		return out, errors.Join(ctx.Err(), err)
	}
	return out, ctx.Err()
}

// clampWorkers bounds the worker count to [1, n].
func clampWorkers(workers, n int) int {
	return max(1, min(workers, n))
}

// pool is the one worker-pool loop behind MapCtx and MapReduceCtx: it runs
// task(ctx, w, i) for every i in [0, n) on `workers` goroutines (already
// clamped to [1, n]; 1 runs serially on the calling goroutine), where w is
// the worker running the task. Indices are handed out through a single
// atomic counter; once ctx is done workers stop taking new ones. The pool
// joins every worker, then folds the worker shard registries into the
// study registry — the positional merge point — and returns the fold's
// error. Callers report ctx.Err() themselves.
func pool(ctx context.Context, workers, n int, task func(ctx context.Context, w, i int)) error {
	meters := newPoolMeters(ctx, workers, n)
	if workers == 1 {
		sctx, wm := meters.workerCtx(ctx, 0, false)
		for i := 0; i < n && ctx.Err() == nil; i++ {
			meters.taskStart(wm)
			task(sctx, 0, i)
			meters.taskEnd()
		}
		return nil
	}
	meters.shards = make([]*obs.Registry, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx, wm := meters.workerCtx(ctx, w, true)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				meters.taskStart(wm)
				task(wctx, w, i)
				meters.taskEnd()
			}
		}(w)
	}
	wg.Wait()
	return meters.fold()
}
