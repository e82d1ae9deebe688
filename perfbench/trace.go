package main

import (
	"strings"
	"sync"
	"time"
)

// This file holds the benchmark's own spans and counts, recorded around
// the public calls into each layer on the traced pass. Workers record into
// a private spanBuf and hand it to the tracer when they finish, so the hot
// path takes no lock.

// spanNames are the timed boundaries. The suffix names the reporting unit.
var spanNames = []string{
	"scanner.round_s", "core.set_round_ms",
	"proxy.acquire_us", "vantage.visit_ms",
	"lookup.dns_us", "lookup.dot_us", "lookup.doh_us", "lookup.doq_us",
	"vantage.fold_us",
}

// countNames are the traced counts.
var countNames = []string{
	"scanner.port_open", "scanner.resolvers",
	"lookup.failed.dns", "lookup.failed.dot", "lookup.failed.doh", "lookup.failed.doq",
	"lookup.retries", "vantage.skipped",
}

// spanBuf is one worker's span durations by name.
type spanBuf map[string][]time.Duration

func (b spanBuf) add(name string, d time.Duration) { b[name] = append(b[name], d) }

// tracer collects spans and counts from every worker of the traced pass.
type tracer struct {
	mu     sync.Mutex
	spans  spanBuf
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{spans: make(spanBuf), counts: make(map[string]float64)}
}

// merge folds one worker's spans into the tracer.
func (t *tracer) merge(b spanBuf) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, ds := range b {
		t.spans[name] = append(t.spans[name], ds...)
	}
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// metrics renders every span as median, p99 and sample count in the unit
// its name ends with, plus every count and the scanner yield. Spans and
// counts a workload never records report 0.
func (t *tracer) metrics() map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]metric)
	for _, name := range spanNames {
		unit := name[strings.LastIndexByte(name, '_')+1:]
		scale := map[string]float64{"s": 1e9, "ms": 1e6, "us": 1e3}[unit]
		xs := make([]float64, len(t.spans[name]))
		for i, d := range t.spans[name] {
			xs[i] = float64(d) / scale
		}
		out[name+".p50"] = metric{median(xs), unit}
		out[name+".p99"] = metric{quantile(xs, 0.99), unit}
		out[name+".n"] = metric{float64(len(xs)), "count"}
	}
	for _, name := range countNames {
		out[name] = metric{t.counts[name], "count"}
	}
	out["scanner.yield"] = metric{ratio(t.counts["scanner.resolvers"], t.counts["scanner.port_open"]), "ratio"}
	return out
}
