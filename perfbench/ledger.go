package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// This file is the per-layer CPU ledger, taken from outside the program: a
// runtime/pprof CPU profile of the traced pass, printed by the toolchain's
// `go tool pprof -traces`, with every sample charged to one layer.

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "dnsencryption.info/doe/internal/"

// moduleLayers are the repository packages that are layers of their own.
// Any other internal package (analysis, faults, ...) is not a layer, so its
// samples fall through to the nearest caller that is.
var moduleLayers = []string{
	"scanner", "geo", "netsim", "proxy",
	"certs",
	"dot", "doh", "doq", "dnsclient", "resolver", "dnswire", "dnsserver",
	"vantage", "workload", "runner", "obs", "bufpool", "core",
}

// layers lists every ledger row in report order: the module layers, tls
// (the standard library's crypto/*), the Go runtime split into gc and
// sched, and other for samples no frame of which maps to a layer.
var layers = append(append([]string{}, moduleLayers...), "tls", "gc", "sched", "other")

// gcFrames and schedFrames are runtime function-name prefixes charged to
// the gc and sched layers. Other runtime frames (mallocgc, memmove, map and
// channel internals) are not a layer: their cost belongs to the caller.
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.scanConservative",
	"runtime.greyobject", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.deductSweepCredit", "runtime.(*mheap).reclaim",
	"runtime.bgscavenge", "runtime.(*scavengerState)", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.typePointers", "runtime.findObject",
	"runtime._GC",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.goexit0", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.handoffp",
	"runtime.mPark", "runtime.notesleep", "runtime.notewakeup",
	"runtime.netpoll", "runtime.runqgrab", "runtime.runqsteal",
	"runtime.stealWork", "runtime.checkTimers", "runtime.sysmon",
	"runtime.retake", "runtime.goschedImpl", "runtime.gosched_m",
	"runtime.gopreempt_m", "runtime.newproc", "runtime.execute",
	"runtime.resetspinning", "runtime.injectglist", "runtime.(*timers)",
	"runtime.exitsyscall", "runtime.entersyscall", "runtime.reentersyscall",
	"runtime.mstart", "runtime.preemptone", "runtime.suspendG",
}

// framePackage returns the import path of a pprof function name:
// "crypto/tls.(*Conn).Handshake" → "crypto/tls". Type arguments of
// generic instantiations ("runner.MapReduceCtx[go.shape.*a/b.T]") may
// themselves hold paths, so they are cut off first.
func framePackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps one frame to its layer, or "" when the frame is not a
// layer's.
func layerOf(fn string) string {
	pkg := framePackage(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		name := strings.TrimPrefix(pkg, modulePrefix)
		for _, l := range moduleLayers {
			if name == l {
				return l
			}
		}
		return ""
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/") ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/crypto/") ||
		strings.HasPrefix(pkg, "golang.org/x/crypto/"):
		return "tls"
	case pkg == "runtime":
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		for _, p := range schedFrames {
			if strings.HasPrefix(fn, p) {
				return "sched"
			}
		}
	}
	return ""
}

// ledger is CPU time per layer from one profile.
type ledger struct {
	byLayer map[string]time.Duration
	total   time.Duration
}

// share is layer's fraction of the profile's CPU time.
func (l ledger) share(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.byLayer[layer]) / float64(l.total)
}

// parseTraces reads `go tool pprof -traces` text. Each trace is a
// separator line, then its value and innermost frame on one line, then one
// caller per line. A trace is charged to its innermost frame whose layer
// is known, or to other.
func parseTraces(r io.Reader) (ledger, error) {
	l := ledger{byLayer: make(map[string]time.Duration)}
	var (
		value   time.Duration
		layer   string
		inTrace bool
	)
	flush := func() {
		// A separator with no trace under it (pprof closes the listing
		// with one) charges nothing.
		if !inTrace || value < 0 {
			inTrace = false
			return
		}
		if layer == "" {
			layer = "other"
		}
		l.byLayer[layer] += value
		l.total += value
		inTrace, layer = false, ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inTrace = true
			value = -1
		case !inTrace || strings.TrimSpace(line) == "":
		case value < 0:
			// "      10ms   crypto/tls.(*Conn).Handshake"
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return l, fmt.Errorf("ledger: malformed trace head %q", line)
			}
			v, err := parseValue(fields[0])
			if err != nil {
				return l, err
			}
			value = v
			layer = layerOf(fields[1])
		case layer == "":
			layer = layerOf(strings.Fields(line)[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return l, fmt.Errorf("ledger: reading traces: %w", err)
	}
	if l.total == 0 {
		return l, fmt.Errorf("ledger: profile holds no samples")
	}
	return l, nil
}

// parseValue reads a pprof CPU value such as "10ms", "1.20s" or "500us".
func parseValue(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("ledger: value %q: %w", s, err)
			}
			return time.Duration(f * u.scale), nil
		}
	}
	return 0, fmt.Errorf("ledger: value %q has no time unit", s)
}

// profileLedger prints the CPU profile at path with the toolchain's pprof
// and charges it to layers.
func profileLedger(path string) (ledger, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return ledger{}, fmt.Errorf("ledger: go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(strings.NewReader(string(out)))
}
