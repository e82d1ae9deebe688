package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/scanner"
	"dnsencryption.info/doe/internal/vantage"
)

// Unit sizes: each unit takes two to four seconds on the reference host,
// so a pass measures several units and reports their median.
const (
	campaignDNSNodes = 8000
	campaignDoENodes = 800
)

// spec is how a workload runs: on how many cores (GOMAXPROCS, which is
// also the closed-loop worker count) and from which constructor.
type spec struct {
	procs int
	make  func(seed int64, workers int) workload
}

// workloads maps each workload name to its spec. The core counts were
// chosen by alternating one- and two-core runs of each workload on the
// 2-vCPU reference host, eight seeds each, so both saw the same host:
//   - scan and campaign-dns run on one core. campaign-dns hands work
//     between goroutines on every lookup; on two cores those hand-offs
//     became cross-core wake-ups that cost 70% more CPU per vantage, and
//     on a busy host two cores ran it 45% slower than one. The quartile
//     spread of ops_per_s was 0.04 on one core against 0.26 on two
//     (scan: 0.07 against 0.13).
//   - campaign-doe runs on two. It is handshake arithmetic with few
//     hand-offs, so the second core adds half again to throughput, and
//     spreading the work over both vCPUs halves the effect of one of them
//     slowing: its spread was 0.23 on two cores against 0.41 on one.
var workloads = map[string]spec{
	"scan": {1, func(seed int64, workers int) workload {
		return &scanWorkload{seed: seed, workers: workers}
	}},
	"campaign-dns": {1, func(seed int64, workers int) workload {
		return &campaignWorkload{seed: seed, workers: workers, nodes: campaignDNSNodes}
	}},
	"campaign-doe": {2, func(seed int64, workers int) workload {
		return &campaignWorkload{seed: seed, workers: workers, nodes: campaignDoENodes, allProtos: true}
	}},
}

// unitSeed derives unit k's world seed from the benchmark seed (splitmix64),
// so units of one seed and units of neighbouring seeds draw unrelated
// worlds.
func unitSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// scanWorkload is §3 DoT discovery on the default study world. Unit k is
// scan round k mod ScanRounds: SetScanRound, then one full sweep and probe
// round through Scanner.ScanContext.
type scanWorkload struct {
	seed    int64
	workers int
	study   *core.Study
}

func (w *scanWorkload) perUnitWorld() bool { return false }

func (w *scanWorkload) build(int) error {
	cfg := core.DefaultConfig()
	cfg.Seed = w.seed
	cfg.Workers = w.workers
	s, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	w.study = s
	return nil
}

func (w *scanWorkload) run(k int, tr *tracer) outcome {
	s := w.study
	r := k % s.ScanRounds
	start := time.Now()
	s.SetScanRound(r)
	set := time.Now()
	res, err := s.Scanner.ScanContext(context.Background(), s.ScanLabels[r])
	end := time.Now()
	if err != nil {
		return outcome{err: fmt.Errorf("scan round %d: %w", r, err)}
	}
	if tr != nil {
		tr.merge(spanBuf{"core.set_round_ms": {set.Sub(start)}, "scanner.round_s": {end.Sub(set)}})
		tr.count("scanner.port_open", float64(res.PortOpen))
		tr.count("scanner.resolvers", float64(len(res.Resolvers)))
	}
	out := outcome{
		ops:      int(res.ProbedAddrs),
		tried:    int(res.ProbedAddrs),
		failures: res.PortOpen - len(res.Resolvers),
		digest:   digest(renderScan(res)),
	}
	if want := uint64(1) << s.ScanSpaceBits; res.ProbedAddrs != want {
		out.err = fmt.Errorf("scan round %d probed %d addresses, want %d", r, res.ProbedAddrs, want)
	} else if want := s.ActiveResolverCount(r); len(res.Resolvers) < want {
		out.err = fmt.Errorf("scan round %d found %d resolvers, want at least %d", r, len(res.Resolvers), want)
	}
	return out
}

// renderScan is a scan round's output, one resolver per line.
func renderScan(res *scanner.Result) string {
	b := fmt.Appendf(nil, "%s probed=%d open=%d optout=%d virtual=%s\n",
		res.Label, res.ProbedAddrs, res.PortOpen, res.SkippedOptOut, res.VirtualDuration)
	for _, r := range res.Resolvers {
		b = fmt.Appendf(b, "%s %q %q %s %d %t %s\n", r.Addr, r.Provider, r.CommonName,
			r.CertStatus, r.NotAfter.Unix(), r.AnswerCorrect, r.Country)
	}
	return string(b)
}

func (w *scanWorkload) close() {
	if w.study != nil {
		closeStreams(w.study.World)
		w.study = nil
	}
}

// campaignWorkload is the §4.2 streaming reachability campaign over
// generated vantages (core.ScaleCampaign): DNS only, or the full
// DNS/DoT/DoH/DoQ matrix. Unit k is one whole campaign on its own world.
type campaignWorkload struct {
	seed      int64
	workers   int
	nodes     int
	allProtos bool
	c         *core.ScaleCampaign
}

func (w *campaignWorkload) perUnitWorld() bool { return true }

func (w *campaignWorkload) build(k int) error {
	c, err := core.NewScaleCampaign(core.ScaleConfig{
		Seed: unitSeed(w.seed, k), Nodes: w.nodes, Workers: w.workers, AllProtos: w.allProtos,
	})
	if err != nil {
		return err
	}
	w.c = c
	return nil
}

func (w *campaignWorkload) run(k int, tr *tracer) outcome {
	var (
		stats *vantage.CampaignStats
		err   error
	)
	if tr == nil {
		stats, err = w.c.Run(context.Background())
	} else {
		stats, err = tracedCampaign(w.c, w.workers, tr)
	}
	if err != nil {
		return outcome{err: fmt.Errorf("campaign %d: %w", k, err)}
	}
	failed := stats.Dropped
	for _, t := range stats.Cells {
		failed += t.Failed
	}
	out := outcome{ops: w.nodes, tried: stats.Lookups, failures: failed, digest: digest(w.c.Report(stats))}
	protos := 1
	if w.allProtos {
		protos = 4
	}
	switch {
	case stats.Nodes+stats.Skipped != w.nodes:
		out.err = fmt.Errorf("campaign %d: %d measured + %d skipped vantages, want %d", k, stats.Nodes, stats.Skipped, w.nodes)
	case stats.Lookups != stats.Nodes*protos:
		out.err = fmt.Errorf("campaign %d: %d lookups over %d vantages, want %d each", k, stats.Lookups, stats.Nodes, protos)
	case w.c.Network.ActiveCount() != 0:
		out.err = fmt.Errorf("campaign %d: %d vantages still installed after the campaign", k, w.c.Network.ActiveCount())
	}
	return out
}

func (w *campaignWorkload) close() {
	closeScale(w.c)
	w.c = nil
}

// closeScale retires a scale world. ScaleCampaign.Close shuts the proxy
// platform down but leaves the resolver's stream services (port 53, and
// DoT/DoH on 853/443) accepting, so every closed world would stay
// reachable from a parked accept goroutine and the heap would grow by one
// dead world per unit.
func closeScale(c *core.ScaleCampaign) {
	if c == nil {
		return
	}
	c.Close()
	closeStreams(c.World)
}

// closeStreams closes every stream service of a retired world through its
// public API, so no accept goroutine keeps the world reachable and a unit's
// heap high-water counts its own world only. Neither core.Study nor
// core.ScaleCampaign closes these. The ports the worlds serve on are swept
// first; if a service is left on another port, every port is swept.
func closeStreams(w *netsim.World) {
	for _, port := range []uint16{53, 80, 443, 853, 1080} {
		for _, addr := range w.StreamAddrs(port) {
			w.CloseService(addr, port)
		}
	}
	for port := 0; w.NumListeners() > 0 && port <= math.MaxUint16; port++ {
		for _, addr := range w.StreamAddrs(uint16(port)) {
			w.CloseService(addr, uint16(port))
		}
	}
}

// lookupSpans names the per-protocol lookup span.
var lookupSpans = map[vantage.Proto]string{
	vantage.ProtoDNS: "lookup.dns_us", vantage.ProtoDoT: "lookup.dot_us",
	vantage.ProtoDoH: "lookup.doh_us", vantage.ProtoDoQ: "lookup.doq_us",
}

// tracedCampaign is ScaleCampaign.Run rebuilt from public calls, so spans
// can sit at each layer boundary: closed-loop workers draw vantage indices,
// acquire the vantage (proxy), screen its uptime, visit its lookups
// (vantage) folding each into a per-worker CampaignStats, release it, and
// merge the worker accumulators in worker order at the join — the same
// fold CampaignStreamSource runs, so ScaleCampaign.Report renders the same
// bytes.
func tracedCampaign(c *core.ScaleCampaign, workers int, tr *tracer) (*vantage.CampaignStats, error) {
	ctx := context.Background()
	src := vantage.GeneratorSource(c.Network)
	n := src.Len()
	accs := make([]*vantage.CampaignStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := range accs {
		accs[wi] = vantage.NewCampaignStats(vantage.CampaignOpts{})
		wg.Add(1)
		go func(acc *vantage.CampaignStats) {
			defer wg.Done()
			buf := spanBuf{}
			counts := map[string]float64{}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				t0 := time.Now()
				node, release := src.Acquire(i)
				acquire := time.Since(t0)
				if !c.Platform.UsableNode(node) {
					acc.Skipped++
					counts["vantage.skipped"]++
					t1 := time.Now()
					release()
					buf.add("proxy.acquire_us", acquire+time.Since(t1))
					continue
				}
				acc.Nodes++
				ord := 0
				visit := time.Now()
				prev := visit
				c.Platform.VisitReachability(ctx, node, c.Targets, func(r vantage.Result) {
					got := time.Now()
					buf.add(lookupSpans[r.Proto], got.Sub(prev))
					acc.Add(i, ord, r)
					ord++
					prev = time.Now()
					buf.add("vantage.fold_us", prev.Sub(got))
					if r.Outcome == vantage.Failed {
						counts["lookup.failed."+string(r.Proto)]++
					}
					counts["lookup.retries"] += float64(max(r.Attempts-1, 0))
				})
				buf.add("vantage.visit_ms", time.Since(visit))
				t1 := time.Now()
				release()
				buf.add("proxy.acquire_us", acquire+time.Since(t1))
			}
			tr.merge(buf)
			for name, v := range counts {
				tr.count(name, v)
			}
		}(accs[wi])
	}
	wg.Wait()

	stats := vantage.NewCampaignStats(vantage.CampaignOpts{})
	buf := spanBuf{}
	for _, acc := range accs {
		t0 := time.Now()
		if err := stats.Merge(acc); err != nil {
			return nil, err
		}
		buf.add("vantage.fold_us", time.Since(t0))
	}
	tr.merge(buf)
	return stats, nil
}
