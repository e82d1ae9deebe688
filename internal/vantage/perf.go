package vantage

import (
	"context"
	"crypto/x509"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"dnsencryption.info/doe/internal/analysis"
	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
)

// PerfSample is one vantage point's relative-performance measurement with
// reused connections (§4.3): per-protocol medians of T_R over N queries.
type PerfSample struct {
	NodeID  string
	Country string
	// Medians of observed per-query latency, milliseconds.
	DNSMedianMS float64
	DoTMedianMS float64
	DoHMedianMS float64
	DoQMedianMS float64
	// MuxInFlight is the per-session concurrency of the multiplexed pass
	// (0 when the platform ran serial sessions only).
	MuxInFlight int
	// Medians of amortized per-query latency with MuxInFlight queries in
	// flight per session: the session's Elapsed delta around each batch
	// divided by the batch size.
	DoTMuxMedianMS float64
	DoHMuxMedianMS float64
	DoQMuxMedianMS float64
}

// DoTOverheadMS is the per-client DoT extra latency over clear-text DNS.
func (s PerfSample) DoTOverheadMS() float64 { return s.DoTMedianMS - s.DNSMedianMS }

// DoHOverheadMS is the per-client DoH extra latency over clear-text DNS.
func (s PerfSample) DoHOverheadMS() float64 { return s.DoHMedianMS - s.DNSMedianMS }

// DoQOverheadMS is the per-client DoQ extra latency over clear-text DNS.
func (s PerfSample) DoQOverheadMS() float64 { return s.DoQMedianMS - s.DNSMedianMS }

// DoTMuxOverheadMS is the multiplexed DoT extra latency over serial
// clear-text DNS.
func (s PerfSample) DoTMuxOverheadMS() float64 { return s.DoTMuxMedianMS - s.DNSMedianMS }

// DoHMuxOverheadMS is the multiplexed DoH extra latency over serial
// clear-text DNS.
func (s PerfSample) DoHMuxOverheadMS() float64 { return s.DoHMuxMedianMS - s.DNSMedianMS }

// DoQMuxOverheadMS is the multiplexed DoQ extra latency over serial
// clear-text DNS.
func (s PerfSample) DoQMuxOverheadMS() float64 { return s.DoQMuxMedianMS - s.DNSMedianMS }

// MeasurePerformance runs the reused-connection test from one node: N
// DNS/TCP, N DoT and N DoH queries each on a single connection, reporting
// per-protocol medians. The comparison of T_R differences is valid because
// the client→proxy leg adds the same latency to every protocol (§4.1).
func (p *Platform) MeasurePerformance(node proxy.ExitNode, tgt Target, n int) (PerfSample, error) {
	return p.MeasurePerformanceContext(context.Background(), node, tgt, n)
}

// MeasurePerformanceContext is MeasurePerformance with telemetry: each
// protocol's timing pass gets a perf:<proto> span (retry attempts nested
// under it) and its successful pass's latencies feed the
// vantage_query_latency{mode=reused} histogram.
func (p *Platform) MeasurePerformanceContext(ctx context.Context, node proxy.ExitNode, tgt Target, n int) (PerfSample, error) {
	sample := PerfSample{NodeID: node.ID, Country: node.Country}

	// medianRelease reduces one pass's latency scratch to its median and
	// returns the slice to the pool immediately: across a campaign only
	// O(1) scratch is live per worker, not one slice per (node, protocol)
	// accumulating until the sample is assembled.
	medianRelease := func(lat *[]float64) float64 {
		m := analysis.Median(*lat)
		bufpool.PutF64(lat)
		return m
	}

	dnsLat, err := p.retryLatencies(ctx, ProtoDNS, func(ctx context.Context) (*[]float64, error) {
		return p.timeDNSQueries(ctx, node, tgt.DNS, n)
	})
	if err != nil {
		return sample, err
	}
	sample.DNSMedianMS = medianRelease(dnsLat)

	dotLat, err := p.retryLatencies(ctx, ProtoDoT, func(ctx context.Context) (*[]float64, error) {
		return p.timeDoTQueries(ctx, node, tgt.DoT, n)
	})
	if err != nil {
		return sample, err
	}
	sample.DoTMedianMS = medianRelease(dotLat)

	dohLat, err := p.retryLatencies(ctx, ProtoDoH, func(ctx context.Context) (*[]float64, error) {
		return p.timeDoHQueries(ctx, node, tgt.DoH, tgt.DoHAddr, n)
	})
	if err != nil {
		return sample, err
	}
	sample.DoHMedianMS = medianRelease(dohLat)

	if tgt.DoQ.IsValid() {
		doqLat, err := p.retryLatencies(ctx, ProtoDoQ, func(ctx context.Context) (*[]float64, error) {
			return p.timeDoQQueries(ctx, node, tgt.DoQ, n)
		})
		if err != nil {
			return sample, err
		}
		sample.DoQMedianMS = medianRelease(doqLat)
	}

	// The multiplexed pass re-runs the encrypted transports with
	// MuxInFlight queries in flight per session, amortizing each batch's
	// round trip over its queries — the Fig. 9 "multiplexed" column.
	if p.MuxInFlight > 1 {
		sample.MuxInFlight = p.MuxInFlight
		dotMux, err := p.retryLatenciesMode(ctx, ProtoDoT, "mux", func(ctx context.Context) (*[]float64, error) {
			return p.timeDoTMuxQueries(ctx, node, tgt.DoT, n)
		})
		if err != nil {
			return sample, err
		}
		sample.DoTMuxMedianMS = medianRelease(dotMux)
		dohMux, err := p.retryLatenciesMode(ctx, ProtoDoH, "mux", func(ctx context.Context) (*[]float64, error) {
			return p.timeDoHMuxQueries(ctx, node, tgt.DoH, tgt.DoHAddr, n)
		})
		if err != nil {
			return sample, err
		}
		sample.DoHMuxMedianMS = medianRelease(dohMux)
		if tgt.DoQ.IsValid() {
			doqMux, err := p.retryLatenciesMode(ctx, ProtoDoQ, "mux", func(ctx context.Context) (*[]float64, error) {
				return p.timeDoQMuxQueries(ctx, node, tgt.DoQ, n)
			})
			if err != nil {
				return sample, err
			}
			sample.DoQMuxMedianMS = medianRelease(doqMux)
		}
	}
	return sample, nil
}

// retryLatencies re-runs one protocol's whole timing pass (fresh tunnel,
// fresh session) while it fails and the platform retry budget allows: a
// connection killed mid-pass would otherwise discard the node. The
// successful pass's latencies are reported unpolluted by earlier attempts
// and observed into the reused-connection latency histogram. The returned
// slice is pool-owned (bufpool.GetF64); the caller must PutF64 it once
// reduced.
func (p *Platform) retryLatencies(ctx context.Context, proto Proto, measure func(ctx context.Context) (*[]float64, error)) (*[]float64, error) {
	return p.retryLatenciesMode(ctx, proto, "reused", measure)
}

// retryLatenciesMode is retryLatencies with an explicit histogram mode
// ("reused" for the serial passes, "mux" for the multiplexed ones).
func (p *Platform) retryLatenciesMode(ctx context.Context, proto Proto, mode string, measure func(ctx context.Context) (*[]float64, error)) (*[]float64, error) {
	span := "perf:" + string(proto)
	if mode != "reused" {
		span += "-" + mode
	}
	ctx, sp := obs.Start(ctx, span)
	budget := p.attempts()
	var lat *[]float64
	var err error
	for attempt := 1; attempt <= budget; attempt++ {
		actx := ctx
		if attempt > 1 {
			actx, _ = obs.Start(ctx, fmt.Sprintf("retry:%d", attempt))
		}
		lat, err = measure(actx)
		if err == nil {
			sp.SetInt("attempts", int64(attempt))
			sp.SetInt("queries", int64(len(*lat)))
			h := obs.Metrics(ctx).Histogram("vantage_query_latency", nil,
				"mode", mode, "proto", string(proto))
			// The sketch is the streaming counterpart: log-spaced buckets
			// whose shard merges stay byte-identical at any worker count.
			sk := obs.Metrics(ctx).Sketch("vantage_query_latency_sketch", obs.SketchOpts{},
				"mode", mode, "proto", string(proto))
			for _, l := range *lat {
				d := time.Duration(l * float64(time.Millisecond))
				h.Observe(d)
				sk.Observe(d)
			}
			return lat, nil //doelint:transfer -- pool-owned scratch; the caller reduces and PutF64s it
		}
	}
	sp.Fail(err)
	return nil, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeQueries issues n uniquely-named A lookups on one session and returns
// the per-query latencies in milliseconds — the session's Elapsed delta
// around each Exchange, the one clock every transport shares. This is the
// point of the unified API for §4.3: the timing harness is literally the
// same code for DNS/TCP, DoT and DoH. The returned slice comes from
// bufpool.GetF64 and travels up through retryLatencies to the reducer that
// PutF64s it; a failed pass releases it here.
func (p *Platform) timeQueries(ctx context.Context, sess resolver.Session, tag string, n int) (*[]float64, error) {
	lat := bufpool.GetF64(n)
	for i := 0; i < n; i++ {
		q := dnswire.NewQuery(0, p.UniqueName(tag), dnswire.TypeA)
		start := sess.Elapsed()
		if _, err := sess.Exchange(ctx, q); err != nil {
			bufpool.PutF64(lat)
			return nil, err
		}
		d := sess.Elapsed() - start
		obs.Charge(ctx, d)
		*lat = append(*lat, ms(d))
	}
	return lat, nil //doelint:transfer -- pool-owned scratch; released by the median reducer
}

func (p *Platform) timeDNSQueries(ctx context.Context, node proxy.ExitNode, target netip.Addr, n int) (*[]float64, error) {
	tunnel, err := p.Network.Dial(p.From, node.ID, target, 53)
	if err != nil {
		return nil, err
	}
	sess := resolver.NewSession(dnsclient.TCPFromConn(tunnel))
	defer sess.Close()
	p.observeSetup(ctx, ProtoDNS, sess)
	return p.timeQueries(ctx, sess, node.ID+"-perf-dns", n)
}

func (p *Platform) timeDoTQueries(ctx context.Context, node proxy.ExitNode, target netip.Addr, n int) (*[]float64, error) {
	tunnel, err := p.Network.Dial(p.From, node.ID, target, dot.Port)
	if err != nil {
		return nil, err
	}
	client := dot.NewClient(nil, p.From, p.Roots, dot.Opportunistic)
	conn, err := client.DialConnContext(ctx, tunnel)
	if err != nil {
		return nil, err
	}
	sess := resolver.NewSession(conn)
	defer sess.Close()
	p.observeSetup(ctx, ProtoDoT, sess)
	return p.timeQueries(ctx, sess, node.ID+"-perf-dot", n)
}

func (p *Platform) timeDoHQueries(ctx context.Context, node proxy.ExitNode, tmpl doh.Template, addr netip.Addr, n int) (*[]float64, error) {
	tunnel, err := p.Network.Dial(p.From, node.ID, addr, doh.Port)
	if err != nil {
		return nil, err
	}
	client := doh.NewClient(nil, p.From, p.Roots)
	conn, err := client.DialConnContext(ctx, tmpl, tunnel)
	if err != nil {
		return nil, err
	}
	sess := resolver.NewSession(conn)
	defer sess.Close()
	p.observeSetup(ctx, ProtoDoH, sess)
	return p.timeQueries(ctx, sess, node.ID+"-perf-doh", n)
}

// timeDoQQueries times DoQ on one reused session through the platform's
// datagram relay. The fresh 1-RTT handshake is charged to setup (observed,
// not mixed into per-query latencies), matching the other transports.
func (p *Platform) timeDoQQueries(ctx context.Context, node proxy.ExitNode, target netip.Addr, n int) (*[]float64, error) {
	relay, err := p.Network.DialDatagram(p.From, node.ID, target, doq.Port)
	if err != nil {
		return nil, err
	}
	client := doq.NewClient(nil, p.From, p.Roots, dot.Opportunistic)
	conn, err := client.DialVia(ctx, target, relay)
	if err != nil {
		return nil, err
	}
	sess := resolver.NewSession(conn)
	defer sess.Close()
	p.observeSetup(ctx, ProtoDoQ, sess)
	return p.timeQueries(ctx, sess, node.ID+"-perf-doq", n)
}

// timeBatchQueries issues n uniquely-named lookups in batches of up to
// p.MuxInFlight concurrent in-flight queries and returns per-query AMORTIZED
// latencies in milliseconds: each batch's Elapsed delta divided by its size.
// A pipelined batch shares one request segment and one coalesced response
// segment, so the whole batch costs about one round trip — the amortization
// is what the multiplexed column of Fig. 9 reports.
func (p *Platform) timeBatchQueries(ctx context.Context, elapsed func() time.Duration,
	batch func(ctx context.Context, names []string) error, tag string, n int) (*[]float64, error) {
	lat := bufpool.GetF64(n)
	names := make([]string, 0, p.MuxInFlight)
	for done := 0; done < n; {
		b := p.MuxInFlight
		if n-done < b {
			b = n - done
		}
		names = names[:0]
		for i := 0; i < b; i++ {
			names = append(names, p.UniqueName(tag))
		}
		start := elapsed()
		if err := batch(ctx, names); err != nil {
			bufpool.PutF64(lat)
			return nil, err
		}
		d := elapsed() - start
		obs.Charge(ctx, d)
		per := ms(d) / float64(b)
		for i := 0; i < b; i++ {
			*lat = append(*lat, per)
		}
		done += b
	}
	return lat, nil //doelint:transfer -- pool-owned scratch; released by the median reducer
}

func (p *Platform) timeDoTMuxQueries(ctx context.Context, node proxy.ExitNode, target netip.Addr, n int) (*[]float64, error) {
	tunnel, err := p.Network.Dial(p.From, node.ID, target, dot.Port)
	if err != nil {
		return nil, err
	}
	client := dot.NewClient(nil, p.From, p.Roots, dot.Opportunistic)
	conn, err := client.DialConnContext(ctx, tunnel)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	p.observeSetup(ctx, ProtoDoT, resolver.NewSession(conn))
	m := conn.Pipeline(p.MuxInFlight)
	return p.timeBatchQueries(ctx, conn.Elapsed, func(ctx context.Context, names []string) error {
		_, err := m.Batch(ctx, names, dnswire.TypeA, nil)
		return err
	}, node.ID+"-perf-dot-mux", n)
}

func (p *Platform) timeDoHMuxQueries(ctx context.Context, node proxy.ExitNode, tmpl doh.Template, addr netip.Addr, n int) (*[]float64, error) {
	tunnel, err := p.Network.Dial(p.From, node.ID, addr, doh.Port)
	if err != nil {
		return nil, err
	}
	client := doh.NewClient(nil, p.From, p.Roots)
	client.Mux = true
	client.MaxInFlight = p.MuxInFlight
	conn, err := client.DialConnContext(ctx, tmpl, tunnel)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	p.observeSetup(ctx, ProtoDoH, resolver.NewSession(conn))
	m := conn.Mux()
	return p.timeBatchQueries(ctx, conn.Elapsed, func(ctx context.Context, names []string) error {
		_, err := m.Batch(ctx, names, dnswire.TypeA, nil)
		return err
	}, node.ID+"-perf-doh-mux", n)
}

// timeDoQMuxQueries is the DoQ arm of the multiplexed pass: each batch
// packs MuxInFlight queries as concurrent QUIC streams into one flight, so
// the batch shares a single round trip — the same amortization the DoT
// pipeline and DoH HTTP/2 arms measure.
func (p *Platform) timeDoQMuxQueries(ctx context.Context, node proxy.ExitNode, target netip.Addr, n int) (*[]float64, error) {
	relay, err := p.Network.DialDatagram(p.From, node.ID, target, doq.Port)
	if err != nil {
		return nil, err
	}
	client := doq.NewClient(nil, p.From, p.Roots, dot.Opportunistic)
	client.MaxInFlight = p.MuxInFlight
	conn, err := client.DialVia(ctx, target, relay)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	p.observeSetup(ctx, ProtoDoQ, resolver.NewSession(conn))
	return p.timeBatchQueries(ctx, conn.Elapsed, func(ctx context.Context, names []string) error {
		_, err := conn.BatchContext(ctx, names, dnswire.TypeA, nil)
		return err
	}, node.ID+"-perf-doq-mux", n)
}

// CountryPerf aggregates per-client overheads per country (Fig. 9).
type CountryPerf struct {
	Country string
	Clients int
	// Overheads in milliseconds relative to clear-text DNS. DoQ columns are
	// zero when no sample in the country reached a DoQ endpoint.
	DoTAvgMS, DoTMedianMS float64
	DoHAvgMS, DoHMedianMS float64
	DoQAvgMS, DoQMedianMS float64
	// Multiplexed-pass overheads (amortized per-query latency minus serial
	// clear-text DNS); zero when the samples carry no multiplexed pass.
	DoTMuxMedianMS float64
	DoHMuxMedianMS float64
	DoQMuxMedianMS float64
}

// AggregateByCountry computes Fig. 9's per-country series.
func AggregateByCountry(samples []PerfSample) []CountryPerf {
	byCountry := map[string][]PerfSample{}
	for _, s := range samples {
		byCountry[s.Country] = append(byCountry[s.Country], s)
	}
	var out []CountryPerf
	for cc, ss := range byCountry {
		var dotOH, dohOH, doqOH, dotMux, dohMux, doqMux []float64
		for _, s := range ss {
			dotOH = append(dotOH, s.DoTOverheadMS())
			dohOH = append(dohOH, s.DoHOverheadMS())
			if s.DoQMedianMS > 0 {
				doqOH = append(doqOH, s.DoQOverheadMS())
			}
			if s.MuxInFlight > 0 {
				dotMux = append(dotMux, s.DoTMuxOverheadMS())
				dohMux = append(dohMux, s.DoHMuxOverheadMS())
				if s.DoQMuxMedianMS > 0 {
					doqMux = append(doqMux, s.DoQMuxOverheadMS())
				}
			}
		}
		out = append(out, CountryPerf{
			Country:        cc,
			Clients:        len(ss),
			DoTAvgMS:       analysis.Mean(dotOH),
			DoTMedianMS:    analysis.Median(dotOH),
			DoHAvgMS:       analysis.Mean(dohOH),
			DoHMedianMS:    analysis.Median(dohOH),
			DoQAvgMS:       analysis.Mean(doqOH),
			DoQMedianMS:    analysis.Median(doqOH),
			DoTMuxMedianMS: analysis.Median(dotMux),
			DoHMuxMedianMS: analysis.Median(dohMux),
			DoQMuxMedianMS: analysis.Median(doqMux),
		})
	}
	sortCountryPerf(out)
	return out
}

func sortCountryPerf(s []CountryPerf) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].Clients > s[j-1].Clients ||
			(s[j].Clients == s[j-1].Clients && s[j].Country < s[j-1].Country)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// GlobalOverheads computes the paper's headline averages/medians over all
// per-client overheads ("5ms/9ms for DoT, 8ms/6ms for DoH").
func GlobalOverheads(samples []PerfSample) (dotAvg, dotMed, dohAvg, dohMed float64) {
	var dotOH, dohOH []float64
	for _, s := range samples {
		dotOH = append(dotOH, s.DoTOverheadMS())
		dohOH = append(dohOH, s.DoHOverheadMS())
	}
	return analysis.Mean(dotOH), analysis.Median(dotOH), analysis.Mean(dohOH), analysis.Median(dohOH)
}

// GlobalDoQOverheads is the DoQ analogue of GlobalOverheads, over the
// samples whose target exposed a DoQ endpoint: serial avg/median overheads
// plus the multiplexed median (zero when no sample ran a mux pass).
func GlobalDoQOverheads(samples []PerfSample) (avg, med, muxMed float64) {
	var oh, mux []float64
	for _, s := range samples {
		if s.DoQMedianMS > 0 {
			oh = append(oh, s.DoQOverheadMS())
		}
		if s.MuxInFlight > 0 && s.DoQMuxMedianMS > 0 {
			mux = append(mux, s.DoQMuxOverheadMS())
		}
	}
	return analysis.Mean(oh), analysis.Median(oh), analysis.Median(mux)
}

// GlobalMuxOverheads is GlobalOverheads for the multiplexed pass, over the
// samples that ran one.
func GlobalMuxOverheads(samples []PerfSample) (dotAvg, dotMed, dohAvg, dohMed float64) {
	var dotOH, dohOH []float64
	for _, s := range samples {
		if s.MuxInFlight > 0 {
			dotOH = append(dotOH, s.DoTMuxOverheadMS())
			dohOH = append(dohOH, s.DoHMuxOverheadMS())
		}
	}
	return analysis.Mean(dotOH), analysis.Median(dotOH), analysis.Mean(dohOH), analysis.Median(dohOH)
}

// NoReuseSample is one controlled vantage's fresh-connection comparison
// (Table 7): medians over n queries, each on a brand-new connection.
type NoReuseSample struct {
	Vantage     string
	DNSMedianMS float64
	DoTMedianMS float64
	DoHMedianMS float64
	// DoQMedianMS is zero when the target has no DoQ endpoint. Note the
	// "fresh connection" condition is softer for DoQ: the resolver's shared
	// session cache means the first dial pays the 1-RTT handshake and later
	// dials resume 0-RTT — honest QUIC resumption rather than a full
	// handshake per query.
	DoQMedianMS float64
}

// DoTOverheadMS is the no-reuse DoT penalty.
func (s NoReuseSample) DoTOverheadMS() float64 { return s.DoTMedianMS - s.DNSMedianMS }

// DoHOverheadMS is the no-reuse DoH penalty.
func (s NoReuseSample) DoHOverheadMS() float64 { return s.DoHMedianMS - s.DNSMedianMS }

// DoQOverheadMS is the no-reuse DoQ penalty (0-RTT resumption included).
func (s NoReuseSample) DoQOverheadMS() float64 { return s.DoQMedianMS - s.DNSMedianMS }

// MeasureNoReuse runs Table 7's controlled-vantage test: n queries per
// protocol, every one on a fresh connection (TCP+TLS each time), directly
// from a controlled address (no proxy hop). Extra opts (e.g. WithRetry
// under fault injection) are applied on top of the no-reuse defaults. A
// query that still fails after its budget is skipped rather than sinking
// the vantage; the per-protocol median is over the queries that answered,
// and only a protocol with zero answers is an error.
func MeasureNoReuse(w *netsim.World, label string, from netip.Addr, tgt Target, probeZone string, roots *x509.CertPool, n int, opts ...resolver.Option) (NoReuseSample, error) {
	return MeasureNoReuseContext(context.Background(), w, label, from, tgt, probeZone, roots, n, opts...)
}

// MeasureNoReuseContext is MeasureNoReuse with telemetry: each protocol
// pass gets a noreuse:<proto> span and the answered queries feed the
// vantage_query_latency{mode=fresh} histogram. The resolver transports
// underneath contribute their own xchg/dial spans per query.
func MeasureNoReuseContext(ctx context.Context, w *netsim.World, label string, from netip.Addr, tgt Target, probeZone string, roots *x509.CertPool, n int, opts ...resolver.Option) (NoReuseSample, error) {
	sample := NoReuseSample{Vantage: label}
	// Probe names carry the vantage label so concurrent vantages never
	// share a name: a shared name would let one vantage's query warm the
	// resolver cache for another's, making observed latency depend on
	// which vantage asked first.
	uniq := 0
	name := func(tag string) string {
		uniq++
		return fmt.Sprintf("nr%d-%s-%s.%s", uniq, strings.ToLower(label), tag, probeZone)
	}

	// WithReuse(false) makes every Exchange pay TCP+TLS setup afresh —
	// exactly the no-reuse condition Table 7 measures. DoT runs Strict
	// here: the controlled vantages authenticate the public resolvers.
	rc := resolver.New(w, from, roots,
		append([]resolver.Option{resolver.WithReuse(false), resolver.WithProfile(dot.Strict)}, opts...)...)
	// medianFresh runs one protocol's pass on pooled scratch and reduces it
	// to the median immediately, so a vantage's four passes reuse one
	// buffer instead of retaining four until the sample is assembled.
	medianFresh := func(t *resolver.Transport, tag string) (float64, error) {
		sctx, sp := obs.Start(ctx, "noreuse:"+tag)
		h := obs.Metrics(sctx).Histogram("vantage_query_latency", nil, "mode", "fresh", "proto", tag)
		sk := obs.Metrics(sctx).Sketch("vantage_query_latency_sketch", obs.SketchOpts{},
			"mode", "fresh", "proto", tag)
		lat := bufpool.GetF64(n)
		defer bufpool.PutF64(lat)
		var lastErr error
		for i := 0; i < n; i++ {
			q := dnswire.NewQuery(0, name(tag), dnswire.TypeA)
			if _, err := t.Exchange(sctx, q); err != nil {
				lastErr = err
				continue
			}
			h.Observe(t.LastLatency())
			sk.Observe(t.LastLatency())
			*lat = append(*lat, ms(t.LastLatency()))
		}
		sp.SetInt("answered", int64(len(*lat)))
		if len(*lat) == 0 {
			err := fmt.Errorf("vantage: no-reuse %s/%s: every query failed: %w", label, tag, lastErr)
			sp.Fail(err)
			return 0, err
		}
		return analysis.Median(*lat), nil
	}
	var err error
	if sample.DNSMedianMS, err = medianFresh(rc.TCP(tgt.DNS), string(ProtoDNS)); err != nil {
		return sample, err
	}
	if sample.DoTMedianMS, err = medianFresh(rc.DoT(tgt.DoT), resolver.ProtoDoT.String()); err != nil {
		return sample, err
	}
	if sample.DoHMedianMS, err = medianFresh(rc.DoH(tgt.DoH, tgt.DoHAddr), resolver.ProtoDoH.String()); err != nil {
		return sample, err
	}
	if tgt.DoQ.IsValid() {
		if sample.DoQMedianMS, err = medianFresh(rc.DoQ(tgt.DoQ), resolver.ProtoDoQ.String()); err != nil {
			return sample, err
		}
	}
	return sample, nil
}
