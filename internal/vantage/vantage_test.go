package vantage

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/proxy"
)

// fixture is a miniature of the study world: one resolver offering all
// three protocols, a proxy network with nodes behind different middleboxes.
type fixture struct {
	world    *netsim.World
	ca       *certs.CA
	platform *Platform
	target   Target
	mitm     *netsim.TLSInterceptor
}

var (
	measureIP  = netip.MustParseAddr("172.16.0.9")
	superIP    = netip.MustParseAddr("172.16.0.1")
	resolverIP = netip.MustParseAddr("9.9.9.9")
	expectedA  = netip.MustParseAddr("203.0.113.77")

	nodeClean    = netip.MustParseAddr("10.10.0.5") // US, unfiltered
	nodeFiltered = netip.MustParseAddr("10.11.0.5") // US, port-53 filtered
	nodeCensored = netip.MustParseAddr("10.12.0.5") // CN, censored
	nodeMITM     = netip.MustParseAddr("10.13.0.5") // BR, TLS-intercepted
	nodeConflict = netip.MustParseAddr("10.14.0.5") // ID, 9.9.9.9 conflict
)

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := netsim.NewWorld(41)
	w.JitterFrac = 0
	reg := func(prefix, cc string, asn int, as string) {
		w.Geo.Register(netip.MustParsePrefix(prefix), geo.Location{Country: cc, ASN: asn, ASName: as})
	}
	reg("172.16.0.0/16", "US", 1, "Lab")
	reg("9.9.9.0/24", "US", 2, "Resolver Co")
	reg("10.10.0.0/16", "US", 100, "Clean ISP")
	reg("10.11.0.0/16", "US", 101, "Filtering ISP")
	reg("10.12.0.0/16", "CN", 102, "Censored ISP")
	reg("10.13.0.0/16", "BR", 103, "Telefnica Brazil S.A")
	reg("10.14.0.0/16", "ID", 104, "PT Telekomunikasi Selular")

	ca, err := certs.NewCA("DoE Root", true)
	if err != nil {
		t.Fatal(err)
	}

	zone := dnsserver.NewZone("probe.example.org")
	zone.WildcardA = expectedA
	// Clear-text DNS over TCP and UDP.
	w.RegisterDatagram(resolverIP, 53, dnsserver.DatagramHandler(zone))
	w.RegisterStream(resolverIP, 53, func(conn *netsim.Conn) {
		defer conn.Close()
		dnsserver.ServeStream(conn, zone)
	})
	leaf, err := ca.Issue(certs.LeafOptions{
		CommonName: "dns.resolverco.example",
		IPs:        []netip.Addr{resolverIP},
	})
	if err != nil {
		t.Fatal(err)
	}
	dot.Serve(w, resolverIP, leaf, zone, 0)
	doh.Serve(w, resolverIP, leaf, &doh.Server{Handler: zone})

	// Middleboxes.
	w.AddPolicy(&netsim.PortFilter{
		ClientPrefixes: []netip.Prefix{netip.MustParsePrefix("10.11.0.0/16")},
		Port:           53,
	})
	w.AddPolicy(&netsim.Censor{
		Countries: map[string]bool{"CN": true},
		BlockIPs:  map[netip.Addr]bool{resolverIP: true},
		BlockPorts: map[uint16]bool{
			doh.Port: true,
		},
		Blackhole: true,
	})
	dpiCA, err := certs.NewCA("SonicWall Firewall DPI-SSL", false)
	if err != nil {
		t.Fatal(err)
	}
	mitm := netsim.NewTLSInterceptor(dpiCA,
		[]netip.Prefix{netip.MustParsePrefix("10.13.0.0/16")}, dot.Port, doh.Port)
	w.AddPolicy(mitm)
	w.AddPolicy(&netsim.ConflictDevice{
		ClientPrefixes: []netip.Prefix{netip.MustParsePrefix("10.14.0.0/16")},
		ConflictIP:     resolverIP,
		Kind:           netsim.DeviceRouter,
		OpenPorts:      map[uint16]string{80: "<title>MikroTik RouterOS</title>"},
	})

	network := proxy.NewNetwork(w, "testrack", superIP, 5)
	add := func(id string, addr netip.Addr, cc string, asn int, as string) {
		network.AddNode(proxy.ExitNode{ID: id, Addr: addr, Country: cc, ASN: asn, ASName: as, Lifetime: time.Hour})
	}
	add("clean", nodeClean, "US", 100, "Clean ISP")
	add("filtered", nodeFiltered, "US", 101, "Filtering ISP")
	add("censored", nodeCensored, "CN", 102, "Censored ISP")
	add("mitm", nodeMITM, "BR", 103, "Telefnica Brazil S.A")
	add("conflict", nodeConflict, "ID", 104, "PT Telekomunikasi Selular")

	platform := &Platform{
		Network:   network,
		From:      measureIP,
		Roots:     certs.Pool(ca),
		ProbeZone: "probe.example.org",
		ExpectedA: expectedA,
		MinUptime: time.Minute,
	}
	target := Target{
		Name:    "resolverco",
		DNS:     resolverIP,
		DoT:     resolverIP,
		DoH:     doh.Template{Host: "dns.resolverco.example", Path: doh.DefaultPath},
		DoHAddr: resolverIP,
	}
	return &fixture{world: w, ca: ca, platform: platform, target: target, mitm: mitm}
}

func (f *fixture) node(t *testing.T, id string) proxy.ExitNode {
	t.Helper()
	for _, n := range f.platform.Network.Nodes() {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("node %q missing", id)
	return proxy.ExitNode{}
}

func outcomes(results []Result) map[Proto]Outcome {
	m := map[Proto]Outcome{}
	for _, r := range results {
		m[r.Proto] = r.Outcome
	}
	return m
}

func TestCleanNodeAllCorrect(t *testing.T) {
	f := newFixture(t)
	res := f.platform.TestReachability(f.node(t, "clean"), []Target{f.target})
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Outcome != Correct {
			t.Errorf("%s: %v (%s)", r.Proto, r.Outcome, r.Err)
		}
		if r.Intercepted {
			t.Errorf("%s wrongly intercepted", r.Proto)
		}
	}
}

func TestPort53FilteredNode(t *testing.T) {
	f := newFixture(t)
	got := outcomes(f.platform.TestReachability(f.node(t, "filtered"), []Target{f.target}))
	if got[ProtoDNS] != Failed {
		t.Errorf("dns = %v, want failed (port 53 filtered)", got[ProtoDNS])
	}
	if got[ProtoDoT] != Correct || got[ProtoDoH] != Correct {
		t.Errorf("dot/doh = %v/%v, want correct (Finding 2.1: encrypted ports pass)", got[ProtoDoT], got[ProtoDoH])
	}
}

func TestCensoredNodeDoHBlocked(t *testing.T) {
	f := newFixture(t)
	got := outcomes(f.platform.TestReachability(f.node(t, "censored"), []Target{f.target}))
	if got[ProtoDoH] != Failed {
		t.Errorf("doh = %v, want failed (censorship, Finding 2.2)", got[ProtoDoH])
	}
	if got[ProtoDNS] != Correct || got[ProtoDoT] != Correct {
		t.Errorf("dns/dot = %v/%v, want correct (only port 443 blocked)", got[ProtoDNS], got[ProtoDoT])
	}
}

func TestMITMNodeInterceptsDoTBreaksDoH(t *testing.T) {
	f := newFixture(t)
	results := f.platform.TestReachability(f.node(t, "mitm"), []Target{f.target})
	got := outcomes(results)
	// Opportunistic DoT proceeds and gets the right answer — but is
	// flagged as intercepted, with the DPI CA visible (Finding 2.3).
	if got[ProtoDoT] != Correct {
		t.Errorf("dot = %v, want correct", got[ProtoDoT])
	}
	intercepted := statsOf(results).Intercepted()
	if len(intercepted) != 1 || intercepted[0].Proto != ProtoDoT {
		t.Fatalf("intercepted = %+v", intercepted)
	}
	if intercepted[0].IssuerCN != "SonicWall Firewall DPI-SSL" {
		t.Errorf("issuer = %q", intercepted[0].IssuerCN)
	}
	// Strict DoH aborts on the forged certificate.
	if got[ProtoDoH] != Failed {
		t.Errorf("doh = %v, want failed", got[ProtoDoH])
	}
}

func TestConflictNodeForensics(t *testing.T) {
	f := newFixture(t)
	node := f.node(t, "conflict")
	results := f.platform.TestReachability(node, []Target{f.target})
	got := outcomes(results)
	if got[ProtoDNS] != Failed || got[ProtoDoT] != Failed {
		t.Errorf("dns/dot = %v/%v, want failed (address conflict)", got[ProtoDNS], got[ProtoDoT])
	}
	failed := statsOf(results, FailKey{"resolverco", ProtoDoT}).FailedRefs(FailKey{"resolverco", ProtoDoT})
	if len(failed) != 1 || failed[0].ID != "conflict" {
		t.Errorf("failed nodes = %v", failed)
	}
	probe := f.platform.ProbePorts(node, resolverIP, Table5Ports)
	if len(probe.Open) != 1 || probe.Open[0] != 80 {
		t.Errorf("open ports = %v, want [80]", probe.Open)
	}
	if !strings.Contains(probe.Page, "MikroTik") {
		t.Errorf("page = %q", probe.Page)
	}
	if IdentifyDevice(probe) != "router" {
		t.Errorf("device = %q", IdentifyDevice(probe))
	}
	genuine := GenuineProfile{OpenPorts: []uint16{53, 80, 443}}
	if MatchesGenuine(probe, genuine) {
		t.Error("conflicted device matched the genuine resolver profile")
	}
}

func TestCampaignAndTally(t *testing.T) {
	f := newFixture(t)
	stats, err := f.platform.CampaignStream(context.Background(), []Target{f.target}, 4, CampaignOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tally := stats.ByResolverProto()["resolverco"]
	// 5 nodes: DNS fails on filtered+conflict; DoT fails on conflict;
	// DoH fails on censored+mitm+conflict.
	if tally[ProtoDNS].Failed != 2 || tally[ProtoDNS].Correct != 3 {
		t.Errorf("dns tally = %+v", tally[ProtoDNS])
	}
	if tally[ProtoDoT].Failed != 1 || tally[ProtoDoT].Correct != 4 {
		t.Errorf("dot tally = %+v", tally[ProtoDoT])
	}
	if tally[ProtoDoH].Failed != 3 || tally[ProtoDoH].Correct != 2 {
		t.Errorf("doh tally = %+v", tally[ProtoDoH])
	}
	c, i, fl := tally[ProtoDoT].Rates()
	if c+i+fl < 0.999 || c+i+fl > 1.001 {
		t.Errorf("rates don't sum to 1: %v %v %v", c, i, fl)
	}
}

func TestPerformanceReusedOverheadSmall(t *testing.T) {
	f := newFixture(t)
	sample, err := f.platform.MeasurePerformance(f.node(t, "clean"), f.target, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sample.DNSMedianMS <= 0 || sample.DoTMedianMS <= 0 || sample.DoHMedianMS <= 0 {
		t.Fatalf("medians = %+v", sample)
	}
	// With connection reuse, encrypted overhead is a few ms (crypto cost),
	// far below one RTT (the US->resolver RTT here is ≥ 16ms).
	if oh := sample.DoTOverheadMS(); oh < 0 || oh > 15 {
		t.Errorf("DoT overhead = %vms, want small positive", oh)
	}
	if oh := sample.DoHOverheadMS(); oh < 0 || oh > 15 {
		t.Errorf("DoH overhead = %vms, want small positive", oh)
	}
}

func TestNoReuseOverheadLarger(t *testing.T) {
	f := newFixture(t)
	sample, err := MeasureNoReuse(f.world, "US", measureIP, f.target, "probe.example.org", certs.Pool(f.ca), 10)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := f.platform.MeasurePerformance(f.node(t, "clean"), f.target, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Without reuse every query pays TCP+TLS setup: the overhead relative
	// to DNS/TCP must exceed the reused-connection overhead (§4.3).
	if sample.DoTOverheadMS() <= reused.DoTOverheadMS() {
		t.Errorf("no-reuse DoT overhead %v <= reused %v", sample.DoTOverheadMS(), reused.DoTOverheadMS())
	}
	if sample.DoHOverheadMS() <= reused.DoHOverheadMS() {
		t.Errorf("no-reuse DoH overhead %v <= reused %v", sample.DoHOverheadMS(), reused.DoHOverheadMS())
	}
}

func TestAggregateByCountry(t *testing.T) {
	samples := []PerfSample{
		{NodeID: "a", Country: "US", DNSMedianMS: 20, DoTMedianMS: 25, DoHMedianMS: 28},
		{NodeID: "b", Country: "US", DNSMedianMS: 22, DoTMedianMS: 29, DoHMedianMS: 27},
		{NodeID: "c", Country: "IN", DNSMedianMS: 120, DoTMedianMS: 90, DoHMedianMS: 80},
	}
	agg := AggregateByCountry(samples)
	if len(agg) != 2 || agg[0].Country != "US" || agg[0].Clients != 2 {
		t.Fatalf("agg = %+v", agg)
	}
	if agg[0].DoTAvgMS != 6 {
		t.Errorf("US DoT avg = %v, want 6", agg[0].DoTAvgMS)
	}
	// India can be *faster* over encrypted transports, as the paper finds.
	if agg[1].DoTAvgMS >= 0 {
		t.Errorf("IN DoT avg = %v, want negative", agg[1].DoTAvgMS)
	}
	dotAvg, dotMed, dohAvg, dohMed := GlobalOverheads(samples)
	if dotAvg >= 10 || dotMed <= 0 || dohAvg >= 10 || dohMed <= 0 {
		t.Errorf("global overheads = %v %v %v %v", dotAvg, dotMed, dohAvg, dohMed)
	}
}

func TestUniqueNamesAreUnique(t *testing.T) {
	f := newFixture(t)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := f.platform.UniqueName("Node_X")
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		if strings.ContainsAny(n, "_ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
			t.Fatalf("name %q not canonical", n)
		}
		seen[n] = true
	}
}

func TestUsableNodeFiltersExpiring(t *testing.T) {
	f := newFixture(t)
	f.platform.Network.AddNode(proxy.ExitNode{
		ID: "dying", Addr: netip.MustParseAddr("10.10.0.99"), Country: "US", Lifetime: time.Second,
	})
	if f.platform.UsableNode(proxy.ExitNode{ID: "dying"}) {
		t.Error("expiring node considered usable")
	}
	if !f.platform.UsableNode(f.node(t, "clean")) {
		t.Error("healthy node rejected")
	}
}

func TestOutcomeString(t *testing.T) {
	if Correct.String() != "correct" || Incorrect.String() != "incorrect" || Failed.String() != "failed" {
		t.Error("Outcome.String mismatch")
	}
}

func TestPlatformDisruptionDropped(t *testing.T) {
	f := newFixture(t)
	// Exhaust a node's session budget so further dials are platform
	// failures (general-failure reply), not target failures.
	f.platform.Network.PerDialCost = time.Hour
	f.platform.Network.AddNode(proxy.ExitNode{
		ID: "dying2", Addr: netip.MustParseAddr("10.10.0.98"), Country: "US", Lifetime: 90 * time.Minute,
	})
	node := f.node(t, "dying2")
	// First dial consumes the whole budget...
	if c, err := f.platform.Network.Dial(f.platform.From, "dying2", resolverIP, 53); err == nil {
		c.Close()
	}
	// ...so the campaign hits platform disruption on every leg.
	dot := FailKey{"resolverco", ProtoDoT}
	stats, err := f.platform.CampaignStreamSource(context.Background(), ListSource([]proxy.ExitNode{node}),
		[]Target{f.target}, 1, CampaignOpts{TrackFailed: []FailKey{dot}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Fatalf("no dropped results: %+v", stats)
	}
	// Dropped measurements must not contaminate Table 4.
	for resolver, byProto := range stats.ByResolverProto() {
		for proto, tl := range byProto {
			if tl.Failed > 0 {
				t.Errorf("%s/%s counts %d platform failures as protocol failures", resolver, proto, tl.Failed)
			}
		}
	}
	// Nor the Table 5 candidate list.
	if failed := stats.FailedRefs(dot); len(failed) != 0 {
		t.Errorf("dropped node listed as failed: %v", failed)
	}
}

// statsOf folds one node's results into a campaign accumulator, tracking
// the failing nodes of the given keys.
func statsOf(results []Result, track ...FailKey) *CampaignStats {
	s := NewCampaignStats(CampaignOpts{TrackFailed: track})
	for i, r := range results {
		s.Add(0, i, r)
	}
	s.finalize()
	return s
}

func TestIdentifyDeviceVariants(t *testing.T) {
	cases := []struct {
		probe PortProbe
		want  string
	}{
		{PortProbe{Page: "<script src=coinhive.min.js>"}, "cryptojacked router"},
		{PortProbe{Page: "<title>RouterOS</title>"}, "router"},
		{PortProbe{Server: "MikroTik"}, "router"},
		{PortProbe{Page: "Powerbox Gvt Modem"}, "modem"},
		{PortProbe{Page: "please login to continue"}, "authentication system"},
		{PortProbe{Page: "hello world"}, "unknown web device"},
		{PortProbe{Open: []uint16{22}}, "unidentified host"},
		{PortProbe{}, "silent (blackhole or internal routing)"},
	}
	for _, c := range cases {
		if got := IdentifyDevice(c.probe); got != c.want {
			t.Errorf("IdentifyDevice(%+v) = %q, want %q", c.probe, got, c.want)
		}
	}
}
