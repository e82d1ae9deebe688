package doh

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
)

func (f *fixture) muxClient() *Client {
	c := f.client()
	c.Mux = true
	return c
}

func TestH2Negotiation(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient()
	conn, err := c.Dial(f.tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Mux() == nil {
		t.Fatal("Mux client did not negotiate h2")
	}
	if conn.Mux().MaxInFlight() != dnsclient.DefaultMaxInFlight {
		t.Errorf("MaxInFlight = %d, want default %d", conn.Mux().MaxInFlight(), dnsclient.DefaultMaxInFlight)
	}
	res, err := conn.Query("probe-h2.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %v, want > 0", res.Latency)
	}
}

func TestH2PostQuery(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient()
	c.Method = POST
	conn, err := c.Dial(f.tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Query("probe-h2p.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

func TestH2SerialClientUnaffected(t *testing.T) {
	// A client without Mux offers no ALPN and must still get plain
	// HTTP/1.1 from the upgraded server.
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.client()
	conn, err := c.Dial(f.tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Mux() != nil {
		t.Fatal("serial client negotiated h2")
	}
	if _, err := conn.Query("serial.measure.example.org", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
}

func TestH2BatchDeterministicLatencies(t *testing.T) {
	const batch = 8
	f := newFixture(t)
	f.world.JitterFrac = 0
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient()
	c.MaxInFlight = batch
	conn, err := c.Dial(f.tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	names := make([]string, batch)
	for i := range names {
		names[i] = fmt.Sprintf("h2b%d.measure.example.org", i)
	}
	run := func() ([]dnsclient.Result, time.Duration) {
		before := conn.Elapsed()
		results, err := conn.Mux().Batch(context.Background(), names, dnswire.TypeA, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results, conn.Elapsed() - before
	}
	results, total := run()
	if len(results) != batch {
		t.Fatalf("got %d results, want %d", len(results), batch)
	}
	for i, r := range results {
		if a, ok := r.FirstA(); !ok || a != answerIP {
			t.Errorf("query %d: answer %v", i, r.Msg.Answers)
		}
		// One request segment out, one coalesced response segment back:
		// every stream's latency equals the batch round trip.
		if r.Latency != total {
			t.Errorf("query %d: latency %v, want batch total %v", i, r.Latency, total)
		}
	}
	// A second batch on the same session must behave identically (slot and
	// buffer recycling paths).
	results2, total2 := run()
	if total2 != total {
		t.Errorf("second batch total %v, want %v (jitter disabled)", total2, total)
	}
	for i, r := range results2 {
		if r.Latency != total2 {
			t.Errorf("second batch query %d: latency %v, want %v", i, r.Latency, total2)
		}
	}
}

func TestH2ConcurrentExchange(t *testing.T) {
	const n = 16
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient()
	c.MaxInFlight = n
	conn, err := c.Dial(f.tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("h2c%d.measure.example.org", i)
			res, err := conn.QueryContext(context.Background(), name, dnswire.TypeA)
			if err != nil {
				errs[i] = err
				return
			}
			if a, ok := res.FirstA(); !ok || a != answerIP {
				errs[i] = fmt.Errorf("answer %v", res.Msg.Answers)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
	// Every uniquely named query must have reached the zone exactly once.
	seen := make(map[string]int)
	for _, name := range f.zone.QueriedNames() {
		seen[name]++
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h2c%d.measure.example.org.", i)
		if seen[name] != 1 {
			t.Errorf("zone saw %q %d times, want 1", name, seen[name])
		}
	}
}

func TestH2ErrorStatusPerStream(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient()
	tmpl := Template{Host: f.tmpl.Host, Path: "/wrong-path"}
	conn, err := c.Dial(tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("err.measure.example.org", dnswire.TypeA); !errors.Is(err, ErrHTTPStatus) {
		t.Errorf("err = %v, want ErrHTTPStatus", err)
	}
	// The session survives a per-stream error; only that stream failed.
	conn2, err := c.Dial(f.tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Query("ok.measure.example.org", dnswire.TypeA); err != nil {
		t.Errorf("good-path query after error: %v", err)
	}
}
