package dnsclient_test

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

// The engine cases below run once per codec: the RFC 7766 codec over clear
// TCP and the HTTP/2 codec of multiplexed DoH. Each row supplies a server
// speaking its framing and a dialer for a concurrent session; the cases
// only talk to those two halves, so every behaviour is checked for both.

var (
	clientIP = netip.MustParseAddr("10.1.0.2")
	serverIP = netip.MustParseAddr("192.0.2.53")
)

const h2Host = "dns.mux.example"

// muxQuery is one query as the server half reads it: its wire key (DNS ID
// or HTTP/2 stream ID) and the parsed DNS message.
type muxQuery struct {
	key uint32
	msg *dnswire.Message
}

// muxServerConn is the server half of one accepted session.
type muxServerConn interface {
	io.Writer
	read() (muxQuery, error)
	appendAnswer(out []byte, q muxQuery) ([]byte, error)
}

// muxConn is the client half: a session whose QueryContext routes through
// its engine.
type muxConn interface {
	QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*dnsclient.Result, error)
	Elapsed() time.Duration
	Close() error
}

// muxEngine is the session's in-flight engine.
type muxEngine interface {
	Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error)
	MaxInFlight() int
	FreeSlots() int
}

type muxFixture struct {
	w  *netsim.World
	ca *certs.CA
}

func newMuxFixture(t *testing.T) *muxFixture {
	t.Helper()
	w := netsim.NewWorld(3)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "DE"})
	ca, err := certs.NewCA("Mux Root", true)
	if err != nil {
		t.Fatal(err)
	}
	return &muxFixture{w: w, ca: ca}
}

// muxCodec is one row of the engine table.
type muxCodec struct {
	name  string
	serve func(t *testing.T, f *muxFixture, handle func(muxServerConn))
	dial  func(t *testing.T, f *muxFixture, limit int) (muxConn, muxEngine)
}

var muxCodecs = []muxCodec{
	{name: "tcp", serve: serveTCP, dial: dialTCP},
	{name: "h2", serve: serveH2, dial: dialH2},
}

// forEachCodec runs body once per codec row as a subtest.
func forEachCodec(t *testing.T, body func(t *testing.T, f *muxFixture, c muxCodec)) {
	for _, c := range muxCodecs {
		t.Run(c.name, func(t *testing.T) { body(t, newMuxFixture(t), c) })
	}
}

// muxEchoAddr derives a per-name answer so tests can prove each concurrent
// query got its own response: q<i>.example.com -> 10.9.<i/256>.<i%256>.
func muxEchoAddr(name string) netip.Addr {
	var i int
	fmt.Sscanf(name, "q%d.", &i)
	return netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
}

func echoReply(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	resp.AddAnswer(q.Question1().Name, 60, dnswire.A{Addr: muxEchoAddr(q.Question1().Name)})
	return resp
}

// ---- RFC 7766 row ----

type tcpServerConn struct{ *netsim.Conn }

func (c tcpServerConn) read() (muxQuery, error) {
	raw, err := dnswire.ReadTCP(c.Conn)
	if err != nil {
		return muxQuery{}, err
	}
	m, err := dnswire.Unpack(raw)
	if err != nil {
		return muxQuery{}, err
	}
	return muxQuery{key: uint32(m.ID), msg: m}, nil
}

func (c tcpServerConn) appendAnswer(out []byte, q muxQuery) ([]byte, error) {
	return echoReply(q.msg).AppendPackTCP(out)
}

func serveTCP(_ *testing.T, f *muxFixture, handle func(muxServerConn)) {
	f.w.RegisterStream(serverIP, 53, func(conn *netsim.Conn) {
		defer conn.Close()
		handle(tcpServerConn{conn})
	})
}

func dialTCP(t *testing.T, f *muxFixture, limit int) (muxConn, muxEngine) {
	t.Helper()
	conn, err := dnsclient.New(f.w, clientIP).DialTCPContext(context.Background(), serverIP)
	if err != nil {
		t.Fatal(err)
	}
	return conn, conn.Pipeline(limit)
}

// ---- HTTP/2 row ----

// h2ServerConn speaks just enough HTTP/2 to answer GET-bound DoH streams.
type h2ServerConn struct {
	*tls.Conn
	br  *bufio.Reader
	buf []byte
}

func (c *h2ServerConn) read() (muxQuery, error) {
	for {
		f, payload, err := dnswire.ReadH2FrameAppend(c.br, c.buf[:0])
		if err != nil {
			return muxQuery{}, err
		}
		c.buf = payload
		if f.Type != dnswire.H2FrameHeaders {
			continue
		}
		var path string
		for block := payload; len(block) > 0; {
			name, value, rest, err := dnswire.ReadHpackLiteral(block)
			if err != nil {
				return muxQuery{}, err
			}
			if string(name) == ":path" {
				path = string(value)
			}
			block = rest
		}
		_, dns, ok := strings.Cut(path, "?dns=")
		if !ok {
			return muxQuery{}, fmt.Errorf("no dns parameter in %q", path)
		}
		wire, err := base64.RawURLEncoding.DecodeString(dns)
		if err != nil {
			return muxQuery{}, err
		}
		m, err := dnswire.Unpack(wire)
		if err != nil {
			return muxQuery{}, err
		}
		return muxQuery{key: f.StreamID, msg: m}, nil
	}
}

func (c *h2ServerConn) appendAnswer(out []byte, q muxQuery) ([]byte, error) {
	packed, err := echoReply(q.msg).Pack()
	if err != nil {
		return nil, err
	}
	hstart := len(out)
	out = dnswire.ReserveH2FrameHeader(out)
	out = dnswire.AppendHpackLiteral(out, ":status", "200")
	if out, err = dnswire.FinishH2Frame(out, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, q.key); err != nil {
		return nil, err
	}
	return dnswire.AppendH2Frame(out, dnswire.H2FrameData, dnswire.H2FlagEndStream, q.key, packed)
}

func serveH2(t *testing.T, f *muxFixture, handle func(muxServerConn)) {
	t.Helper()
	leaf, err := f.ca.Issue(certs.LeafOptions{CommonName: h2Host, IPs: []netip.Addr{serverIP}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{leaf.TLSCertificate()}, NextProtos: []string{"h2"}}
	f.w.RegisterStream(serverIP, doh.Port, func(conn *netsim.Conn) {
		defer conn.Close()
		tc := tls.Server(conn, cfg)
		if tc.Handshake() != nil {
			return
		}
		br := bufio.NewReader(tc)
		preface := make([]byte, len(dnswire.H2ClientPreface))
		if _, err := io.ReadFull(br, preface); err != nil {
			return
		}
		if _, _, err := dnswire.ReadH2FrameAppend(br, nil); err != nil {
			return
		}
		hello, err := dnswire.AppendH2Frame(nil, dnswire.H2FrameSettings, 0, 0, nil)
		if err != nil {
			return
		}
		if _, err := tc.Write(hello); err != nil {
			return
		}
		handle(&h2ServerConn{Conn: tc, br: br})
	})
}

func dialH2(t *testing.T, f *muxFixture, limit int) (muxConn, muxEngine) {
	t.Helper()
	c := doh.NewClient(f.w, clientIP, certs.Pool(f.ca))
	c.Mux = true
	c.MaxInFlight = limit
	conn, err := c.DialContext(context.Background(), doh.Template{Host: h2Host, Path: doh.DefaultPath}, serverIP)
	if err != nil {
		t.Fatal(err)
	}
	return conn, conn.Mux()
}

// ---- servers ----

// answerReversed reads batch-many queries, then answers them all in
// REVERSED order as one coalesced write — the worst-case legal reordering
// under RFC 7766 §7.
func answerReversed(batch int) func(muxServerConn) {
	return func(s muxServerConn) {
		for {
			qs := make([]muxQuery, 0, batch)
			for i := 0; i < batch; i++ {
				q, err := s.read()
				if err != nil {
					return
				}
				qs = append(qs, q)
			}
			var out []byte
			for i := len(qs) - 1; i >= 0; i-- {
				var err error
				if out, err = s.appendAnswer(out, qs[i]); err != nil {
					return
				}
			}
			if _, err := s.Write(out); err != nil {
				return
			}
		}
	}
}

// swallow reads up to n queries (forever when n < 0) without answering.
func swallow(n int) func(muxServerConn) {
	return func(s muxServerConn) {
		for i := 0; n < 0 || i < n; i++ {
			if _, err := s.read(); err != nil {
				return
			}
		}
	}
}

func queryNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("q%d.example.com", i)
	}
	return names
}

// ---- cases ----

func TestMuxBatchReversedResponses(t *testing.T) {
	const batch = 8
	forEachCodec(t, func(t *testing.T, f *muxFixture, c muxCodec) {
		f.w.JitterFrac = 0
		c.serve(t, f, answerReversed(batch))
		sess, mux := c.dial(t, f, batch)
		defer sess.Close()
		if mux.MaxInFlight() != batch {
			t.Fatalf("MaxInFlight = %d, want %d", mux.MaxInFlight(), batch)
		}
		names := queryNames(batch)
		var first time.Duration
		for round := 0; round < 2; round++ {
			before := sess.Elapsed()
			results, err := mux.Batch(context.Background(), names, dnswire.TypeA, nil)
			if err != nil {
				t.Fatal(err)
			}
			total := sess.Elapsed() - before
			if len(results) != batch {
				t.Fatalf("got %d results, want %d", len(results), batch)
			}
			for i, r := range results {
				a, ok := r.FirstA()
				if !ok || a != muxEchoAddr(names[i]) {
					t.Errorf("round %d query %d: answer %v, want %v", round, i, a, muxEchoAddr(names[i]))
				}
				// All queries leave in one segment and all responses arrive
				// in one coalesced segment, so every per-query virtual
				// latency equals the whole batch round trip.
				if r.Latency != total {
					t.Errorf("round %d query %d: latency %v, want batch total %v", round, i, r.Latency, total)
				}
			}
			if total <= 0 {
				t.Error("batch consumed no virtual time")
			}
			// A second batch recycles slots and buffers and must cost the
			// same (jitter disabled).
			if round == 0 {
				first = total
			} else if total != first {
				t.Errorf("second batch total %v, want %v", total, first)
			}
		}
	})
}

func TestMuxConcurrentExchange(t *testing.T) {
	const n = 16
	forEachCodec(t, func(t *testing.T, f *muxFixture, c muxCodec) {
		// The server answers 4 at a time, reversed, so completions really
		// are out of order relative to issue order.
		c.serve(t, f, answerReversed(4))
		sess, _ := c.dial(t, f, n)
		defer sess.Close()

		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("q%d.example.com", i)
				res, err := sess.QueryContext(context.Background(), name, dnswire.TypeA)
				if err != nil {
					errs[i] = err
					return
				}
				if a, ok := res.FirstA(); !ok || a != muxEchoAddr(name) {
					errs[i] = fmt.Errorf("answer %v, want %v", a, muxEchoAddr(name))
				}
				if res.Latency <= 0 {
					errs[i] = fmt.Errorf("latency %v, want > 0", res.Latency)
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}
	})
}

func TestMuxFailsAllInFlightOnStreamDeath(t *testing.T) {
	const n = 4
	forEachCodec(t, func(t *testing.T, f *muxFixture, c muxCodec) {
		// The server swallows n queries and closes without answering:
		// every in-flight query must fail with the same stream error.
		c.serve(t, f, swallow(n))
		sess, _ := c.dial(t, f, n)
		defer sess.Close()

		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = sess.QueryContext(context.Background(), fmt.Sprintf("q%d.example.com", i), dnswire.TypeA)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err == nil {
				t.Errorf("query %d succeeded against a dead stream", i)
			}
		}
		// The session is dead: later queries fail immediately too.
		if _, err := sess.QueryContext(context.Background(), "late.example.com", dnswire.TypeA); err == nil {
			t.Error("query on dead session succeeded")
		}
	})
}

func TestMuxExchangeCancellation(t *testing.T) {
	forEachCodec(t, func(t *testing.T, f *muxFixture, c muxCodec) {
		c.serve(t, f, swallow(-1)) // a server that never answers
		sess, _ := c.dial(t, f, 2)
		defer sess.Close()

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := sess.QueryContext(ctx, "q0.example.com", dnswire.TypeA)
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancelled exchange did not return")
		}
		// The abandoned slot must not wedge the session: the in-flight
		// semaphore slot was released on cancellation.
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
		defer cancel2()
		if _, err := sess.QueryContext(ctx2, "q1.example.com", dnswire.TypeA); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("second exchange err = %v, want deadline exceeded (server never answers)", err)
		}
	})
}

func TestMuxClosedSessionError(t *testing.T) {
	forEachCodec(t, func(t *testing.T, f *muxFixture, c muxCodec) {
		c.serve(t, f, answerReversed(1))
		sess, mux := c.dial(t, f, 4)
		sess.Close()
		if _, err := sess.QueryContext(context.Background(), "x.example.com", dnswire.TypeA); !errors.Is(err, dnsclient.ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
		if _, err := mux.Batch(context.Background(), queryNames(2), dnswire.TypeA, nil); !errors.Is(err, dnsclient.ErrClosed) {
			t.Errorf("batch err = %v, want ErrClosed", err)
		}
	})
}

func TestMuxBatchOverInFlightLimit(t *testing.T) {
	const limit = 4
	forEachCodec(t, func(t *testing.T, f *muxFixture, c muxCodec) {
		c.serve(t, f, answerReversed(limit))
		sess, mux := c.dial(t, f, limit)
		defer sess.Close()
		if _, err := mux.Batch(context.Background(), queryNames(limit+1), dnswire.TypeA, nil); err == nil {
			t.Fatal("batch over the in-flight limit succeeded")
		}
		// The rejected batch took no in-flight slots: a full-size batch
		// still goes through.
		results, err := mux.Batch(context.Background(), queryNames(limit), dnswire.TypeA, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != limit {
			t.Errorf("got %d results, want %d", len(results), limit)
		}
	})
}

func TestMuxSteadyStateAllocatesNoSlots(t *testing.T) {
	const limit = 8
	forEachCodec(t, func(t *testing.T, f *muxFixture, c muxCodec) {
		c.serve(t, f, answerReversed(1))
		sess, mux := c.dial(t, f, limit)
		defer sess.Close()
		names := queryNames(limit)
		// Warm up: the first full batch allocates up to limit slots, all
		// back on the free list once the batch returns.
		if _, err := mux.Batch(context.Background(), names, dnswire.TypeA, nil); err != nil {
			t.Fatal(err)
		}
		warm := mux.FreeSlots()
		if warm == 0 || warm > limit {
			t.Fatalf("warm-up left %d free slots, want 1..%d", warm, limit)
		}
		for round := 0; round < 4; round++ {
			if _, err := mux.Batch(context.Background(), names, dnswire.TypeA, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.QueryContext(context.Background(), names[round], dnswire.TypeA); err != nil {
				t.Fatal(err)
			}
		}
		if got := mux.FreeSlots(); got != warm {
			t.Errorf("steady state grew the slot pool from %d to %d", warm, got)
		}
	})
}
