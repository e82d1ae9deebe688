package doh

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"testing"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// serveHostile registers a DoH endpoint whose TLS sessions are handed to
// handle instead of a real server, offering the given ALPN protocols.
func serveHostile(t *testing.T, f *fixture, alpn []string, handle func(tc *tls.Conn, br *bufio.Reader)) {
	t.Helper()
	leaf, err := f.ca.Issue(certs.LeafOptions{CommonName: f.tmpl.Host, IPs: []netip.Addr{dohIP}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{leaf.TLSCertificate()}, NextProtos: alpn}
	f.world.RegisterStream(dohIP, Port, func(conn *netsim.Conn) {
		defer conn.Close()
		tc := tls.Server(conn, cfg)
		if tc.Handshake() != nil {
			return
		}
		handle(tc, bufio.NewReader(tc))
	})
}

// TestHTTP1BodyCap points a serial client at servers announcing or sending
// bodies past the largest DNS message, once per body framing. Each must be
// rejected with a malformed-response error before the body is buffered,
// and the session must refuse later queries: the unread body desyncs it.
func TestHTTP1BodyCap(t *testing.T) {
	huge := strings.Repeat("x", maxBodyLen+1)
	for _, tc := range []struct {
		name string
		resp string
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n"},
		{"content-length-just-over", "HTTP/1.1 200 OK\r\nContent-Length: 65536\r\n\r\n" + huge},
		{"chunk-size", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n7fffffff\r\n"},
		{"chunk-sum", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n8000\r\n" + huge[:0x8000] +
			"\r\n8000\r\n" + huge[:0x8000] + "\r\n"},
		{"close-delimited", "HTTP/1.1 200 OK\r\n\r\n" + huge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			serveHostile(t, f, nil, func(c *tls.Conn, br *bufio.Reader) {
				if _, err := http.ReadRequest(br); err != nil {
					return
				}
				io.WriteString(c, tc.resp) //nolint:errcheck
				c.Close()
			})
			conn, err := f.client().DialContext(context.Background(), f.tmpl, dohIP)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_, err = conn.QueryContext(context.Background(), "big.measure.example.org", dnswire.TypeA)
			if !errors.Is(err, errMalformedResponse) {
				t.Fatalf("err = %v, want errMalformedResponse", err)
			}
			if len(*conn.rbuf) > maxBodyLen+512 {
				t.Errorf("buffered %d body bytes, cap %d", len(*conn.rbuf), maxBodyLen)
			}
			_, err = conn.QueryContext(context.Background(), "after.measure.example.org", dnswire.TypeA)
			if !errors.Is(err, dnsclient.ErrClosed) {
				t.Errorf("query on desynced session: err = %v, want ErrClosed", err)
			}
		})
	}
}

// TestH2BodyCap sends an HTTP/2 response whose DATA frames add up past the
// largest DNS message. The stream fails with a malformed-response error;
// the framing of the session stays intact, so the next stream succeeds.
func TestH2BodyCap(t *testing.T) {
	f := newFixture(t)
	serveHostile(t, f, []string{"h2"}, func(c *tls.Conn, br *bufio.Reader) {
		preface := make([]byte, len(dnswire.H2ClientPreface))
		if _, err := io.ReadFull(br, preface); err != nil {
			return
		}
		hello, _ := dnswire.AppendH2Frame(nil, dnswire.H2FrameSettings, 0, 0, nil)
		if _, err := c.Write(hello); err != nil {
			return
		}
		chunk := bytes.Repeat([]byte{0}, dnswire.MaxH2FrameLen)
		for stream := 0; ; {
			fr, _, err := dnswire.ReadH2FrameAppend(br, nil)
			if err != nil {
				return
			}
			if fr.Type != dnswire.H2FrameHeaders {
				continue
			}
			var out []byte
			hstart := len(out)
			out = dnswire.ReserveH2FrameHeader(out)
			out = dnswire.AppendHpackLiteral(out, ":status", "200")
			out, _ = dnswire.FinishH2Frame(out, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, fr.StreamID)
			if stream == 0 {
				// 5 × 16 KiB > 64 KiB.
				for i := 0; i < 5; i++ {
					flags := byte(0)
					if i == 4 {
						flags = dnswire.H2FlagEndStream
					}
					out, _ = dnswire.AppendH2Frame(out, dnswire.H2FrameData, flags, fr.StreamID, chunk)
				}
			} else {
				resp := dnswire.NewQuery(0, "ok.measure.example.org", dnswire.TypeA).Reply()
				resp.AddAnswer("ok.measure.example.org", 60, dnswire.A{Addr: answerIP})
				packed, _ := resp.Pack()
				out, _ = dnswire.AppendH2Frame(out, dnswire.H2FrameData, dnswire.H2FlagEndStream, fr.StreamID, packed)
			}
			stream++
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	})
	conn, err := f.muxClient().DialContext(context.Background(), f.tmpl, dohIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.QueryContext(context.Background(), "big.measure.example.org", dnswire.TypeA); !errors.Is(err, errMalformedResponse) {
		t.Fatalf("err = %v, want errMalformedResponse", err)
	}
	res, err := conn.QueryContext(context.Background(), "ok.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatalf("next stream on the same session: %v", err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

// FuzzReadResponse feeds arbitrary bytes to the HTTP/1.1 response reader:
// it must never panic and never buffer a body past the cap.
func FuzzReadResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 404 Not Found\r\n\r\nclose-delimited"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &Conn{br: bufio.NewReader(bytes.NewReader(data)), rbuf: new([]byte)}
		_, body, err := conn.readResponse()
		if err == nil && len(body) > maxBodyLen {
			t.Fatalf("accepted a %d-byte body", len(body))
		}
	})
}

// FuzzH2ClientCodec feeds arbitrary frame bytes through the client's HTTP/2
// codec the way the engine's reader does, with every stream in flight: it
// must never panic and never reassemble a body past the cap.
func FuzzH2ClientCodec(f *testing.F) {
	seed, _ := dnswire.AppendH2Frame(nil, dnswire.H2FrameSettings, 0, 0, nil)
	seed, _ = dnswire.AppendH2Frame(seed, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, 1,
		dnswire.AppendHpackLiteral(nil, ":status", "200"))
	seed, _ = dnswire.AppendH2Frame(seed, dnswire.H2FrameData, dnswire.H2FlagEndStream, 1, []byte{0, 0, 0x81, 0x80, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(seed)
	rst, _ := dnswire.AppendH2Frame(nil, dnswire.H2FrameRSTStream, 0, 3, []byte{0, 0, 0, 8})
	f.Add(rst)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &h2Codec{br: bufio.NewReader(bytes.NewReader(data))}
		streams := map[uint32]*h2Stream{}
		scratch := new([]byte)
		for {
			sid, ok, err := c.Read(scratch)
			if err != nil {
				return
			}
			if !ok {
				continue
			}
			st := streams[sid]
			if st == nil {
				st = &h2Stream{}
				streams[sid] = st
			}
			if _, done, _ := c.Apply(st); done {
				delete(streams, sid)
			}
			if len(st.body) > maxBodyLen {
				t.Fatalf("stream %d reassembled %d body bytes", sid, len(st.body))
			}
		}
	})
}
