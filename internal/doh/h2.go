package doh

// HTTP/2 multiplexing for DoH (RFC 8484 over RFC 7540): many concurrent
// streams per TLS session, selected by ALPN when Client.Mux is set. Both
// endpoints live in this repository, so the implementation is the small
// deterministic subset the study needs rather than a general h2 stack:
//
//   - connection setup is client preface + one SETTINGS exchange with no
//     SETTINGS ACKs in either direction — an ACK would be the only h2 write
//     not paired with a read, and any unpaired write races the peer's
//     virtual-clock advances;
//   - HPACK uses literal-without-indexing fields only (no dynamic table, no
//     Huffman coding), so header blocks parse statelessly;
//   - flow control is not enforced: DNS messages are far below the initial
//     window and both ends ignore WINDOW_UPDATE.
//
// The client side is h2Codec, the HTTP/2 codec of the dnsclient.Mux
// in-flight engine that also runs RFC 7766 pipelining for TCP and DoT: the
// engine owns the in-flight limit, the stream→slot table, cancellation and
// fail-all; the codec allocates odd stream IDs, builds each query's HEADERS
// (and POST DATA) frames, and reassembles responses from HEADERS and DATA
// frames, honouring RST_STREAM and GOAWAY.

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// h2Stream is one stream's reassembly state, carried in its engine slot:
// status and body accumulate across the stream's HEADERS and DATA frames.
type h2Stream struct {
	status int
	body   []byte
}

// h2Codec is the HTTP/2 codec of a multiplexed DoH session.
type h2Codec struct {
	method   Method
	template Template
	// Write side, used under the engine's write lock: the next client
	// stream ID (odd, RFC 7540 §5.1.1) and the owning Conn's packed-query
	// and GET :path scratch.
	next       uint32
	pbuf, qbuf *[]byte
	// Read side, used only by the engine's reader: the frame Read last
	// returned.
	br      *bufio.Reader
	f       dnswire.H2Frame
	payload []byte
}

// startH2 upgrades a freshly handshaken session to HTTP/2: verify the ALPN
// result, send the client preface and an empty SETTINGS in one write, and
// read the server's SETTINGS. The extra round trip lands in SetupLatency.
func (conn *Conn) startH2() error {
	if conn.tls.ConnectionState().NegotiatedProtocol != "h2" {
		return fmt.Errorf("doh: server did not negotiate HTTP/2")
	}
	hello := append([]byte(nil), dnswire.H2ClientPreface...)
	hello, err := dnswire.AppendH2Frame(hello, dnswire.H2FrameSettings, 0, 0, nil)
	if err != nil {
		return err
	}
	if _, err := conn.tls.Write(hello); err != nil {
		return err
	}
	f, _, err := dnswire.ReadH2FrameAppend(conn.br, nil)
	if err != nil {
		return fmt.Errorf("doh: h2 setup: %w", err)
	}
	if f.Type != dnswire.H2FrameSettings || f.StreamID != 0 {
		return fmt.Errorf("doh: h2 setup: expected SETTINGS, got %v", f.Type)
	}
	codec := &h2Codec{
		method:   conn.client.Method,
		template: conn.template,
		next:     1,
		pbuf:     conn.pbuf,
		qbuf:     conn.wbuf,
		br:       conn.br,
	}
	conn.h2 = dnsclient.NewMux[uint32, h2Stream](codec, conn.tls, conn.raw, conn.client.MaxInFlight, conn.client.CryptoCost)
	return nil
}

// Mux returns the in-flight engine of a session that negotiated HTTP/2 —
// the handle for coalesced Batch bursts and the session's MaxInFlight — or
// nil for a serial (HTTP/1.1) session.
func (conn *Conn) Mux() *dnsclient.Mux[uint32, h2Stream] { return conn.h2 }

// Open allocates the next stream ID. Stream IDs increase monotonically
// (RFC 7540 §5.1.1) so, unlike DNS transaction IDs, they cannot collide.
func (c *h2Codec) Open(st *h2Stream, _ func(uint32) bool) (uint32, error) {
	sid := c.next
	c.next += 2
	st.status = 0
	st.body = st.body[:0]
	return sid, nil
}

// Append builds one query's frames — HEADERS carrying the RFC 8484
// binding, plus a DATA frame for POST.
//
//doelint:hotpath
func (c *h2Codec) Append(wb []byte, sid uint32, name string, qtype dnswire.Type) ([]byte, error) {
	// RFC 8484 recommends ID 0 for cache friendliness.
	q := dnswire.NewQuery(0, name, qtype)
	packed, err := q.AppendPack((*c.pbuf)[:0])
	*c.pbuf = packed
	if err != nil {
		return wb, err
	}
	hstart := len(wb)
	wb = dnswire.ReserveH2FrameHeader(wb)
	if c.method == POST {
		wb = dnswire.AppendHpackLiteral(wb, ":method", "POST")
		wb = dnswire.AppendHpackLiteral(wb, ":scheme", "https")
		wb = dnswire.AppendHpackLiteral(wb, ":authority", c.template.Host)
		wb = dnswire.AppendHpackLiteral(wb, ":path", c.template.Path)
		wb = dnswire.AppendHpackLiteral(wb, "content-type", ContentType)
		wb = dnswire.AppendHpackLiteral(wb, "accept", ContentType)
		wb, err = dnswire.FinishH2Frame(wb, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid)
		if err != nil {
			return wb, err
		}
		return dnswire.AppendH2Frame(wb, dnswire.H2FrameData, dnswire.H2FlagEndStream, sid, packed)
	}
	wb = dnswire.AppendHpackLiteral(wb, ":method", "GET")
	wb = dnswire.AppendHpackLiteral(wb, ":scheme", "https")
	wb = dnswire.AppendHpackLiteral(wb, ":authority", c.template.Host)
	pb := (*c.qbuf)[:0]
	pb = append(pb, c.template.Path...)
	pb = append(pb, "?dns="...)
	n := base64.RawURLEncoding.EncodedLen(len(packed))
	off := len(pb)
	pb = bufpool.Grow(pb, n)
	base64.RawURLEncoding.Encode(pb[off:], packed)
	*c.qbuf = pb
	wb = dnswire.AppendHpackLiteralBytes(wb, ":path", pb)
	wb = dnswire.AppendHpackLiteral(wb, "accept", ContentType)
	return dnswire.FinishH2Frame(wb, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndStream|dnswire.H2FlagEndHeaders, sid)
}

// Read reads the next frame. HEADERS, DATA and RST_STREAM belong to a
// stream; GOAWAY is fatal; SETTINGS, PING and WINDOW_UPDATE carry no
// response data and — per the package's no-ACK, no-flow-control subset —
// need no reply.
//
//doelint:hotpath
func (c *h2Codec) Read(scratch *[]byte) (uint32, bool, error) {
	f, payload, err := dnswire.ReadH2FrameAppend(c.br, (*scratch)[:0])
	if err != nil {
		return 0, false, err
	}
	*scratch = payload[:0]
	c.f, c.payload = f, payload
	switch f.Type {
	case dnswire.H2FrameHeaders, dnswire.H2FrameData, dnswire.H2FrameRSTStream:
		return f.StreamID, true, nil
	case dnswire.H2FrameGoAway:
		return 0, false, fmt.Errorf("doh: server sent GOAWAY")
	default:
		return 0, false, nil
	}
}

// Apply folds the last frame into its stream. A stream completes at
// END_STREAM (or RST_STREAM); a body past maxBodyLen fails the stream
// without growing further — later frames of the abandoned stream are
// dropped by the engine, and the framing of the others stays intact.
//
//doelint:hotpath
func (c *h2Codec) Apply(st *h2Stream) (*dnswire.Message, bool, error) {
	switch c.f.Type {
	case dnswire.H2FrameRSTStream:
		return nil, true, fmt.Errorf("doh: stream %d reset by server", c.f.StreamID)
	case dnswire.H2FrameHeaders:
		st.status = parseH2Status(c.payload)
		st.body = st.body[:0]
	default:
		if len(st.body)+len(c.payload) > maxBodyLen {
			return nil, true, errBodyTooLarge
		}
		st.body = append(st.body, c.payload...)
	}
	if !c.f.EndStream() {
		return nil, false, nil
	}
	if st.status != http.StatusOK {
		return nil, true, fmt.Errorf("%w: %d", ErrHTTPStatus, st.status)
	}
	m, err := dnswire.Unpack(st.body)
	return m, true, err
}

// parseH2Status extracts :status from a response header block; 0 on parse
// failure (which Apply then rejects as a non-200).
func parseH2Status(block []byte) int {
	for len(block) > 0 {
		name, value, rest, err := dnswire.ReadHpackLiteral(block)
		if err != nil {
			return 0
		}
		if string(name) == ":status" {
			status := 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return 0
				}
				status = status*10 + int(c-'0')
			}
			return status
		}
		block = rest
	}
	return 0
}

// ---- server side ----

// h2Post accumulates a POST request whose body arrives in DATA frames after
// its HEADERS.
type h2Post struct {
	method string
	path   string
	body   []byte
}

// serveH2 is the server's per-connection HTTP/2 loop: preface and SETTINGS
// exchange (no ACKs), then a frame loop that answers each completed stream.
// Responses to concurrently arriving streams coalesce in the write buffer
// until no further frame is already buffered — the h2 analogue of the RFC
// 7766 §6.2.1.1 response coalescing in dnsserver — so a client burst that
// arrived in one segment is answered in one segment.
//
//doelint:hotpath
func (s *Server) serveH2(conn *netsim.Conn, tc io.ReadWriter, paths map[string]bool) {
	remote := conn.RemoteAddr().(netsim.Addr).IP
	br := bufio.NewReaderSize(tc, 4096) //doelint:allow hotalloc -- one reader per connection, amortized over its streams
	preface := make([]byte, len(dnswire.H2ClientPreface))
	if _, err := io.ReadFull(br, preface); err != nil || string(preface) != dnswire.H2ClientPreface {
		return
	}
	f, _, err := dnswire.ReadH2FrameAppend(br, nil)
	if err != nil || f.Type != dnswire.H2FrameSettings || f.StreamID != 0 {
		return
	}
	hello, err := dnswire.AppendH2Frame(nil, dnswire.H2FrameSettings, 0, 0, nil)
	if err != nil {
		return
	}
	if _, err := tc.Write(hello); err != nil {
		return
	}

	rbuf := bufpool.Get(512)
	wbuf := bufpool.Get(512)
	defer bufpool.Put(rbuf)
	defer bufpool.Put(wbuf)
	out := (*wbuf)[:0]
	var posts map[uint32]*h2Post // lazily allocated; GET-only clients never need it
	for {
		f, payload, err := dnswire.ReadH2FrameAppend(br, (*rbuf)[:0])
		if err != nil {
			return
		}
		*rbuf = payload[:0]
		switch f.Type {
		case dnswire.H2FrameHeaders:
			method, path, ok := parseH2Request(payload)
			if !ok {
				return
			}
			if f.EndStream() {
				out, ok = s.appendH2Response(out, conn, remote, f.StreamID, method, path, nil, paths)
				if !ok {
					return
				}
			} else {
				if posts == nil {
					posts = make(map[uint32]*h2Post)
				}
				posts[f.StreamID] = &h2Post{method: method, path: path}
			}
		case dnswire.H2FrameData:
			st := posts[f.StreamID]
			if st == nil {
				return
			}
			st.body = append(st.body, payload...)
			if f.EndStream() {
				delete(posts, f.StreamID)
				var ok bool
				out, ok = s.appendH2Response(out, conn, remote, f.StreamID, st.method, st.path, st.body, paths)
				if !ok {
					return
				}
			}
		case dnswire.H2FrameRSTStream:
			delete(posts, f.StreamID)
		case dnswire.H2FrameGoAway:
			return
		default:
			// SETTINGS, PING, WINDOW_UPDATE: ignored per the no-ACK,
			// no-flow-control subset.
		}
		if len(out) > 0 && br.Buffered() == 0 {
			if _, err := tc.Write(out); err != nil {
				return
			}
			*wbuf = out
			out = out[:0]
		}
	}
}

// parseH2Request extracts :method and :path from a request header block.
func parseH2Request(block []byte) (method, path string, ok bool) {
	for len(block) > 0 {
		name, value, rest, err := dnswire.ReadHpackLiteral(block)
		if err != nil {
			return "", "", false
		}
		switch string(name) {
		case ":method":
			method = string(value)
		case ":path":
			path = string(value)
		}
		block = rest
	}
	return method, path, method != "" && path != ""
}

// appendH2Response answers one completed stream, appending its HEADERS and
// DATA frames to out and charging the handler's processing time to the
// connection. ok is false when the response cannot be framed (fatal).
func (s *Server) appendH2Response(out []byte, conn *netsim.Conn, remote netip.Addr, sid uint32, method, path string, body []byte, paths map[string]bool) ([]byte, bool) {
	status := http.StatusOK
	ctype := ContentType
	var respBody []byte

	p, query := path, ""
	if i := strings.IndexByte(path, '?'); i >= 0 {
		p, query = path[:i], path[i+1:]
	}
	var wire []byte
	switch {
	case !paths[p]:
		status, ctype, respBody = http.StatusNotFound, "text/plain", []byte("not found")
	case method == http.MethodGet:
		dns := queryParam(query, "dns")
		if dns == "" {
			status, ctype, respBody = http.StatusBadRequest, "text/plain", []byte("missing dns parameter")
		} else if decoded, err := base64.RawURLEncoding.DecodeString(dns); err != nil {
			status, ctype, respBody = http.StatusBadRequest, "text/plain", []byte("bad dns parameter")
		} else {
			wire = decoded
		}
	case method == http.MethodPost:
		wire = body
	default:
		status, ctype, respBody = http.StatusMethodNotAllowed, "text/plain", []byte("GET or POST")
	}
	var resp *dnswire.Message
	if wire != nil {
		m, err := dnswire.Unpack(wire)
		if err != nil {
			status, ctype, respBody = http.StatusBadRequest, "text/plain", []byte("malformed DNS message")
		} else {
			r, proc := s.Handler.ServeDNS(remote, m)
			conn.AddLatency(proc + s.ExtraProc)
			resp = r
		}
	}

	for {
		hstart := len(out)
		out = dnswire.ReserveH2FrameHeader(out)
		out = dnswire.AppendHpackLiteral(out, ":status", h2StatusText(status))
		out = dnswire.AppendHpackLiteral(out, "content-type", ctype)
		var err error
		out, err = dnswire.FinishH2Frame(out, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid)
		if err != nil {
			return nil, false
		}
		dstart := len(out)
		out = dnswire.ReserveH2FrameHeader(out)
		if resp != nil {
			// Pack straight into the DATA frame — no intermediate buffer;
			// compression offsets are message-relative so any prefix works.
			if out, err = resp.AppendPack(out); err != nil {
				out = out[:hstart]
				resp = nil
				status, ctype, respBody = http.StatusInternalServerError, "text/plain", []byte("pack error")
				continue
			}
		} else {
			out = append(out, respBody...)
		}
		out, err = dnswire.FinishH2Frame(out, dstart, dnswire.H2FrameData, dnswire.H2FlagEndStream, sid)
		if err != nil {
			return nil, false
		}
		return out, true
	}
}

// h2StatusText renders the status codes this server emits.
func h2StatusText(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusUnsupportedMediaType:
		return "415"
	default:
		return "500"
	}
}

// queryParam extracts one key's value from a raw query string without
// url.ParseQuery's allocations; values are returned undecoded (base64url
// never needs percent-escaping).
func queryParam(query, key string) string {
	for len(query) > 0 {
		kv := query
		if i := strings.IndexByte(query, '&'); i >= 0 {
			kv, query = query[:i], query[i+1:]
		} else {
			query = ""
		}
		if len(kv) > len(key) && kv[len(key)] == '=' && kv[:len(key)] == key {
			return kv[len(key)+1:]
		}
	}
	return ""
}
