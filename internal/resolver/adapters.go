package resolver

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnscrypt"
	"dnsencryption.info/doe/internal/dnswire"
)

// udpExchanger is the connectionless clear-text transport.
type udpExchanger struct {
	client *dnsclient.Client
	server netip.Addr
}

func (u udpExchanger) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := u.client.QueryUDPContext(ctx, u.server, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

// StreamConn is the method set every stream transport's connection shares
// — dnsclient.TCPConn (possibly riding a SOCKS tunnel via
// dnsclient.TCPFromConn), dot.Conn, doh.Conn and doq.Conn.
type StreamConn interface {
	QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*dnsclient.Result, error)
	Close() error
	SetupLatency() time.Duration
	Elapsed() time.Duration
}

// NewSession adapts an established stream connection to the unified API.
// The caller keeps the concrete conn for transport-specific inspection
// (certificates, verification outcome, 0-RTT resumption).
func NewSession(conn StreamConn) Session { return session{conn} }

type session struct{ StreamConn }

func (s session) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := s.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

// DNSCrypt adapts a dnscrypt client to the unified API. The client's
// certificate must already be fetched (FetchCertContext); exchanges on an
// uncertified client surface dnscrypt.ErrNoCert.
func DNSCrypt(client *dnscrypt.Client, server netip.Addr) *DNSCryptExchanger {
	return &DNSCryptExchanger{client: client, server: server}
}

// DNSCryptExchanger is the datagram DNSCrypt transport. Like Transport, it
// records the virtual latency of the most recent exchange — datagram
// transports have no session whose Elapsed could be read instead.
type DNSCryptExchanger struct {
	client *dnscrypt.Client
	server netip.Addr

	mu   sync.Mutex
	last time.Duration
}

// Exchange performs one encrypted lookup.
func (d *DNSCryptExchanger) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := d.client.QueryContext(ctx, d.server, name, qtype)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.last = res.Latency
	d.mu.Unlock()
	return res.Msg, nil
}

// LastLatency is the virtual time the most recent Exchange took.
func (d *DNSCryptExchanger) LastLatency() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}
