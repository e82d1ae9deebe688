package dnsclient

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// DefaultMaxInFlight is the in-flight query limit a concurrent session uses
// when its owner does not pick one. RFC 7766 sets no protocol limit; 64
// keeps the transaction-ID collision probability negligible (64/65536 per
// draw) while covering every batch size the study issues.
const DefaultMaxInFlight = 64

// Codec is the protocol-specific part of a Mux: how queries are keyed,
// framed and read back. K is the key responses are matched by (the DNS
// transaction ID for RFC 7766 pipelining, the stream ID for HTTP/2); S is
// the per-query reassembly state the engine carries in each rendezvous slot
// for codecs whose responses span several frames.
//
// Open runs under the engine's lock, Append under its write lock, and Read
// and Apply on the engine's single reader goroutine, so a codec needs no
// locking of its own.
type Codec[K comparable, S any] interface {
	// Open allocates the key of a new query — skipping any key inUse
	// reports as already in flight — and readies st, a recycled slot's
	// state, for it.
	Open(st *S, inUse func(K) bool) (K, error)
	// Append appends one query's frames to wb.
	Append(wb []byte, key K, name string, qtype dnswire.Type) ([]byte, error)
	// Read blocks for the next frame, reading into the reader-owned
	// scratch. ok is false for frames that belong to no query; a non-nil
	// error is fatal to the session.
	Read(scratch *[]byte) (key K, ok bool, err error)
	// Apply folds the frame Read just returned into its query's state st.
	// done reports that the query is complete, with its response or its
	// own (non-fatal) error.
	Apply(st *S) (msg *dnswire.Message, done bool, err error)
}

// Mux is the in-flight engine every concurrent stream session runs on: many
// queries outstanding on one connection, responses matched to queries by
// key rather than by arrival order. The codec decides what a key is and how
// frames look; everything else lives here — the in-flight limit, the
// key→slot table and its slot free list, cancellation, fail-all on session
// death, and the single-write Batch burst. DNS over TCP and DoT run it with
// the RFC 7766 codec (NewStreamMux); multiplexed DoH runs it with the
// HTTP/2 codec in package doh.
//
// Concurrency contract: Exchange and Batch are safe for concurrent use by
// any number of goroutines; at most MaxInFlight queries are outstanding at
// once, and further callers block. One reader goroutine — started lazily
// with the first query — owns the read side of the stream: it feeds each
// frame to its query's slot and, when the codec completes the query,
// computes its virtual-clock latency ((clock at completion) − (clock at
// write)) and parks the result in the slot.
//
// A read or write error is fatal to the whole session: every in-flight
// query fails with the same error (ErrClosed when the session was closed
// locally) and later queries fail immediately. The resolver layer maps
// these deaths to resolver.ErrSessionClosed.
type Mux[K comparable, S any] struct {
	codec Codec[K, S]
	limit int
	sem   chan struct{}
	clock *netsim.Conn
	// cost is charged to the virtual clock under the write lock before
	// each query's bytes go out (per-record TLS processing; zero for
	// clear-text TCP).
	cost time.Duration
	// inUse is the codec's view of the in-flight table, bound once so
	// Open calls allocate no method values.
	inUse func(K) bool

	// Write side, serialized by wmu: key allocation, framing, the
	// per-query clock charge, and the Write call itself.
	wmu  sync.Mutex
	w    io.Writer
	wbuf *[]byte

	// Demux state, guarded by mu. Rendezvous slots are recycled through a
	// free list so steady-state exchanges allocate no channels.
	mu       sync.Mutex
	inflight map[K]*slot[S]
	free     *slot[S]
	dead     error
	closed   bool
	started  bool
}

// slot is one query's rendezvous point.
type slot[S any] struct {
	ch    chan delivery // buffered, capacity 1: the reader never blocks
	start time.Duration // virtual clock when the query was written
	state S
	next  *slot[S] // free list
}

type delivery struct {
	msg *dnswire.Message
	lat time.Duration
	err error
}

// NewMux runs codec over an established stream. w carries the query
// frames, clock is the connection whose virtual clock charges apply, and
// cost is charged per query. limit <= 0 selects DefaultMaxInFlight.
func NewMux[K comparable, S any](codec Codec[K, S], w io.Writer, clock *netsim.Conn, limit int, cost time.Duration) *Mux[K, S] {
	if limit <= 0 {
		limit = DefaultMaxInFlight
	}
	m := &Mux[K, S]{
		codec:    codec,
		limit:    limit,
		sem:      make(chan struct{}, limit),
		clock:    clock,
		cost:     cost,
		w:        w,
		wbuf:     bufpool.Get(512), //doelint:transfer -- owned by Mux; released in Close
		inflight: make(map[K]*slot[S], limit),
	}
	m.inUse = m.taken
	return m
}

// MaxInFlight reports the session's in-flight query limit.
func (m *Mux[K, S]) MaxInFlight() int { return m.limit }

// acquire takes one in-flight slot, honouring ctx while blocked.
func (m *Mux[K, S]) acquire(ctx context.Context) error {
	select {
	case m.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("dnsclient: in-flight query: %w", ctx.Err())
	}
}

func (m *Mux[K, S]) release() { <-m.sem }

// taken reports whether key is in flight; callers hold m.mu.
func (m *Mux[K, S]) taken(key K) bool {
	_, ok := m.inflight[key]
	return ok
}

// putSlot recycles a drained slot.
func (m *Mux[K, S]) putSlot(p *slot[S]) {
	m.mu.Lock()
	p.next = m.free
	m.free = p
	m.mu.Unlock()
}

// register allocates a key and an in-flight slot stamped with start;
// callers hold m.wmu. It also starts the reader on first use, once there is
// a response to wait for.
func (m *Mux[K, S]) register(start time.Duration) (*slot[S], K, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var key K
	if m.closed {
		return nil, key, ErrClosed
	}
	if m.dead != nil {
		return nil, key, m.dead
	}
	p := m.free
	if p != nil {
		m.free = p.next
		p.next = nil
	} else {
		p = &slot[S]{ch: make(chan delivery, 1)} //doelint:allow hotalloc -- slots are recycled through the free list; steady state allocates none
	}
	key, err := m.codec.Open(&p.state, m.inUse)
	if err != nil {
		p.next = m.free
		m.free = p
		return nil, key, err
	}
	p.start = start
	m.inflight[key] = p
	if !m.started {
		m.started = true
		go m.readLoop()
	}
	return p, key, nil
}

// deregister removes key from the in-flight table. It reports false when
// the reader already claimed the slot — in that case a delivery is
// guaranteed to be buffered in the slot's channel, because the reader
// completes the send while holding m.mu.
func (m *Mux[K, S]) deregister(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, mine := m.inflight[key]; !mine {
		return false
	}
	delete(m.inflight, key)
	return true
}

// send registers one slot per name and writes every query in a single
// Write — the client-side response to RFC 7766 §6.2.1.1's
// segment-coalescing advice. All slots are stamped at burst start: the
// burst's queries share one segment and its responses one coalesced
// segment, so each query's latency is the whole round trip (including every
// per-query clock charge), identical across the burst. Callers hold one
// semaphore slot per name; on error nothing stays registered and those
// semaphore slots are released.
//
//doelint:hotpath
func (m *Mux[K, S]) send(names []string, qtype dnswire.Type, slots []*slot[S], keys []K) error {
	m.wmu.Lock()
	err := ErrClosed
	if m.wbuf != nil {
		err = m.writeLocked(names, qtype, slots, keys)
	}
	m.wmu.Unlock()
	if err != nil {
		for i := range names {
			if slots[i] != nil && m.deregister(keys[i]) {
				m.putSlot(slots[i])
			}
			m.release()
		}
	}
	return err
}

// writeLocked frames and writes one burst; callers hold m.wmu.
//
//doelint:hotpath
func (m *Mux[K, S]) writeLocked(names []string, qtype dnswire.Type, slots []*slot[S], keys []K) error {
	wb := (*m.wbuf)[:0]
	start := m.clock.Elapsed()
	for i, name := range names {
		p, key, err := m.register(start)
		if err != nil {
			return err
		}
		slots[i], keys[i] = p, key
		if wb, err = m.codec.Append(wb, key, name, qtype); err != nil {
			return err
		}
		m.clock.AddLatency(m.cost)
	}
	*m.wbuf = wb
	if _, err := m.w.Write(wb); err != nil {
		m.fail(err)
		return err
	}
	return nil
}

// wait blocks for the slot's delivery, honouring ctx. It releases the
// caller's semaphore slot and recycles the rendezvous slot.
//
//doelint:hotpath
func (m *Mux[K, S]) wait(ctx context.Context, p *slot[S], key K) (*Result, error) {
	var d delivery
	select {
	case d = <-p.ch:
	case <-ctx.Done():
		if m.deregister(key) {
			// The reader never completed this query: nothing can be
			// delivered any more, so the slot is clean for reuse.
			m.putSlot(p)
			m.release()
			return nil, fmt.Errorf("dnsclient: in-flight query: %w", ctx.Err())
		}
		// The reader beat the cancellation; its delivery is buffered.
		d = <-p.ch
	}
	m.putSlot(p)
	m.release()
	if d.err != nil {
		return nil, d.err
	}
	return &Result{Msg: d.msg, Latency: d.lat}, nil
}

// Exchange issues one query on the session and waits for its response.
// Safe for concurrent use; blocks while the session is at its in-flight
// limit.
//
//doelint:hotpath
func (m *Mux[K, S]) Exchange(ctx context.Context, name string, qtype dnswire.Type) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dnsclient: in-flight query: %w", err)
	}
	if err := m.acquire(ctx); err != nil {
		return nil, err
	}
	names := [1]string{name}
	var slots [1]*slot[S]
	var keys [1]K
	if err := m.send(names[:], qtype, slots[:], keys[:]); err != nil {
		return nil, err
	}
	return m.wait(ctx, slots[0], keys[0])
}

// Batch issues len(names) queries as one coalesced burst, then collects all
// responses, returning results in query order (the demux absorbs any
// reordering). The burst counts len(names) against the in-flight limit.
//
// Batches are the deterministic face of concurrency: one goroutine writes
// the whole burst before the server can observe any of it, so virtual-clock
// stamps never depend on goroutine scheduling, and the session's Elapsed
// delta around a Batch divided by len(names) is the amortized per-query
// latency the Fig. 9 "multiplexed" column reports.
func (m *Mux[K, S]) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []Result) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dnsclient: batch: %w", err)
	}
	if len(names) > m.limit {
		return nil, fmt.Errorf("dnsclient: batch of %d exceeds in-flight limit %d", len(names), m.limit)
	}
	for i := range names {
		if err := m.acquire(ctx); err != nil {
			for ; i > 0; i-- {
				m.release()
			}
			return nil, err
		}
	}
	slots := make([]*slot[S], len(names))
	keys := make([]K, len(names))
	if err := m.send(names, qtype, slots, keys); err != nil {
		return nil, err
	}
	out = out[:0]
	var firstErr error
	for i := range names {
		res, err := m.wait(ctx, slots[i], keys[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			out = append(out, Result{})
			continue
		}
		out = append(out, *res)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// readLoop is the session's reader: it owns the stream's read side and its
// own pooled scratch, hands each frame to the codec, and delivers every
// completed query — with the per-query virtual latency computed here, where
// the clock advance of the read is observable — to its rendezvous slot. It
// exits on the first fatal error, failing every in-flight query.
//
//doelint:hotpath
func (m *Mux[K, S]) readLoop() {
	scratch := bufpool.Get(512)
	defer bufpool.Put(scratch)
	for {
		key, ok, err := m.codec.Read(scratch) //doelint:transfer -- lent to the codec for this call only; the deferred Put reclaims it
		if err != nil {
			m.fail(err)
			return
		}
		if !ok {
			continue
		}
		m.mu.Lock()
		// Frames of queries abandoned by cancellation are dropped.
		if p := m.inflight[key]; p != nil {
			if msg, done, err := m.codec.Apply(&p.state); done {
				delete(m.inflight, key)
				// Send while holding mu: the channel has capacity 1 and
				// exactly one sender, so this never blocks, and deregister
				// observing a missing entry can rely on the delivery being
				// buffered.
				p.ch <- delivery{msg: msg, lat: m.clock.Elapsed() - p.start, err: err}
			}
		}
		m.mu.Unlock()
	}
}

// fail marks the session dead and delivers err to every in-flight query.
func (m *Mux[K, S]) fail(err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = err
	} else {
		err = m.dead
	}
	for key, p := range m.inflight {
		delete(m.inflight, key)
		p.ch <- delivery{err: err}
	}
	m.mu.Unlock()
}

// Close fails all in-flight queries with ErrClosed and rejects later ones.
// It does not close the underlying stream: the session owner does, which
// also unblocks the reader.
func (m *Mux[K, S]) Close() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.fail(ErrClosed)
	bufpool.Put(m.wbuf)
	m.wbuf = nil
	return nil
}

// StreamMux is the engine instantiated for RFC 7766 §6.2.1.1 query
// pipelining over a length-prefixed DNS stream (DNS over TCP here, DoT via
// dot.Conn.Pipeline), keyed by transaction ID.
type StreamMux = Mux[uint16, struct{}]

// NewStreamMux wraps an established stream as a pipelined DNS session. rw
// carries the length-prefixed DNS frames (the netsim.Conn itself for
// clear-text TCP, the tls.Conn for DoT); clock is the connection whose
// virtual clock charges apply to; cost is charged per query and padBlock,
// when non-zero, pads each query to that EDNS(0) block size (RFC 8467).
func NewStreamMux(rw io.ReadWriter, clock *netsim.Conn, limit int, cost time.Duration, padBlock int) *StreamMux {
	return NewMux[uint16, struct{}](&streamCodec{r: rw, ids: dnswire.NewIDGen(), pad: padBlock}, rw, clock, limit, cost)
}

// streamCodec is the RFC 7766 codec: one length-prefixed DNS message per
// query and per response, matched by transaction ID.
type streamCodec struct {
	r   io.Reader
	ids dnswire.IDGen
	pad int
	msg *dnswire.Message // the response Read last parsed
}

// Open draws a transaction ID, redrawing on collision with the in-flight
// table so ID reuse cannot mismatch responses.
func (c *streamCodec) Open(_ *struct{}, inUse func(uint16) bool) (uint16, error) {
	for redraw := 0; ; redraw++ {
		if id := c.ids.Next(); !inUse(id) {
			return id, nil
		}
		// With in-flight bounded far below 2^16 a free ID is found almost
		// immediately; the bound only guards against a broken generator.
		if redraw > 1024 {
			return 0, fmt.Errorf("dnsclient: transaction ID space exhausted")
		}
	}
}

//doelint:hotpath
func (c *streamCodec) Append(wb []byte, id uint16, name string, qtype dnswire.Type) ([]byte, error) {
	q := dnswire.NewQuery(id, name, qtype)
	if c.pad > 0 {
		q.SetEDNS0(4096, false)
		if err := q.PadToBlock(c.pad); err != nil { //doelint:allow hotalloc -- padding repacks the query for sizing; one pass per query by design
			return wb, err
		}
	}
	return q.AppendPackTCP(wb)
}

// Read parses the next response. Any read or parse error is fatal: after a
// framing desync every later response would be misparsed too.
//
//doelint:hotpath
func (c *streamCodec) Read(scratch *[]byte) (uint16, bool, error) {
	raw, err := dnswire.ReadTCPAppend(c.r, (*scratch)[:0])
	if err != nil {
		return 0, false, err
	}
	*scratch = raw
	msg, err := dnswire.Unpack(raw)
	if err != nil {
		return 0, false, err
	}
	c.msg = msg
	return msg.ID, true, nil
}

// Apply completes the query: one frame carries the whole response.
func (c *streamCodec) Apply(*struct{}) (*dnswire.Message, bool, error) {
	return c.msg, true, nil
}
