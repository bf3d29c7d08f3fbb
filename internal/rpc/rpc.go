// Package rpc is the remote procedure call substrate standing in for
// Hewlett-Packard's NCS 2.0 (§1 of the paper). It supplies exactly the
// properties the DEcorum file system needs:
//
//   - connection-oriented, bidirectional calls: "RPC communication between
//     DEcorum clients and DEcorum servers is two-way: clients call servers
//     to access files, and servers call clients to revoke tokens" (§5.3) —
//     both directions run over one association (a Peer);
//   - authentication on every call (§3.7), via a pluggable Authenticator
//     (internal/auth supplies the Kerberos-style one);
//   - distinct worker classes: a peer reserves workers for calls flagged
//     PriorityRevoke, so a token-revocation store-back can always make
//     progress even when the normal request pool is saturated — the
//     deadlock the paper warns about in §6.4;
//   - instrumentation: message and byte counters per peer, plus an
//     optional per-message simulated latency, which is what the
//     consistency-traffic experiments (C3–C5) measure.
//
// Frames travel on one persistent gob stream per direction. The body a
// frame carries (call args, a reply, what handlers Marshal and
// Unmarshal) is a standalone gob stream of its own: the type definitions
// of its value, then the value, so an authenticator signs and any gob
// reader decodes it alone. The body codec (codec.go) keeps encoders warm
// per Go type and decoders warm per sender type table, emitting the
// bytes a fresh gob.Encoder would.
package rpc

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"decorum/internal/obs"
)

// Priority classes for calls (§6.4).
type Priority uint8

const (
	// PriorityNormal is the default request class.
	PriorityNormal Priority = iota
	// PriorityRevoke marks calls issued from token-revocation handlers;
	// they are served by reserved workers that normal traffic cannot
	// exhaust.
	PriorityRevoke
)

// frame kinds. kindHello and kindSwitch are the binary-lane handshake
// (wire.go); peers that predate the lane fall through their readLoop
// switch on unknown kinds, which is exactly the fallback the negotiation
// relies on.
const (
	kindCall   uint8 = 1
	kindReply  uint8 = 2
	kindError  uint8 = 3
	kindHello  uint8 = 4
	kindSwitch uint8 = 5
)

type frame struct {
	Kind     uint8
	ID       uint64
	Method   string
	Priority uint8
	Auth     []byte
	Body     []byte
	ErrMsg   string
	// Trace/Span carry the caller's span context so one vnode operation
	// can be followed client → server → revocation callback → second
	// client (obs package). Zero means the call is untraced.
	Trace uint64
	Span  uint64
	// Epoch is the sender's restart epoch (token state recovery): a
	// server stamps its incarnation into every frame it sends, so the
	// remote end can detect a restart from any reply. Zero means the
	// sender has no epoch (clients, untagged peers).
	Epoch uint64
	// Wire is the binary-lane version, carried only on kindHello frames.
	Wire uint16

	// In-memory-only binary-lane fields (unexported, so the gob codec
	// never sees them): a codecBin frame carries its method as a compact
	// ID and its payload split into meta and raw data.
	isBin     bool
	binMethod uint16
	binMeta   []byte
	binData   []byte
}

// Errors.
var (
	ErrClosed   = errors.New("rpc: peer closed")
	ErrNoMethod = errors.New("rpc: no such method")
	ErrAuth     = errors.New("rpc: authentication failed")
	ErrTimeout  = errors.New("rpc: call timed out")
)

// CallCtx carries per-call context into handlers.
type CallCtx struct {
	// Peer is the association the call arrived on; handlers use it to
	// make calls back (revocations, store-backs).
	Peer *Peer
	// Identity is whatever the Authenticator attached (e.g.
	// auth.Identity); nil without authentication.
	Identity any
	// Priority is the class the caller requested.
	Priority Priority
	// Trace is the handler's span context: same trace as the remote
	// caller, with a fresh span for this procedure. Handlers pass it (or
	// a Child) into any calls they make on behalf of this one — most
	// importantly the token-revocation callbacks — so the trace crosses
	// machines. Zero when the caller was untraced.
	Trace obs.SpanContext
}

// Handler serves one method. args is the gob-encoded argument; the return
// is gob-encoded into the reply.
type Handler func(ctx *CallCtx, body []byte) ([]byte, error)

// Authenticator signs outgoing calls and verifies incoming ones.
type Authenticator interface {
	// SignCall produces the Auth field for an outgoing call.
	SignCall(method string, body []byte) ([]byte, error)
	// VerifyCall checks an incoming call and returns the caller identity.
	VerifyCall(method string, body, sig []byte) (any, error)
}

// Stats counts traffic over one peer, the instrument behind C3–C5.
type Stats struct {
	CallsSent       uint64
	CallsReceived   uint64
	BytesSent       uint64
	BytesReceived   uint64
	ReplySendErrors uint64
	Timeouts        uint64
	// Wire-level accounting (actual bytes on the connection, both
	// framings) and binary-lane traffic.
	WireBytesIn   uint64
	WireBytesOut  uint64
	BinSent       uint64
	BinReceived   uint64
	LaneFallbacks uint64
	// FrameChecksumErrors counts binary frames whose CRC32-C failed on
	// receive; each one shuts the association down (the stream is damaged).
	FrameChecksumErrors uint64
}

// Options configures a Peer.
type Options struct {
	// Auth authenticates calls; nil allows unauthenticated peers (tests).
	Auth Authenticator
	// Workers is the normal worker pool size (default 8).
	Workers int
	// ReservedWorkers serve PriorityRevoke calls (default 2, §6.4).
	ReservedWorkers int
	// Latency is a simulated one-way network delay applied to each
	// message (experiments; default 0).
	Latency time.Duration
	// CallTimeout bounds how long a Call waits for the remote reply; 0
	// (the default) preserves the historical wait-forever behavior. On
	// expiry the call returns ErrTimeout; the association stays up.
	CallTimeout time.Duration
	// Metrics, when set, aggregates this peer's traffic into the shared
	// registry (counters rpc.calls_sent etc., histograms rpc.call_ns and
	// rpc.serve_ns) and enables span recording; every peer a process
	// creates normally shares the process registry. The per-peer Stats()
	// view works with or without it.
	Metrics *obs.Registry
	// Epoch, when nonzero, is stamped into every frame this peer sends
	// (calls and replies alike). Servers set it to their restart epoch so
	// clients learn the incarnation from any traffic, per token state
	// recovery.
	Epoch uint64
	// DisableBinaryLane keeps this peer gob-only: it neither advertises
	// the binary wire version at Start nor switches to framed transport
	// when the remote does. It stands in for a pre-lane build in the
	// mixed-version tests and the load-smoke fallback drill.
	DisableBinaryLane bool
}

// Peer is one end of a bidirectional RPC association.
type Peer struct {
	conn net.Conn
	opts Options
	// br is the peer's own buffered reader: it implements io.ByteReader,
	// so the gob decoder adds no buffering of its own and reads exactly
	// one message per Decode — which is what lets the framed binary lane
	// interleave with gob on the same stream (wire.go).
	br *bufio.Reader

	writeMu sync.Mutex
	enc     *gob.Encoder
	// Binary-lane write state, guarded by writeMu: once writeFramed is
	// set every outgoing message is length-prefixed; encBuf captures each
	// gob Encode so it can be framed, binScratch holds binary headers.
	// framedOut is flipped (once) under writeMu but read with atomic
	// loads, because the read loop consults it without taking writeMu —
	// it must never block on the write path or in-process pipes deadlock.
	framedOut  atomic.Bool
	framedIn   atomic.Bool
	encBuf     bytes.Buffer
	binScratch []byte

	mu          sync.Mutex
	handlers    map[string]Handler
	binHandlers map[uint16]binMethod
	pending     map[uint64]chan frame
	nextID      uint64
	closed      bool
	closeErr    error

	// Incoming calls flow readLoop -> inNormal/inReserved -> pump ->
	// normalQ/reservedQ -> workers. The pumps buffer without bound so the
	// read loop never stalls behind a saturated worker pool; concurrency
	// is still capped by the fixed pools (§6.4's point).
	inNormal   chan frame
	inReserved chan frame
	normalQ    chan frame
	reservedQ  chan frame
	done       chan struct{}
	wg         sync.WaitGroup

	callsSent         atomic.Uint64
	callsReceived     atomic.Uint64
	bytesSent         atomic.Uint64
	bytesReceived     atomic.Uint64
	replySendErrors   atomic.Uint64
	timeouts          atomic.Uint64
	remoteEpoch       atomic.Uint64
	laneUp            atomic.Bool
	remoteWire        atomic.Uint32
	wireBytesIn       atomic.Uint64
	wireBytesOut      atomic.Uint64
	binSent           atomic.Uint64
	binReceived       atomic.Uint64
	laneFallbacks     atomic.Uint64
	frameChecksumErrs atomic.Uint64

	// Shared-registry views, resolved once at NewPeer from opts.Metrics;
	// all nil (no-op) when the peer is unregistered.
	reg            *obs.Registry
	mCallsSent     *obs.Counter
	mCallsReceived *obs.Counter
	mBytesSent     *obs.Counter
	mBytesReceived *obs.Counter
	mReplySendErrs *obs.Counter
	mTimeouts      *obs.Counter
	mCallNs        *obs.Histogram
	mServeNs       *obs.Histogram
	mBytesIn       *obs.Counter
	mBytesOut      *obs.Counter
	mFrameBytes    *obs.Histogram
	mLaneSent      *obs.Counter
	mLaneRecv      *obs.Counter
	mLaneFallback  *obs.Counter
	mFrameCRCErrs  *obs.Counter
}

// NewPeer wraps conn. Call Handle to register methods, then Serve (or use
// Start which runs Serve in a goroutine).
func NewPeer(conn net.Conn, opts Options) *Peer {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.ReservedWorkers <= 0 {
		opts.ReservedWorkers = 2
	}
	p := &Peer{
		conn:        conn,
		opts:        opts,
		handlers:    make(map[string]Handler),
		binHandlers: make(map[uint16]binMethod),
		pending:     make(map[uint64]chan frame),
		inNormal:    make(chan frame),
		inReserved:  make(chan frame),
		normalQ:     make(chan frame),
		reservedQ:   make(chan frame),
		done:        make(chan struct{}),
	}
	// The encoder writes through gobSink (conn until the binary-lane
	// switch, then the framing capture buffer); the reader is our own
	// bufio so the gob decoder and the framed reads share one stream.
	p.enc = gob.NewEncoder(gobSink{p})
	p.br = bufio.NewReaderSize(meteredReader{p}, 32<<10)
	if opts.Metrics != nil {
		p.reg = opts.Metrics
		p.mCallsSent = p.reg.Counter("rpc.calls_sent")
		p.mCallsReceived = p.reg.Counter("rpc.calls_received")
		p.mBytesSent = p.reg.Counter("rpc.bytes_sent")
		p.mBytesReceived = p.reg.Counter("rpc.bytes_received")
		p.mReplySendErrs = p.reg.Counter("rpc.reply_send_errors")
		p.mTimeouts = p.reg.Counter("rpc.timeouts")
		p.mCallNs = p.reg.Histogram("rpc.call_ns")
		p.mServeNs = p.reg.Histogram("rpc.serve_ns")
		p.mBytesIn = p.reg.Counter("rpc.bytes_in")
		p.mBytesOut = p.reg.Counter("rpc.bytes_out")
		p.mFrameBytes = p.reg.Histogram("rpc.frame_bytes")
		p.mLaneSent = p.reg.Counter("rpc.lane_bin_sent")
		p.mLaneRecv = p.reg.Counter("rpc.lane_bin_received")
		p.mLaneFallback = p.reg.Counter("rpc.lane_fallbacks")
		p.mFrameCRCErrs = p.reg.Counter("rpc.frame_checksum_errors")
	}
	return p
}

// Handle registers a method. Must be called before Start.
func (p *Peer) Handle(method string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers[method] = h
}

// Start launches the worker pools and the read loop. A lane-capable peer
// first advertises the binary wire version; a gob-only remote ignores the
// unknown frame kind and the association stays pure gob.
func (p *Peer) Start() {
	p.sendHello()
	for i := 0; i < p.opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker(p.normalQ)
	}
	for i := 0; i < p.opts.ReservedWorkers; i++ {
		p.wg.Add(1)
		go p.worker(p.reservedQ)
	}
	p.wg.Add(2)
	go p.pump(p.inNormal, p.normalQ)
	go p.pump(p.inReserved, p.reservedQ)
	p.wg.Add(1)
	go p.readLoop()
}

// pump forwards frames with unbounded buffering.
func (p *Peer) pump(in, out chan frame) {
	defer p.wg.Done()
	var backlog []frame
	for {
		var send chan frame
		var next frame
		if len(backlog) > 0 {
			send = out
			next = backlog[0]
		}
		select {
		case f := <-in:
			backlog = append(backlog, f)
		case send <- next:
			backlog = backlog[1:]
		case <-p.done:
			return
		}
	}
}

// Close tears down the association; in-flight calls fail with ErrClosed.
func (p *Peer) Close() error {
	p.shutdown(ErrClosed)
	return nil
}

func (p *Peer) shutdown(err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.closeErr = err
	for id, ch := range p.pending {
		close(ch)
		delete(p.pending, id)
	}
	p.mu.Unlock()
	close(p.done)
	p.conn.Close()
}

// Done returns a channel closed when the association shuts down — on
// Close, a transport error, or remote hangup. The client resource layer
// watches it to begin reconnect + token reclaim without waiting for the
// next call to fail.
func (p *Peer) Done() <-chan struct{} { return p.done }

// RemoteEpoch reports the restart epoch most recently seen in a frame
// from the remote end, or zero if the remote never stamped one.
func (p *Peer) RemoteEpoch() uint64 { return p.remoteEpoch.Load() }

// Stats returns the peer's traffic counters.
func (p *Peer) Stats() Stats {
	return Stats{
		CallsSent:       p.callsSent.Load(),
		CallsReceived:   p.callsReceived.Load(),
		BytesSent:       p.bytesSent.Load(),
		BytesReceived:   p.bytesReceived.Load(),
		ReplySendErrors: p.replySendErrors.Load(),
		Timeouts:        p.timeouts.Load(),
		WireBytesIn:     p.wireBytesIn.Load(),
		WireBytesOut:    p.wireBytesOut.Load(),
		BinSent:         p.binSent.Load(),
		BinReceived:     p.binReceived.Load(),
		LaneFallbacks:   p.laneFallbacks.Load(),

		FrameChecksumErrors: p.frameChecksumErrs.Load(),
	}
}

func (p *Peer) send(f frame) error {
	f.Epoch = p.opts.Epoch
	if p.opts.Latency > 0 {
		time.Sleep(p.opts.Latency)
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	n := uint64(len(f.Body) + len(f.Auth) + len(f.Method) + 16)
	p.bytesSent.Add(n)
	p.mBytesSent.Add(n)
	if !p.framedOut.Load() {
		p.mFrameBytes.ObserveNs(int64(n))
		return p.enc.Encode(f)
	}
	// Framed transport: capture the gob message and length-prefix it.
	p.encBuf.Reset()
	if err := p.enc.Encode(f); err != nil {
		return err
	}
	return p.writeFramedGob()
}

// Call invokes method on the remote end, gob-encoding args and decoding
// the result into reply (which may be nil for void methods).
func (p *Peer) Call(method string, args, reply any) error {
	return p.CallPriority(method, args, reply, PriorityNormal)
}

// CallPriority is Call with an explicit worker class; revocation handlers
// use PriorityRevoke for their store-backs (§6.4).
func (p *Peer) CallPriority(method string, args, reply any, prio Priority) error {
	return p.CallTraced(method, args, reply, prio, obs.SpanContext{})
}

// CallTraced is CallPriority carrying an explicit trace context. The call
// becomes a child span of tc, stamped into the frame so the remote
// handler (and anything it calls in turn) continues the same trace. With
// a zero tc, a registered peer roots a fresh trace — tracing starts at
// the outermost call site with no caller changes — while an unregistered
// peer stays untraced.
func (p *Peer) CallTraced(method string, args, reply any, prio Priority, tc obs.SpanContext) error {
	// Encode into a pooled scratch buffer: the bytes are consumed
	// synchronously by send (gob-copied or framed-copied into the
	// stream), so the buffer can go back to the pool when we return.
	body := bufPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bufPool.Put(body)
	if args != nil {
		if err := encodeBody(body, args); err != nil {
			return err
		}
	}
	var sig []byte
	if p.opts.Auth != nil {
		s, err := p.opts.Auth.SignCall(method, body.Bytes())
		if err != nil {
			return err
		}
		sig = s
	}

	var callSC obs.SpanContext
	if !tc.IsZero() || p.reg != nil {
		callSC = tc.Child()
	}
	start := time.Now()

	ch := make(chan frame, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.closeErr
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = ch
	p.mu.Unlock()

	err := p.send(frame{
		Kind: kindCall, ID: id, Method: method,
		Priority: uint8(prio), Auth: sig, Body: body.Bytes(),
		Trace: callSC.Trace, Span: callSC.Span,
	})
	if err != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		// A failed frame write means the association is gone; classify it
		// so callers can distinguish transport loss from remote errors.
		return fmt.Errorf("%w: send %s: %v", ErrClosed, method, err)
	}
	p.callsSent.Add(1)
	p.mCallsSent.Inc()

	resp, ok, werr := p.awaitReply(id, ch, method)
	p.mCallNs.Observe(time.Since(start))
	p.finishCallSpan(method, callSC, tc.Span, start)
	if werr != nil {
		return werr
	}
	if !ok {
		return ErrClosed
	}
	if resp.Kind == kindError {
		return RemoteError{Method: method, Msg: resp.ErrMsg}
	}
	if reply != nil {
		return decodeBody(resp.Body, reply)
	}
	return nil
}

// awaitReply blocks for the reply to call id, honoring CallTimeout. ok is
// false when the peer shut down under the call.
func (p *Peer) awaitReply(id uint64, ch chan frame, method string) (resp frame, ok bool, err error) {
	if p.opts.CallTimeout > 0 {
		timer := time.NewTimer(p.opts.CallTimeout)
		defer timer.Stop()
		select {
		case resp, ok = <-ch:
		case <-timer.C:
			// Abandon the pending slot; a late reply finds no waiter and
			// is dropped by readLoop. The delivery channel is buffered,
			// so a reply racing this delete cannot block the read loop.
			p.mu.Lock()
			delete(p.pending, id)
			p.mu.Unlock()
			p.timeouts.Add(1)
			p.mTimeouts.Inc()
			return frame{}, false, fmt.Errorf("%w: %s after %v", ErrTimeout, method, p.opts.CallTimeout)
		}
	} else {
		resp, ok = <-ch
	}
	return resp, ok, nil
}

// finishCallSpan records the completed client-side call span.
func (p *Peer) finishCallSpan(method string, sc obs.SpanContext, parent uint64, start time.Time) {
	if p.reg == nil || sc.IsZero() {
		return
	}
	p.reg.RecordSpan(obs.Span{
		Trace: sc.Trace, Span: sc.Span, Parent: parent,
		Name: "rpc.call " + method, Start: start, Dur: time.Since(start),
	})
}

// RemoteError is a handler error transported back to the caller.
type RemoteError struct {
	Method string
	Msg    string
}

func (e RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

func (p *Peer) readLoop() {
	defer p.wg.Done()
	// The decoder reads from the peer's own bufio.Reader (an
	// io.ByteReader), consuming exactly one gob message per Decode. After
	// the remote's kindSwitch the same decoder keeps serving the gob
	// payloads of framed messages — the stream it sees is byte-identical,
	// minus the frame headers stripped by readFramedFrame.
	dec := gob.NewDecoder(p.br)
	framed := false
	for {
		var f frame
		var err error
		if framed {
			f, err = p.readFramedFrame(dec)
		} else {
			err = dec.Decode(&f)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				err = fmt.Errorf("%w: %v", ErrClosed, err)
			} else {
				err = ErrClosed
			}
			p.shutdown(err)
			return
		}
		n := uint64(len(f.Body) + len(f.Auth) + len(f.Method) + len(f.binMeta) + len(f.binData) + 16)
		p.bytesReceived.Add(n)
		p.mBytesReceived.Add(n)
		if f.Epoch != 0 {
			p.remoteEpoch.Store(f.Epoch)
		}
		switch f.Kind {
		case kindHello:
			p.noteRemoteHello(f.Wire)
			continue
		case kindSwitch:
			// The remote's write side goes framed from here on.
			framed = true
			p.noteRemoteSwitch()
			continue
		}
		switch f.Kind {
		case kindCall:
			p.callsReceived.Add(1)
			p.mCallsReceived.Inc()
			q := p.inNormal
			if Priority(f.Priority) == PriorityRevoke {
				q = p.inReserved
			}
			select {
			case q <- f:
			case <-p.done:
				return
			}
		case kindReply, kindError:
			p.mu.Lock()
			ch, ok := p.pending[f.ID]
			if ok {
				delete(p.pending, f.ID)
			}
			p.mu.Unlock()
			if ok {
				ch <- f
			}
		}
	}
}

func (p *Peer) worker(q chan frame) {
	defer p.wg.Done()
	for {
		select {
		case f := <-q:
			p.dispatch(f)
		case <-p.done:
			return
		}
	}
}

func (p *Peer) dispatch(f frame) {
	if f.isBin {
		p.dispatchBin(f)
		return
	}
	var identity any
	if p.opts.Auth != nil {
		id, err := p.opts.Auth.VerifyCall(f.Method, f.Body, f.Auth)
		if err != nil {
			p.sendReply(frame{Kind: kindError, ID: f.ID, ErrMsg: ErrAuth.Error()})
			return
		}
		identity = id
	}
	p.mu.Lock()
	h := p.handlers[f.Method]
	p.mu.Unlock()
	if h == nil {
		p.sendReply(frame{Kind: kindError, ID: f.ID, ErrMsg: fmt.Sprintf("%v: %s", ErrNoMethod, f.Method)})
		return
	}
	// Continue the caller's trace: same trace ID, fresh span for this
	// procedure, parented on the caller's call span.
	var tc obs.SpanContext
	if f.Trace != 0 {
		tc = obs.SpanContext{Trace: f.Trace, Span: obs.NewID()}
	}
	start := time.Now()
	ctx := &CallCtx{Peer: p, Identity: identity, Priority: Priority(f.Priority), Trace: tc}
	out, err := h(ctx, f.Body)
	p.mServeNs.Observe(time.Since(start))
	if p.reg != nil && !tc.IsZero() {
		p.reg.RecordSpan(obs.Span{
			Trace: tc.Trace, Span: tc.Span, Parent: f.Span,
			Name: "rpc.serve " + f.Method, Start: start, Dur: time.Since(start),
		})
	}
	if err != nil {
		p.sendReply(frame{Kind: kindError, ID: f.ID, ErrMsg: err.Error()})
		return
	}
	p.sendReply(frame{Kind: kindReply, ID: f.ID, Body: out})
}

// sendReply transmits a reply or error frame. A failed send used to be
// silently dropped, leaving the remote caller blocked forever on a reply
// that would never come; now it is counted (rpc.reply_send_errors) and
// tears the association down, so every outstanding call on the other end
// fails fast with ErrClosed.
func (p *Peer) sendReply(f frame) {
	if err := p.send(f); err != nil {
		p.replySendErrors.Add(1)
		p.mReplySendErrs.Inc()
		p.shutdown(fmt.Errorf("%w: reply send failed: %v", ErrClosed, err))
	}
}

// bufPool recycles encode scratch buffers across Marshal and the Call
// path, so every control RPC stops allocating (and growing) a fresh
// bytes.Buffer.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Marshal gob-encodes a value for handler returns.
func Marshal(v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := encodeBody(buf, v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	out := append([]byte(nil), buf.Bytes()...)
	bufPool.Put(buf)
	return out, nil
}

// Unmarshal gob-decodes handler arguments.
func Unmarshal(body []byte, v any) error {
	return decodeBody(body, v)
}

// Pipe returns two connected in-process peers (for tests and in-process
// cells). Callers register handlers and Start both.
func Pipe(a, b Options) (*Peer, *Peer) {
	c1, c2 := net.Pipe()
	return NewPeer(c1, a), NewPeer(c2, b)
}
