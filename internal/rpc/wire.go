// Binary bulk-data wire lane.
//
// The original transport gob-encodes every frame — including 64 KiB chunk
// payloads — paying reflection, intermediate buffers, and a full copy in
// each direction. This file adds a negotiated second lane for bulk data:
//
//   - At Start, a lane-capable peer sends a gob kindHello frame carrying
//     its wire version. A peer that predates the lane (or runs with
//     Options.DisableBinaryLane) ignores unknown frame kinds, never
//     answers, and the association stays pure gob — the mixed-version
//     fallback.
//   - On receiving a hello, a capable peer emits a gob kindSwitch frame
//     and flips its *write* side to framed transport. kindSwitch is the
//     last raw-gob value in that direction; the reader flips when it
//     decodes it, so no byte is ever parsed under the wrong framing.
//   - After the switch every outgoing message is length-prefixed:
//     [1-byte codec][4-byte big-endian payload length][payload]. Codec
//     codecGob wraps one gob-encoded frame (the persistent encoder keeps
//     its type-definition amortization because the decoder sees the same
//     byte stream, just interleaved with headers it strips first). The
//     frame's Body is still a standalone gob stream, type definitions
//     included, built and read by the warm body codec (codec.go). Codec
//     codecBin is the binary data frame below.
//
// A binary frame's payload is a fixed 64-byte hand-rolled header followed
// by the authenticator, a small method-specific meta section, and the raw
// data bytes:
//
//	off  0  kind      uint8   (kindCall / kindReply)
//	off  1  priority  uint8
//	off  2  method    uint16  (compact method ID, registered via HandleBin)
//	off  4  flags     uint32  (bit 0: frame checksum present)
//	off  8  id        uint64  (call/reply matching)
//	off 16  trace     uint64
//	off 24  span      uint64
//	off 32  epoch     uint64
//	off 40  auth len  uint32
//	off 44  meta len  uint32
//	off 48  data len  uint32
//	off 52  checksum  uint32  (CRC32-C of auth+meta+data when flag bit 0 set)
//	off 56  reserved  (8 bytes, zero)
//
// Data bytes are read into their own exactly-sized buffer, so a chunk
// payload can be handed to the client's ChunkStore without another copy;
// on the send side header+meta and the payload slices go out through
// net.Buffers (writev on TCP), so a multi-chunk store batch is one
// syscall, not N encodes. Handler errors travel back as ordinary gob
// kindError frames — after the switch both codecs share the stream, so
// the error path needs no binary encoding of its own.
//
// The reader is a *bufio.Reader owned by the Peer. gob.NewDecoder uses it
// as-is (it implements io.ByteReader), reads exactly one message per
// Decode, and therefore interleaves safely with the framed reads.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"decorum/internal/obs"
)

// WireVersion is the binary lane version this build speaks, advertised in
// the handshake hello.
const WireVersion = 1

// ErrNoBinaryLane reports a CallBin attempted before (or without) the
// binary lane being negotiated; callers fall back to the gob path.
var ErrNoBinaryLane = errors.New("rpc: binary lane not negotiated")

// Framed-transport codecs (first byte of every post-switch message).
const (
	codecGob uint8 = 1
	codecBin uint8 = 2
)

const (
	binHeaderSize = 64
	// maxFramePayload bounds a framed message; a length prefix beyond it
	// means a corrupt or hostile stream, and the peer shuts down rather
	// than allocate.
	maxFramePayload = 64 << 20

	// flagFrameCRC marks a binary frame carrying a CRC32-C of its
	// auth+meta+data sections at header offset 52. Every frame this build
	// sends sets it; a frame from an older peer leaves flags zero and is
	// accepted unchecked, so mixed versions interoperate.
	flagFrameCRC uint32 = 1 << 0
)

// castagnoli is the CRC32-C table for frame checksums — hardware-assisted
// on amd64/arm64, so the per-frame cost is a few ns per KiB.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PartsAuthenticator extends Authenticator with scatter/gather signing so
// the binary lane can authenticate header+payload without concatenating
// them into a fresh buffer. Authenticators that do not implement it fall
// back to a one-copy concatenation.
type PartsAuthenticator interface {
	Authenticator
	SignCallParts(method string, parts ...[]byte) ([]byte, error)
	VerifyCallParts(method string, sig []byte, parts ...[]byte) (any, error)
}

// BinHandler serves one binary-lane method. meta is the method-specific
// header; data is the raw payload and aliases a buffer the handler may
// retain (ownership passes to the handler). respData slices are written
// scatter/gather without copying.
type BinHandler func(ctx *CallCtx, meta, data []byte) (respMeta []byte, respData [][]byte, err error)

type binMethod struct {
	name string // method name used for authentication and errors
	h    BinHandler
}

// HandleBin registers a binary-lane method under a compact ID. name is
// the method's wire name, used for signing and error reporting (binary
// methods conventionally reuse their gob method name). Must be called
// before Start.
func (p *Peer) HandleBin(id uint16, name string, h BinHandler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.binHandlers[id] = binMethod{name: name, h: h}
}

// BinaryLane reports whether the binary lane is negotiated: this peer has
// seen the remote hello and switched its write side to framed transport.
func (p *Peer) BinaryLane() bool { return p.laneUp.Load() }

// RemoteWire reports the wire version the remote advertised, or zero for
// a gob-only remote.
func (p *Peer) RemoteWire() uint16 { return uint16(p.remoteWire.Load()) }

// sendHello advertises the binary lane, once, at Start. It runs in its
// own goroutine because a synchronous write would deadlock on in-process
// pipes (the remote's read loop may not be running yet); the hello's
// position in the stream does not matter — only kindSwitch orders the
// framing change, and writeMu serializes that. It goes through send so a
// hello racing past our own switch is framed correctly. A gob-only
// remote ignores the unknown frame kind.
func (p *Peer) sendHello() {
	if p.opts.DisableBinaryLane {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		// Send errors here mean the transport is already dead; the read
		// loop will notice and shut the peer down.
		_ = p.send(frame{Kind: kindHello, Wire: WireVersion})
	}()
}

// noteRemoteHello runs when the read loop decodes the remote's hello: the
// remote speaks the binary lane, so switch our write side to framed
// transport. kindSwitch is the last raw-gob frame we emit; everything
// after it is length-prefixed. The switch is written from a fresh
// goroutine — the read loop must never perform a blocking write, or two
// peers handshaking over an in-process pipe deadlock writing at each
// other.
//
// The lane counts as up only when both directions are confirmed: we have
// framed our write side (seen the remote hello) AND seen the remote's
// kindSwitch — which proves the remote received *our* hello, because a
// switch is only ever sent in response to one. Before that, a binary call
// could reach a peer whose write side cannot yet carry the binary reply.
func (p *Peer) noteRemoteHello(wire uint16) {
	p.remoteWire.Store(uint32(wire))
	if p.opts.DisableBinaryLane || wire == 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.writeMu.Lock()
		if !p.framedOut.Load() {
			if err := p.enc.Encode(frame{Kind: kindSwitch, Epoch: p.opts.Epoch}); err == nil {
				p.framedOut.Store(true)
			}
		}
		p.writeMu.Unlock()
		if p.framedOut.Load() && p.framedIn.Load() {
			p.laneUp.Store(true)
		}
	}()
}

// noteRemoteSwitch runs when the read loop decodes the remote's
// kindSwitch: the remote's write side is framed from here on. Lock-free —
// see noteRemoteHello for why the read loop cannot touch writeMu.
func (p *Peer) noteRemoteSwitch() {
	p.framedIn.Store(true)
	if p.framedOut.Load() {
		p.laneUp.Store(true)
	}
}

// gobSink is the persistent gob encoder's destination: the connection
// while the stream is raw, the capture buffer once framed. writeFramed
// and encBuf are guarded by writeMu, which is held across every Encode.
type gobSink struct{ p *Peer }

func (s gobSink) Write(b []byte) (int, error) {
	if s.p.framedOut.Load() {
		return s.p.encBuf.Write(b)
	}
	n, err := s.p.conn.Write(b)
	s.p.countOut(n)
	return n, err
}

// meteredReader counts actual bytes read off the connection (under the
// peer's bufio.Reader, so read-ahead is included — these are wire bytes,
// not frame bytes).
type meteredReader struct{ p *Peer }

func (m meteredReader) Read(b []byte) (int, error) {
	n, err := m.p.conn.Read(b)
	m.p.countIn(n)
	return n, err
}

func (p *Peer) countOut(n int) {
	if n > 0 {
		p.wireBytesOut.Add(uint64(n))
		p.mBytesOut.Add(uint64(n))
	}
}

func (p *Peer) countIn(n int) {
	if n > 0 {
		p.wireBytesIn.Add(uint64(n))
		p.mBytesIn.Add(uint64(n))
	}
}

// writeFramedGob frames one gob-encoded frame. Caller holds writeMu with
// writeFramed set; the encoder has just written the message into encBuf.
func (p *Peer) writeFramedGob() error {
	var hdr [5]byte
	hdr[0] = codecGob
	binary.BigEndian.PutUint32(hdr[1:], uint32(p.encBuf.Len()))
	total := len(hdr) + p.encBuf.Len()
	p.mFrameBytes.ObserveNs(int64(total))
	bufs := net.Buffers{hdr[:], p.encBuf.Bytes()}
	n, err := bufs.WriteTo(p.conn)
	p.countOut(int(n))
	return err
}

// binFrame is an outgoing binary-lane message.
type binFrame struct {
	kind   uint8
	prio   uint8
	method uint16
	id     uint64
	trace  uint64
	span   uint64
	auth   []byte
	meta   []byte
	data   [][]byte
}

// sendBin transmits one binary frame: header+auth+meta build in a scratch
// buffer reused under writeMu, payload slices appended scatter/gather.
func (p *Peer) sendBin(bf binFrame) error {
	if p.opts.Latency > 0 {
		time.Sleep(p.opts.Latency)
	}
	dataLen := 0
	for _, d := range bf.data {
		dataLen += len(d)
	}
	payload := binHeaderSize + len(bf.auth) + len(bf.meta) + dataLen
	if payload > maxFramePayload {
		return fmt.Errorf("rpc: binary frame payload %d exceeds limit", payload)
	}

	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	if !p.framedOut.Load() {
		return ErrNoBinaryLane
	}
	need := 5 + binHeaderSize + len(bf.auth) + len(bf.meta)
	if cap(p.binScratch) < need {
		p.binScratch = make([]byte, need+256)
	}
	s := p.binScratch[:need]
	s[0] = codecBin
	binary.BigEndian.PutUint32(s[1:], uint32(payload))
	h := s[5:]
	h[0] = bf.kind
	h[1] = bf.prio
	binary.BigEndian.PutUint16(h[2:], bf.method)
	binary.BigEndian.PutUint32(h[4:], flagFrameCRC)
	binary.BigEndian.PutUint64(h[8:], bf.id)
	binary.BigEndian.PutUint64(h[16:], bf.trace)
	binary.BigEndian.PutUint64(h[24:], bf.span)
	binary.BigEndian.PutUint64(h[32:], p.opts.Epoch)
	binary.BigEndian.PutUint32(h[40:], uint32(len(bf.auth)))
	binary.BigEndian.PutUint32(h[44:], uint32(len(bf.meta)))
	binary.BigEndian.PutUint32(h[48:], uint32(dataLen))
	crc := crc32.Update(0, castagnoli, bf.auth)
	crc = crc32.Update(crc, castagnoli, bf.meta)
	for _, d := range bf.data {
		crc = crc32.Update(crc, castagnoli, d)
	}
	binary.BigEndian.PutUint32(h[52:], crc)
	for i := 56; i < binHeaderSize; i++ {
		h[i] = 0
	}
	off := 5 + binHeaderSize
	copy(s[off:], bf.auth)
	copy(s[off+len(bf.auth):], bf.meta)

	bufs := make(net.Buffers, 0, 1+len(bf.data))
	bufs = append(bufs, s)
	for _, d := range bf.data {
		if len(d) > 0 {
			bufs = append(bufs, d)
		}
	}
	p.mFrameBytes.ObserveNs(int64(5 + payload))
	p.binSent.Add(1)
	p.mLaneSent.Inc()
	n, err := bufs.WriteTo(p.conn)
	p.countOut(int(n))
	return err
}

// readFramedFrame reads one post-switch message. Gob payloads continue
// through the persistent decoder (which consumes exactly one message from
// the same bufio.Reader); binary payloads are parsed here, with the data
// section landing in its own exactly-sized buffer whose ownership passes
// to the consumer.
func (p *Peer) readFramedFrame(dec gobDecoder) (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(p.br, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("rpc: framed payload %d exceeds limit", n)
	}
	switch hdr[0] {
	case codecGob:
		var f frame
		if err := dec.Decode(&f); err != nil {
			return frame{}, err
		}
		p.mFrameBytes.ObserveNs(int64(5 + n))
		return f, nil
	case codecBin:
		return p.readBinFrame(n)
	default:
		return frame{}, fmt.Errorf("rpc: unknown frame codec 0x%02x", hdr[0])
	}
}

type gobDecoder interface{ Decode(any) error }

func (p *Peer) readBinFrame(payload uint32) (frame, error) {
	if payload < binHeaderSize {
		return frame{}, fmt.Errorf("rpc: binary frame payload %d shorter than header", payload)
	}
	var h [binHeaderSize]byte
	if _, err := io.ReadFull(p.br, h[:]); err != nil {
		return frame{}, err
	}
	authLen := binary.BigEndian.Uint32(h[40:])
	metaLen := binary.BigEndian.Uint32(h[44:])
	dataLen := binary.BigEndian.Uint32(h[48:])
	if uint64(binHeaderSize)+uint64(authLen)+uint64(metaLen)+uint64(dataLen) != uint64(payload) {
		return frame{}, fmt.Errorf("rpc: binary frame sections (%d+%d+%d) disagree with payload %d",
			authLen, metaLen, dataLen, payload)
	}
	var authMeta []byte
	if authLen+metaLen > 0 {
		authMeta = make([]byte, authLen+metaLen)
		if _, err := io.ReadFull(p.br, authMeta); err != nil {
			return frame{}, err
		}
	}
	var data []byte
	if dataLen > 0 {
		// The payload's own buffer: handed to the consumer as-is, so a
		// chunk fetched over the lane lands in the cache with no re-copy.
		data = make([]byte, dataLen)
		if _, err := io.ReadFull(p.br, data); err != nil {
			return frame{}, err
		}
	}
	if binary.BigEndian.Uint32(h[4:])&flagFrameCRC != 0 {
		crc := crc32.Update(0, castagnoli, authMeta)
		crc = crc32.Update(crc, castagnoli, data)
		if want := binary.BigEndian.Uint32(h[52:]); crc != want {
			// A checksum failure means the stream itself is damaged —
			// nothing after this frame can be trusted either, so the error
			// propagates to readLoop, which shuts the peer down as
			// ErrClosed. Callers retry over a fresh association.
			p.frameChecksumErrs.Add(1)
			p.mFrameCRCErrs.Inc()
			return frame{}, fmt.Errorf("rpc: frame checksum mismatch (got %08x, want %08x)", crc, want)
		}
	}
	p.mFrameBytes.ObserveNs(int64(5 + payload))
	p.binReceived.Add(1)
	p.mLaneRecv.Inc()
	return frame{
		Kind:      h[0],
		Priority:  h[1],
		ID:        binary.BigEndian.Uint64(h[8:]),
		Trace:     binary.BigEndian.Uint64(h[16:]),
		Span:      binary.BigEndian.Uint64(h[24:]),
		Epoch:     binary.BigEndian.Uint64(h[32:]),
		Auth:      authMeta[:authLen:authLen],
		isBin:     true,
		binMethod: binary.BigEndian.Uint16(h[2:]),
		binMeta:   authMeta[authLen:],
		binData:   data,
	}, nil
}

// CallBin invokes a binary-lane method: meta is the method-specific
// header, data the raw payload slices (sent scatter/gather, no copy).
// The reply's meta and data come back as they arrived — respData is the
// read buffer itself, owned by the caller. Fails fast with
// ErrNoBinaryLane when the lane is not negotiated; callers fall back to
// the gob path (counted in rpc.lane_fallbacks).
func (p *Peer) CallBin(id uint16, method string, meta []byte, data [][]byte, prio Priority, tc obs.SpanContext) (respMeta, respData []byte, err error) {
	if !p.laneUp.Load() {
		p.laneFallbacks.Add(1)
		p.mLaneFallback.Inc()
		return nil, nil, ErrNoBinaryLane
	}
	var sig []byte
	if p.opts.Auth != nil {
		sig, err = p.signParts(method, meta, data)
		if err != nil {
			return nil, nil, err
		}
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
		return nil, nil, p.closeErr
	}
	p.nextID++
	callID := p.nextID
	p.pending[callID] = ch
	p.mu.Unlock()

	err = p.sendBin(binFrame{
		kind: kindCall, prio: uint8(prio), method: id, id: callID,
		trace: callSC.Trace, span: callSC.Span,
		auth: sig, meta: meta, data: data,
	})
	if err != nil {
		p.mu.Lock()
		delete(p.pending, callID)
		p.mu.Unlock()
		if errors.Is(err, ErrNoBinaryLane) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%w: send %s: %v", ErrClosed, method, err)
	}
	p.callsSent.Add(1)
	p.mCallsSent.Inc()

	resp, ok, err := p.awaitReply(callID, ch, method)
	p.mCallNs.Observe(time.Since(start))
	p.finishCallSpan(method, callSC, tc.Span, start)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, ErrClosed
	}
	if resp.Kind == kindError {
		return nil, nil, RemoteError{Method: method, Msg: resp.ErrMsg}
	}
	return resp.binMeta, resp.binData, nil
}

// signParts signs a binary call without concatenating header and payload
// when the authenticator supports it.
func (p *Peer) signParts(method string, meta []byte, data [][]byte) ([]byte, error) {
	if pa, ok := p.opts.Auth.(PartsAuthenticator); ok {
		parts := make([][]byte, 0, 1+len(data))
		parts = append(parts, meta)
		parts = append(parts, data...)
		return pa.SignCallParts(method, parts...)
	}
	return p.opts.Auth.SignCall(method, concatParts(meta, data))
}

func (p *Peer) verifyParts(method string, sig, meta, data []byte) (any, error) {
	if pa, ok := p.opts.Auth.(PartsAuthenticator); ok {
		return pa.VerifyCallParts(method, sig, meta, data)
	}
	return p.opts.Auth.VerifyCall(method, concatParts(meta, [][]byte{data}), sig)
}

func concatParts(meta []byte, data [][]byte) []byte {
	n := len(meta)
	for _, d := range data {
		n += len(d)
	}
	out := make([]byte, 0, n)
	out = append(out, meta...)
	for _, d := range data {
		out = append(out, d...)
	}
	return out
}

// dispatchBin serves one incoming binary call on a worker.
func (p *Peer) dispatchBin(f frame) {
	p.mu.Lock()
	bm, ok := p.binHandlers[f.binMethod]
	p.mu.Unlock()
	if !ok {
		p.sendReply(frame{Kind: kindError, ID: f.ID, ErrMsg: fmt.Sprintf("%v: bin method %d", ErrNoMethod, f.binMethod)})
		return
	}
	var identity any
	if p.opts.Auth != nil {
		id, err := p.verifyParts(bm.name, f.Auth, f.binMeta, f.binData)
		if err != nil {
			p.sendReply(frame{Kind: kindError, ID: f.ID, ErrMsg: ErrAuth.Error()})
			return
		}
		identity = id
	}
	var tc obs.SpanContext
	if f.Trace != 0 {
		tc = obs.SpanContext{Trace: f.Trace, Span: obs.NewID()}
	}
	start := time.Now()
	ctx := &CallCtx{Peer: p, Identity: identity, Priority: Priority(f.Priority), Trace: tc}
	respMeta, respData, err := bm.h(ctx, f.binMeta, f.binData)
	p.mServeNs.Observe(time.Since(start))
	if p.reg != nil && !tc.IsZero() {
		p.reg.RecordSpan(obs.Span{
			Trace: tc.Trace, Span: tc.Span, Parent: f.Span,
			Name: "rpc.serve " + bm.name, Start: start, Dur: time.Since(start),
		})
	}
	if err != nil {
		p.sendReply(frame{Kind: kindError, ID: f.ID, ErrMsg: err.Error()})
		return
	}
	if err := p.sendBin(binFrame{kind: kindReply, id: f.ID, meta: respMeta, data: respData}); err != nil {
		p.replySendErrors.Add(1)
		p.mReplySendErrs.Inc()
		p.shutdown(fmt.Errorf("%w: reply send failed: %v", ErrClosed, err))
	}
}
