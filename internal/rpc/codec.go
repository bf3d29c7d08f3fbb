// Body codec.
//
// Every gob body — a call's args, its reply, and whatever handlers
// Marshal and Unmarshal — is a standalone gob stream: the type-definition
// messages for the value's type (its preamble), then one value message. A
// fresh gob.Encoder or gob.Decoder per body redoes gob's type work on
// every call: building and sending the definitions, then reading and
// compiling them again on the far side. This file keeps that work warm
// without changing a byte on the wire.
//
// Encoding keeps one entry per Go type: the preamble a fresh encoder
// emits for it (gob type ids are process-global, so those bytes never
// change) and a pool of encoders that have sent exactly that preamble. A
// warm encode copies the preamble into the caller's buffer and lets a
// pooled encoder append the value message, which is what a fresh encoder
// writes after the same preamble. Types that reach an interface stay
// cold: gob sends the definitions of a dynamic type once per encoder, in
// the middle of the value, so a warm encoder would leave them out.
//
// Decoding keys a pool of decoders by the preamble bytes the sender put in
// front of the value. Equal preambles define equal wire type tables, so a
// decoder that has read one preamble is fed only the value message of
// the next body. That holds while the table names no interface: gob reads
// type definitions inside a value only for interface fields, and those
// would stay behind in a warm decoder's table. Such preambles are keyed
// but decoded cold. A body that does not split into whole messages, or
// whose warm decode fails, is decoded by a fresh decoder, so the value
// and the error are what they were without the cache.
//
// The cache locks are leaf locks: nothing else is called while one is
// held.

package rpc

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
)

// maxDecodeKeys and maxDecodeKeyBytes bound the decode cache. Peers
// choose the preamble bytes and keys are never evicted, so a body whose
// preamble is longer than maxDecodeKeyBytes, or new once maxDecodeKeys
// are held, decodes with a fresh decoder: the keys pin at most 4 MiB.
// The protocol's longest preamble is under 500 bytes. How many distinct
// preambles a long-lived server meets depends on its peers: gob numbers
// types per process in first-use order, so client processes that touch
// types in different orders send different preambles for one type.
// In three runs of 78 to 130 dfscli processes against one fresh dfsd,
// running ten commands in a fixed or shuffled order, the server met 15,
// 20 and 24 distinct preambles for its 10 body types (at most 4 for one
// type), nearly all within the first 40 processes. Peers of other
// builds, or whose call order varies more, were not measured.
const (
	maxDecodeKeys     = 1024
	maxDecodeKeyBytes = 4096
)

// encEntry is the encode cache for one Go type.
type encEntry struct {
	// warm is false for types that reach an interface or that gob
	// cannot encode; those always take a fresh encoder.
	warm     bool
	preamble []byte
	pool     sync.Pool // *warmEncoder
}

type warmEncoder struct {
	enc *gob.Encoder
	out encSink
}

// encSink points an encoder at the caller's buffer for one encode. gob
// writes each message with one Write, so it also marks where the last
// message starts and how many there were.
type encSink struct {
	buf    *bytes.Buffer
	writes int
	last   int
}

func (s *encSink) Write(p []byte) (int, error) {
	s.writes++
	s.last = s.buf.Len()
	return s.buf.Write(p)
}

func (s *encSink) reset(buf *bytes.Buffer) { *s = encSink{buf: buf} }

var encEntries sync.Map // reflect.Type → *encEntry

func encEntryFor(t reflect.Type) *encEntry {
	if e, ok := encEntries.Load(t); ok {
		return e.(*encEntry)
	}
	e, _ := encEntries.LoadOrStore(t, newEncEntry(t))
	return e.(*encEntry)
}

// newEncEntry takes the type's preamble from a fresh encode of its zero
// value: gob sends definitions for the static type, whatever the value.
func newEncEntry(t reflect.Type) *encEntry {
	e := &encEntry{}
	if reachesInterface(t, map[reflect.Type]bool{}) {
		return e
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	var buf bytes.Buffer
	var s encSink
	s.reset(&buf)
	if err := gob.NewEncoder(&s).Encode(reflect.Zero(t).Interface()); err != nil {
		return e
	}
	e.warm = true
	e.preamble = buf.Bytes()[:s.last]
	return e
}

// reachesInterface reports whether gob, encoding a t, could meet an
// interface value.
func reachesInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reachesInterface(t.Elem(), seen)
	case reflect.Map:
		return reachesInterface(t.Key(), seen) || reachesInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && reachesInterface(f.Type, seen) {
				return true
			}
		}
	}
	return false
}

// encodeBody appends v to buf as a standalone gob stream, byte-identical
// to what gob.NewEncoder(buf).Encode(v) writes.
func encodeBody(buf *bytes.Buffer, v any) error {
	t := reflect.TypeOf(v)
	if t == nil {
		return gob.NewEncoder(buf).Encode(v)
	}
	e := encEntryFor(t)
	start := buf.Len()
	if w, _ := e.pool.Get().(*warmEncoder); w != nil {
		buf.Write(e.preamble)
		w.out.reset(buf)
		err := w.enc.Encode(v)
		// Anything but one value message means the encoder sent more than
		// its preamble's types and is no longer warm: drop it and start
		// over cold, so the bytes and any error are a fresh encoder's.
		if err == nil && w.out.writes == 1 {
			w.out.reset(nil)
			e.pool.Put(w)
			return nil
		}
		buf.Truncate(start)
	}
	w := &warmEncoder{}
	w.out.reset(buf)
	w.enc = gob.NewEncoder(&w.out)
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	if e.warm && bytes.Equal(buf.Bytes()[start:w.out.last], e.preamble) {
		w.out.reset(nil)
		e.pool.Put(w)
	}
	return nil
}

// decEntry is the decode cache for one sender preamble.
type decEntry struct {
	// warm is false when the preamble's wire types name an interface (or
	// do not parse as type definitions); those bodies decode cold.
	warm bool
	pool sync.Pool // *warmDecoder
}

// warmDecoder reads from its own bytes.Reader, an io.ByteReader, so gob
// adds no bufio and reads exactly the bytes it is given.
type warmDecoder struct {
	src bytes.Reader
	dec *gob.Decoder
}

var decEntries = struct {
	mu sync.Mutex
	m  map[string]*decEntry
}{m: map[string]*decEntry{}}

// lookupDecEntry returns pre's entry, or nil and whether the cache is
// full.
func lookupDecEntry(pre []byte) (e *decEntry, full bool) {
	decEntries.mu.Lock()
	defer decEntries.mu.Unlock()
	e = decEntries.m[string(pre)]
	return e, e == nil && len(decEntries.m) >= maxDecodeKeys
}

// addDecEntry keys pre, which a fresh decoder has just read cleanly. It
// returns nil once the cache is full. interfaceFree runs outside the lock,
// and only for a key that still has room.
func addDecEntry(pre []byte) *decEntry {
	if e, full := lookupDecEntry(pre); e != nil || full {
		return e
	}
	e := &decEntry{warm: interfaceFree(pre)}
	decEntries.mu.Lock()
	defer decEntries.mu.Unlock()
	if old := decEntries.m[string(pre)]; old != nil {
		return old
	}
	if len(decEntries.m) >= maxDecodeKeys {
		return nil
	}
	decEntries.m[string(pre)] = e
	return e
}

// decodeBody decodes the standalone gob stream body into v, with the
// result and error of gob.NewDecoder(bytes.NewReader(body)).Decode(v).
func decodeBody(body []byte, v any) error {
	split, ok := lastMessage(body)
	if !ok || split > maxDecodeKeyBytes {
		return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	pre := body[:split]
	e, full := lookupDecEntry(pre)
	if full {
		return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	if e != nil && e.warm {
		if w, _ := e.pool.Get().(*warmDecoder); w != nil {
			w.src.Reset(body[split:])
			err := w.dec.Decode(v)
			if err == nil && w.src.Len() == 0 {
				w.src.Reset(nil)
				e.pool.Put(w)
				return nil
			}
			// The decoder is dropped; a fresh one below gives the error.
		}
	}
	w := &warmDecoder{}
	w.src.Reset(body)
	w.dec = gob.NewDecoder(&w.src)
	if err := w.dec.Decode(v); err != nil {
		return err
	}
	if w.src.Len() != 0 {
		// The preamble held a value of its own: gob decoded that one and
		// left the rest unread. Not a body this cache keys.
		return nil
	}
	if e == nil {
		e = addDecEntry(pre)
	}
	if e != nil && e.warm {
		w.src.Reset(nil)
		e.pool.Put(w)
	}
	return nil
}

// lastMessage returns the offset of the last message of body, if body is
// a non-empty run of whole gob messages (a count, then that many bytes).
func lastMessage(body []byte) (int, bool) {
	last := -1
	for off := 0; off < len(body); {
		n, w, ok := gobUint(body[off:])
		if !ok || n > uint64(len(body)-off-w) {
			return 0, false
		}
		last = off
		off += w + int(n)
	}
	return last, last >= 0
}

// gobUint decodes a gob unsigned integer from the front of b: one byte
// below 0x80, otherwise a byte holding the negated length of the
// big-endian value that follows. w is the number of bytes used.
func gobUint(b []byte) (v uint64, w int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1, true
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0, false
	}
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n, true
}

func appendGobUint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	var be [8]byte
	n := 8
	for ; v > 0; v >>= 8 {
		n--
		be[n] = byte(v)
	}
	b = append(b, byte(-(8 - n)))
	return append(b, be[n:]...)
}

// Type ids gob's wire format fixes for its bootstrap types (see the
// encoding/gob package documentation).
const (
	gobInterfaceID = 8
	gobWireTypeID  = 16
)

// gobCommonType and gobWireType mirror the structs gob sends as type
// definitions (encoding/gob's wireType and its parts) down to the fields
// that name other types. gob matches struct fields by name.
type gobCommonType struct {
	Name string
	Id   int
}

type gobWireType struct {
	ArrayT *struct {
		CommonType gobCommonType
		Elem       int
	}
	SliceT *struct {
		CommonType gobCommonType
		Elem       int
	}
	StructT *struct {
		CommonType gobCommonType
		Field      []struct{ Id int }
	}
	MapT *struct {
		CommonType gobCommonType
		Key, Elem  int
	}
	GobEncoderT, BinaryMarshalerT, TextMarshalerT *struct{ CommonType gobCommonType }
}

// interfaceFree reports whether pre is a run of gob type definitions none
// of which names the interface type. Each definition is a message holding
// the negated type id and a wireType value; reframed as a value message of
// gob's own wireType id, a stock decoder reads it into gobWireType.
func interfaceFree(pre []byte) bool {
	for len(pre) > 0 {
		n, w, _ := gobUint(pre) // lastMessage has checked the framing
		msg := pre[w : w+int(n)]
		pre = pre[w+int(n):]
		id, iw, ok := gobUint(msg)
		if !ok || id&1 == 0 { // a gob int is negative iff its low bit is set
			return false
		}
		rest := msg[iw:]
		def := appendGobUint(nil, uint64(len(rest)+1))
		def = append(def, gobWireTypeID<<1)
		def = append(def, rest...)
		var wt gobWireType
		if err := gob.NewDecoder(bytes.NewReader(def)).Decode(&wt); err != nil {
			return false
		}
		var refs []int
		switch {
		case wt.ArrayT != nil:
			refs = append(refs, wt.ArrayT.Elem)
		case wt.SliceT != nil:
			refs = append(refs, wt.SliceT.Elem)
		case wt.StructT != nil:
			for _, f := range wt.StructT.Field {
				refs = append(refs, f.Id)
			}
		case wt.MapT != nil:
			refs = append(refs, wt.MapT.Key, wt.MapT.Elem)
		}
		for _, r := range refs {
			if r == gobInterfaceID {
				return false
			}
		}
	}
	return true
}
