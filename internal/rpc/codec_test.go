package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"decorum/internal/proto"
)

// protoBodies is every argument and reply type of the file protocol.
var protoBodies = []any{
	proto.RegisterArgs{}, proto.RegisterReply{}, proto.TokenRequest{}, proto.Grant{},
	proto.GetRootArgs{}, proto.GetRootReply{},
	proto.FetchStatusArgs{}, proto.FetchStatusReply{},
	proto.FetchDataArgs{}, proto.FetchDataReply{},
	proto.StoreDataArgs{}, proto.StoreDataReply{}, proto.StoreSpan{},
	proto.StoreBatchArgs{}, proto.StoreBatchReply{},
	proto.HashTreeArgs{}, proto.HashTreeReply{},
	proto.StoreHashesArgs{}, proto.StoreHashesReply{},
	proto.StoreStatusArgs{}, proto.StoreStatusReply{},
	proto.GetTokensArgs{}, proto.GetTokensReply{},
	proto.ReturnTokensArgs{}, proto.ReturnTokensReply{},
	proto.NameArgs{}, proto.NameReply{},
	proto.RenameArgs{}, proto.RenameReply{},
	proto.ReadDirArgs{}, proto.ReadDirReply{},
	proto.ReadlinkArgs{}, proto.ReadlinkReply{},
	proto.ACLArgs{}, proto.ACLReply{},
	proto.LockArgs{}, proto.LockReply{},
	proto.StatfsArgs{}, proto.StatfsReply{},
	proto.ReclaimArgs{}, proto.ReclaimReply{},
	proto.RevokeArgs{}, proto.RevokeReply{},
	proto.VolCreateArgs{}, proto.VolInfo{}, proto.VolCreateReply{},
	proto.VolIDArgs{}, proto.VolListReply{}, proto.VolDumpReply{},
	proto.VolRestoreArgs{}, proto.VolMoveArgs{},
}

// filled returns a pointer to a copy of zero with every exported field
// set to a distinct non-zero value, and slices given two elements.
func filled(zero any) any {
	p := reflect.New(reflect.TypeOf(zero))
	n := 0
	fill(p.Elem(), &n, 0)
	return p.Interface()
}

func fill(v reflect.Value, n *int, depth int) {
	if depth > 4 {
		return
	}
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n%100 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%200 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(s.Index(i), n, depth+1)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n, depth+1)
		}
	case reflect.Pointer:
		e := reflect.New(v.Type().Elem())
		fill(e.Elem(), n, depth+1)
		v.Set(e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n, depth+1)
			}
		}
	}
}

func freshEncode(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func freshDecode(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// TestCodecMatchesFreshGob checks every protocol type: cold and warm
// encodes are byte-identical to a fresh gob.Encoder, and cold and warm
// decodes give the value a fresh gob.Decoder gives.
func TestCodecMatchesFreshGob(t *testing.T) {
	for _, zero := range protoBodies {
		name := reflect.TypeOf(zero).Name()
		for _, v := range []any{zero, filled(zero)} {
			want, wantErr := freshEncode(t, v)
			for pass := 0; pass < 3; pass++ {
				got, err := Marshal(v)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s pass %d: Marshal error %v, fresh encoder %v", name, pass, err, wantErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s pass %d: Marshal bytes differ from a fresh encoder\n got % x\nwant % x", name, pass, got, want)
				}
			}
			if wantErr != nil {
				continue
			}
			ref := reflect.New(reflect.TypeOf(zero))
			if err := freshDecode(want, ref.Interface()); err != nil {
				t.Fatalf("%s: fresh decode: %v", name, err)
			}
			for pass := 0; pass < 3; pass++ {
				got := reflect.New(reflect.TypeOf(zero))
				if err := Unmarshal(want, got.Interface()); err != nil {
					t.Fatalf("%s pass %d: Unmarshal: %v", name, pass, err)
				}
				if !reflect.DeepEqual(got.Interface(), ref.Interface()) {
					t.Fatalf("%s pass %d: Unmarshal gave %+v, fresh decoder %+v", name, pass, got.Elem(), ref.Elem())
				}
			}
		}
		// Every protocol type gob can encode takes the warm paths.
		if _, err := freshEncode(t, zero); err == nil {
			if !encEntryFor(reflect.TypeOf(zero)).warm {
				t.Errorf("%s: encode entry is cold", name)
			}
			body, _ := Marshal(filled(zero))
			split, _ := lastMessage(body)
			if e, _ := lookupDecEntry(body[:split]); e == nil || !e.warm {
				t.Errorf("%s: decode entry %+v, want a warm one", name, e)
			}
		}
	}
}

// echoTwin has echoArgs's field names under another type name, so its
// preamble differs.
type echoTwin struct{ S string }

func TestCodecDecodesEachPreambleUnderItsOwnKey(t *testing.T) {
	a, _ := Marshal(echoArgs{S: "args"})
	b, _ := Marshal(echoTwin{S: "twin"})
	sa, _ := lastMessage(a)
	sb, _ := lastMessage(b)
	if bytes.Equal(a[:sa], b[:sb]) {
		t.Fatal("twin types share a preamble")
	}
	for pass := 0; pass < 3; pass++ {
		for _, c := range []struct {
			body []byte
			want string
		}{{a, "args"}, {b, "twin"}} {
			var got echoArgs
			if err := Unmarshal(c.body, &got); err != nil || got.S != c.want {
				t.Fatalf("pass %d: got %q, %v; want %q", pass, got.S, err, c.want)
			}
		}
	}
	for _, pre := range [][]byte{a[:sa], b[:sb]} {
		if e, _ := lookupDecEntry(pre); e == nil || !e.warm {
			t.Fatalf("preamble % x: entry %+v, want a warm one", pre, e)
		}
	}
}

// withIface reaches an interface, so neither side of the codec may keep
// it warm: gob sends a dynamic type's definition once per encoder. V
// holds an ifaceOuter, whose definition is already in the preamble
// through O, so the definition of the ifaceLeaf inside it travels inside
// the value message, where a message count cannot see it.
type withIface struct {
	N int
	V any
	O ifaceOuter
}

type ifaceOuter struct{ In any }

type ifaceLeaf struct{ X int }

func TestCodecInterfaceTypesStayCold(t *testing.T) {
	gob.Register(ifaceLeaf{})
	gob.Register(ifaceOuter{})
	if encEntryFor(reflect.TypeOf(withIface{})).warm {
		t.Fatal("a type reaching an interface got a warm encode entry")
	}
	v := withIface{N: 1, V: ifaceOuter{In: ifaceLeaf{X: 2}}}
	want, err := freshEncode(t, v)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := Marshal(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("pass %d: % x, %v; want % x", pass, got, err, want)
		}
		var out withIface
		if err := Unmarshal(got, &out); err != nil || !reflect.DeepEqual(out, v) {
			t.Fatalf("pass %d: decoded %+v, %v", pass, out, err)
		}
	}
	split, _ := lastMessage(want)
	if e, _ := lookupDecEntry(want[:split]); e == nil || e.warm {
		t.Fatalf("decode entry %+v, want a cold one", e)
	}
}

func TestCodecMalformedBodies(t *testing.T) {
	type rec struct {
		A uint64
		B string
		C []byte
	}
	good, err := Marshal(rec{A: 7, B: "b", C: []byte{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	split, _ := lastMessage(good)
	pre, val := good[:split], good[split:]
	// Warm the key.
	for i := 0; i < 2; i++ {
		var r rec
		if err := Unmarshal(good, &r); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := lookupDecEntry(pre)
	if e == nil || !e.warm {
		t.Fatalf("entry %+v, want a warm one", e)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// The value message minus the bytes of its last field: the framing is
	// whole, so it reaches the warm decoder and fails there.
	short := cat([]byte{val[0] - 3}, val[1:len(val)-3])
	cases := []struct {
		name string
		body []byte
		// warm: the body's framing is whole and its preamble is pre's, so
		// the decode starts on a warm decoder.
		warm      bool
		wantError bool
	}{
		{"empty", nil, false, true},
		{"truncated count", cat(pre, []byte{0xfe, 0x01}), false, true},
		{"count past the end", cat(pre, []byte{0x40, 0x01, 0x02}), false, true},
		{"definitions without a value", pre, false, true},
		{"value cut short", cat(pre, short), true, true},
		{"zero count", cat(pre, []byte{0x00}), true, true},
		// gob reads one value and ignores what follows; the codec agrees.
		{"trailing garbage", cat(good, []byte{0x02, 0xff, 0xff}), false, false},
	}
	for _, c := range cases {
		// Leave one known warm decoder in the pool.
		for e.pool.Get() != nil {
		}
		w := &warmDecoder{}
		w.src.Reset(good)
		w.dec = gob.NewDecoder(&w.src)
		if err := w.dec.Decode(new(rec)); err != nil {
			t.Fatal(err)
		}
		e.pool.Put(w)
		before := decodeKeys()
		var got, ref rec
		err := Unmarshal(c.body, &got)
		refErr := freshDecode(c.body, &ref)
		if (err != nil) != c.wantError || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: error %v, fresh decoder %v", c.name, err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: got %+v, fresh decoder %+v", c.name, got, ref)
		}
		if decodeKeys() != before {
			t.Errorf("%s: added a decode key", c.name)
		}
		if back := e.pool.Get(); c.warm && back != nil {
			t.Errorf("%s: a decoder went back to the pool after a failed decode", c.name)
		}
		var r rec
		if err := Unmarshal(good, &r); err != nil || r.A != 7 || r.B != "b" {
			t.Fatalf("%s: good body after it: %+v, %v", c.name, r, err)
		}
	}
}

func decodeKeys() int {
	decEntries.mu.Lock()
	defer decEntries.mu.Unlock()
	return len(decEntries.m)
}

// emptyDecodeCache gives the test an empty decode cache and puts the old
// one back when it ends.
func emptyDecodeCache(t testing.TB) {
	decEntries.mu.Lock()
	saved := decEntries.m
	decEntries.m = map[string]*decEntry{}
	decEntries.mu.Unlock()
	t.Cleanup(func() {
		decEntries.mu.Lock()
		decEntries.m = saved
		decEntries.mu.Unlock()
	})
}

// oneFieldBody returns a type with one string field of the given name
// and a body of it holding s.
func oneFieldBody(t testing.TB, field, s string) (reflect.Type, []byte) {
	rt := reflect.StructOf([]reflect.StructField{{Name: field, Type: reflect.TypeOf("")}})
	v := reflect.New(rt)
	v.Elem().Field(0).SetString(s)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v.Interface()); err != nil {
		t.Fatal(err)
	}
	return rt, buf.Bytes()
}

// TestCodecDecodeKeysCapped feeds more distinct preambles than the cap
// allows; every body still decodes, and the cache stops growing.
func TestCodecDecodeKeysCapped(t *testing.T) {
	emptyDecodeCache(t)
	for i := 0; i < maxDecodeKeys+10; i++ {
		// Each struct type has its own field name, so its own preamble.
		rt, body := oneFieldBody(t, fmt.Sprintf("F%d", i), fmt.Sprint(i))
		for pass := 0; pass < 2; pass++ {
			out := reflect.New(rt)
			if err := Unmarshal(body, out.Interface()); err != nil || out.Elem().Field(0).String() != fmt.Sprint(i) {
				t.Fatalf("type %d pass %d: %v, %v", i, pass, out.Elem(), err)
			}
		}
	}
	if n := decodeKeys(); n != maxDecodeKeys {
		t.Fatalf("%d decode keys, want the cap %d", n, maxDecodeKeys)
	}
}

// TestCodecPastCapCostsAFreshDecode checks that once the cache is full, a
// body with a new preamble costs no more allocations than a fresh
// gob.Decoder: the codec neither parses the preamble nor builds a decoder
// it cannot keep.
func TestCodecPastCapCostsAFreshDecode(t *testing.T) {
	emptyDecodeCache(t)
	decEntries.mu.Lock()
	for i := 0; i < maxDecodeKeys; i++ {
		decEntries.m[fmt.Sprint(i)] = &decEntry{}
	}
	decEntries.mu.Unlock()
	rt, body := oneFieldBody(t, "PastCap", "v")
	decode := func(f func([]byte, any) error) func() {
		return func() {
			out := reflect.New(rt)
			if err := f(body, out.Interface()); err != nil || out.Elem().Field(0).String() != "v" {
				t.Fatalf("decoded %v, %v", out.Elem(), err)
			}
		}
	}
	fresh := testing.AllocsPerRun(50, decode(freshDecode))
	codec := testing.AllocsPerRun(50, decode(Unmarshal))
	if codec > fresh {
		t.Fatalf("past the cap: %v allocs per decode, a fresh decoder %v", codec, fresh)
	}
	if n := decodeKeys(); n != maxDecodeKeys {
		t.Fatalf("%d decode keys, want the cap %d", n, maxDecodeKeys)
	}
}

// TestCodecLongPreambleNotKeyed checks that a preamble longer than
// maxDecodeKeyBytes still decodes, but is never kept as a key.
func TestCodecLongPreambleNotKeyed(t *testing.T) {
	emptyDecodeCache(t)
	rt, body := oneFieldBody(t, "L"+strings.Repeat("o", maxDecodeKeyBytes), "long")
	if split, _ := lastMessage(body); split <= maxDecodeKeyBytes {
		t.Fatalf("preamble of %d bytes is not past the limit", split)
	}
	for pass := 0; pass < 3; pass++ {
		out := reflect.New(rt)
		if err := Unmarshal(body, out.Interface()); err != nil || out.Elem().Field(0).String() != "long" {
			t.Fatalf("pass %d: %v, %v", pass, out.Elem(), err)
		}
	}
	if n := decodeKeys(); n != 0 {
		t.Fatalf("%d decode keys after a long preamble, want 0", n)
	}
}

// TestCodecMalformedBodiesDoNotPanic feeds every truncation and a
// corrupted copy of real bodies through both sides' cold and warm paths.
func TestCodecMalformedBodiesDoNotPanic(t *testing.T) {
	for _, zero := range protoBodies {
		body, err := Marshal(filled(zero))
		if err != nil {
			continue
		}
		for cut := 0; cut < len(body); cut++ {
			out := reflect.New(reflect.TypeOf(zero)).Interface()
			ref := reflect.New(reflect.TypeOf(zero)).Interface()
			err, refErr := Unmarshal(body[:cut], out), freshDecode(body[:cut], ref)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%T cut at %d: error %v, fresh decoder %v", zero, cut, err, refErr)
			}
		}
		for i := range body {
			bad := bytes.Clone(body)
			bad[i] ^= 0x5a
			out := reflect.New(reflect.TypeOf(zero)).Interface()
			_ = Unmarshal(bad, out) // any result but a panic
		}
	}
}

// TestCodecConcurrent runs mixed-type encodes and decodes from several
// goroutines; go test -race checks the caches.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				zero := protoBodies[(g*7+i)%len(protoBodies)]
				v := filled(zero)
				want, err := freshEncode(t, v)
				if err != nil {
					continue
				}
				got, err := Marshal(v)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%T: Marshal % x, %v; want % x", zero, got, err, want)
					return
				}
				out := reflect.New(reflect.TypeOf(zero)).Interface()
				if err := Unmarshal(got, out); err != nil || !reflect.DeepEqual(out, v) {
					t.Errorf("%T: Unmarshal %+v, %v", zero, out, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkControlCall is one gob-bodied call round trip over rpc.Pipe
// with a FetchStatus-sized argument and reply.
func BenchmarkControlCall(b *testing.B) {
	p1, p2 := Pipe(Options{}, Options{})
	defer p1.Close()
	defer p2.Close()
	reply := *filled(proto.FetchStatusReply{}).(*proto.FetchStatusReply)
	p2.Handle(proto.MFetchStatus, func(ctx *CallCtx, body []byte) ([]byte, error) {
		var a proto.FetchStatusArgs
		if err := Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return Marshal(reply)
	})
	p1.Start()
	p2.Start()
	args := *filled(proto.FetchStatusArgs{}).(*proto.FetchStatusArgs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r proto.FetchStatusReply
		if err := p1.Call(proto.MFetchStatus, args, &r); err != nil {
			b.Fatal(err)
		}
	}
}
