package main

// Outside-in taps: wrappers around the public surfaces of the layers
// below the client. They count work, sum busy time and, in a traced run,
// record one span per call stamped with the driver op in flight. None of
// them reaches into a package's internals.

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"decorum/internal/blockdev"
	"decorum/internal/fs"
	"decorum/internal/obs"
	"decorum/internal/vfs"
)

// Span layers, outermost first. A layer's self time is the part of an op
// window its spans cover and no deeper layer's spans do.
const (
	layerClient  = iota // the driver's client call (root of every op)
	layerConn           // a Write on either end of an association's pipe
	layerEpisode        // a vfs call into the Episode volume on the server
	layerDevice         // one block I/O under the aggregate
	numLayers
)

var layerNames = [numLayers]string{"client", "conn", "episode", "blockdev"}

// span is one recorded interval, in nanoseconds since the tracer's base.
type span struct {
	op         uint32 // driver op in flight when the span started; 0 = none
	layer      uint8
	start, end int64
}

// tracer keeps spans in memory for the whole run. The single driver
// goroutine publishes the op in flight in cur; the taps read it when a
// span starts, so work a background goroutine (read-ahead, write-back,
// voluntary token return, checkpoint) starts during an op carries that
// op's ID, and work that outlives the op is clipped off as background.
type tracer struct {
	base time.Time
	on   bool
	cur  atomic.Uint32

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{base: time.Now(), on: on} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record appends one span if tracing is on. op is the op stamped at the
// span's start.
func (t *tracer) record(op uint32, layer uint8, start, end int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op: op, layer: layer, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// --- block device ---

// devStats counts block I/O under the aggregate.
type devStats struct {
	reads, writes, syncs, bytesWritten, busyNs atomic.Int64
}

// tapDev wraps the aggregate's device (blockdev.Device is an interface
// Episode takes at Format, so no assertion sees through it).
type tapDev struct {
	blockdev.Device
	tr *tracer
	st *devStats
}

func (d *tapDev) io(fn func() error) error {
	op := d.tr.cur.Load()
	start := d.tr.now()
	err := fn()
	end := d.tr.now()
	d.st.busyNs.Add(end - start)
	d.tr.record(op, layerDevice, start, end)
	return err
}

func (d *tapDev) Read(n int64, p []byte) error {
	d.st.reads.Add(1)
	return d.io(func() error { return d.Device.Read(n, p) })
}

func (d *tapDev) Write(n int64, p []byte) error {
	d.st.writes.Add(1)
	d.st.bytesWritten.Add(int64(len(p)))
	return d.io(func() error { return d.Device.Write(n, p) })
}

func (d *tapDev) Sync() error {
	d.st.syncs.Add(1)
	return d.io(d.Device.Sync)
}

// --- Episode volume operations ---

// Episode call kinds timed by the vnode tap.
const (
	epCreate = iota
	epLookup
	epAttr
	epRead
	epWrite
	epHash
	epOther
	numEpKinds
)

var epKindNames = [numEpKinds]string{"create", "lookup", "attr", "read", "write", "hash", "other"}

// epStats times every vfs call the server makes into Episode.
type epStats struct {
	lat    [numEpKinds]*obs.Histogram
	busyNs atomic.Int64
}

func newEpStats() *epStats {
	s := &epStats{}
	for i := range s.lat {
		s.lat[i] = obs.NewHistogram()
	}
	return s
}

// tapAgg is the vfs.VolumeOps handed to server.New. It forwards
// Instrument so the server still attaches the WAL and buffer-pool
// metrics, and wraps every mounted file system.
type tapAgg struct {
	vfs.VolumeOps
	tr *tracer
	st *epStats
}

func (a *tapAgg) Instrument(reg *obs.Registry) {
	if in, ok := a.VolumeOps.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

func (a *tapAgg) Mount(id fs.VolumeID) (vfs.FileSystem, error) {
	fsys, err := a.VolumeOps.Mount(id)
	if err != nil {
		return nil, err
	}
	return &tapFS{inner: fsys, a: a}, nil
}

type tapFS struct {
	inner vfs.FileSystem
	a     *tapAgg
}

func (f *tapFS) Root() (vfs.Vnode, error) {
	v, err := f.inner.Root()
	return f.a.wrap(v), err
}

func (f *tapFS) Get(fid fs.FID) (vfs.Vnode, error) {
	v, err := f.inner.Get(fid)
	return f.a.wrap(v), err
}

func (f *tapFS) Statfs() (fs.Statfs, error) { return f.inner.Statfs() }
func (f *tapFS) Sync() error                { return f.inner.Sync() }

func (a *tapAgg) wrap(v vfs.Vnode) vfs.Vnode {
	if v == nil {
		return nil
	}
	return &tapVnode{inner: v, a: a}
}

// time runs one Episode call as a span of the given kind.
func (a *tapAgg) time(kind int, fn func()) {
	op := a.tr.cur.Load()
	start := a.tr.now()
	fn()
	end := a.tr.now()
	a.st.lat[kind].ObserveNs(end - start)
	a.st.busyNs.Add(end - start)
	a.tr.record(op, layerEpisode, start, end)
}

// tapVnode wraps one Episode vnode. Episode's Link and Rename assert
// their vnode arguments to *episode.Vnode, so those are unwrapped; the
// server asserts vfs.ACLVnode and vfs.HashVnode, so both are forwarded.
type tapVnode struct {
	inner vfs.Vnode
	a     *tapAgg
}

func unwrap(v vfs.Vnode) vfs.Vnode {
	if t, ok := v.(*tapVnode); ok {
		return t.inner
	}
	return v
}

func (v *tapVnode) FID() fs.FID { return v.inner.FID() }

func (v *tapVnode) Attr(ctx *vfs.Context) (a fs.Attr, err error) {
	v.a.time(epAttr, func() { a, err = v.inner.Attr(ctx) })
	return
}

func (v *tapVnode) SetAttr(ctx *vfs.Context, ch fs.AttrChange) (a fs.Attr, err error) {
	v.a.time(epOther, func() { a, err = v.inner.SetAttr(ctx, ch) })
	return
}

func (v *tapVnode) Read(ctx *vfs.Context, p []byte, off int64) (n int, err error) {
	v.a.time(epRead, func() { n, err = v.inner.Read(ctx, p, off) })
	return
}

func (v *tapVnode) Write(ctx *vfs.Context, p []byte, off int64) (n int, err error) {
	v.a.time(epWrite, func() { n, err = v.inner.Write(ctx, p, off) })
	return
}

func (v *tapVnode) Lookup(ctx *vfs.Context, name string) (out vfs.Vnode, err error) {
	v.a.time(epLookup, func() { out, err = v.inner.Lookup(ctx, name) })
	return v.a.wrap(out), err
}

func (v *tapVnode) Create(ctx *vfs.Context, name string, mode fs.Mode) (out vfs.Vnode, err error) {
	v.a.time(epCreate, func() { out, err = v.inner.Create(ctx, name, mode) })
	return v.a.wrap(out), err
}

func (v *tapVnode) Mkdir(ctx *vfs.Context, name string, mode fs.Mode) (out vfs.Vnode, err error) {
	v.a.time(epCreate, func() { out, err = v.inner.Mkdir(ctx, name, mode) })
	return v.a.wrap(out), err
}

func (v *tapVnode) Symlink(ctx *vfs.Context, name, target string) (out vfs.Vnode, err error) {
	v.a.time(epCreate, func() { out, err = v.inner.Symlink(ctx, name, target) })
	return v.a.wrap(out), err
}

func (v *tapVnode) Readlink(ctx *vfs.Context) (s string, err error) {
	v.a.time(epRead, func() { s, err = v.inner.Readlink(ctx) })
	return
}

func (v *tapVnode) Link(ctx *vfs.Context, name string, target vfs.Vnode) (err error) {
	v.a.time(epOther, func() { err = v.inner.Link(ctx, name, unwrap(target)) })
	return
}

func (v *tapVnode) Remove(ctx *vfs.Context, name string) (err error) {
	v.a.time(epOther, func() { err = v.inner.Remove(ctx, name) })
	return
}

func (v *tapVnode) Rmdir(ctx *vfs.Context, name string) (err error) {
	v.a.time(epOther, func() { err = v.inner.Rmdir(ctx, name) })
	return
}

func (v *tapVnode) Rename(ctx *vfs.Context, oldName string, newDir vfs.Vnode, newName string) (err error) {
	v.a.time(epOther, func() { err = v.inner.Rename(ctx, oldName, unwrap(newDir), newName) })
	return
}

func (v *tapVnode) ReadDir(ctx *vfs.Context) (ents []fs.Dirent, err error) {
	v.a.time(epLookup, func() { ents, err = v.inner.ReadDir(ctx) })
	return
}

func (v *tapVnode) ACL(ctx *vfs.Context) (acl fs.ACL, err error) {
	av, ok := v.inner.(vfs.ACLVnode)
	if !ok {
		return fs.ACL{}, vfs.ErrNotSupported
	}
	v.a.time(epOther, func() { acl, err = av.ACL(ctx) })
	return
}

func (v *tapVnode) SetACL(ctx *vfs.Context, acl fs.ACL) (err error) {
	av, ok := v.inner.(vfs.ACLVnode)
	if !ok {
		return vfs.ErrNotSupported
	}
	v.a.time(epOther, func() { err = av.SetACL(ctx, acl) })
	return
}

func (v *tapVnode) HashRoot(ctx *vfs.Context) (root [32]byte, n int64, err error) {
	hv, ok := v.inner.(vfs.HashVnode)
	if !ok {
		return root, 0, vfs.ErrNotSupported
	}
	v.a.time(epHash, func() { root, n, err = hv.HashRoot(ctx) })
	return
}

func (v *tapVnode) HashLevel(ctx *vfs.Context, level int, indices []int64) (out [][32]byte, err error) {
	hv, ok := v.inner.(vfs.HashVnode)
	if !ok {
		return nil, vfs.ErrNotSupported
	}
	v.a.time(epHash, func() { out, err = hv.HashLevel(ctx, level, indices) })
	return
}

func (v *tapVnode) ChunkHash(ctx *vfs.Context, idx int64) (h [32]byte, found bool, err error) {
	hv, ok := v.inner.(vfs.HashVnode)
	if !ok {
		return h, false, vfs.ErrNotSupported
	}
	v.a.time(epHash, func() { h, found, err = hv.ChunkHash(ctx, idx) })
	return
}

func (v *tapVnode) SetChunkHashes(ctx *vfs.Context, start int64, hashes [][32]byte) (err error) {
	hv, ok := v.inner.(vfs.HashVnode)
	if !ok {
		return vfs.ErrNotSupported
	}
	v.a.time(epHash, func() { err = hv.SetChunkHashes(ctx, start, hashes) })
	return
}

// --- associations ---

// connStats counts what crosses the pipes, by the side that wrote it.
type connStats struct {
	writes, bytes atomic.Int64
}

// tapConn counts and times Writes on one end of a net.Pipe. A pipe Write
// returns once the peer's reader has taken every byte, so its duration is
// the transfer, not a wait for the peer to have work.
type tapConn struct {
	net.Conn
	tr *tracer
	st *connStats
}

func (c *tapConn) Write(p []byte) (int, error) {
	op := c.tr.cur.Load()
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.record(op, layerConn, start, c.tr.now())
	c.st.writes.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}
