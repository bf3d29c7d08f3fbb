package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"decorum/internal/fs"
	"decorum/internal/vfs"
)

// Call kinds: every call the driver makes into a client's vfs.Vnode API.
const (
	kCreate = iota
	kMkdir
	kLookup
	kAttr
	kRead
	kWrite
	kFsync
	kTruncate
	numCalls
)

var callNames = [numCalls]string{"create", "mkdir", "lookup", "attr", "read", "write", "fsync", "truncate"}

// writeSide reports whether a call kind changes the file system; its
// time counts toward write_mb_s, the rest toward read_mb_s.
func writeSide(k int) bool { return k != kLookup && k != kAttr && k != kRead }

const (
	// opDeadline: an op that takes longer counts as failed.
	opDeadline = 5 * time.Second
	// stallLimit: a driver that makes no progress this long dumps every
	// goroutine and ends the run non-zero instead of hanging.
	stallLimit = 30 * time.Second
)

// opRec is one timed call, in tracer nanoseconds.
type opRec struct {
	kind       uint8
	start, end int64
}

// driver is the single closed-loop goroutine: it issues the next call
// only when the previous one returned, so the op in flight is always
// known and every span can be charged to it.
type driver struct {
	tr  *tracer
	ops []opRec
	// steps holds the latency of each workload step (a step groups the
	// calls that make up one unit of the workload, e.g. create+write+fsync).
	steps map[string][]int64

	userWritten, userRead int64
	sideNs                [2]int64 // [0] write-side call time, [1] read-side
	attempted, failed     int
	errs                  []string
}

func newDriver(tr *tracer) *driver {
	touch()
	return &driver{tr: tr, steps: make(map[string][]int64)}
}

// progress is when the run last moved on (a call returned or a phase
// began), in nanoseconds since progressBase; the watchdog reads it.
var (
	progressBase = time.Now()
	progress     atomic.Int64
)

func touch() { progress.Store(int64(time.Since(progressBase))) }

// call times one client call. n is the user bytes it moved.
func (d *driver) call(kind int, fn func() (int, error)) (int, error) {
	d.tr.cur.Store(uint32(len(d.ops) + 1))
	start := d.tr.now()
	n, err := fn()
	end := d.tr.now()
	d.tr.cur.Store(0)
	touch()
	d.ops = append(d.ops, opRec{kind: uint8(kind), start: start, end: end})
	d.attempted++
	side := 1
	if writeSide(kind) {
		side = 0
	}
	d.sideNs[side] += end - start
	switch {
	case err != nil:
		d.fail("%s: %v", callNames[kind], err)
	case time.Duration(end-start) > opDeadline:
		d.fail("%s took %v, past the %v op deadline", callNames[kind], time.Duration(end-start), opDeadline)
	case kind == kWrite:
		d.userWritten += int64(n)
	case kind == kRead:
		d.userRead += int64(n)
	}
	return n, err
}

// fail counts one failed or wrong-content op.
func (d *driver) fail(format string, args ...any) {
	d.failed++
	if len(d.errs) < 10 {
		d.errs = append(d.errs, fmt.Sprintf(format, args...))
	}
}

func (d *driver) step(name string, start int64) {
	d.addStep(name, d.tr.now()-start)
}

// addStep records a step of ns nanoseconds.
func (d *driver) addStep(name string, ns int64) {
	d.steps[name] = append(d.steps[name], ns)
}

// --- typed call helpers ---

func (d *driver) create(dir vfs.Vnode, name string) (vfs.Vnode, error) {
	var v vfs.Vnode
	_, err := d.call(kCreate, func() (int, error) {
		var err error
		v, err = dir.Create(vfs.Superuser(), name, 0o644)
		return 0, err
	})
	return v, err
}

func (d *driver) mkdir(dir vfs.Vnode, name string) (vfs.Vnode, error) {
	var v vfs.Vnode
	_, err := d.call(kMkdir, func() (int, error) {
		var err error
		v, err = dir.Mkdir(vfs.Superuser(), name, 0o755)
		return 0, err
	})
	return v, err
}

func (d *driver) lookup(dir vfs.Vnode, name string) (vfs.Vnode, error) {
	var v vfs.Vnode
	_, err := d.call(kLookup, func() (int, error) {
		var err error
		v, err = dir.Lookup(vfs.Superuser(), name)
		return 0, err
	})
	return v, err
}

func (d *driver) attr(v vfs.Vnode) (fs.Attr, error) {
	var a fs.Attr
	_, err := d.call(kAttr, func() (int, error) {
		var err error
		a, err = v.Attr(vfs.Superuser())
		return 0, err
	})
	return a, err
}

func (d *driver) read(v vfs.Vnode, p []byte, off int64) (int, error) {
	return d.call(kRead, func() (int, error) { return v.Read(vfs.Superuser(), p, off) })
}

func (d *driver) write(v vfs.Vnode, p []byte, off int64) error {
	_, err := d.call(kWrite, func() (int, error) { return v.Write(vfs.Superuser(), p, off) })
	return err
}

func (d *driver) truncate(v vfs.Vnode) error {
	var zero int64
	_, err := d.call(kTruncate, func() (int, error) {
		_, err := v.SetAttr(vfs.Superuser(), fs.AttrChange{Length: &zero})
		return 0, err
	})
	return err
}

// fsync stores a client vnode's dirty data back (the client's Fsync is
// not part of vfs.Vnode).
func (d *driver) fsync(v vfs.Vnode) error {
	f, ok := v.(interface{ Fsync() error })
	if !ok {
		return fmt.Errorf("vnode %v has no Fsync", v.FID())
	}
	_, err := d.call(kFsync, func() (int, error) { return 0, f.Fsync() })
	return err
}

// watch ends the process if the driver stalls: a hung op (or a hung
// set-up or teardown) dumps every goroutine to stderr and exits 3, so a
// deadlock shows as a failed run with its cycle in the dump rather than
// as a run that never ends.
func watch(stop <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		stalled := int64(time.Since(progressBase)) - progress.Load()
		if time.Duration(stalled) > stallLimit {
			fmt.Fprintf(os.Stderr, "cellbench: driver stalled for %v; goroutine dump follows\n", time.Duration(stalled))
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			os.Exit(3)
		}
	}
}
