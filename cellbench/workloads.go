package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"decorum/internal/client"
	"decorum/internal/vfs"
)

// budget is how much work a run does. A timed run sizes it from
// --seconds at each workload's nominal rate on the reference host (two
// cores, see NOTES.md), so every run of a workload issues the same calls
// and a faster tree simply finishes sooner; the phase mix, and with it
// every median, cannot shift with where a deadline happens to fall. A
// count run (the tests) does one round of steps steps per phase.
type budget struct {
	seconds float64
	steps   int
}

// rounds is how many rounds of nominal length per fit the run.
func (b budget) rounds(per float64) int {
	if b.steps > 0 {
		return 1
	}
	return max(1, int(b.seconds/per+0.5))
}

// phase is how many steps a phase of nominal size full runs.
func (b budget) phase(full int) int {
	if b.steps > 0 {
		return min(b.steps, full)
	}
	return full
}

// stepsAt is how many steps a run of steps at a nominal rate takes.
func (b budget) stepsAt(perSecond float64) int {
	if b.steps > 0 {
		return b.steps
	}
	return max(1, int(b.seconds*perSecond))
}

// workload is one closed-loop job for the single driver. prep is part
// of set-up and untimed; run issues timed calls until the budget ends.
type workload interface {
	prep(c *cell) error
	// warmSeconds is how much of a run's budget the untimed warm-up
	// takes.
	warmSeconds() float64
	run(d *driver, c *cell, b budget)
	// devBlocks sizes the in-memory device (4 KiB blocks) to what the
	// workload fills in a run of budget b, with room to spare.
	devBlocks(b budget) int64
}

// workloadNames are the workloads BENCHMARK.json lists. meta-smallfile
// runs too but is left out of the list: its figures follow the host too
// far from one set of runs to the next (NOTES.md, steadiness).
// handoff-uniform reproduces a known defect.
var workloadNames = []string{"bulk-data", "handoff"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "meta-smallfile":
		return &metaSmallfile{seed: seed}, nil
	case "bulk-data":
		// The scan buffer is the benchmark's, not the cell's: it is
		// allocated here, outside the timed set-up.
		return &bulkData{rng: rand.New(rand.NewSource(seed)), seed: seed,
			scan: make([]byte, bulkFileSize)}, nil
	case "handoff":
		return &handoff{rng: rand.New(rand.NewSource(seed)), seed: seed}, nil
	case "handoff-uniform":
		// Not a benchmark workload: the reproduction of the stale read
		// in NOTES.md, known defects.
		return &handoff{rng: rand.New(rand.NewSource(seed)), seed: seed, uniform: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want meta-smallfile, bulk-data, handoff or handoff-uniform)", name)
}

// fill writes the deterministic content named by key into p (len(p) a
// multiple of 8): a splitmix64 stream, so every file, round and offset
// has its own bytes and a stale or misplaced block cannot pass a check.
func fill(p []byte, key uint64) {
	x := key
	for i := 0; i+8 <= len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(p[i:], z^(z>>31))
	}
}

func key(seed int64, parts ...int) uint64 {
	k := uint64(seed) * 0x100000001b3
	for _, p := range parts {
		k = (k ^ uint64(p)) * 0x100000001b3
	}
	return k
}

// --- meta-smallfile ---

const (
	metaFanout       = 17 // entries per directory at every level
	metaFileSize     = 2048
	metaRoundSeconds = 10
	// metaRoundFiles files per round, under r<round>/m<i>/l<j>/: more than
	// client.DefaultMaxVnodes, so both vnode tables evict within a round.
	metaRoundFiles = metaFanout * metaFanout * metaFanout
)

// metaSmallfile: client A creates, writes 2 KiB to and fsyncs each file
// of a round's tree; then the cold client B resolves each file one path
// component at a time, in a seeded order, calls Attr and reads it.
type metaSmallfile struct {
	seed   int64
	rounds int // rounds done so far, warm-up included
}

func (m *metaSmallfile) prep(c *cell) error { return nil }

// A round fills about 40 MiB of the device (data, anodes, hash anodes,
// directories).
func (m *metaSmallfile) devBlocks(b budget) int64 {
	return 8192 + int64(b.rounds(metaRoundSeconds))*12288
}

// The warm-up round fills both vnode tables, so every timed create and
// walk runs in the evicting regime (NOTES.md, known defects).
func (m *metaSmallfile) warmSeconds() float64 { return metaRoundSeconds }

func metaName(i int) (mid, leaf, file string) {
	return fmt.Sprintf("m%02d", i/(metaFanout*metaFanout)),
		fmt.Sprintf("l%02d", i/metaFanout%metaFanout),
		fmt.Sprintf("f%02d", i%metaFanout)
}

func (m *metaSmallfile) run(d *driver, c *cell, b budget) {
	for k := 0; k < b.rounds(metaRoundSeconds); k++ {
		m.round(d, c, b.phase(metaRoundFiles), m.rounds)
		m.rounds++
	}
}

func (m *metaSmallfile) round(d *driver, c *cell, files, r int) {
	rng := rand.New(rand.NewSource(int64(key(m.seed, r))))
	rname := fmt.Sprintf("r%d", r)
	data := make([]byte, metaFileSize)
	buf := make([]byte, metaFileSize)
	rdir, err := d.mkdir(c.roots[0], rname)
	if err != nil {
		return
	}
	var mid, leaf vfs.Vnode
	n := 0
	for ; n < files; n++ {
		mname, lname, fname := metaName(n)
		if n%(metaFanout*metaFanout) == 0 {
			if mid, err = d.mkdir(rdir, mname); err != nil {
				return
			}
		}
		if n%metaFanout == 0 {
			if leaf, err = d.mkdir(mid, lname); err != nil {
				return
			}
		}
		fill(data, key(m.seed, r, n))
		start := d.tr.now()
		f, err := d.create(leaf, fname)
		if err != nil {
			continue
		}
		if d.write(f, data, 0) != nil || d.fsync(f) != nil {
			continue
		}
		d.step("write", start)
	}
	touch()
	for _, i := range rng.Perm(n) {
		mname, lname, fname := metaName(i)
		start := d.tr.now()
		v := c.roots[1]
		for _, name := range []string{rname, mname, lname, fname} {
			if v, err = d.lookup(v, name); err != nil {
				break
			}
		}
		if err != nil {
			continue
		}
		a, err := d.attr(v)
		if err != nil {
			continue
		}
		d.step("stat", start)
		got, err := d.read(v, buf, 0)
		if err != nil {
			continue
		}
		d.step("read", start)
		fill(data, key(m.seed, r, i))
		if a.Length != metaFileSize || got != metaFileSize || !bytes.Equal(buf, data) {
			d.fail("%s/%s/%s/%s: length %d, read %d bytes, content match %v",
				rname, mname, lname, fname, a.Length, got, bytes.Equal(buf, data))
		}
	}
}

// --- bulk-data ---

const (
	bulkFiles      = 4
	bulkFileSize   = 8 << 20
	bulkIO         = 64 << 10 // one client chunk
	owSize         = 4 << 10
	owBatch        = 16 // overwrites between fsyncs
	owPerRound     = 512
	bulkBlocksFile = bulkFileSize / owSize
	// bulkRoundSeconds is one round's nominal length.
	bulkRoundSeconds = 0.75
)

// bulkData rounds: A (re)writes every file sequentially in 64 KiB writes
// and fsyncs it, then makes seeded random 4 KiB overwrites with an fsync
// after every batch; the cold client B scans every file in 64 KiB reads
// and checks it against the writes and overwrites, then rescans it warm.
// From the second round on, A truncates each file first, which revokes
// B's tokens so B's next scan is cold again. A pass over all files is a
// step: single reads are bimodal (a prefetched chunk is a copy, a missed
// one a round trip), and single file scans still vary by half.
type bulkData struct {
	rng    *rand.Rand
	seed   int64
	vs     [2][bulkFiles]vfs.Vnode
	ow     map[int]uint64 // file*bulkBlocksFile+block -> overwrite key, this round
	rounds int            // rounds done so far, warm-up included
	chunk  []byte
	scan   []byte // one whole file, as a scan read it
	expect []byte
	rec    []byte
}

func (w *bulkData) devBlocks(budget) int64 { return 1 << 15 }

// The warm-up round creates the files and B's vnodes for them.
func (w *bulkData) warmSeconds() float64 { return bulkRoundSeconds }

func (w *bulkData) prep(c *cell) error {
	w.chunk = make([]byte, bulkIO)
	w.expect = make([]byte, bulkIO)
	w.rec = make([]byte, owSize)
	return nil
}

func (w *bulkData) run(d *driver, c *cell, b budget) {
	for k := 0; k < b.rounds(bulkRoundSeconds); k++ {
		if !w.round(d, c, w.rounds) {
			return
		}
		w.rounds++
	}
}

func (w *bulkData) round(d *driver, c *cell, r int) bool {
	w.ow = make(map[int]uint64)
	for f := 0; f < bulkFiles; f++ {
		v := w.vs[0][f]
		var err error
		if r == 0 {
			v, err = d.create(c.roots[0], fmt.Sprintf("b%d", f))
			w.vs[0][f] = v
		} else {
			err = d.truncate(v)
		}
		if err != nil {
			return false
		}
		for off := 0; off < bulkFileSize; off += bulkIO {
			fill(w.chunk, key(w.seed, r, f, off))
			if d.write(v, w.chunk, int64(off)) != nil {
				return false
			}
		}
		if d.fsync(v) != nil {
			return false
		}
	}
	touch()
	for batch := 0; batch < owPerRound/owBatch; batch++ {
		start := d.tr.now()
		var dirty [bulkFiles]bool
		for k := 0; k < owBatch; k++ {
			f, blk := w.rng.Intn(bulkFiles), w.rng.Intn(bulkBlocksFile)
			kk := key(w.seed, r, -1, batch, k)
			fill(w.rec, kk)
			if d.write(w.vs[0][f], w.rec, int64(blk*owSize)) != nil {
				return false
			}
			w.ow[f*bulkBlocksFile+blk] = kk
			dirty[f] = true
		}
		for f, dd := range dirty {
			if dd && d.fsync(w.vs[0][f]) != nil {
				return false
			}
		}
		d.step("write", start)
	}
	touch()
	for pass, step := range []string{"read", "warm"} {
		// The step is the pass over all files: its time is the sum of
		// the file scans, each checked after it, so the check's own
		// work stays out of the timing.
		var ns int64
		whole := true
		for f := 0; f < bulkFiles; f++ {
			if pass == 0 && r == 0 {
				v, err := d.lookup(c.roots[1], fmt.Sprintf("b%d", f))
				if err != nil {
					return false
				}
				w.vs[1][f] = v
			}
			start := d.tr.now()
			for off := 0; off < bulkFileSize; off += bulkIO {
				n, err := d.read(w.vs[1][f], w.scan[off:off+bulkIO], int64(off))
				if err == nil && n != bulkIO {
					d.fail("round %d file b%d offset %d: read %d bytes", r, f, off, n)
				}
				whole = whole && err == nil && n == bulkIO
			}
			ns += d.tr.now() - start
			for off := 0; off < bulkFileSize; off += bulkIO {
				w.expected(r, f, off)
				if !bytes.Equal(w.scan[off:off+bulkIO], w.expect) {
					d.fail("round %d file b%d offset %d: content differs", r, f, off)
				}
			}
		}
		if whole {
			d.addStep(step, ns)
		}
		touch()
	}
	return true
}

// expected rebuilds what file f holds at the 64 KiB chunk at off.
func (w *bulkData) expected(r, f, off int) {
	fill(w.expect, key(w.seed, r, f, off))
	for i := 0; i < bulkIO/owSize; i++ {
		if kk, ok := w.ow[f*bulkBlocksFile+off/owSize+i]; ok {
			fill(w.expect[i*owSize:(i+1)*owSize], kk)
		}
	}
}

// --- handoff ---

const (
	hoFiles    = 8
	hoFileSize = 256 << 10
	hoRec      = 4 << 10
	hoRecs     = hoFileSize / hoRec
	// hoChunkRecs records share one client chunk.
	hoChunkRecs = client.ChunkSize / hoRec
	// hoStepsPerSecond is the nominal handoff rate (one write and one
	// read per step).
	hoStepsPerSecond = 500
)

// handoff: both clients hold the same files. Step i: client X = i%2
// writes a seeded 4 KiB record at a seeded offset without fsync, then the
// other client reads that range and must see the record. Each write
// revokes the reader's token; each read revokes the writer's and forces
// its store-back. Serialized on purpose (see NOTES.md).
//
// A read never lands on the chunk after the one its vnode last read, so
// the client never schedules read-ahead and the workload measures token
// handoff alone. With uniform set, offsets are drawn uniformly and now
// and then a read does extend a sequential run.
type handoff struct {
	rng     *rand.Rand
	seed    int64
	uniform bool
	vs      [2][hoFiles]vfs.Vnode
	// next is the chunk a sequential read of each vnode would start at.
	next  [2][hoFiles]int
	steps int // steps done so far, warm-up included
}

func (w *handoff) devBlocks(budget) int64 { return 1 << 12 }

// The warm-up spreads both clients' tokens over every file.
func (w *handoff) warmSeconds() float64 { return 0.5 }

func (w *handoff) prep(c *cell) error {
	ctx := vfs.Superuser()
	data := make([]byte, hoFileSize)
	for f := 0; f < hoFiles; f++ {
		name := fmt.Sprintf("h%d", f)
		v, err := c.roots[0].Create(ctx, name, 0o644)
		if err != nil {
			return err
		}
		fill(data, key(w.seed, -2, f))
		if _, err := v.Write(ctx, data, 0); err != nil {
			return err
		}
		if err := v.(interface{ Fsync() error }).Fsync(); err != nil {
			return err
		}
		w.vs[0][f] = v
		if w.vs[1][f], err = c.roots[1].Lookup(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

func (w *handoff) run(d *driver, c *cell, b budget) {
	rec := make([]byte, hoRec)
	buf := make([]byte, hoRec)
	for end := w.steps + b.stepsAt(hoStepsPerSecond); w.steps < end; w.steps++ {
		i := w.steps
		x := i % 2
		f := w.rng.Intn(hoFiles)
		slot := w.rng.Intn(hoRecs)
		next := &w.next[1-x][f]
		if !w.uniform && slot/hoChunkRecs == *next {
			slot = (slot + hoChunkRecs) % hoRecs
		}
		*next = slot/hoChunkRecs + 1
		off := int64(slot * hoRec)
		fill(rec, key(w.seed, i))
		start := d.tr.now()
		if d.write(w.vs[x][f], rec, off) != nil {
			continue
		}
		d.step("write", start)
		start = d.tr.now()
		n, err := d.read(w.vs[1-x][f], buf, off)
		if err != nil {
			continue
		}
		d.step("read", start)
		if n != hoRec || !bytes.Equal(buf, rec) {
			d.fail("step %d: client %d read %d bytes of h%d@%d, record match %v",
				i, 1-x, n, f, off, bytes.Equal(buf[:n], rec[:n]))
		}
	}
}
