package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"decorum/internal/blockdev"
	"decorum/internal/obs"
)

// setupRounds cells are built per run; setup_s is their median. All but
// the last are torn down again; the last one is measured.
const setupRounds = 21

// layerState is what the taps counted, at an instant.
type layerState struct {
	devReads, devWrites, devSyncs, devBytes, devBusy int64
	connWrites, connBytes                            int64
	ep                                               [numEpKinds]obs.HistogramSnapshot
	epBusy                                           int64
	cpuNs                                            int64
	alloc                                            uint64
}

func (c *cell) layerState() layerState {
	s := layerState{
		devReads: c.dev.reads.Load(), devWrites: c.dev.writes.Load(), devSyncs: c.dev.syncs.Load(),
		devBytes: c.dev.bytesWritten.Load(), devBusy: c.dev.busyNs.Load(),
		epBusy: c.ep.busyNs.Load(),
	}
	for i := range c.conns {
		s.connWrites += c.conns[i].writes.Load()
		s.connBytes += c.conns[i].bytes.Load()
	}
	for i, h := range c.ep.lat {
		s.ep[i] = h.Snapshot()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc
	return s
}

func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	after.Count -= before.Count
	after.SumNs -= before.SumNs
	for i := range after.Buckets {
		after.Buckets[i] -= before.Buckets[i]
	}
	return after
}

// result is one measured run of one workload.
type result struct {
	workload string
	setupS   []float64
	warm     *driver // the warm-up's calls: checked, not timed
	d        *driver
	wallNs   int64
	cl, srv  []regSnap // registry deltas over the measured phase
	before   layerState
	after    layerState
	spans    []span
	gcFrac   float64
}

// measure sets a cell up setupRounds times, then drives the last one for
// dur, of which the workload's warm-up is the untimed start (when steps >
// 0: warm-up and timed run each one round of steps steps per phase), and
// collects every tap and registry delta over the timed run.
func measure(name string, seed int64, dur time.Duration, steps int, traced bool) (*result, error) {
	r := &result{workload: name}
	b := budget{seconds: dur.Seconds(), steps: steps}
	var warm, timed budget
	var c *cell
	var w workload
	for k := 0; k < setupRounds; k++ {
		touch()
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		warm = budget{seconds: w.warmSeconds(), steps: steps}
		timed = budget{seconds: b.seconds - warm.seconds, steps: steps}
		// The device is the cell's hardware: allocating its memory is
		// not set-up work, and how long the Go runtime takes to zero it
		// depends on what the previous round freed.
		mem := blockdev.NewMem(devBlockSize, w.devBlocks(b))
		start := time.Now()
		if c, err = newCell(newTracer(traced), mem); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.prep(c); err != nil {
			c.close()
			return nil, fmt.Errorf("set-up %s: %w", name, err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if k < setupRounds-1 {
			if err := c.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			// Hand the torn-down cell's memory back, so the next
			// device is fresh and set-up rounds do not add up in RSS.
			debug.FreeOSMemory()
		}
	}
	// The warm-up runs on the measured cell, so vnode tables, token
	// holdings and caches start the timed run in the state its rounds
	// keep them in, not empty. The workload resumes where it stopped.
	r.warm = newDriver(c.tr)
	w.run(r.warm, c, warm)
	runtime.GC()
	touch()
	var cb [2]regSnap
	for i := range c.regs {
		cb[i] = snapReg(c.regs[i], c.hists[i])
	}
	sb := snapReg(c.srvReg, c.hists[2])
	r.before = c.layerState()
	c.tr.take() // spans of set-up and warm-up are not the run's
	r.d = newDriver(c.tr)
	t0 := c.tr.now()
	w.run(r.d, c, timed)
	r.wallNs = c.tr.now() - t0
	r.after = c.layerState()
	for i := range c.regs {
		r.cl = append(r.cl, delta(cb[i], snapReg(c.regs[i], c.hists[i])))
	}
	r.srv = []regSnap{delta(sb, snapReg(c.srvReg, c.hists[2]))}
	r.spans = c.tr.take()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.gcFrac = ms.GCCPUFraction
	touch()
	if err := c.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return r, nil
}

func (r *result) callNs(kind int) []int64 {
	var out []int64
	for _, op := range r.d.ops {
		if int(op.kind) == kind {
			out = append(out, op.end-op.start)
		}
	}
	return out
}

// attempted and failed count the warm-up's calls too: its reads are
// checked like the timed ones.
func (r *result) attempted() int { return r.warm.attempted + r.d.attempted }
func (r *result) failed() int    { return r.warm.failed + r.d.failed }

func (r *result) busyNs() int64 { return r.d.sideNs[0] + r.d.sideNs[1] }

func (r *result) opsS() float64 { return float64(r.d.attempted) / (float64(r.busyNs()) / 1e9) }

// stepRate is units per second of time spent in the named step.
func (r *result) stepRate(step string, unitsPerStep float64) float64 {
	var ns int64
	for _, x := range r.d.steps[step] {
		ns += x
	}
	if ns == 0 {
		return notReported
	}
	return float64(len(r.d.steps[step])) * unitsPerStep / (float64(ns) / 1e9)
}

// mismatches is the clients' integrity.mismatches over the run; a
// correct run has none.
func (r *result) mismatches() uint64 {
	var n uint64
	for _, s := range r.cl {
		n += s.counters["integrity.mismatches"]
	}
	return n
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mbPerS(bytes, ns int64) float64 {
	if ns == 0 {
		return notReported
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

// endToEnd is what a user of the cell sees. Every workload reports every
// metric; NOTES.md gives each workload's write and read step.
func (r *result) endToEnd() ([]metric, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return []metric{
		{"setup_s", median(r.setupS), "s"},
		{"peak_rss_mb", rss, "MB"},
		{"ops_s", r.opsS(), "1/s"},
		{"write_p50_us", us(quantile(r.d.steps["write"], 0.5)), "us"},
		{"read_p50_us", us(quantile(r.d.steps["read"], 0.5)), "us"},
		{"write_mb_s", mbPerS(r.d.userWritten, r.d.sideNs[0]), "MB/s"},
		{"read_mb_s", mbPerS(r.d.userRead, r.d.sideNs[1]), "MB/s"},
	}, nil
}

// selfTimes charges every instant of every op to the deepest layer whose
// spans cover it: blockdev inside episode inside conn inside the client
// call. The four self times of an op therefore sum to its latency; slack
// is the largest deviation seen (rounding only). Span time outside the
// op it was stamped with, or stamped with no op, is background.
func selfTimes(ops []opRec, spans []span) (self [numLayers]int64, slack, bg, total int64) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].op != spans[j].op {
			return spans[i].op < spans[j].op
		}
		return spans[i].start < spans[j].start
	})
	i := 0
	for ; i < len(spans) && spans[i].op == 0; i++ {
		bg += spans[i].end - spans[i].start
		total += spans[i].end - spans[i].start
	}
	var ivs [numLayers][][2]int64
	for i < len(spans) {
		id := spans[i].op
		w := ops[id-1]
		for l := range ivs {
			ivs[l] = ivs[l][:0]
		}
		for ; i < len(spans) && spans[i].op == id; i++ {
			s := spans[i]
			total += s.end - s.start
			lo, hi := max(s.start, w.start), min(s.end, w.end)
			if hi < lo {
				hi = lo
			}
			bg += (s.end - s.start) - (hi - lo)
			ivs[s.layer] = append(ivs[s.layer], [2]int64{lo, hi})
		}
		dev := unionLen(ivs[layerDevice])
		epDev := unionLen(ivs[layerEpisode], ivs[layerDevice])
		all := unionLen(ivs[layerConn], ivs[layerEpisode], ivs[layerDevice])
		lat := w.end - w.start
		s := [numLayers]int64{lat - all, all - epDev, epDev - dev, dev}
		var sum int64
		for l := range s {
			self[l] += s[l]
			sum += s[l]
		}
		slack = max(slack, abs(sum-lat))
	}
	// Ops with no spans are all client self time.
	charged := make(map[uint32]bool)
	for _, s := range spans {
		charged[s.op] = true
	}
	for k, w := range ops {
		if !charged[uint32(k+1)] {
			self[layerClient] += w.end - w.start
		}
	}
	return self, slack, bg, total
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// unionLen is the length covered by the union of the intervals.
func unionLen(sets ...[][2]int64) int64 {
	var all [][2]int64
	for _, s := range sets {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i][0] < all[j][0] })
	var n, curLo, curHi int64
	open := false
	for _, iv := range all {
		if !open || iv[0] > curHi {
			if open {
				n += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		n += curHi - curLo
	}
	return n
}
