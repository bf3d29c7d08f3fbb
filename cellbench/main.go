// cellbench is the cell benchmark: one in-process DEcorum cell (a file
// server on a freshly formatted in-memory Episode aggregate, two cache
// managers over net.Pipe) driven by a single closed-loop goroutine
// through the client's vfs.Vnode API, with the layers below measured
// from outside. NOTES.md says what each workload and metric is for.
//
//	cellbench --workload meta-smallfile|bulk-data|handoff --seed N --seconds S --trace 0|1 [--procs P]
//
// --procs sets GOMAXPROCS (default 1). --workload handoff-uniform is not
// a benchmark workload but the reproduction of the stale read in NOTES.md.
//
// The last line of standard output is one JSON object: with --trace 0
// the end-to-end metrics, with --trace 1 the per-layer ones from a
// traced run, plus the tracing overhead against an untraced run of the
// same length. Set-up, hang or argument errors exit non-zero without a
// result; a run whose outputs are wrong prints "correct": false.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	name := flag.String("workload", "", "meta-smallfile, bulk-data or handoff")
	seed := flag.Int64("seed", 1, "seed for file names, offsets and contents")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	procs := flag.Int("procs", 1, "GOMAXPROCS of the run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *procs < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "cellbench: want --workload W --seed N --seconds S>=1 --trace 0|1 [--procs P>=1]")
		os.Exit(2)
	}
	if _, err := newWorkload(*name, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
		os.Exit(2)
	}
	// Server, clients and device share this one Go heap, where in a real
	// cell each would have its own; the soft limit keeps the process's
	// garbage from doubling the two 256 MiB client caches in RSS.
	debug.SetMemoryLimit(memoryLimit)
	// One P by default: the driver is a single closed loop and every
	// layer runs in this process without real I/O waits, so a second P
	// buys little parallel work but makes each cross-goroutine handoff a
	// cross-thread wake-up, whose cost follows the host's scheduler and
	// splits step latencies into two modes (NOTES.md, steadiness).
	runtime.GOMAXPROCS(*procs)
	stop := make(chan struct{})
	go watch(stop)
	out, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	close(stop)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

const memoryLimit = 960 << 20

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, dur time.Duration, traced bool) (*report, error) {
	r, err := measure(name, seed, dur, 0, false)
	if err != nil {
		return nil, err
	}
	runs := []*result{r}
	var ms []metric
	if traced {
		t, err := measure(name, seed, dur, 0, true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, t)
		var missing []string
		ms, missing = t.perLayer(r.opsS()/t.opsS() - 1)
		if len(missing) > 0 {
			fmt.Printf("not reported by this tree: %v\n", missing)
		}
		if err := writeTrace(t, seed); err != nil {
			fmt.Fprintf(os.Stderr, "cellbench: trace not written: %v\n", err)
		}
	} else if ms, err = r.endToEnd(); err != nil {
		return nil, err
	}
	out := &report{Correct: true, Metrics: make(map[string]metric, len(ms))}
	for _, r := range runs {
		printSummary(r)
		for _, e := range append(r.warm.errs, r.d.errs...) {
			fmt.Printf("failed: %s\n", e)
		}
		out.Attempted += r.attempted()
		out.Failed += r.failed()
		out.Correct = out.Correct && r.failed() == 0 && r.mismatches() == 0 && r.d.attempted > 0
	}
	for _, m := range ms {
		out.Metrics[m.Name] = m
	}
	return out, nil
}

// printSummary prints the workload's own figures by the names the
// benchmark's design uses, ahead of the JSON line.
func printSummary(r *result) {
	p := func(name string, v float64, unit string) { fmt.Printf("%-22s %12.3f %s\n", name, v, unit) }
	rss, _ := peakRSSMB()
	p("setup_s", median(r.setupS), "s")
	p("failed_frac", float64(r.failed())/float64(max(r.attempted(), 1)), "ratio")
	p("peak_rss_mb", rss, "MB")
	switch r.workload {
	case "meta-smallfile":
		p("create_p50_us", us(quantile(r.callNs(kCreate), 0.5)), "us")
		p("stat_p50_us", us(quantile(r.d.steps["stat"], 0.5)), "us")
		p("small_read_p50_us", us(quantile(r.callNs(kRead), 0.5)), "us")
		p("meta_ops_s", r.opsS(), "1/s")
	case "bulk-data":
		p("write_mb_s", mbPerS(r.d.userWritten, r.d.sideNs[0]), "MB/s")
		p("cold_read_mb_s", r.stepRate("read", bulkFiles*bulkFileSize/1e6), "MB/s")
		p("warm_read_mb_s", r.stepRate("warm", bulkFiles*bulkFileSize/1e6), "MB/s")
		p("overwrite_4k_ops_s", r.stepRate("write", owBatch), "1/s")
	case "handoff", "handoff-uniform":
		p("handoff_write_p50_us", us(quantile(r.d.steps["write"], 0.5)), "us")
		p("handoff_read_p50_us", us(quantile(r.d.steps["read"], 0.5)), "us")
		p("handoff_ops_s", r.opsS(), "1/s")
	}
}

// writeTrace writes the traced run's ops and spans, kept in memory until
// now, as CSV under .bench_build in the working directory.
func writeTrace(r *result, seed int64) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cellbench-trace-%s-%d.csv", r.workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,layer,start_ns,end_ns")
	for i, op := range r.d.ops {
		fmt.Fprintf(w, "%d,%s %s,%d,%d\n", i+1, layerNames[layerClient], callNames[op.kind], op.start, op.end)
	}
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d\n", s.op, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
