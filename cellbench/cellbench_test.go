package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// counted runs one round of a workload with a fixed step count. Failed
// ops are logged, not fatal: these tests check the benchmark's own
// machinery, and a wrong read would be the cell's, which the benchmark
// reports as "correct": false.
func counted(t *testing.T, name string, steps int, traced bool) *result {
	t.Helper()
	r, err := measure(name, 7, 0, steps, traced)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed() > 0 {
		t.Logf("%s: %d of %d ops failed: %v", name, r.failed(), r.attempted(), append(r.warm.errs, r.d.errs...))
	}
	return r
}

func layerValues(t *testing.T, r *result) map[string]float64 {
	t.Helper()
	ms, _ := r.perLayer(0)
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// TestTapsForward: with the device, volume-ops and conn taps in place the
// cell still verifies chunks end to end and the server still reports its
// WAL and buffer pool, so the wrappers hide no interface the layers look
// for through a type assertion.
func TestTapsForward(t *testing.T) {
	r := counted(t, "bulk-data", 1, true)
	v := layerValues(t, r)
	for _, name := range []string{
		"integrity.verified_chunks_per_op", "wal.appends_per_op", "wal.flushes_per_op",
		"buffer.destages_per_op", "buffer.hit_ratio", "blockdev.writes_per_op",
		"episode.busy_frac", "episode.hash_calls_per_op", "rpc.conn_writes_per_op",
	} {
		if v[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, v[name])
		}
	}
	if v["integrity.mismatches"] != 0 {
		t.Errorf("integrity.mismatches = %v", v["integrity.mismatches"])
	}
	if v["trace.self_sum_slack_us"] > 1 {
		t.Errorf("self times miss op latency by %v us", v["trace.self_sum_slack_us"])
	}
}

// TestCountsRepeat: the single driver makes a run's work counts a
// function of the seed. Prefetching is timing-driven, so bulk-data's
// prefetch counts are reported, not asserted.
func TestCountsRepeat(t *testing.T) {
	keys := []string{"rpc.calls_per_op", "token.grants_per_op", "token.revocations_per_op",
		"wal.appends_per_op", "blockdev.writes_per_op"}
	for _, name := range []string{"meta-smallfile", "handoff"} {
		a := layerValues(t, counted(t, name, 300, false))
		b := layerValues(t, counted(t, name, 300, false))
		for _, k := range keys {
			if a[k] != b[k] {
				t.Errorf("%s: %s = %v then %v", name, k, a[k], b[k])
			}
		}
	}
	for i := 0; i < 3; i++ {
		r := counted(t, "bulk-data", 1, false)
		var issued, hits, waste uint64
		for _, s := range r.cl {
			issued += s.counters["client.prefetch_issued"]
			hits += s.counters["client.prefetch_hits"]
			waste += s.counters["client.prefetch_waste"]
		}
		t.Logf("bulk-data run %d: prefetch issued %d, hits %d, waste %d", i, issued, hits, waste)
	}
}

// TestSelfTimes: every instant of an op goes to the deepest layer
// covering it, and span time outside its op is background.
func TestSelfTimes(t *testing.T) {
	ops := []opRec{{start: 0, end: 100}, {start: 200, end: 300}}
	spans := []span{
		{op: 1, layer: layerConn, start: 10, end: 20},
		{op: 1, layer: layerEpisode, start: 30, end: 70},
		{op: 1, layer: layerDevice, start: 40, end: 50},
		{op: 1, layer: layerDevice, start: 45, end: 60},
		{op: 1, layer: layerConn, start: 90, end: 130}, // outlives op 1
		{op: 0, layer: layerDevice, start: 150, end: 160},
	}
	self, slack, bg, total := selfTimes(ops, spans)
	want := [numLayers]int64{100 - 60 + 100, 20, 20, 20}
	if self != want || slack != 0 || bg != 40 || total != 125 {
		t.Fatalf("self %v slack %d bg %d total %d; want %v 0 40 125", self, slack, bg, total, want)
	}
}

// TestBenchmarkJSON: the metrics the program prints are exactly the ones
// BENCHMARK.json declares, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	r := counted(t, "handoff", 20, true)
	e2e, err := r.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := r.perLayer(0)
	check := func(kind string, declared []struct{ Name, Unit string }, got []metric) {
		var d, g []string
		for _, m := range declared {
			d = append(d, m.Name+" "+m.Unit)
		}
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		if !reflect.DeepEqual(d, g) {
			t.Errorf("%s: BENCHMARK.json declares\n%v\nprogram prints\n%v", kind, d, g)
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layers)
}
