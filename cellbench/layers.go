package main

import (
	"sort"
)

// perLayer is the traced run's breakdown, one group per module below the
// client's vfs API. NOTES.md maps each metric to the end-to-end metric
// it should move and the workload it should move on. overhead is the
// untraced/traced throughput ratio minus one.
func (r *result) perLayer(overhead float64) (out []metric, missing []string) {
	ops := float64(r.d.attempted)
	miss := make(map[string]bool)
	cl := &view{regs: r.cl, missing: miss}
	sv := &view{regs: r.srv, missing: miss}
	add := func(name, unit string, v float64) { out = append(out, metric{name, v, unit}) }
	perOp := func(v float64, ok bool) float64 {
		if !ok {
			return notReported
		}
		return v / ops
	}
	count := func(v float64, ok bool) float64 {
		if !ok {
			return notReported
		}
		return v
	}
	hitRatio := func(v *view, hits, misses string) float64 {
		h, ok1 := v.ctr(hits)
		m, ok2 := v.ctr(misses)
		if !ok1 || !ok2 {
			return notReported
		}
		return ratio(h, h+m)
	}
	p50 := func(v *view, name string) float64 {
		h, ok := v.hist(name)
		if !ok || h.Count == 0 {
			return notReported
		}
		return h.Quantile(0.5) / 1e3
	}
	sumNs := func(v *view, name string) float64 {
		h, _ := v.hist(name)
		return float64(h.SumNs)
	}

	// client (cache manager)
	add("client.data_cache_hit_ratio", "ratio", hitRatio(cl, "client.data_cache_hits", "client.data_cache_misses"))
	add("client.attr_cache_hit_ratio", "ratio", hitRatio(cl, "client.attr_cache_hits", "client.attr_cache_misses"))
	add("client.lookup_hit_ratio", "ratio", hitRatio(cl, "client.lookup_hits", "client.lookup_misses"))
	add("client.vnode_evictions_per_op", "count/op", perOp(cl.ctr("client.vnode_evictions")))
	issued, okI := cl.ctr("client.prefetch_issued")
	hits, okH := cl.ctr("client.prefetch_hits")
	if okI && okH {
		add("client.prefetch_hit_ratio", "ratio", ratio(hits, issued))
	} else {
		add("client.prefetch_hit_ratio", "ratio", notReported)
	}
	add("client.prefetch_waste_per_op", "count/op", perOp(cl.ctr("client.prefetch_waste")))
	add("client.fetch_p50_us", "us", p50(cl, "client.fetch_ns"))
	add("client.store_p50_us", "us", p50(cl, "client.store_ns"))
	add("client.store_backs_per_op", "count/op", perOp(cl.ctr("client.store_backs")))
	add("client.revocations_per_op", "count/op", perOp(cl.ctr("client.revocations")))
	for _, k := range []int{kCreate, kLookup, kAttr, kRead, kWrite, kFsync} {
		add("client."+callNames[k]+"_call_p50_us", "us", us(quantile(r.callNs(k), 0.5)))
	}
	add("client.stat_p50_us", "us", us(quantile(r.d.steps["stat"], 0.5)))
	for _, step := range []string{"write", "read"} {
		add("client."+step+"_p99_us", "us", us(quantile(r.d.steps[step], 0.99)))
		add("client."+step+"_p99_samples", "count", float64(len(r.d.steps[step])))
	}
	warm := float64(notReported)
	ow := float64(notReported)
	if r.workload == "bulk-data" {
		warm = r.stepRate("warm", bulkFiles*bulkFileSize/1e6)
		ow = r.stepRate("write", owBatch)
	}
	add("client.warm_read_mb_s", "MB/s", warm)
	add("client.overwrite_4k_ops_s", "1/s", ow)

	// integrity (client-side verification)
	add("integrity.verify_p50_us", "us", p50(cl, "integrity.verify_ns"))
	add("integrity.verified_chunks_per_op", "count/op", perOp(cl.ctr("integrity.verified_chunks")))
	add("integrity.mismatches", "count", count(cl.ctr("integrity.mismatches")))
	add("integrity.refetches", "count", count(cl.ctr("integrity.refetches")))

	// rpc (+proto): calls the clients sent, served by the server.
	calls, okC := cl.ctr("rpc.calls_sent")
	add("rpc.calls_per_op", "count/op", perOp(calls, okC))
	add("rpc.callbacks_per_op", "count/op", perOp(sv.ctr("rpc.calls_sent")))
	add("rpc.call_p50_us", "us", p50(cl, "rpc.call_ns"))
	add("rpc.serve_p50_us", "us", p50(sv, "rpc.serve_ns"))
	callH, _ := cl.hist("rpc.call_ns")
	serve := sumNs(sv, "rpc.serve_ns")
	add("rpc.transport_us_per_call", "us", us(ratio(float64(callH.SumNs)-serve, float64(callH.Count))))
	user := float64(r.d.userRead + r.d.userWritten)
	add("rpc.wire_bytes_per_user_byte", "B/B", ratio(float64(r.after.connBytes-r.before.connBytes), user))
	add("rpc.conn_writes_per_op", "count/op", float64(r.after.connWrites-r.before.connWrites)/ops)
	lf, okL := cl.ctr("rpc.lane_fallbacks")
	lf2, okL2 := sv.ctr("rpc.lane_fallbacks")
	add("rpc.lane_fallbacks", "count", count(lf+lf2, okL || okL2))

	// episode (+anode, server-side integrity), timed at the vfs boundary
	var ep [numEpKinds]float64
	var epCount [numEpKinds]float64
	for k := range ep {
		h := histDelta(r.after.ep[k], r.before.ep[k])
		ep[k] = notReported
		if h.Count > 0 {
			ep[k] = h.Quantile(0.5) / 1e3
		}
		epCount[k] = float64(h.Count)
	}
	epBusy := float64(r.after.epBusy - r.before.epBusy)

	// server (+glue): serve time not spent in Episode or in token grants.
	serveH, _ := sv.hist("rpc.serve_ns")
	grant := sumNs(sv, "token.grant_ns")
	add("server.self_us_per_call", "us", us(ratio(serve-epBusy-grant, float64(serveH.Count))))

	// token manager
	add("token.grants_per_op", "count/op", perOp(sv.ctr("token.grants")))
	add("token.revocations_per_op", "count/op", perOp(sv.ctr("token.revocations")))
	add("token.grant_p50_us", "us", p50(sv, "token.grant_ns"))
	add("token.revoke_rtt_p50_us", "us", p50(sv, "token.revoke_rtt_ns"))

	for _, k := range []int{epCreate, epLookup, epAttr, epRead, epWrite} {
		add("episode."+epKindNames[k]+"_p50_us", "us", ep[k])
	}
	wb := histDelta(r.after.ep[epWrite], r.before.ep[epWrite])
	add("episode.write_busy_s", "s", float64(wb.SumNs)/1e9)
	add("episode.hash_calls_per_op", "count/op", epCount[epHash]/ops)
	add("episode.busy_frac", "ratio", ratio(epBusy, float64(r.wallNs)))

	// wal
	add("wal.appends_per_op", "count/op", perOp(sv.ctr("wal.appends")))
	add("wal.flushes_per_op", "count/op", perOp(sv.ctr("wal.flushes")))
	add("wal.commit_p50_us", "us", p50(sv, "wal.commit_ns"))
	add("wal.flush_p50_us", "us", p50(sv, "wal.flush_ns"))

	// buffer pool
	add("buffer.hit_ratio", "ratio", hitRatio(sv, "buffer.hits", "buffer.misses"))
	add("buffer.evicts_per_op", "count/op", perOp(sv.ctr("buffer.evicts")))
	add("buffer.destages_per_op", "count/op", perOp(sv.ctr("buffer.destages")))
	add("buffer.destage_p50_us", "us", p50(sv, "buffer.destage_ns"))

	// blockdev, timed by the device tap
	b, a := r.before, r.after
	add("blockdev.reads_per_op", "count/op", float64(a.devReads-b.devReads)/ops)
	add("blockdev.writes_per_op", "count/op", float64(a.devWrites-b.devWrites)/ops)
	add("blockdev.syncs_per_op", "count/op", float64(a.devSyncs-b.devSyncs)/ops)
	add("blockdev.bytes_written_per_user_byte", "B/B", ratio(float64(a.devBytes-b.devBytes), float64(r.d.userWritten)))
	add("blockdev.busy_s", "s", float64(a.devBusy-b.devBusy)/1e9)

	// process
	add("proc.cpu_s_per_op", "s/op", float64(a.cpuNs-b.cpuNs)/1e9/ops)
	add("proc.alloc_bytes_per_op", "B/op", float64(a.alloc-b.alloc)/ops)
	add("proc.gc_cpu_frac", "ratio", r.gcFrac)

	// trace: self time per layer, per op
	self, slack, bg, total := selfTimes(r.d.ops, r.spans)
	for l, name := range layerNames {
		add("trace."+name+"_self_us_per_op", "us", float64(self[l])/1e3/ops)
	}
	add("trace.self_sum_slack_us", "us", float64(slack)/1e3)
	add("trace.background_frac", "ratio", ratio(float64(bg), float64(total)))
	add("trace.spans", "count", float64(len(r.spans)))
	add("trace.overhead_frac", "ratio", overhead)

	for name := range miss {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	return out, missing
}
