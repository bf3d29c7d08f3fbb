GO ?= go

.PHONY: all build test vet dfsvet dfsvet-polarity vet-bench race bench bench-snapshot bench-snapshot-pr4 bench-snapshot-pr5 bench-snapshot-pr7 bench-snapshot-pr8 bench-snapshot-pr9 bench-snapshot-pr10 obs-smoke recovery-smoke load-smoke load-smoke-gob stripe-smoke integrity-smoke

all: build vet dfsvet test

build:
	$(GO) build ./...

# test gives each package five minutes, so a hang fails with a goroutine
# dump instead of waiting out go test's ten-minute default.
test:
	$(GO) test -timeout 5m ./...

vet:
	$(GO) vet ./...

# dfsvet runs the paper-invariant analyzers (WAL discipline,
# interprocedural lock checking with deadlock-cycle detection, I/O error
# hygiene, RPC error classification, goroutine lifecycle, obs-cell
# wiring); see internal/lint. A clean tree exits 0.
dfsvet:
	$(GO) run ./cmd/dfsvet ./...

# dfsvet-polarity asserts the other polarity: every seeded-violation
# package under internal/lint/testdata must still produce findings
# (exit 1), so a regression that silences an analyzer cannot pass as a
# clean tree.
dfsvet-polarity:
	@for p in walbad lockbad errbad errbadclass goleakbad obsbad; do \
		status=0; \
		$(GO) run ./cmd/dfsvet ./internal/lint/testdata/src/$$p >/dev/null 2>&1 || status=$$?; \
		if [ $$status -ne 1 ]; then \
			echo "dfsvet-polarity: $$p exited $$status, want 1 (findings)"; exit 1; \
		fi; \
	done; echo "dfsvet-polarity: all seeded packages fire"

# vet-bench times the full dfsvet run so analyzer cost stays visible as
# the tree grows (the summary fixpoint is whole-program).
vet-bench:
	time $(GO) run ./cmd/dfsvet ./...

# race covers the packages with real cross-goroutine traffic.
race:
	$(GO) test -race ./internal/obs ./internal/rpc ./internal/token ./internal/buffer ./internal/client ./internal/server ./internal/wal ./internal/episode ./internal/recovery

# bench is a smoke run: every benchmark once, so CI catches benchmarks
# that no longer build or crash, without paying for measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/wal ./internal/buffer ./internal/episode ./internal/client ./internal/rpc .

# bench-snapshot records the PR's parallel benchmarks into BENCH_PR2.json.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -out BENCH_PR2.json

# bench-snapshot-pr4 records the client data-path pipeline benchmarks
# (read-ahead depth sweep, scan and write-back scaling) into
# BENCH_PR4.json. The latency-injected iterations are slow, so the
# count is modest.
bench-snapshot-pr4:
	$(GO) run ./cmd/benchsnap -out BENCH_PR4.json \
		-bench 'SequentialScan|WriteBack' -benchtime 10x \
		-packages ./internal/client

# bench-snapshot-pr5 records the token-recovery benchmarks (reclaim
# throughput over a populated manager, client reconnect latency) into
# BENCH_PR5.json. Each reconnect iteration restarts a full in-process
# cell, so the count is modest.
bench-snapshot-pr5:
	$(GO) run ./cmd/benchsnap -out BENCH_PR5.json \
		-bench 'Reconnect|Reclaim' -benchtime 50x \
		-packages ./internal/token,./internal/client

# bench-snapshot-pr7 records the sharded token manager against the
# pre-shard single-lock baseline (BenchmarkTokenOps: baseline=preshard
# vs shards=1 vs shards=16, 1-64 goroutines, disjoint and shared FID
# mixes) into BENCH_PR7.json.
bench-snapshot-pr7:
	$(GO) run ./cmd/benchsnap -out BENCH_PR7.json \
		-bench 'TokenOps' -benchtime 0.5s \
		-packages ./internal/token

# bench-snapshot-pr8 records the striped-scan throughput sweep into
# BENCH_PR8.json: width=1 is one server under a worker/latency cap,
# width=2 and width=4 stripe the same file over 3 and 5 capped member
# servers (RAID-5). Each width runs in its own process — leftover
# server goroutines and retained aggregates from one width otherwise
# contend with the next on small CI machines — and -append merges the
# slices into one snapshot. Acceptance: width=4 MB/s >= 3x width=1.
bench-snapshot-pr8:
	$(GO) run ./cmd/benchsnap -out BENCH_PR8.json \
		-bench 'StripedScan/width=1$$' -benchtime 5x -packages ./internal/client
	$(GO) run ./cmd/benchsnap -out BENCH_PR8.json -append \
		-bench 'StripedScan/width=2$$' -benchtime 5x -packages ./internal/client
	$(GO) run ./cmd/benchsnap -out BENCH_PR8.json -append \
		-bench 'StripedScan/width=4$$' -benchtime 5x -packages ./internal/client

# bench-snapshot-pr9 records the wire-format shoot-out into
# BENCH_PR9.json: gob vs the binary bulk-data lane on the same cell at
# zero injected latency, sequential scan and write-back, 1/8/64-chunk
# working sets. Acceptance: binary ≥ 2x gob MB/s on the multi-chunk
# scan and write-back rows.
# Each lane runs in its own process (as in bench-snapshot-pr8):
# leftover prefetch goroutines and GC pressure from one lane's leaves
# otherwise skew the other's numbers on small CI machines.
bench-snapshot-pr9:
	$(GO) run ./cmd/benchsnap -out BENCH_PR9.json \
		-bench 'WireFormat/.*/lane=gob$$' -benchtime 30x \
		-packages ./internal/client
	$(GO) run ./cmd/benchsnap -out BENCH_PR9.json -append \
		-bench 'WireFormat/.*/lane=binary$$' -benchtime 30x \
		-packages ./internal/client

# bench-snapshot-pr10 records the end-to-end integrity benchmarks into
# BENCH_PR10.json: BenchmarkMerkleDiff (Merkle-diff replication vs the
# full-copy refresh on a 1%-dirty 100-chunk file — acceptance is
# chunks_shipped/op ≈ 1 vs 100) and BenchmarkVerifiedScan (what the
# per-chunk SHA-256 verify costs a cache-cold scan vs the DisableVerify
# ablation). Separate processes as in bench-snapshot-pr8/9 so one
# suite's leftover goroutines don't skew the other.
bench-snapshot-pr10:
	$(GO) run ./cmd/benchsnap -out BENCH_PR10.json \
		-bench 'MerkleDiff' -benchtime 20x \
		-packages ./internal/replication
	$(GO) run ./cmd/benchsnap -out BENCH_PR10.json -append \
		-bench 'VerifiedScan' -benchtime 20x \
		-packages ./internal/client

# integrity-smoke is the corrupt-disk drill under -race: bytes are
# rotted underneath a plain server and underneath one stripe member
# (past every layer that would rehash them). Cold readers must catch
# the mismatch through the end-to-end chunk hashes — reconstructing
# from parity on the striped volume — the scrubs must locate the
# damage exactly, and repairs must bring re-scrubs and re-reads back
# clean.
integrity-smoke:
	$(GO) run -race ./cmd/dfsload -clients 2 -files 2 -duration 100ms \
		-scenario integrity -stripe-width 4

# stripe-smoke is the kill-one-server drill under -race: an in-process
# striped cell (width 4 + rotating parity) is written half-way, one
# data server is crashed mid-run, the rest lands as degraded writes,
# and a cache-cold verifier must read every byte back through parity
# reconstruction with the member still down.
stripe-smoke:
	$(GO) run -race ./cmd/dfsload -clients 2 -files 2 -duration 100ms \
		-scenario stripe -stripe-width 4

# load-smoke drives a cell-scale fleet (256 in-process clients over
# pipes) through the dfsload scenarios with the reclaim thundering herd
# included: the run fails on any lost token, any grant escaping the
# grace gate, or a byte that does not survive the restart.
load-smoke:
	$(GO) run ./cmd/dfsload -clients 256 -files 64 -duration 300ms

# load-smoke-gob is the same fleet with the binary lane forced off, so
# the gob fallback path (old peers) keeps passing the full scenario
# battery too.
load-smoke-gob:
	$(GO) run ./cmd/dfsload -clients 256 -files 64 -duration 300ms -gob-only

# obs-smoke boots dfsd with -statusaddr on loopback and validates the
# metrics endpoint's JSON shape with dfsstat -check.
OBS_SMOKE_DIR := $(or $(TMPDIR),/tmp)/dfs-obs-smoke
obs-smoke:
	@rm -rf $(OBS_SMOKE_DIR) && mkdir -p $(OBS_SMOKE_DIR)
	$(GO) build -o $(OBS_SMOKE_DIR)/ ./cmd/dfsd ./cmd/dfsstat
	@$(OBS_SMOKE_DIR)/dfsd -store $(OBS_SMOKE_DIR)/agg.img -format -size 16 \
		-volume smoke -listen 127.0.0.1:17900 -statusaddr 127.0.0.1:17980 \
		>$(OBS_SMOKE_DIR)/dfsd.log 2>&1 & echo $$! >$(OBS_SMOKE_DIR)/dfsd.pid
	@ok=1; for i in 1 2 3 4 5 6 7 8 9 10; do \
		if $(OBS_SMOKE_DIR)/dfsstat -addr 127.0.0.1:17980 -check 2>/dev/null; then ok=0; break; fi; \
		sleep 1; \
	done; \
	kill `cat $(OBS_SMOKE_DIR)/dfsd.pid` 2>/dev/null; \
	if [ $$ok -ne 0 ]; then \
		echo "obs-smoke: endpoint never served a well-formed dump"; \
		cat $(OBS_SMOKE_DIR)/dfsd.log; exit 1; \
	fi

# recovery-smoke kill -9s dfsd underneath a live writer and asserts
# zero loss (§6.2): dfscli smoke streams records with no per-record
# fsync, the server dies mid-stream and comes back with -grace, and the
# client must reconnect, reclaim its tokens, replay the dirty chunks,
# and verify every byte through a second cache-cold client. The first
# server instance checkpoints every 300ms so the file's *creation* is
# durable before the kill — the smoke exercises token/cache recovery,
# not the §2.2 batch-commit window (which deliberately trades the last
# 30s of metadata for restart speed).
RECOVERY_SMOKE_DIR := $(or $(TMPDIR),/tmp)/dfs-recovery-smoke
recovery-smoke:
	@rm -rf $(RECOVERY_SMOKE_DIR) && mkdir -p $(RECOVERY_SMOKE_DIR)
	$(GO) build -o $(RECOVERY_SMOKE_DIR)/ ./cmd/dfsd ./cmd/dfscli
	@set -e; d=$(RECOVERY_SMOKE_DIR); \
	$$d/dfsd -store $$d/agg.img -format -size 16 -volume smoke -sync 300ms \
		-listen 127.0.0.1:17910 >$$d/dfsd1.log 2>&1 & echo $$! >$(RECOVERY_SMOKE_DIR)/dfsd.pid; \
	d=$(RECOVERY_SMOKE_DIR); sleep 1; \
	$$d/dfscli -server 127.0.0.1:17910 -volume 1 smoke rec.dat \
		>$$d/smoke.log 2>&1 & echo $$! >$$d/cli.pid; \
	sleep 2; \
	kill -9 `cat $$d/dfsd.pid` 2>/dev/null; \
	sleep 0.3; \
	$$d/dfsd -store $$d/agg.img -grace 2s \
		-listen 127.0.0.1:17910 >$$d/dfsd2.log 2>&1 & echo $$! >$$d/dfsd.pid; \
	status=0; wait `cat $$d/cli.pid` || status=$$?; \
	kill `cat $$d/dfsd.pid` 2>/dev/null || true; \
	if [ $$status -ne 0 ] || ! grep -q 'SMOKE ok' $$d/smoke.log; then \
		echo "recovery-smoke failed (exit $$status):"; cat $$d/smoke.log; \
		echo "-- dfsd restart log --"; cat $$d/dfsd2.log; exit 1; \
	fi; \
	cat $$d/smoke.log
