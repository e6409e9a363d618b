# Tier-1 verification and race-detector targets. The telemetry, backend
# and core packages are concurrency-heavy (harvest tunnels, chaos suite,
# lock-striped store, parallel usage-epoch pipeline), so `race` must
# stay green across the whole module, not just `test`. CI
# (.github/workflows/ci.yml) runs build + vet + test + race.

.PHONY: build test vet race bench bench-gate bench-baseline wire-compat docs docs-gen trace-smoke crash-smoke cluster-smoke mon-smoke rebalance-smoke verify

# GATE_BENCH is the benchmark set the regression gate measures: the
# wire codecs (bytes/report is the headline EXPERIMENTS.md number), the
# in-memory harvest pipeline for both wire versions, and the whole-store
# reads (snapshot save/load and digest at a fixed store size). Fixed -50x
# iteration counts keep the run fast and the allocation counts exact;
# WAL arms are excluded because fsync timing is the disk's, not ours.
GATE_BENCH = BenchmarkWireEncode|BenchmarkHarvestPipeline/wire-v./volatile|BenchmarkStoreSnapshot

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go vet ./... && go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# bench-gate fails if any gated benchmark regressed past tolerance
# versus the checked-in BENCH_baseline.json (±20% for deterministic
# size/alloc metrics, wider for wall-clock; see scripts/benchgate).
bench-gate:
	go test ./internal/backend -run xxx -bench '$(GATE_BENCH)' \
		-benchmem -benchtime 50x | go run ./scripts/benchgate -baseline BENCH_baseline.json

# bench-baseline reruns the gated benchmarks and rewrites the baseline;
# use after an intentional perf or wire-format change.
bench-baseline:
	go test ./internal/backend -run xxx -bench '$(GATE_BENCH)' \
		-benchmem -benchtime 50x | go run ./scripts/benchgate -baseline BENCH_baseline.json -update

# wire-compat is the digest-equivalence gate: 10 seeds of v1, v2, and
# mixed-fallback harvests must agree byte-for-byte on the store digest,
# plus a fuzz pass over the batch decoder, the frame demultiplexer and
# the store snapshot decoder (binary and legacy gob input).
wire-compat:
	go test ./internal/backend -run 'TestWireDigestEquivalence' -count=1 -v
	go test ./internal/core -run 'TestUsageEpochWireEquivalence' -count=1
	go test ./internal/telemetry -run xxx -fuzz FuzzDecodeBatchFrame -fuzztime 30s
	go test ./internal/telemetry -run xxx -fuzz FuzzDecodeMessage -fuzztime 30s
	go test ./internal/backend -run xxx -fuzz FuzzStoreLoad -fuzztime 30s

# docs is the documentation gate: every package in the module must
# carry exactly one package comment (scripts/checkdocs), and the
# generated CLI flag reference docs/FLAGS.md must match the flag
# registrations in cmd/* (scripts/flagdoc -check) — change a flag
# without running `make docs-gen` and CI fails.
docs:
	go vet ./... && go run ./scripts/checkdocs
	go run ./scripts/flagdoc -check docs/FLAGS.md

# docs-gen regenerates docs/FLAGS.md after a flag change.
docs-gen:
	go run ./scripts/flagdoc -out docs/FLAGS.md

# trace-smoke runs a fully sampled offline harvest and validates the
# flight-recorder dump: it must parse as JSON and contain at least one
# complete five-stage trace (see scripts/tracecheck).
trace-smoke:
	go run ./cmd/merakisim -networks 4 -trace-sample 1.0 \
		-trace-out /tmp/trace-smoke.json -out /tmp/trace-smoke.gob
	go run ./scripts/tracecheck /tmp/trace-smoke.json

# crash-smoke is the kill-and-recover gate: real merakid subprocesses
# harvest a live agent fleet into a WAL, are SIGKILLed mid-harvest and
# restarted over the same -wal-dir, and the recovered store digest must
# match a never-crashed control — TestCrashRecoveryDigest over 10 seeded
# kill moments and TestCrashRecoveryDoubleKill over two kill cycles
# (cmd/merakid/crash_test.go, on the internal/fleettest harness).
crash-smoke:
	go test ./cmd/merakid -run 'TestCrashRecovery' -count=1

# cluster-smoke is the sharded-deployment gate: a 4-shard merakid
# cluster (per-shard WAL dirs, -shard/-shards/-peers) harvests a
# mixed-wire fleet routed by the shard map while one shard is SIGKILLed
# and recovered; the router's merged digest must be undegraded and match
# a single-store control, shard 1's own "fanout digest" must agree with
# degraded=false, and every shard must identify itself in status
# (TestClusterKillRecoveryDigest in cmd/merakid/cluster_test.go).
cluster-smoke:
	go test ./cmd/merakid -run 'TestClusterKillRecoveryDigest' -count=1

# mon-smoke is the observability gate: spawn a 2-shard cluster on a
# fast series/health cadence, degrade one shard with faultnet-corrupted
# chaos agents, and require the harvest-degradation alert to fire and
# resolve, the transitions to be counted in health.* metrics, shard 0's
# /debug/federate to carry both shards' samples, and one merakireport
# -watch refresh to render every shard (scripts/moncheck, a thin main
# over the internal/fleettest harness).
mon-smoke:
	go run ./scripts/moncheck

# rebalance-smoke is the live-migration gate: harvest into a 2-shard
# WAL-backed cluster, grow it to 3 shards with the real operator flow
# (`merakireport -cluster OLD -rebalance NEW` — part, extract, absorb,
# digest-verify, cut over), flip the fleet, and require the 3-shard
# merged digest to match a single-store control with moved networks
# gone from their sources (scripts/rebalancecheck, a thin main over the
# internal/fleettest harness). The cmd/merakid rebalance tests run the
# same proof through the daemon's own "rebalance" query, including a
# destination SIGKILLed mid-migration.
rebalance-smoke:
	go run ./scripts/rebalancecheck

verify: build vet test race docs trace-smoke crash-smoke cluster-smoke mon-smoke rebalance-smoke
