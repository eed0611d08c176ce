# Developer entry points.  PYTHONPATH is set so no install is needed.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: perfbench test-perfbench test test-net test-recovery test-replication test-fleet test-verify test-scenarios bench bench-quick bench-load bench-net bench-recovery bench-replication bench-fleet bench-verify bench-scenarios bench-baseline chaos-quick chaos-recovery chaos-replication chaos-fleet chaos-scenarios

# Tier-1: the fast correctness suite (every test under tests/).
test:
	$(PY) -m pytest -x -q

# Network datapath suite: real sockets over loopback (excluded from
# tier-1; includes the 10k-request end-to-end acceptance test).
test-net:
	$(PY) -m pytest tests/ -q -m net

# Crash-recovery suite: file-backed WAL/snapshot recovery (real fsync +
# rename through DirStorage) and the kill-a-serving-shard failover
# end-to-end test (excluded from tier-1).
test-recovery:
	$(PY) -m pytest tests/ -q -m recovery

# Replicated durable-state suite: multi-node WAL shipping over real
# sockets, quorum acks, and primary-kill promotion (excluded from
# tier-1).
test-replication:
	$(PY) -m pytest tests/ -q -m replication

# Fleet control-plane suite: live scale-out under load with zero
# failed requests, canary auto-rollback of a known-faulty artifact,
# and scale-in preserving every acked write (excluded from tier-1).
test-fleet:
	$(PY) -m pytest tests/ -q -m fleet

# Verification-service suite: parallel/differential bit-identity,
# profiles, worker-kill chaos (part of tier-1; this target selects it).
test-verify:
	$(PY) -m pytest tests/ -q -m verify_svc

# Adversarial scenario suite: one seeded hostile-traffic run per
# scenario (floods, slow-loris, flash crowd, migration-under-attack,
# burst/drain, L4LB failover) with the oracles checked inside
# (excluded from tier-1; the multi-seed sweep is chaos-scenarios).
test-scenarios:
	$(PY) -m pytest tests/ -q -m scenario

# Repository benchmark (perfbench/, see perfbench/METRICS.md): one
# workload end to end, server and load generator in separate
# processes.  W is mc-udp-read, mc-tcp-durable-k1 or ext-load.
W ?= mc-udp-read
SEED ?= 1
perfbench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 30

# The benchmark's own tests (excluded from tier-1 like the other gates).
test-perfbench:
	python3 -m pytest perfbench -q

# Network datapath gate: kernel fast path (batched ingress + compiled
# engine tier, best point on the pps-vs-batch-size curve) must beat the
# userspace-fallback leg by >= 3x in open-loop pps; also checks
# regression vs the committed baseline in
# benchmarks/results/BENCH_net.json.
bench-net:
	$(PY) benchmarks/bench_net_datapath.py --check

# Regenerate every paper figure/table.
bench:
	$(PY) -m pytest benchmarks/ -q

# Perf gate: engine micro-benchmark vs the committed baseline;
# fails on a >20% speedup regression.
bench-quick:
	sh scripts/bench_quick.sh

# Load-path gate: cold vs warm (program-cache hit) load latency;
# fails below the 5x floor or on a >50% regression vs the baseline.
bench-load:
	$(PY) benchmarks/bench_load_path.py --check

# Verification-service gate: 64-program rollout through the worker
# pool must beat serial re-verification >= 2x, and a 1-insn patch must
# re-explore < 50% of regions (differential re-verification).
bench-verify:
	$(PY) benchmarks/bench_verify_service.py --check

# Re-record the engine baseline (run on a quiet machine).
bench-baseline:
	$(PY) benchmarks/bench_engine_speed.py --update

# Robustness gate: seeded chaos campaigns over every supervised app,
# both engines; fails on oracle errors, leaks, or engine divergence.
chaos-quick:
	sh scripts/chaos_quick.sh

# Durability gate: seeded crash-point fuzz over the WAL/snapshot store
# (file-backed); fails on corruption, non-prefix recovery, durability-
# barrier rollback, or < 200 injected crashes.
chaos-recovery:
	sh scripts/chaos_recovery.sh

# Replication gate: seeded crash-point fuzz over the WAL-shipping
# pipeline — primary, follower, promotion, and anti-entropy deaths —
# checked by a linearizability-of-acked-writes oracle; fails on any
# acked-write loss, fencing violation, divergence, or < 200 deaths.
chaos-replication:
	sh scripts/chaos_replication.sh

# Fleet control-plane gate: seeded crash-point fuzz over live segment
# migration and canary rollouts — source/target deaths at every
# migration stage, canary deaths at every rollout stage — checked by
# an acked-writes-preserved oracle plus rollout-safety oracles; fails
# on any loss, any bad promotion/rollback, or < 200 deaths.
chaos-fleet:
	sh scripts/chaos_fleet.sh

# Hostile-traffic gate: the full scenario matrix across >= 200 seeded
# runs; fails on any oracle violation (acked-write loss, ungraceful
# shed, unbounded recovery, p99 blow-out) or a short campaign.
chaos-scenarios:
	sh scripts/chaos_scenarios.sh

# Hostile-traffic perf gate: per-scenario p99 and shed-rate envelopes
# vs the committed baseline in benchmarks/results/BENCH_scenarios.json.
bench-scenarios:
	$(PY) benchmarks/bench_scenarios.py --check

# Fleet perf gate: live scale-out 2->3 migration wall time and
# requests failed during cutover (must be zero) vs the committed
# baseline in benchmarks/results/BENCH_fleet.json.
bench-fleet:
	$(PY) benchmarks/bench_fleet.py --check

# Replication perf gate: quorum-ack (k=1) overhead on the 90:10 mix
# must stay <= 35% vs single-node durable; promotion-to-first-request
# time under budget.
bench-replication:
	$(PY) benchmarks/bench_replication.py --check

# Durability perf gate: WAL-on overhead on the Fig-2 memcached workload
# must stay <= 15%; warm recovery of a 100k-entry map under budget.
bench-recovery:
	$(PY) benchmarks/bench_recovery.py --check
