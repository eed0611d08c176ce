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

# The chaos-* gates run declared campaigns (repro.sim.campaign): each
# pins its seeds, sizes, coverage floor and required crash sites, and
# exits 1 on any oracle error or failed gate check.

# Quick robustness gate: seeded chaos campaigns over the supervised
# applications, run under BOTH execution engines.  Fails on any oracle
# error, quiescence violation (leak after an injected cancellation), or
# engine digest divergence.
chaos-quick:
	$(PY) -m repro.sim.campaign apps

# Crash-recovery gate: seeded crash-point fuzz over the durable-state
# subsystem, file-backed (real fsync/rename through DirStorage in a
# temporary directory).  Six runs x 1500 mutations inject well over 200
# process deaths across all crash sites (WAL append/flush, snapshot
# write/commit/compact, mid-recovery); fails on any corruption, any
# non-prefix recovery, any rollback past an acknowledged durability
# barrier, or fewer than 200 injected crashes — the floor makes
# coverage an explicit gate, not a hope.
chaos-recovery:
	$(PY) -m repro.sim.campaign recovery

# Replication gate: seeded crash-point fuzz over the WAL-shipping
# pipeline.  Five runs x 1200 mutations at sync_replicas=1 plus one k=2
# leg inject well over 200 deaths across primary kills, follower kills
# mid-append/mid-flush, deaths during promotion recovery, and deaths
# inside anti-entropy snapshot installs.  Fails on any acked-write loss
# across promotion (linearizability oracle), any accepted stale-epoch
# frame, any divergence between a recovered node and the acked-prefix
# shadow, fewer than 200 injected deaths, or any replication crash
# site left unexercised.
chaos-replication:
	$(PY) -m repro.sim.campaign replication

# Fleet control-plane gate: seeded crash-point fuzz over live segment
# migration and canary rollouts.  Eight runs x 150 event-loop steps
# inject well over 200 shard deaths across every fleet crash site: the
# migration source dying while cutting the segment image, the target
# dying mid-install / mid-tail / inside the paused cutover, and the
# canary dying at load, mid-window, mid-promote and mid-rollback.
# Every death is followed by real crash recovery from the victim's
# durable state.  Fails on any acked-write loss across a migration or
# rollout, any phantom hit, any flaky artifact promoted fleet-wide, any
# clean artifact rolled back, fewer than 200 injected deaths, or any
# fleet crash site left unexercised.
chaos-fleet:
	$(PY) -m repro.sim.campaign fleet

# Hostile-traffic gate: the full adversarial scenario matrix (floods,
# slow-loris, flash crowds, mid-run migration, burst/drain, L4LB
# backend failover) across 30 seeds each.  Every run re-checks the
# oracles — acked writes never lost, graceful shed, bounded recovery,
# p99 envelope — and the gate fails on any failure or if fewer than
# 200 seeded runs executed.
chaos-scenarios:
	$(PY) -m repro.sim.campaign scenarios

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
