"""Seeded chaos campaigns over the supervised applications.

A *campaign* drives hundreds of application requests through a KFlex
runtime with a :class:`~repro.sim.faults.FaultPlan` installed, and
checks the paper's end-to-end robustness claims (§3.3, §3.4, §4.3):

* **No panics.**  Every injected fault ends in a clean cancellation;
  a ``KernelPanic`` (including a ``QuiescenceViolation`` from the
  per-cancellation audit) escapes the campaign and fails it.
* **Quiescence.**  Quiescence auditing is forced on for the campaign's
  duration, so every cancellation is followed by a lock/sock/alloc
  audit, and a final :meth:`QuiescenceAuditor.sweep` checks the whole
  runtime after the last request.
* **Graceful degradation.**  The memcached/redis campaigns run through
  the supervised wrappers and oracle-check every result against a
  shadow store — correct answers are required *through* quarantine,
  via the userspace fallback and the surviving heap (§3.4).
* **Deterministic replay.**  The campaign folds every op, result and
  injector fire into a SHA-256 digest.  Same seed + same engine (or
  the other engine — injection points are engine-order identical)
  must reproduce the digest bit for bit.

Every campaign returns a :class:`~repro.sim.campaign.CampaignReport`;
the gates that run them are declared in :mod:`repro.sim.campaign`
(see ``make chaos-quick``)::

    python -m repro.sim.campaign apps
"""

from __future__ import annotations

import contextlib
import hashlib
import random

from repro.core.audit import audit_enabled, enable_quiescence_audit
from repro.core.runtime import KFlexRuntime
from repro.core.supervisor import QuarantinePolicy
from repro.errors import SimulatedCrash
from repro.kernel.watchdog import DEFAULT_QUANTUM_UNITS
from repro.sim.campaign import CampaignReport
from repro.sim.faults import FaultPlan

#: Per-opportunity trigger rates tuned so a few-hundred-op campaign
#: sees every kind fire multiple times without drowning the service.
FAULT_RATES = {
    "heap_page": 0.004,
    "sfi_guard": 0.004,
    "helper_fail": 0.01,
    "alloc_fail": 0.02,
    "wd_fire": 0.02,
    "lock_stall": 0.01,
}

def chaos_policy() -> QuarantinePolicy:
    """Quarantine knobs for chaos runs: trip fast, heal fast.

    Backoffs are short on the simulated clock (one request advances it
    by a few microseconds), so campaigns exercise the full
    quarantine → backoff → re-admission → replay cycle many times.
    """
    return QuarantinePolicy(
        window=32,
        max_faults=4,
        base_backoff_ns=50_000,
        backoff_factor=4,
        max_backoff_ns=5_000_000,
    )


def _mix(hasher, *parts) -> None:
    hasher.update("|".join(str(p) for p in parts).encode())
    hasher.update(b"\n")


def _app_report(app: str, engine: str, seed: int, n_ops: int):
    """An app campaign's report: counters in print order.  ``pending``
    counts overlay entries never replayed (extension still quarantined
    at the end of the run) — informational, not an error.  The digest
    covers every (op, result) pair and the injector fire log."""
    counts = dict.fromkeys(
        ("total_fires", "quarantines", "readmissions", "cancellations",
         "kernel_ops", "fallback_ops", "pending"), 0,
    )
    return CampaignReport(
        app, seed, n_ops, variant=engine, counts=counts, info=("pending",)
    )


def _finish(report, rt, hasher, inj, stats=None) -> CampaignReport:
    """Common tail: runtime-wide sweep, stats, digest."""
    # Final quiescence sweep across every allocator/lock manager and
    # the global socket table — raises QuiescenceViolation on leaks.
    rt.auditor.sweep(rt)
    for kind, n in sorted(inj.fires.items()):
        _mix(hasher, "fire", kind, n)
    for kind, ordinal in inj.log:
        _mix(hasher, "log", kind, ordinal)
    report.digest = hasher.hexdigest()
    report.sites = tuple(sorted(inj.kinds_fired()))
    c = report.counts
    c["total_fires"] = inj.total_fires()
    c["quarantines"] = rt.supervisor.stats.quarantines
    c["readmissions"] = rt.supervisor.stats.readmissions
    if stats is not None:
        c["kernel_ops"], c["fallback_ops"] = stats
    return report


def _colliding_ids(bucket_of, encode, n_keys: int, per_bucket: int) -> list[int]:
    """Deterministic key ids that share hash buckets.

    Uniform keys over the 4096-bucket tables almost never collide, so
    bucket chains stay one entry long and the loop back-edge CANCELPTs
    never execute — which would starve the heap-fault kinds of
    opportunities.  Scanning ids in order and keeping the first
    ``per_bucket`` hits of the first ``n_keys / per_bucket`` buckets to
    fill up yields chains long enough to walk every request.
    """
    buckets: dict[int, list[int]] = {}
    full: list[int] = []
    cand = 0
    while len(full) * per_bucket < n_keys:
        b = bucket_of(encode(cand))
        ids = buckets.setdefault(b, [])
        if len(ids) < per_bucket:
            ids.append(cand)
            if len(ids) == per_bucket:
                full.append(b)
        cand += 1
    return [i for b in full for i in buckets[b]][:n_keys]


#: Simulated per-request interarrival time.  Fallback-served requests
#: never run the extension (which is what advances the cost-model
#: clock), so without this the clock freezes during quarantine and the
#: re-admission backoff would never elapse.
REQUEST_GAP_NS = 2_000


@contextlib.contextmanager
def _chaos_runtime(engine: str, seed: int):
    """``(runtime, injector)`` with the seeded fault plan installed;
    quiescence auditing is forced on for the campaign, then restored."""
    prev = audit_enabled()
    enable_quiescence_audit(True)
    try:
        rt = KFlexRuntime(engine=engine, supervisor_policy=chaos_policy())
        # Short watchdog period so injected premature fires actually get a
        # chance to trigger on ~100-step requests (the production period of
        # 4096 steps would make wd_fire unreachable for small extensions).
        rt.watchdog_period = 64
        yield rt, rt.install_injector(FaultPlan(seed, FAULT_RATES))
    finally:
        enable_quiescence_audit(prev)


def _kv_request(report, hasher, i: int, app, shadow: dict, key, value=None):
    """One SET (``value`` given) or GET through a supervised key-value
    app, oracle-checked against the acknowledged writes in ``shadow``."""
    if value is not None:
        ok = app.set(key, value)
        if not ok:
            report.error(i, f"SET {key} refused")
        else:
            shadow[key] = value
        _mix(hasher, i, "set", key, value, ok)
        return
    got = app.get(key)
    want = (True, shadow[key]) if key in shadow else (False, None)
    if got != want:
        report.error(i, f"GET {key}: got {got}, want {want}")
    _mix(hasher, i, "get", key, got)


def _kv_final(report, hasher, n_ops: int, app, shadow: dict) -> None:
    """End-to-end check: every key answers correctly, kernel path or
    fallback alike."""
    for key, want in sorted(shadow.items()):
        got = app.get(key)
        if got != (True, want):
            report.error(n_ops, f"final GET {key}: {got}")
        _mix(hasher, "final", key, got)


# ---------------------------------------------------------------------------
# Memcached
# ---------------------------------------------------------------------------


#: Distinct memcached keys (colliding in chains of 8).
MEMCACHED_KEYS = 64


def run_memcached_campaign(
    seed: int = 0, n_ops: int = 600, engine: str = "threaded"
) -> CampaignReport:
    """GET/SET storm through :class:`SupervisedMemcached` + oracle."""
    from repro.apps.memcached import protocol as P
    from repro.apps.memcached.supervised import SupervisedMemcached, _bucket_of

    report = _app_report("memcached", engine, seed, n_ops)
    hasher = hashlib.sha256()
    rng = random.Random(f"chaos:{seed}:memcached")
    keys = _colliding_ids(
        _bucket_of, P.key_bytes, MEMCACHED_KEYS, per_bucket=8
    )
    with _chaos_runtime(engine, seed) as (rt, inj):
        sm = SupervisedMemcached(
            rt,
            use_locks=True,
            heap_size=1 << 22,
            quantum_units=DEFAULT_QUANTUM_UNITS,
        )
        shadow: dict[int, int] = {}
        for i in range(n_ops):
            rt.kernel.advance_ns(REQUEST_GAP_NS)
            key = keys[rng.randrange(len(keys))]
            value = rng.getrandbits(63) if rng.random() < 0.5 else None
            _kv_request(report, hasher, i, sm, shadow, key, value)
        _kv_final(report, hasher, n_ops, sm, shadow)
        report.counts["cancellations"] = sm.ext.stats.cancellations
        report.counts["pending"] = sm.pending
        stats = (
            sm.stats.kernel_gets + sm.stats.kernel_sets,
            sm.stats.fallback_gets + sm.stats.fallback_sets,
        )
        return _finish(report, rt, hasher, inj, stats)


# ---------------------------------------------------------------------------
# Redis
# ---------------------------------------------------------------------------


#: Distinct redis string keys (colliding in chains of 8).
REDIS_KEYS = 32
#: Distinct zset keys, and members per zset.
REDIS_ZSETS = 4
REDIS_MEMBERS = 16


def run_redis_campaign(
    seed: int = 0, n_ops: int = 600, engine: str = "threaded"
) -> CampaignReport:
    """GET/SET/ZADD storm through :class:`SupervisedRedis` + oracle.

    String keys and zset keys live in disjoint id ranges.  Each
    (zset, member) pair always gets the same score, so repeated ZADDs
    are idempotent and the end-state check is a plain set comparison.
    """
    from repro.apps.redis import protocol as P
    from repro.apps.redis.supervised import SupervisedRedis, _bucket_of

    report = _app_report("redis", engine, seed, n_ops)
    hasher = hashlib.sha256()
    rng = random.Random(f"chaos:{seed}:redis")
    keys = _colliding_ids(_bucket_of, P.key_bytes, REDIS_KEYS, per_bucket=8)
    zbase = 1 << 20  # zset key ids, disjoint from string keys
    with _chaos_runtime(engine, seed) as (rt, inj):
        sr = SupervisedRedis(
            rt, heap_size=1 << 22, quantum_units=DEFAULT_QUANTUM_UNITS
        )
        strings: dict[int, int] = {}
        zsets: dict[int, set] = {}
        for i in range(n_ops):
            rt.kernel.advance_ns(REQUEST_GAP_NS)
            roll = rng.random()
            if roll < 0.70:
                key = keys[rng.randrange(len(keys))]
                value = rng.getrandbits(63) if roll < 0.35 else None
                _kv_request(report, hasher, i, sr, strings, key, value)
            else:
                key = zbase + rng.randrange(REDIS_ZSETS)
                member = rng.randrange(REDIS_MEMBERS)
                score = member * 10  # fixed per member: idempotent
                ok = sr.zadd(key, score, member)
                if not ok:
                    report.error(i, f"ZADD {key} refused")
                else:
                    zsets.setdefault(key, set()).add((score, member))
                _mix(hasher, i, "zadd", key, score, member, ok)
        _kv_final(report, hasher, n_ops, sr, strings)
        for key, want in sorted(zsets.items()):
            got = sr.zset_members(key)
            if got != sorted(want):
                report.error(
                    n_ops, f"final ZSET {key}: {got} != {sorted(want)}"
                )
            _mix(hasher, "final-zset", key, tuple(got))
        report.counts["cancellations"] = sr.ext.stats.cancellations
        report.counts["pending"] = sr.pending
        stats = (sr.stats.kernel_ops, sr.stats.fallback_ops)
        return _finish(report, rt, hasher, inj, stats)


# ---------------------------------------------------------------------------
# Data structures
# ---------------------------------------------------------------------------


#: Distinct data-structure keys.
DATASTRUCTURE_KEYS = 48


def run_datastructures_campaign(
    seed: int = 0, n_ops: int = 400, engine: str = "threaded"
) -> CampaignReport:
    """Update/lookup/delete storm over hashmap + linkedlist.

    No userspace fallback wrapper exists for the raw data structures, so
    this campaign checks the robustness half only: no panics, quiescence
    after every cancellation, and a deterministic digest — a quarantined
    structure answering with its default return is acceptable.
    """
    from repro.apps.datastructures.hashmap import HashMapDS
    from repro.apps.datastructures.linkedlist import LinkedListDS

    report = _app_report("datastructures", engine, seed, n_ops)
    hasher = hashlib.sha256()
    rng = random.Random(f"chaos:{seed}:datastructures")
    with _chaos_runtime(engine, seed) as (rt, inj):
        structures = [HashMapDS(rt), LinkedListDS(rt)]
        for i in range(n_ops):
            rt.kernel.advance_ns(REQUEST_GAP_NS)
            ds = structures[rng.randrange(len(structures))]
            key = rng.randrange(DATASTRUCTURE_KEYS)
            roll = rng.random()
            if roll < 0.5:
                ret = ds.update(key, rng.getrandbits(32))
                op = "update"
            elif roll < 0.85:
                ret = ds.lookup(key)
                op = "lookup"
            else:
                ret = ds.delete(key)
                op = "delete"
            _mix(hasher, i, ds.NAME, op, key, ret)
        report.counts["cancellations"] = sum(
            ext.stats.cancellations
            for ds in structures
            for ext in ds.exts.values()
        )
        return _finish(report, rt, hasher, inj)


# ---------------------------------------------------------------------------
# Crash recovery (repro.state)
# ---------------------------------------------------------------------------

#: Per-opportunity crash rates for the recovery fuzz.  WAL sites see an
#: opportunity per mutation, snapshot sites one per compaction, so the
#: snapshot rates are higher to get comparable coverage.
CRASH_RATES = {
    "wal.append": 0.010,
    "wal.flush": 0.010,
    "snapshot.write": 0.120,
    "snapshot.commit": 0.120,
    "wal.compact": 0.120,
    "recovery.replay": 0.003,
}

#: The fuzzed map of the recovery and replication campaigns: its pin,
#: key/value widths, key space and capacity.
PIN = "chaos/map"
KEY_SIZE, VALUE_SIZE = 8, 16
CHURN_KEYS = 48
CHURN_ENTRIES = 64
#: Journal records between snapshots of the fuzzed store.
SNAPSHOT_EVERY = 64


class _Shadow:
    """Shadow oracle: the journaled ops in sequence order.  ``ops[i]``
    carries seq i+1; values are the canonical post-write slot bytes."""

    def __init__(self):
        self.ops: list[tuple[str, bytes, bytes]] = []

    def churn(self, rng, m) -> tuple[str, bytes, bytes, int]:
        """One random update ("u") or delete ("d") against ``m``;
        returns ``(op, key, value, rc)``.

        The in-memory mutation and its WAL append both happen before
        any crash site can fire, so an op joins the shadow when it
        succeeds *or* when a :class:`SimulatedCrash` interrupts it —
        which then propagates, and recovery rules on how much history
        survived.
        """
        key = rng.randrange(CHURN_KEYS).to_bytes(KEY_SIZE, "little")
        op = "d" if rng.random() < 0.25 else "u"
        value = (
            b"" if op == "d" else rng.getrandbits(8 * VALUE_SIZE).to_bytes(
                VALUE_SIZE, "little"
            )
        )
        crashed = None
        try:
            rc = m.delete(key) if op == "d" else m.update(key, value)
        except SimulatedCrash as e:
            crashed, rc = e, 0
        if rc == 0:
            canonical = (
                b"" if op == "d"
                else m.aspace.read_bytes(m.lookup(key), VALUE_SIZE)
            )
            self.ops.append((op, key, canonical))
        if crashed is not None:
            raise crashed
        return op, key, value, rc

    def prefix(self, k: int) -> list[tuple[bytes, bytes]]:
        """Map contents after the first ``k`` ops."""
        d: dict[bytes, bytes] = {}
        for op, key, value in self.ops[:k]:
            if op == "u":
                d[key] = value
            else:
                d.pop(key, None)
        return sorted(d.items())

    def rebase(self, report, i: int, m, seq: int) -> int:
        """Check a map recovered at ``seq`` against the shadow — it must
        equal *exactly* the first ``seq`` ops, never a corrupted or
        reordered state — then drop the history that did not survive.
        Returns the number of ops dropped."""
        if seq > len(self.ops):
            report.error(
                i, f"recovered seq {seq} beyond {len(self.ops)} shadow ops"
            )
            seq = len(self.ops)
        want = self.prefix(seq)
        got = m.entries()
        if got != want:
            report.error(
                i,
                f"recovered state is not the seq-{seq} prefix: "
                f"{len(got)} entries vs {len(want)} expected",
            )
        lost = len(self.ops) - seq
        del self.ops[seq:]
        return lost


def _churn_store(storage, crash, shipper=None):
    """The fuzzed map's store: every journaled op is its own durability
    barrier (sync_every=1), compacted every SNAPSHOT_EVERY records."""
    from repro.state import DurableStore

    return DurableStore(
        storage=storage,
        sync_every=1,
        snapshot_every=SNAPSHOT_EVERY,
        crash=crash,
        shipper=shipper,
    )


def _churn_map(kernel, name: str):
    from repro.ebpf.maps import HashMap

    return HashMap(
        kernel.aspace,
        kernel.vmalloc,
        key_size=KEY_SIZE,
        value_size=VALUE_SIZE,
        max_entries=CHURN_ENTRIES,
        name=name,
    )


def _recover_map(store, kernel, crash, report):
    """``store.recover_map`` into ``kernel``, restarted after every
    injected death mid-replay: a restarted recovery must succeed from
    the same durable bytes."""
    attempts = 0
    while True:
        try:
            return store.recover_map(PIN, kernel.aspace, kernel.vmalloc)
        except SimulatedCrash:
            report.counts["recoveries"] += 1
            attempts += 1
            if attempts > 50:  # rates near 1.0 would livelock
                crash.disarm("recovery.replay")


def _crash_tail(report, hasher, crash, deaths_key: str) -> CampaignReport:
    """Common tail of the crash campaigns: deaths, sites, digest."""
    report.counts[deaths_key] = crash.total_crashes()
    report.sites = tuple(sorted(crash.sites_crashed()))
    for site, ordinal in crash.log:
        _mix(hasher, "crashlog", site, ordinal)
    report.digest = hasher.hexdigest()
    return report


def run_recovery_campaign(
    seed: int = 0, n_ops: int = 1500, *, storage=None
) -> CampaignReport:
    """Seeded crash-recovery fuzz over a journaled hash map.

    Random update/delete churn runs against a pinned, WAL-journaled
    :class:`~repro.ebpf.maps.HashMap` with a :class:`CrashPlan` armed
    inside the durable-state code.  Every injected death is followed by
    full recovery into a *fresh* kernel, and the recovered contents are
    checked against a shadow oracle with the **prefix-consistency**
    rule: the recovered map must equal the shadow after *exactly*
    ``recovered_seq`` journaled operations — never a corrupted or
    reordered state — and ``recovered_seq`` must be at least the last
    durability barrier (an acknowledged flush never rolls back).
    """
    from repro.kernel.machine import Kernel
    from repro.sim.faults import CrashPlan
    from repro.state import DurableStore, MemStorage

    report = CampaignReport("recovery", seed, n_ops, counts=dict.fromkeys(
        ("crashes", "recoveries", "torn_recoveries", "snapshot_fallbacks",
         "replayed_total", "ops_applied", "ops_lost"), 0,
    ))
    c = report.counts
    hasher = hashlib.sha256()
    rng = random.Random(f"chaos:{seed}:recovery")
    crash = CrashPlan(seed, CRASH_RATES).build()
    if storage is None:
        storage = MemStorage()

    kernel = Kernel()
    store = _churn_store(storage, crash)
    m = _churn_map(kernel, "chaos")
    store.attach(PIN, m)
    shadow = _Shadow()
    durable_floor = 0

    def recover_after_crash(i: int):
        nonlocal kernel, store, m, durable_floor
        store.crash_volatile()
        kernel = Kernel()
        store = _churn_store(storage, crash)
        m, rep = _recover_map(store, kernel, crash, report)
        c["recoveries"] += 1
        c["replayed_total"] += rep.replayed
        if rep.torn is not None:
            c["torn_recoveries"] += 1
        c["snapshot_fallbacks"] += rep.snapshots_discarded
        seq_rec = rep.recovered_seq
        if seq_rec < durable_floor:
            report.error(
                i,
                f"recovery rolled back past durability barrier: "
                f"seq {seq_rec} < floor {durable_floor}",
            )
        c["ops_lost"] += shadow.rebase(report, i, m, seq_rec)
        seq_rec = durable_floor = len(shadow.ops)
        _mix(hasher, "recover", i, seq_rec, rep.torn or "-", rep.replayed)

    for i in range(n_ops):
        try:
            op, key, value, rc = shadow.churn(rng, m)
        except SimulatedCrash as e:
            _mix(hasher, i, "crash", e.site)
            recover_after_crash(i)
            continue
        if rc == 0:
            c["ops_applied"] += 1
            durable_floor = max(durable_floor, store.wal(PIN).durable_seq)
        _mix(hasher, i, op, key.hex(), value.hex(), rc)

    # Final pass: flush, restart with injection off, expect *exact*
    # convergence — nothing pending, nothing torn, full history.
    try:
        store.flush()
    except SimulatedCrash as e:
        _mix(hasher, n_ops, "crash", e.site)
        recover_after_crash(n_ops)
        store.flush()
    store.crash_volatile()
    kernel = Kernel()
    clean_store = DurableStore(storage=storage, sync_every=1)
    m, rep = clean_store.recover_map(PIN, kernel.aspace, kernel.vmalloc)
    if rep.recovered_seq != len(shadow.ops):
        report.error(
            n_ops,
            f"clean recovery lost acknowledged ops: seq {rep.recovered_seq} "
            f"!= {len(shadow.ops)}",
        )
    if m.entries() != shadow.prefix(len(shadow.ops)):
        report.error(n_ops, "clean recovery state mismatch")
    if rep.torn is not None:
        report.error(n_ops, f"clean recovery saw torn WAL: {rep.torn}")
    c["recoveries"] += 1
    return _crash_tail(report, hasher, crash, "crashes")


REPLICATION_RATES = {
    # primary-side durability sites (kept mild: each fires a promotion)
    "wal.append": 0.003,
    "wal.flush": 0.003,
    "snapshot.write": 0.030,
    "snapshot.commit": 0.030,
    "wal.compact": 0.030,
    "recovery.replay": 0.002,
    # shipping / follower / anti-entropy / promotion sites
    "ship.send": 0.006,
    "replica.append": 0.008,
    "replica.flush": 0.008,
    "antientropy.send": 0.030,
    "antientropy.install": 0.060,
    "promote.recover": 0.120,
}

#: In-process followers behind the fuzzed primary.
FOLLOWERS = 2


def run_replication_campaign(
    seed: int = 0, n_ops: int = 1200, *, sync_replicas: int = 1
) -> CampaignReport:
    """Seeded fuzz over a full replica set: primary + N followers.

    Random churn runs against a journaled map whose WAL is shipped to
    ``FOLLOWERS`` in-process replicas at write quorum
    ``sync_replicas``.  Crash injection kills the primary (wal/snapshot
    /ship sites), followers (replica.* and antientropy.install fire
    *inside* the follower's frame handler — a death the primary sees as
    a dead channel), the promotion itself (``promote.recover``) and the
    anti-entropy sender.  Every primary death runs a real promotion:
    watermark query, most-caught-up pick, epoch bump, recovery on the
    promoted storage, deposed node rejoining dirty.

    The oracle is **linearizability of acked writes**: a write whose
    quorum ack-set intersects the followers alive at promotion time
    must be covered by the promoted node's recovered seq — acked data
    survives any crash sequence that leaves an acker alive — and the
    recovered state must be byte-identical to the shadow history's
    prefix at that seq.  The final convergence pass then requires every
    node's durable bytes to recover to the *exact* full history.
    """
    from repro.errors import PrimaryFenced, QuorumLost
    from repro.kernel.machine import Kernel
    from repro.sim.faults import CRASH_SITES, CrashPlan
    from repro.state import DurableStore, MemStorage
    from repro.state.replication import (
        MSG_APPEND,
        ST_FENCED,
        LocalChannel,
        QuorumShipper,
        ReplicaSession,
        ShipStats,
        decode_frame,
        encode_frame,
    )

    report = CampaignReport(
        "replication", seed, n_ops, variant=f"k={sync_replicas}",
        counts=dict.fromkeys(
            ("deaths", "primary_deaths", "follower_deaths",
             "promotion_deaths", "promotions", "epoch", "recoveries",
             "follower_restarts", "acked_ops", "quorum_losses", "resyncs",
             "snapshots_shipped", "fence_checks"), 0,
        ),
    )
    c = report.counts
    hasher = hashlib.sha256()
    rng = random.Random(f"chaos:{seed}:replication")
    crash = CrashPlan(seed, REPLICATION_RATES).build()

    n_nodes = FOLLOWERS + 1
    node_storage = [MemStorage() for _ in range(n_nodes)]
    primary = 0
    epoch = 1
    sessions: dict[int, ReplicaSession] = {}
    channels: dict[int, LocalChannel] = {}

    shadow = _Shadow()
    #: seq -> follower node_ids that durably acked it (quorum evidence).
    acked: dict[int, tuple[str, ...]] = {}
    #: Shipping totals across every primary incarnation.
    total_ship = ShipStats()

    def follower_nodes() -> list[int]:
        return [n for n in range(n_nodes) if n != primary]

    def boot_followers() -> None:
        for n in follower_nodes():
            sess = sessions.get(n)
            if sess is None or sess.crashed:
                sessions[n] = ReplicaSession(
                    node_storage[n], node_id=f"n{n}", crash=crash
                )
                if sess is not None:
                    c["follower_restarts"] += 1
                ch = channels.get(n)
                if ch is not None:
                    ch.restart(sessions[n])

    def make_shipper() -> QuorumShipper:
        chans = []
        for n in follower_nodes():
            ch = LocalChannel(f"n{n}", sessions.get(n))
            channels[n] = ch
            chans.append(ch)
        return QuorumShipper(
            chans,
            sync_replicas=sync_replicas,
            epoch=epoch,
            crash=crash,
            maintenance_every=None,  # the harness repairs deterministically
        )

    boot_followers()
    kernel = Kernel()
    shipper = make_shipper()
    store = _churn_store(node_storage[primary], crash, shipper)
    m = _churn_map(kernel, "chaos-repl")
    store.attach(PIN, m)

    def count_follower_deaths() -> None:
        # A follower death shows up as a crashed session; tally once.
        for n in follower_nodes():
            sess = sessions.get(n)
            if sess is not None and sess.crashed and not getattr(
                sess, "_counted", False
            ):
                sess._counted = True
                c["follower_deaths"] += 1

    def handle_primary_death(i: int, site: str) -> None:
        nonlocal primary, epoch, kernel, store, m, shipper, acked
        c["primary_deaths"] += 1
        _mix(hasher, i, "primary-death", site)
        store.crash_volatile()
        count_follower_deaths()
        attempts = 0
        floor = 0
        while True:
            live = {
                n: sessions[n]
                for n in follower_nodes()
                if sessions.get(n) is not None and not sessions[n].crashed
            }
            floor = 0
            for q, nodes in acked.items():
                if any(f"n{n}" in nodes for n in live):
                    floor = max(floor, q)
            wms = {n: live[n].watermark(PIN) for n in live}
            usable = {n: wm for n, wm in wms.items() if wm > 0}
            if usable:
                promoted = max(usable, key=lambda n: (usable[n], -n))
            else:
                # No follower holds a verified prefix (all down, or all
                # dirty/fresh): cold-restart the primary node from its
                # own durable bytes — the disk survived the process,
                # and the pre-ship WAL flush means it covers every
                # acked write.
                promoted = primary
            if promoted != primary:
                try:
                    crash.at("promote.recover")
                except SimulatedCrash:
                    # The chosen promotee died mid-promotion: its
                    # volatile state is gone, pick the next-best.
                    c["promotion_deaths"] += 1
                    sessions[promoted].crashed = True
                    node_storage[promoted].crash()
                    count_follower_deaths()
                    attempts += 1
                    if attempts > 10:
                        crash.disarm("promote.recover")
                    continue
            break
        old_primary = primary
        primary = promoted
        epoch += 1
        if promoted != old_primary:
            c["promotions"] += 1
            sessions.pop(promoted, None)
            # The deposed node rejoins as a follower over its surviving
            # storage; its unshipped WAL suffix is untrusted (dirty)
            # until a snapshot re-bases it under the new epoch.
            sessions[old_primary] = ReplicaSession(
                node_storage[old_primary], node_id=f"n{old_primary}",
                crash=crash,
            )
        boot_followers()
        kernel = Kernel()
        total_ship.merge(shipper.stats)
        shipper = make_shipper()
        store = _churn_store(node_storage[primary], crash, shipper)
        m, rep = _recover_map(store, kernel, crash, report)
        c["recoveries"] += 1
        seq_rec = rep.recovered_seq
        if seq_rec < floor:
            report.error(
                i,
                f"acked write lost in promotion: recovered seq {seq_rec} "
                f"< acked floor {floor}",
            )
        shadow.rebase(report, i, m, seq_rec)
        seq_rec = len(shadow.ops)
        acked = {q: v for q, v in acked.items() if q <= seq_rec}
        shipper.announce()  # fence survivors onto the new epoch
        _mix(hasher, "promote", i, primary, epoch, seq_rec)

    def repair_followers() -> None:
        """Restart dead followers and run one anti-entropy pass.  May
        raise SimulatedCrash (primary dies mid-anti-entropy)."""
        count_follower_deaths()
        boot_followers()
        shipper.maintenance()

    for i in range(n_ops):
        if c["promotions"] and i % 61 == 0:
            # A deposed primary's late frame must bounce: any follower
            # already at the current epoch answers ST_FENCED.
            for n in follower_nodes():
                sess = sessions.get(n)
                if sess is not None and not sess.crashed \
                        and sess.epoch >= epoch:
                    stale = encode_frame(MSG_APPEND, epoch - 1, 1 << 40,
                                         PIN, b"")
                    ack = decode_frame(sess.handle_frame(stale))
                    if ack.status != ST_FENCED:
                        report.error(
                            i,
                            f"stale epoch {epoch - 1} frame not fenced "
                            f"(status {ack.status})",
                        )
                    c["fence_checks"] += 1
                    break

        # An op interrupted by a crash joined the shadow; promotion
        # rules on whether it survived.
        try:
            op, key, value, rc = shadow.churn(rng, m)
        except SimulatedCrash as e:
            handle_primary_death(i, e.site)
            continue
        _mix(hasher, i, op, key.hex(), value.hex(), rc)

        try:
            for q, nodes in shipper.commit().items():
                acked[q] = nodes
                c["acked_ops"] += 1
        except SimulatedCrash as e:
            handle_primary_death(i, e.site)
            continue
        except QuorumLost:
            # Durable locally, NOT acked to the client; the shadow op
            # stays (it is history) but `acked` does not record it.
            c["quorum_losses"] += 1
        except PrimaryFenced:
            report.error(i, "primary fenced without a promotion")

        if any(
            sessions.get(n) is None or sessions[n].crashed
            for n in follower_nodes()
        ):
            try:
                repair_followers()
            except SimulatedCrash as e:
                handle_primary_death(i, e.site)
                continue

    # Convergence: keep repairing (injection still armed) until every
    # follower's verified watermark reaches the full history, then
    # disarm and check each node's durable bytes recover exactly.
    converged = False
    for attempt in range(80):
        if attempt == 50:
            for site in CRASH_SITES:
                crash.disarm(site)
        try:
            repair_followers()
            store.flush()
            shipper.commit()
            target = store.wal(PIN).seq
            if all(
                sessions.get(n) is not None
                and not sessions[n].crashed
                and sessions[n].watermark(PIN) == target
                for n in follower_nodes()
            ):
                converged = True
                break
        except SimulatedCrash as e:
            handle_primary_death(n_ops, e.site)
        except (QuorumLost, PrimaryFenced):
            pass
    if not converged:
        report.error(n_ops, "replica set failed to converge")
    else:
        target = len(shadow.ops)
        want = shadow.prefix(target)
        for n in range(n_nodes):
            fstore = DurableStore(storage=node_storage[n])
            fk = Kernel()
            try:
                fm, frep = fstore.recover_map(PIN, fk.aspace, fk.vmalloc)
            except Exception as exc:
                report.error(n_ops, f"node {n} unrecoverable: {exc}")
                continue
            if frep.recovered_seq != target:
                report.error(
                    n_ops,
                    f"node {n} converged to seq {frep.recovered_seq}, "
                    f"expected {target}",
                )
            elif fm.entries() != want:
                report.error(n_ops, f"node {n} state diverges at seq {target}")

    count_follower_deaths()
    c["epoch"] = epoch
    total_ship.merge(shipper.stats)
    c["resyncs"] = total_ship.resyncs
    c["snapshots_shipped"] = total_ship.snapshots_shipped
    return _crash_tail(report, hasher, crash, "deaths")


# ---------------------------------------------------------------------------
# Fleet control plane (repro.fleet): migration + rollout crash fuzz
# ---------------------------------------------------------------------------

FLEET_RATES = {
    # live-migration crash sites (source image cut, target install,
    # tail rounds, and the paused cutover window)
    "migrate.snapshot": 0.10,
    "migrate.install": 0.10,
    "migrate.tail": 0.08,
    "migrate.cutover": 0.08,
    # canary-rollout crash sites (swap, window, promote sweep, rollback)
    "rollout.load": 0.15,
    "rollout.window": 0.05,
    "rollout.promote": 0.12,
    "rollout.rollback": 0.20,
    # recovery itself stays crash-tested while shards rebuild
    "recovery.replay": 0.001,
}


#: Shards the fleet starts with, and the key space its traffic draws.
FLEET_SHARDS = 2
FLEET_KEYS = 512


def run_fleet_campaign(seed: int = 0, ops: int = 400) -> CampaignReport:
    """Seeded crash-point fuzz over the fleet control plane.

    An inline fleet (no threads, no sockets — every shard a full
    durable memcached service over its own MemStorage "disk") serves a
    seeded SET/GET stream while the campaign drives the real fleet
    machinery against it: scale-outs and scale-ins through
    :class:`~repro.fleet.migrate.SegmentMigration`, canary rollouts of
    good and known-flaky artifacts judged by the real
    :class:`~repro.fleet.rollout.CanaryJudge`.  A
    :class:`~repro.sim.faults.CrashPlan` kills the migration source or
    target and the canary shard at every fleet crash site; each death
    is followed by real crash recovery from the victim's durable state.

    Oracles, checked after every event and every death:

    * **acked writes preserved** — every SET that was acknowledged
      reads back bit-identical through the current ring, across
      migrations, cutovers, aborted events and shard deaths;
    * **misses are honest** — a key never acked never reads back;
    * **rollout safety** — a flaky artifact is never promoted
      fleet-wide, and a clean artifact is never rolled back.
    """
    from repro.apps.memcached import protocol as P
    from repro.apps.memcached.durable_ext import (
        build_durable_memcached_program,
    )
    from repro.fleet.migrate import SegmentMigration, inline_call
    from repro.fleet.rollout import (
        NO_DATA,
        PROMOTE,
        ROLLBACK,
        CanaryJudge,
        CanaryReading,
    )
    from repro.fleet.spec import CanaryPolicy
    from repro.net.service import DurableMemcachedService
    from repro.net.shard import ConsistentHashRing
    from repro.sim.faults import CrashPlan
    from repro.state.storage import MemStorage
    from repro.state.store import DurableStore

    report = CampaignReport("fleet", seed, ops, counts=dict.fromkeys(
        ("deaths", "migration_deaths", "rollout_deaths", "scale_outs",
         "scale_ins", "aborted_migrations", "rollouts", "promotes",
         "rollbacks", "no_datas", "aborted_rollouts", "recoveries",
         "rescans", "shards_final", "acked_ops"), 0,
    ))
    c = report.counts
    rng = random.Random(f"fleetchaos:{seed}")
    hasher = hashlib.sha256()
    crash = CrashPlan(seed, rates=dict(FLEET_RATES)).build()
    PIN = "memcached/cache"

    def builder_for(version: str):
        if version == "stable":
            return build_durable_memcached_program
        kind, _, num = version.partition("-")
        tag = 16 + int(num)
        mask = 0x03 if kind == "flaky" else None
        return lambda cache: build_durable_memcached_program(
            cache, f"durable-memcached-{version}", tag=tag, drop_mask=mask
        )

    shards: dict[int, dict] = {}
    versions: dict[int, str] = {}
    stable = "stable"
    quarantined: set[str] = set()

    def build_svc(sid: int):
        """(Re)incarnate a shard's process over its surviving disk,
        retrying through injected recovery deaths."""
        attempts = 0
        while True:
            try:
                store = DurableStore(
                    storage=shards[sid]["storage"], crash=crash
                )
                return DurableMemcachedService(
                    store=store,
                    pin=PIN,
                    capacity=2048,
                    program_builder=builder_for(versions[sid]),
                )
            except SimulatedCrash:
                shards[sid]["storage"].crash()
                c["recoveries"] += 1
                attempts += 1
                if attempts >= 25:
                    crash.disarm("recovery.replay")

    def kill(sid: int) -> None:
        shards[sid]["svc"].store.crash_volatile()
        shards[sid]["svc"] = build_svc(sid)
        c["recoveries"] += 1

    for sid in range(FLEET_SHARDS):
        shards[sid] = {"storage": MemStorage()}
        versions[sid] = "stable"
        shards[sid]["svc"] = build_svc(sid)
    ring = ConsistentHashRing(sorted(shards))
    next_sid = FLEET_SHARDS
    vcounter = 0
    shadow: dict[int, int] = {}
    next_val = 1
    #: While a flaky canary window is open: (canary sid, drop mask).
    flaky_window = None

    def tolerated_drop(sid: int, key_id: int) -> bool:
        fw = flaky_window
        return fw is not None and fw[0] == sid and (key_id & fw[1]) == 0

    def do_request(i: int, key_id: int, set_val=None) -> None:
        sid = ring.shard_of(key_id)
        svc = shards[sid]["svc"]
        payload = (
            P.encode_set(key_id, set_val)
            if set_val is not None
            else P.encode_get(key_id)
        )
        reply, path = svc.ingress(payload, 0)
        _mix(hasher, "req", i, sid, key_id, set_val, path)
        if reply is None:
            if not tolerated_drop(sid, key_id):
                report.error(
                    i,
                    f"request dropped outside a flaky window "
                    f"(shard {sid}, key {key_id}, path {path})",
                )
            return
        hit, value = P.decode_reply(reply)
        if set_val is not None:
            if hit:
                shadow[key_id] = set_val
                c["acked_ops"] += 1
            return
        expected = shadow.get(key_id)
        if expected is None:
            if hit:
                report.error(i, f"phantom hit for never-acked key {key_id}")
        elif not hit or value != expected:
            report.error(
                i,
                f"acked write lost: key {key_id} expected {expected}, "
                f"got hit={hit} value={value}",
            )

    def traffic(i: int, n: int) -> None:
        nonlocal next_val
        for _ in range(n):
            k = rng.randrange(FLEET_KEYS)
            if rng.random() < 0.5:
                v = next_val
                next_val += 1
                do_request(i, k, set_val=v)
            else:
                do_request(i, k)

    def verify_all(i: int, ctx: str) -> None:
        for k in sorted(shadow):
            sid = ring.shard_of(k)
            reply, _ = shards[sid]["svc"].ingress(P.encode_get(k), 0)
            if reply is None:
                if tolerated_drop(sid, k):
                    continue
                report.error(i, f"[{ctx}] no reply for acked key {k}")
                continue
            hit, value = P.decode_reply(reply)
            if not hit or value != shadow[k]:
                report.error(
                    i,
                    f"[{ctx}] acked write lost: key {k} expected "
                    f"{shadow[k]}, got hit={hit} value={value}",
                )

    def victim_of(site: str, cur: dict) -> int:
        return cur["src"] if site == "migrate.snapshot" else cur["dst"]

    def run_migrations(i, mig_plan, new_ring, *, cleanup_sources) -> bool:
        """One attempt at a full rebalance; False -> a death aborted it
        (the victim was killed + recovered, the ring is unchanged)."""
        cur = {"src": None, "dst": None}
        migs = []
        try:
            for src, dst, moved in mig_plan:
                cur["src"], cur["dst"] = src, dst
                mig = SegmentMigration(
                    inline_call(shards[src]["svc"]),
                    inline_call(shards[dst]["svc"]),
                    pin=PIN,
                    moved=moved,
                    crash=crash,
                )
                migs.append((src, dst, mig))
                mig.bulk_install()
            # Writes keep landing while the image ships: these become
            # the WAL tail the catch-up rounds must drain.
            traffic(i, 12)
            if rng.random() < 0.3:
                # Source compaction mid-handoff: snapshot + WAL reset
                # on a source, forcing the sequence-gap rescan path.
                src = mig_plan[0][0]
                shards[src]["svc"].store.snapshot(PIN)
            for src, dst, mig in migs:
                cur["src"], cur["dst"] = src, dst
                mig.catch_up()
            traffic(i, 8)
            # Inline "pause": the driver is the only client, so simply
            # not sending is the quiesced router.
            for src, dst, mig in migs:
                cur["src"], cur["dst"] = src, dst
                mig.final_tail()
        except SimulatedCrash as exc:
            site = str(exc.args[0]) if exc.args else "?"
            _mix(hasher, "death", i, site, cur["src"], cur["dst"])
            kill(victim_of(site, cur))
            return False
        # Atomic cutover.
        ring.__dict__.update(new_ring.__dict__)
        c["rescans"] += sum(m.report.rescans for _, _, m in migs)
        if cleanup_sources:
            for src, dst, mig in migs:
                mig.cleanup_source()
        return True

    def event_scale_out(i) -> None:
        nonlocal next_sid
        sid = next_sid
        next_sid += 1
        shards[sid] = {"storage": MemStorage()}
        versions[sid] = stable
        shards[sid]["svc"] = build_svc(sid)
        new_ring = ring.copy()
        new_ring.add_node(sid)
        moved = lambda kid, r=new_ring, t=sid: r.shard_of(kid) == t
        plan_ = [(src, sid, moved) for src in ring.nodes]
        for _ in range(10):
            if run_migrations(i, plan_, new_ring, cleanup_sources=True):
                c["scale_outs"] += 1
                return
        # Could not complete: the new shard never joined the ring, so
        # dropping it wholesale is invisible to clients.
        shards.pop(sid)
        versions.pop(sid)
        c["aborted_migrations"] += 1

    def event_scale_in(i) -> None:
        sid = rng.choice(ring.nodes)
        new_ring = ring.copy()
        new_ring.remove_node(sid)
        plan_ = [
            (sid, t, lambda kid, r=new_ring, t=t: r.shard_of(kid) == t)
            for t in new_ring.nodes
        ]
        for _ in range(10):
            if run_migrations(i, plan_, new_ring, cleanup_sources=False):
                shards.pop(sid)
                versions.pop(sid)
                c["scale_ins"] += 1
                return
        c["aborted_migrations"] += 1

    judge = CanaryJudge(CanaryPolicy(min_requests=1, fault_margin=0.01))

    def reading(sid) -> CanaryReading:
        return CanaryReading.of_stats(shards[sid]["svc"].stats)

    def sum_readings(sids) -> CanaryReading:
        rs = [reading(s) for s in sids]
        return CanaryReading(
            requests=sum(r.requests for r in rs),
            dropped=sum(r.dropped for r in rs),
            quarantines=sum(r.quarantines for r in rs),
            bad_frames=sum(r.bad_frames for r in rs),
        )

    def event_rollout(i) -> None:
        nonlocal vcounter, flaky_window, stable
        vcounter += 1
        flaky = rng.random() < 0.5
        version = f"flaky-{vcounter}" if flaky else f"good-{vcounter}"
        if version in quarantined:
            return
        c["rollouts"] += 1
        canary = min(ring.nodes)
        others = [s for s in ring.nodes if s != canary]
        canary0 = reading(canary)
        base0 = sum_readings(others)
        try:
            crash.at("rollout.load")
            shards[canary]["svc"].swap_program(builder_for(version))
        except SimulatedCrash:
            kill(canary)  # comes back serving its previous version
            c["aborted_rollouts"] += 1
            return
        versions[canary] = version
        if flaky:
            flaky_window = (canary, 0x03)
        try:
            for _ in range(6):
                crash.at("rollout.window")
                traffic(i, 12)
        except SimulatedCrash:
            # The canary died mid-window: recovery restarts it on the
            # last converged (stable) artifact — the rollout aborts
            # with no promotion and no quarantine.
            versions[canary] = stable
            flaky_window = None
            kill(canary)
            c["aborted_rollouts"] += 1
            return
        canary_d = reading(canary).delta(canary0)
        base_d = sum_readings(others).delta(base0)
        verdict = judge.judge(canary_d, base_d)
        _mix(hasher, "rollout", i, version, verdict,
             canary_d.requests, canary_d.dropped)
        if verdict == ROLLBACK:
            if not flaky:
                report.error(
                    i,
                    f"clean artifact {version} rolled back "
                    f"(canary {canary_d}, baseline {base_d})",
                )
            flaky_window = None
            try:
                crash.at("rollout.rollback")
                shards[canary]["svc"].swap_program(builder_for(stable))
                versions[canary] = stable
            except SimulatedCrash:
                versions[canary] = stable
                kill(canary)  # recovery rebuilds on stable: same outcome
            quarantined.add(version)
            c["rollbacks"] += 1
        elif verdict == PROMOTE:
            if flaky:
                report.error(
                    i,
                    f"flaky artifact {version} promoted fleet-wide "
                    f"(canary {canary_d}, baseline {base_d})",
                )
            for sid in others:
                try:
                    crash.at("rollout.promote")
                    shards[sid]["svc"].swap_program(builder_for(version))
                    versions[sid] = version
                except SimulatedCrash:
                    # Recovery completes the promote: the rebuilt shard
                    # comes up on the new version.
                    versions[sid] = version
                    kill(sid)
            stable = version
            flaky_window = None
            c["promotes"] += 1
        else:  # NO_DATA: neither promote nor roll back (nor quarantine)
            flaky_window = None
            shards[canary]["svc"].swap_program(builder_for(stable))
            versions[canary] = stable
            c["no_datas"] += 1

    traffic(0, 40)  # seed the key-space before the first event
    for i in range(1, ops + 1):
        traffic(i, 8)
        if i % 6 == 0:
            n_live = len(ring.nodes)
            choices = ["rollout"]
            if n_live < 5:
                choices.append("out")
            if n_live > 2:
                choices.append("in")
            ev = rng.choice(choices)
            _mix(hasher, "event", i, ev)
            if ev == "out":
                event_scale_out(i)
            elif ev == "in":
                event_scale_in(i)
            else:
                event_rollout(i)
            verify_all(i, ev)

    flaky_window = None
    verify_all(ops + 1, "final")
    c["migration_deaths"] = sum(
        n for s, n in crash.crashes.items() if s.startswith("migrate.")
    )
    c["rollout_deaths"] = sum(
        n for s, n in crash.crashes.items() if s.startswith("rollout.")
    )
    c["shards_final"] = len(ring.nodes)
    return _crash_tail(report, hasher, crash, "deaths")


# ---------------------------------------------------------------------------
# Verification-service chaos: worker kills mid-exploration
# ---------------------------------------------------------------------------


def _verify_chaos_program(variant: int):
    """A multi-region program (loop, branch diamond, tail) whose
    analysis depends on ``variant`` — distinct artifacts per job."""
    from repro.ebpf.isa import Reg
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    m = MacroAsm()
    m.mov(Reg.R6, 0)
    m.label("loop")
    m.add(Reg.R6, 1)
    m.jcc("<", Reg.R6, 8 + (variant % 4), "loop")
    m.mov(Reg.R7, variant)
    m.jcc(">", Reg.R6, 4, "hi")
    m.add(Reg.R7, 1)
    m.label("hi")
    m.mov(Reg.R8, 0)
    m.label("loop2")
    m.add(Reg.R8, 2)
    m.jcc("<", Reg.R8, 6, "loop2")
    m.mov(Reg.R0, 0)
    m.exit()
    return Program(f"verify-chaos-{variant}", m.assemble(), hook="bench",
                   heap_size=4096)


#: Forked verification workers, and the verifier profile they run.
VERIFY_WORKERS = 2
VERIFY_PROFILE = "default"


def run_verify_campaign(seed: int = 0, n_programs: int = 12) -> CampaignReport:
    """Kill verification workers mid-exploration and check the
    scheduler's story: every killed job is retried (with the kill
    stripped), every retry re-explores from scratch, and every merged
    analysis is *bit-identical* to the inline single-threaded verifier
    — a crashed worker's partial progress is never admitted.
    """
    from repro.ebpf.verifier import Verifier
    from repro.verify import VerificationService, VerifyJob
    from repro.verify.profiles import profile_config

    rng = random.Random(seed)
    config = profile_config(VERIFY_PROFILE)
    # mismatches: jobs whose merged analysis differed from the inline
    # verifier; failures: jobs that came back failed (must be zero:
    # every program admits).
    report = CampaignReport("verify", seed, n_programs, counts=dict.fromkeys(
        ("kills", "retries", "regions_retried", "mismatches", "failures"), 0,
    ))
    c = report.counts
    hasher = hashlib.sha256()

    programs = [_verify_chaos_program(v) for v in range(n_programs)]
    jobs = []
    for i, prog in enumerate(programs):
        die = rng.randrange(1, 4) if rng.random() < 0.5 else None
        if die is not None:
            c["kills"] += 1
        jobs.append(VerifyJob(prog, config, die_after_regions=die))

    svc = VerificationService(workers=VERIFY_WORKERS, poll_s=0.02)
    try:
        outs = svc.submit_batch(jobs)
    finally:
        stats = dict(svc.stats)
        svc.close()
    c["retries"] = stats["retries"]
    c["regions_retried"] = stats["regions_retried"]

    for i, (prog, out) in enumerate(zip(programs, outs)):
        if out.error is not None:
            c["failures"] += 1
            report.error(i, f"job failed: {out.error}")
            continue
        ref = Verifier(prog, config).verify()
        if out.analysis != ref:
            c["mismatches"] += 1
            report.error(i, "merged analysis differs from inline verifier")
            continue
        _mix(hasher, "verify", i, sorted(ref.object_tables),
             ref.insns_processed)
    if c["retries"] < c["kills"]:
        report.error(
            None, f"only {c['retries']} retries for {c['kills']} kills"
        )
    report.digest = hasher.hexdigest()
    return report


_CAMPAIGNS = {
    "memcached": run_memcached_campaign,
    "redis": run_redis_campaign,
    "datastructures": run_datastructures_campaign,
}
#: Campaign apps, in gate order.
APPS = tuple(_CAMPAIGNS)


def run_campaign(app: str, *args, **kwargs) -> CampaignReport:
    return _CAMPAIGNS[app](*args, **kwargs)
