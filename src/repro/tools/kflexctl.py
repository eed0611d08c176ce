"""kflexctl — load, inspect and run extensions from the command line.

The workflow a practitioner has with ``bpftool``, over this repo's text
assembly (see :mod:`repro.ebpf.textasm` for the syntax):

.. code-block:: console

    $ python -m repro.tools.kflexctl verify prog.kasm --heap 65536
    $ python -m repro.tools.kflexctl disasm prog.kasm --instrumented
    $ python -m repro.tools.kflexctl run prog.kasm --ctx 5,10 --invoke 3
    $ python -m repro.tools.kflexctl stats prog.kasm --loads 3 --invoke 2

plus the network datapath (:mod:`repro.net`):

.. code-block:: console

    $ python -m repro.tools.kflexctl serve --app memcached --shards 2 --batch 16
    $ python -m repro.tools.kflexctl loadtest --app memcached --clients 8
    $ python -m repro.tools.kflexctl loadtest --batch 16 --open-loop 1.0

and durable state (:mod:`repro.state` — the bpffs analog):

.. code-block:: console

    $ python -m repro.tools.kflexctl pin maps/cache --store /tmp/kflex \\
          --max-entries 1024 --put 1=42 --put 2=43
    $ python -m repro.tools.kflexctl pins --store /tmp/kflex
    $ python -m repro.tools.kflexctl snapshot maps/cache --store /tmp/kflex
    $ python -m repro.tools.kflexctl recover --store /tmp/kflex
    $ python -m repro.tools.kflexctl serve --app memcached --store /tmp/kflex

and replicated durable state (:mod:`repro.state.replication` — WAL
shipping with quorum acks and replica promotion):

.. code-block:: console

    $ python -m repro.tools.kflexctl serve --store /tmp/kflex \\
          --replicas 2 --sync-replicas 1
    $ python -m repro.tools.kflexctl replication --store /tmp/kflex
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.errors import ReproError
from repro.core.runtime import KFlexRuntime
from repro.ebpf.engine import ENGINES
from repro.ebpf.isa import disasm
from repro.ebpf.program import Program, HOOKS
from repro.ebpf.textasm import assemble_text


def _effective_mode(args) -> str:
    """The verifier mode a load will actually run under: the profile's
    resolved ``mode`` wins over ``--mode`` (and validates the profile
    name early, so typos fail before any file parsing)."""
    profile = getattr(args, "profile", "")
    if profile:
        from repro.verify.profiles import resolve_profile

        return resolve_profile(profile).get("mode", "kflex")
    return args.mode


def _read_program(args) -> Program:
    with open(args.file) as f:
        source = f.read()
    insns = assemble_text(source)
    heap = args.heap if _effective_mode(args) == "kflex" else None
    return Program(args.name, insns, hook=args.hook, heap_size=heap)


def _make_verify_service(args):
    """A worker-pool verification service when ``--workers`` asks for
    one; None keeps the serial in-process verifier."""
    workers = getattr(args, "workers", 0)
    if not workers:
        return None
    from repro.verify import VerificationService

    return VerificationService(workers)


def _print_verify_service(svc) -> None:
    d = svc.stats_dict()
    print("verification service:")
    print(f"  workers:             {d['workers']} "
          f"({d['utilization'] * 100:.0f}% busy)")
    print(f"  jobs:                {d['jobs']} "
          f"({d['failures']} rejected, {d['retries']} retries)")
    print(f"  queue depth peak:    {d['queue_depth_peak']}")
    print(f"  regions:             {d['regions_total']} explored, "
          f"{d['regions_reused']} reused "
          f"({d['differential_saved'] * 100:.0f}% differential savings)")


def cmd_verify(args) -> int:
    prog = _read_program(args)
    svc = _make_verify_service(args)
    rt = KFlexRuntime(verify_service=svc)
    mode = _effective_mode(args)
    try:
        ext = rt.load(prog, mode=args.mode, attach=False,
                      perf_mode=args.perf_mode,
                      profile=args.profile or None)
        an = ext.iprog.analysis
        st = ext.iprog.stats
        tag = f"{mode} mode"
        if args.profile:
            tag += f", profile {args.profile}"
        print(f"{args.file}: OK ({tag})")
        print(f"  instructions:        {len(prog.insns)} -> "
              f"{len(ext.iprog.insns)} after instrumentation")
        if an is not None:
            print(f"  verifier effort:     {an.insns_processed} insns processed")
            print(f"  unbounded loops:     {len(an.cp_back_edges)}")
        print(f"  guards:              {st.guards_emitted} emitted "
              f"({st.formation_guards} formation), {st.guards_elided} elided")
        print(f"  cancellation points: {st.cancel_points}")
        print(f"  spilled resources:   {st.spills}")
        if svc is not None:
            _print_verify_service(svc)
    finally:
        if svc is not None:
            svc.close()
    return 0


def cmd_profiles(args) -> int:
    """List the named verifier profiles."""
    from repro.verify.profiles import list_profiles, resolve_profile

    for prof in list_profiles():
        base = f" (inherits {prof.inherit})" if prof.inherit else ""
        print(f"{prof.name}{base}: {prof.description}")
        resolved = resolve_profile(prof.name)
        if resolved:
            fields = ", ".join(f"{k}={v}" for k, v in sorted(resolved.items()))
            print(f"  {fields}")
    return 0


def cmd_disasm(args) -> int:
    prog = _read_program(args)
    if args.instrumented:
        rt = KFlexRuntime()
        ext = rt.load(prog, mode=args.mode, attach=False,
                      perf_mode=args.perf_mode)
        print(disasm(ext.iprog.insns))
    else:
        print(disasm(prog.insns))
    return 0


def cmd_run(args) -> int:
    prog = _read_program(args)
    rt = KFlexRuntime(engine=args.engine)
    ext = rt.load(prog, mode=args.mode, attach=False,
                  perf_mode=args.perf_mode, quantum_units=args.quantum)
    if ext.heap is not None and args.static:
        ext.heap.reserve_static(args.static)
    ctx_vals = [int(v, 0) for v in args.ctx.split(",")] if args.ctx else []
    ctx_vals += [0] * (8 - len(ctx_vals))
    for i in range(args.invoke):
        ctx = rt.make_ctx(0, ctx_vals)
        ret = ext.invoke(ctx)
        line = f"invocation {i + 1}: ret={ret} cost={ext.stats.last_cost_units}"
        if ext.stats.cancellations_by_reason:
            line += f" cancellations={dict(ext.stats.cancellations_by_reason)}"
        print(line)
        if ext.dead:
            print("extension was unloaded by a cancellation")
            break
    return 0


def cmd_stats(args) -> int:
    """Dump the compilation-pipeline statistics of a runtime.

    Loads the program ``--loads`` times (reusing one heap, so repeat
    loads are content-addressed cache hits) and invokes each loaded
    extension ``--invoke`` times, then prints the runtime's per-stage
    timings and cache hit/miss/eviction counters — the observability
    surface a practitioner would scrape from a running KFlex kernel.
    """
    prog = _read_program(args)
    svc = _make_verify_service(args)
    rt = KFlexRuntime(verify_service=svc)
    try:
        heap = None
        if prog.heap_size is not None:
            heap = rt.create_heap(prog.heap_size, name=args.name)
        ctx = rt.make_ctx(0, [0] * 8)
        for _ in range(max(1, args.loads)):
            ext = rt.load(prog, mode=args.mode, attach=False,
                          perf_mode=args.perf_mode, heap=heap,
                          profile=args.profile or None)
            for _ in range(args.invoke):
                ext.invoke(ctx)
                if ext.dead:
                    break
        print(rt.pipeline.format_stats())
        if svc is not None:
            _print_verify_service(svc)
    finally:
        if svc is not None:
            svc.close()
    return 0


# -- durable state (pin / pins / snapshot / recover) ------------------------


def _pack_int(text: str, size: int) -> bytes:
    """CLI ints become fixed-width little-endian map keys/values."""
    return int(text, 0).to_bytes(size, "little")


def cmd_pin(args) -> int:
    """Create a map, pin it into the store, optionally seed entries."""
    from repro.ebpf.maps import ArrayMap, HashMap
    from repro.kernel.machine import Kernel
    from repro.state import DurableStore

    store = DurableStore(args.store)
    k = Kernel()
    name = args.path.rsplit("/", 1)[-1]
    if args.map_type == "array":
        m = ArrayMap(k.aspace, k.vmalloc, value_size=args.value_size,
                     max_entries=args.max_entries, name=name)
    else:
        m = HashMap(k.aspace, k.vmalloc, key_size=args.key_size,
                    value_size=args.value_size,
                    max_entries=args.max_entries, name=name)
    store.attach(args.path, m)
    written = 0
    for spec in args.put:
        key_text, sep, val_text = spec.partition("=")
        if not sep:
            print(f"error: --put wants KEY=VALUE, got {spec!r}",
                  file=sys.stderr)
            return 1
        rc = m.update(_pack_int(key_text, m.key_size),
                      _pack_int(val_text, m.value_size))
        if rc != 0:
            print(f"error: put {spec!r} failed (rc={rc})", file=sys.stderr)
            return 1
        written += 1
    store.flush()
    store.close()
    print(f"pinned {args.path}: {args.map_type} map, "
          f"{args.max_entries} slots, {written} entries written")
    return 0


def cmd_pins(args) -> int:
    """List every pin in the store with its recovered state."""
    from repro.kernel.machine import Kernel
    from repro.state import DurableStore

    store = DurableStore(args.store)
    pins = store.pins()
    if not pins:
        print("no pins")
        return 0
    k = Kernel()
    for pin in pins:
        _m, rec = store.recover_map(pin, k.aspace, k.vmalloc)
        line = (f"{pin}: seq {rec.recovered_seq} "
                f"(snapshot {rec.snapshot_seq} + {rec.replayed} replayed), "
                f"{rec.entries} entries")
        if rec.torn:
            line += f", torn WAL repaired ({rec.torn}, " \
                    f"{rec.discarded_bytes}B discarded)"
        print(line)
    return 0


def cmd_snapshot(args) -> int:
    """Force a compacting snapshot of one pin (recover, then compact)."""
    from repro.kernel.machine import Kernel
    from repro.state import DurableStore

    store = DurableStore(args.store)
    k = Kernel()
    _m, rec = store.recover_map(args.path, k.aspace, k.vmalloc)
    seq = store.snapshot(args.path)
    store.close()
    print(f"snapshot {args.path}: seq {seq}, {rec.entries} entries, "
          f"WAL compacted")
    return 0


def cmd_recover(args) -> int:
    """Recover every pin (or one) and report what survived."""
    from repro.kernel.machine import Kernel
    from repro.state import DurableStore

    store = DurableStore(args.store)
    pins = [args.pin] if args.pin else store.pins()
    if not pins:
        print("nothing to recover")
        return 0
    k = Kernel()
    clean = True
    for pin in pins:
        _m, rec = store.recover_map(pin, k.aspace, k.vmalloc)
        status = "clean" if rec.torn is None else f"torn ({rec.torn})"
        if rec.torn is not None or rec.snapshots_discarded:
            clean = False
        print(f"{pin}: seq {rec.recovered_seq} "
              f"(snapshot {rec.snapshot_seq} + {rec.replayed} replayed), "
              f"{rec.entries} entries, {status}"
              + (f", {rec.snapshots_discarded} corrupt snapshot(s) skipped"
                 if rec.snapshots_discarded else ""))
    print("recovery " + ("clean" if clean else
                         "completed with crash damage repaired"))
    return 0


def _net_service_factory(args):
    """Per-shard service builder for serve/loadtest (late import: the
    file-based subcommands should not pay for the net package)."""
    store_dir = getattr(args, "store", "")
    profile = getattr(args, "profile", "")
    if profile:
        from repro.verify.profiles import resolve_profile

        resolve_profile(profile)  # fail fast on unknown names
        if not store_dir:
            raise ReproError(
                "--profile currently applies to durable (--store) "
                "serving only"
            )
    if store_dir:
        if args.app != "memcached":
            raise ReproError(
                "--store currently serves the durable memcached app only"
            )
        from repro.net.service import DurableMemcachedService
        from repro.state import DurableStore

        def durable_factory(shard_id: int):
            # Per-shard subdirectory: each shard owns its pin, so a
            # crashed shard's replacement recovers exactly its state.
            return DurableMemcachedService(
                KFlexRuntime(engine=args.engine),
                store=DurableStore(f"{store_dir}/shard{shard_id}"),
                verify_profile=profile,
            )

        return durable_factory

    from repro.net import build_service

    extra = {}
    if args.app == "l4lb":
        extra["n_backends"] = getattr(args, "backends", 3)

    def factory(shard_id: int):
        return build_service(
            args.app, fallback=args.fallback, engine=args.engine, **extra,
        )

    return factory


def _net_workload(app: str, keys: int, set_every: int):
    """Deterministic GET/SET(/ZADD) mix keyed per (client, seq)."""
    if app == "memcached":
        from repro.apps.memcached import protocol as P

        def workload(cid, seq):
            key = (cid * 7919 + seq) % keys
            if seq % set_every == 0:
                return key, P.encode_set(key, cid * 100_000 + seq)
            return key, P.encode_get(key)

        def matcher(req, rep):
            return len(rep) == P.PKT_SIZE and rep[8:40] == req[8:40]

        return workload, matcher
    if app == "redis":
        from repro.apps.redis import protocol as RP

        def workload(cid, seq):
            key = (cid * 7919 + seq) % keys
            if seq % set_every == 0:
                return key, RP.encode_set(key, cid * 100_000 + seq)
            if seq % set_every == 1:
                return key, RP.encode_zadd(key + keys, seq, cid)
            return key, RP.encode_get(key)

        return workload, None
    if app in ("ratelimit", "l4lb"):
        # Memcached traffic inside the app's 8-byte envelope.  Each
        # client is one source id (shedder) / one flow id (balancer);
        # replies come back as bare memcached packets, so the matcher
        # compares the key echo against the *inner* request.
        from repro.apps.memcached import protocol as P

        if app == "ratelimit":
            from repro.apps.ratelimit import wrap
        else:
            from repro.apps.l4lb import wrap

        def workload(cid, seq):
            key = (cid * 7919 + seq) % keys
            if seq % set_every == 0:
                inner = P.encode_set(key, cid * 100_000 + seq)
            else:
                inner = P.encode_get(key)
            return key, wrap(cid + 1, inner)

        hdr = 8

        def matcher(req, rep):
            return (len(rep) == P.PKT_SIZE
                    and rep[8:40] == req[hdr + 8:hdr + 40])

        return workload, matcher
    raise ValueError(f"unknown app {app!r}")


def _print_net_summary(stats, report, shed_sources=None) -> None:
    print(f"  requests:       {stats.requests}")
    print(f"  kernel fast path: {stats.kernel_tx}")
    print(f"  userspace path: {stats.userspace_pass}")
    print(f"  dropped:        {stats.dropped}  bad frames: {stats.bad_frames}")
    print(f"  quarantines:    {stats.quarantines}  "
          f"readmissions: {stats.readmissions}")
    if shed_sources:
        top = ", ".join(f"{src}={count}" for src, count in shed_sources)
        print(f"  shed by source: {top}")
    print(f"  quiescence:     sock_refs={report['sock_refs']} "
          f"held_locks={report['held_locks']}")


def _serve_replicated(args) -> int:
    """TCP front over replica sets: each shard is one primary plus N
    follower nodes with their own store roots; every acked SET waits
    for ``--sync-replicas`` follower acks, and a primary death promotes
    the most-caught-up follower behind the router."""
    from repro.apps.memcached import protocol as P
    from repro.net import TcpDatapath
    from repro.net.replica import ReplicatedFailover, ReplicatedShard
    from repro.net.shard import ConsistentHashRing, ShardRouterService

    if not args.store:
        raise ReproError(
            "--replicas requires --store (replication ships the durable WAL)"
        )
    if args.app != "memcached":
        raise ReproError(
            "--replicas currently serves the durable memcached app only"
        )

    async def run() -> int:
        loop = asyncio.get_running_loop()
        sets = [
            ReplicatedShard(
                i, f"{args.store}/shard{i}",
                n_replicas=args.replicas,
                sync_replicas=args.sync_replicas,
                engine=args.engine,
            )
            for i in range(args.shards)
        ]
        workers = []
        for rset in sets:
            await loop.run_in_executor(None, rset.start_followers)
            w = rset.build_primary()
            w.start()
            await loop.run_in_executor(None, w.wait_ready)
            workers.append(w)
        failover = ReplicatedFailover(workers, sets)
        ring = ConsistentHashRing(args.shards)
        router = ShardRouterService(
            workers, ring, lambda p: P.decode_request(p)[1],
            failover=failover,
            attempt_timeout=args.attempt_timeout or None,
        )
        front = await TcpDatapath(router).start()
        print(f"serving replicated {args.app} on TCP port {front.port} "
              f"({args.shards} shard(s) x (1 primary + {args.replicas} "
              f"follower(s)), quorum k={args.sync_replicas}, "
              f"store {args.store})")
        sys.stdout.flush()
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        tele = failover.telemetry()
        await front.stop()
        for w in failover.workers:
            await loop.run_in_executor(None, w.shutdown)
        for rset in sets:
            await loop.run_in_executor(None, rset.stop)
        print("server stopped")
        print(f"  promotions:     {failover.promotions}  "
              f"epochs: {tele['epochs']}")
        print(f"  failover:       attempts={tele['attempts']} "
              f"give_ups={tele['give_ups']} restarts={tele['restarts']}")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _node_pin_status(storage, pin: str) -> tuple[int, int, bool]:
    """(local_seq, verified_watermark, clean) for one pin on one node.

    ``local_seq`` counts every durable byte (snapshot base + contiguous
    WAL prefix) regardless of epoch; ``verified`` is what the node
    would *ack* — zero while dirty, i.e. until anti-entropy re-bases it
    under the current epoch."""
    from repro.state.replication import ReplicaSession
    from repro.state.snapshot import snapshot_seq
    from repro.state.wal import scan_wal

    base = 0
    for name in storage.list(pin + "/"):
        s = snapshot_seq(name)
        if s is not None:
            base = max(base, s)
    records, _good, _torn = scan_wal(storage.read(f"{pin}/wal") or b"")
    seq = base
    for rec in records:
        if rec.seq <= seq:
            continue
        if rec.seq != seq + 1:
            break
        seq = rec.seq
    session = ReplicaSession(storage)
    return seq, session.watermark(pin), session.clean(pin)


def cmd_replication(args) -> int:
    """Offline replication status: epochs, watermarks, promotion picks.

    Reads the node storages under ``--store`` directly (the same bytes
    promotion trusts), so it works on a stopped cluster or a crashed
    one — no server required."""
    import os

    from repro.state import DirStorage
    from repro.state.replication import pick_promotee, read_epoch

    root = args.store
    shards = sorted(
        d for d in (os.listdir(root) if os.path.isdir(root) else [])
        if d.startswith("shard")
        and os.path.isdir(os.path.join(root, d, "node0"))
    )
    if not shards:
        print(f"no replicated shards under {root} "
              "(expected shard*/node* store roots)")
        return 1
    for shard in shards:
        shard_root = os.path.join(root, shard)
        nodes = sorted(
            d for d in os.listdir(shard_root) if d.startswith("node")
        )
        storages = {n: DirStorage(os.path.join(shard_root, n))
                    for n in nodes}
        epoch = max(read_epoch(s) for s in storages.values())
        print(f"{shard}: epoch {epoch}, {len(nodes)} nodes")
        pins = sorted({
            p for s in storages.values()
            for name in s.list()
            if "/" in name and not name.startswith("replication/")
            for p in [name.rsplit("/", 1)[0]]
        })
        for pin in pins:
            rows = {}
            for node, storage in storages.items():
                seq, verified, clean = _node_pin_status(storage, pin)
                rows[node] = (seq, verified, clean)
                state = "clean" if clean else "dirty"
                print(f"  {node} (epoch {read_epoch(storage)}) {pin}: "
                      f"seq {seq}, verified {verified} ({state})")
            candidates = {n: v for n, (_s, v, c) in rows.items()
                          if c and v > 0}
            pick = pick_promotee(candidates)
            if pick is not None:
                print(f"  promotion pick for {pin}: {pick} "
                      f"(watermark {candidates[pick]})")
            else:
                print(f"  promotion pick for {pin}: none verified — "
                      f"cold restart from the primary's own disk")
    return 0


# -- fleet control plane (apply / status / rollback) ------------------------


def cmd_fleet_apply(args) -> int:
    """Boot a fleet, converge it onto the spec, optionally keep serving.

    The spec file is the declarative input (see repro.fleet.spec):

    .. code-block:: json

        {"shards": 3, "version": "v2",
         "tenants": {"acme": {"key_lo": 0, "key_hi": 256,
                              "max_inflight": 64}}}
    """
    import json

    from repro.fleet import FleetController, FleetSpec

    with open(args.spec) as f:
        spec = FleetSpec.from_dict(json.load(f))

    async def run() -> int:
        fleet = FleetController(root=args.root)
        await fleet.start(n_shards=args.boot_shards)
        print(f"fleet up on TCP port {fleet.port} "
              f"({args.boot_shards} shard(s), root {args.root})")
        sys.stdout.flush()
        report = await fleet.apply(spec)
        for line in report["actions"] or ["(converged; nothing to do)"]:
            print(f"  {line}")
        for mig in report["migrations"]:
            print(f"  migrated {mig.entries_moved} entries + "
                  f"{mig.tail_records} tail records ({mig.pin})")
        if report["rollout"]:
            r = report["rollout"]
            print(f"  rollout {r['version']}: {r['verdict']}"
                  + (f" ({r['reason']})" if r.get("reason") else ""))
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            elif args.serve:
                await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        await fleet.stop()
        print("fleet stopped; status persisted")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_fleet_status(args) -> int:
    """Offline fleet status: reads the persisted control-plane state
    under --root (works on a stopped fleet; no server required)."""
    from repro.fleet.controller import read_spec, read_status

    status = read_status(args.root)
    spec = read_spec(args.root)
    if status is None and spec is None:
        print(f"no fleet state under {args.root}")
        return 1
    if spec is not None:
        print(f"desired: {spec.shards} shard(s), version {spec.version}, "
              f"{len(spec.tenants)} tenant(s)")
    if status is not None:
        print(f"observed: ring {status['ring']}, "
              f"topology epoch {status['topology_epoch']}, "
              f"stable {status['stable_version']}")
        for sid, version in sorted(status["versions"].items()):
            print(f"  shard {sid}: {version}")
        if status["quarantined"]:
            print(f"  quarantined: {', '.join(status['quarantined'])}")
        if status["pending_canary"]:
            pc = status["pending_canary"]
            print(f"  pending canary: {pc['version']} on shard {pc['shard']}")
        sheds = status.get("tenant_sheds", {})
        for name, q in sorted(status.get("tenants", {}).items()):
            print(f"  tenant {name}: keys [{q['key_lo']}, {q['key_hi']}), "
                  f"max_inflight {q['max_inflight']}, "
                  f"memory {q['memory_bytes']}, "
                  f"sheds {sheds.get(name, 0)}")
        for line in status.get("last_actions", []):
            print(f"  last: {line}")
    return 0


def cmd_fleet_rollback(args) -> int:
    """Rewrite the persisted spec back to the last known-good version
    and quarantine the bad one; the next apply converges onto it."""
    from repro.fleet.controller import rollback_spec

    out = rollback_spec(args.root, to=args.to or None)
    print(f"rolled back {out['rolled_back']} -> {out['to']}")
    if out["quarantined"]:
        print(f"  quarantined: {', '.join(out['quarantined'])}")
    return 0


def cmd_serve(args) -> int:
    from repro.net import ShardedUdpDatapath

    if getattr(args, "replicas", 0) > 0:
        return _serve_replicated(args)

    async def run() -> int:
        sharded = ShardedUdpDatapath(
            _net_service_factory(args), args.shards, threaded=True,
            batch_size=args.batch, batch_timeout=args.batch_timeout,
        )
        await sharded.start()
        print(f"serving {args.app} on UDP ports "
              f"{','.join(map(str, sharded.ports))} "
              f"({args.shards} shard(s), fallback={args.fallback}, "
              f"batch={args.batch})")
        sys.stdout.flush()
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        stats = sharded.merged_service_stats()
        shed_sources = sharded.merged_shed_sources(5)
        report = await sharded.stop()
        print("server stopped")
        _print_net_summary(stats, report, shed_sources)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_loadtest(args) -> int:
    from repro.net import (
        ConsistentHashRing,
        OpenLoopUdpGenerator,
        ShardedUdpDatapath,
        UdpLoadGenerator,
    )

    workload, matcher = _net_workload(args.app, args.keys, args.set_every)

    async def run() -> int:
        sharded = None
        if args.ports:
            ports = [int(p) for p in args.ports.split(",")]
            ring = ConsistentHashRing(len(ports))
        else:
            sharded = ShardedUdpDatapath(
                _net_service_factory(args), args.shards, threaded=True,
                batch_size=args.batch, batch_timeout=args.batch_timeout,
            )
            await sharded.start()
            ports, ring = sharded.ports, sharded.ring
        if args.open_loop:
            gen = OpenLoopUdpGenerator(
                ports,
                workload,
                ring=ring,
                duration_s=args.open_loop,
                window=args.window,
                burst=args.burst,
            )
            res = await gen.run()
            print(f"loadtest {args.app} (open loop): "
                  f"{res.replies}/{res.sent} replies, "
                  f"loss {res.loss:.1%}")
            print(f"  goodput:        {res.pps:,.0f} pps "
                  f"({res.duration_s:.2f}s offered, window {args.window}, "
                  f"burst {args.burst})")
            failures = 0
        else:
            gen = UdpLoadGenerator(
                ports,
                workload,
                ring=ring,
                n_clients=args.clients,
                requests_per_client=args.requests,
                matcher=matcher,
            )
            res = await gen.run()
            lat = res.latency
            print(f"loadtest {args.app}: "
                  f"{res.replies}/{res.requests} replies, "
                  f"{res.failures} failures, {res.retries} retries")
            print(f"  throughput:     {res.throughput_rps:,.0f} req/s "
                  f"({res.duration_s:.2f}s, {args.clients} clients)")
            if len(lat):
                print(f"  latency us:     p50={lat.percentile(50) / 1e3:.1f} "
                      f"p95={lat.percentile(95) / 1e3:.1f} "
                      f"p99={lat.percentile(99) / 1e3:.1f}")
            failures = res.failures
        if sharded is not None:
            stats = sharded.merged_service_stats()
            if args.batch > 1:
                dstats = sharded.merged_datapath_stats()
                print(f"  ingress batches: {dstats.batches} "
                      f"(mean size {dstats.mean_batch():.1f})")
            shed_sources = sharded.merged_shed_sources(5)
            report = await sharded.stop()
            _print_net_summary(stats, report, shed_sources)
        return 1 if failures else 0

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kflexctl",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, fn in (("verify", cmd_verify), ("disasm", cmd_disasm),
                     ("run", cmd_run), ("stats", cmd_stats)):
        s = sub.add_parser(name)
        s.add_argument("file", help="text-assembly source (.kasm)")
        s.add_argument("--mode", choices=("kflex", "ebpf"), default="kflex")
        s.add_argument("--hook", choices=sorted(HOOKS), default="bench")
        s.add_argument("--heap", type=lambda v: int(v, 0), default=1 << 16,
                       help="extension heap size in bytes (kflex mode)")
        s.add_argument("--name", default="prog")
        s.add_argument("--perf-mode", action="store_true",
                       help="enable performance mode (unsanitised reads)")
        s.add_argument("--profile", default="",
                       help="named verifier profile (see `kflexctl "
                            "profiles`); overrides --mode/--perf-mode")
        s.set_defaults(fn=fn)
        if name in ("verify", "stats"):
            s.add_argument("--workers", type=int, default=0,
                           help="verification worker processes "
                                "(0 = in-process serial)")
        if name == "disasm":
            s.add_argument("--instrumented", action="store_true",
                           help="show post-Kie bytecode")
        if name == "run":
            s.add_argument("--ctx", default="",
                           help="comma-separated context values")
            s.add_argument("--invoke", type=int, default=1)
            s.add_argument("--quantum", type=int, default=1_000_000,
                           help="watchdog quantum in cost units")
            s.add_argument("--static", type=lambda v: int(v, 0), default=256,
                           help="static heap bytes to populate at load")
            s.add_argument("--engine", choices=sorted(ENGINES), default=None,
                           help="execution engine (default: threaded)")
        if name == "stats":
            s.add_argument("--loads", type=int, default=2,
                           help="times to load the program (repeats hit "
                                "the program cache; default 2 shows one "
                                "cold and one warm load)")
            s.add_argument("--invoke", type=int, default=2,
                           help="invocations per load (exercises engine "
                                "translation and pool reuse)")

    sp = sub.add_parser("profiles",
                        help="list named verifier profiles")
    sp.set_defaults(fn=cmd_profiles)

    for name, fn in (("serve", cmd_serve), ("loadtest", cmd_loadtest)):
        s = sub.add_parser(name)
        s.add_argument("--app",
                       choices=("memcached", "redis", "ratelimit", "l4lb"),
                       default="memcached",
                       help="ratelimit = token-bucket/SYN shedder over a "
                            "durable memcached; l4lb = Katran-style "
                            "balancer over --backends durable memcacheds")
        s.add_argument("--backends", type=int, default=3,
                       help="backend services behind the l4lb app "
                            "(default 3)")
        s.add_argument("--shards", type=int, default=1,
                       help="SO_REUSEPORT-style shard workers, one "
                            "runtime + pinned CPU each")
        s.add_argument("--engine", choices=sorted(ENGINES), default=None,
                       help="execution engine (default: threaded)")
        s.add_argument("--fallback",
                       choices=("supervised", "userspace", "none"),
                       default="supervised",
                       help="degradation story: supervised = kernel fast "
                            "path + §3.4 userspace fallback; userspace = "
                            "no extension; none = extension only")
        s.set_defaults(fn=fn)
        s.add_argument("--store", default="",
                       help="durable-state directory: shards persist "
                            "their maps (WAL + snapshots) under "
                            "DIR/shard{i} and recover them on restart "
                            "(memcached only)")
        s.add_argument("--batch", type=int, default=1,
                       help="ingress batch size: admitted datagrams "
                            "accumulate until this many are pending "
                            "(or --batch-timeout elapses) and drain "
                            "through one engine entry (default 1 = "
                            "unbatched)")
        s.add_argument("--batch-timeout", type=float, default=0.002,
                       help="ingress batching time budget in seconds "
                            "(default 0.002)")
        s.add_argument("--profile", default="",
                       help="verifier profile shards verify programs "
                            "under (durable --store serving only)")
        if name == "serve":
            s.add_argument("--duration", type=float, default=0.0,
                           help="seconds to serve (0 = until Ctrl-C)")
            s.add_argument("--replicas", type=int, default=0,
                           help="follower replicas per shard: serve the "
                                "durable memcached app over TCP with "
                                "every journaled write shipped to this "
                                "many follower nodes (requires --store; "
                                "0 = no replication)")
            s.add_argument("--sync-replicas", type=int, default=1,
                           help="write quorum: follower acks required "
                                "before the client's reply is released "
                                "(default 1)")
            s.add_argument("--attempt-timeout", type=float, default=0.0,
                           help="per-attempt router deadline in seconds: "
                                "a request outstanding this long is "
                                "treated as a wedged worker and triggers "
                                "failover (0 = off; opt in with care — "
                                "queueing delay under a load spike will "
                                "also trip it)")
        else:
            s.add_argument("--ports", default="",
                           help="comma-separated UDP ports of a running "
                                "server (default: spin up a local one)")
            s.add_argument("--clients", type=int, default=4)
            s.add_argument("--requests", type=int, default=256,
                           help="requests per client (closed loop)")
            s.add_argument("--keys", type=int, default=512,
                           help="key-space size")
            s.add_argument("--set-every", type=int, default=4,
                           help="every Nth request per client is a "
                                "SET (plus a ZADD for redis)")
            s.add_argument("--open-loop", type=float, default=0.0,
                           metavar="SECONDS",
                           help="measure open-loop pps for this many "
                                "seconds instead of the closed loop "
                                "(burst offered load; the mode where "
                                "--batch pays off)")
            s.add_argument("--window", type=int, default=128,
                           help="open loop: max outstanding requests")
            s.add_argument("--burst", type=int, default=16,
                           help="open loop: datagrams per volley")

    # Durable state: the bpffs-analog workflow over a store directory.
    sp = sub.add_parser("pin", help="create a map and pin it durably")
    sp.add_argument("path", help="pin path, e.g. maps/cache")
    sp.add_argument("--store", required=True, help="store directory")
    sp.add_argument("--map-type", choices=("hash", "array"), default="hash")
    sp.add_argument("--key-size", type=int, default=8)
    sp.add_argument("--value-size", type=int, default=8)
    sp.add_argument("--max-entries", type=int, default=1024)
    sp.add_argument("--put", action="append", default=[], metavar="K=V",
                    help="seed an entry (ints, packed little-endian; "
                         "repeatable)")
    sp.set_defaults(fn=cmd_pin)

    sp = sub.add_parser("pins", help="list pins with recovered state")
    sp.add_argument("--store", required=True, help="store directory")
    sp.set_defaults(fn=cmd_pins)

    sp = sub.add_parser("snapshot",
                        help="force a compacting snapshot of one pin")
    sp.add_argument("path", help="pin path")
    sp.add_argument("--store", required=True, help="store directory")
    sp.set_defaults(fn=cmd_snapshot)

    sp = sub.add_parser("recover",
                        help="recover pinned maps, repairing crash damage")
    sp.add_argument("--store", required=True, help="store directory")
    sp.add_argument("--pin", default="", help="recover one pin only")
    sp.set_defaults(fn=cmd_recover)

    sp = sub.add_parser("replication",
                        help="offline replica-set status: epochs, "
                             "watermarks, promotion picks")
    sp.add_argument("--store", required=True,
                    help="replicated store directory (shard*/node* "
                         "roots, as written by serve --replicas)")
    sp.set_defaults(fn=cmd_replication)

    # Fleet control plane: declarative spec -> reconciled live fleet.
    sp = sub.add_parser("fleet",
                        help="fleet control plane: apply a declarative "
                             "spec, inspect status, roll back a version")
    fsub = sp.add_subparsers(dest="fleet_cmd", required=True)

    fa = fsub.add_parser("apply",
                         help="boot a fleet and converge it onto a "
                              "JSON spec (scale, rollout, quotas)")
    fa.add_argument("spec", help="fleet spec JSON file")
    fa.add_argument("--root", required=True,
                    help="fleet root directory (per-shard durable "
                         "stores + persisted control-plane state)")
    fa.add_argument("--boot-shards", type=int, default=2,
                    help="shards to boot before converging (default 2; "
                         "the spec's shard count is reached by live "
                         "migration)")
    fa.add_argument("--duration", type=float, default=0.0,
                    help="seconds to keep serving after convergence")
    fa.add_argument("--serve", action="store_true",
                    help="keep serving until Ctrl-C after convergence")
    fa.set_defaults(fn=cmd_fleet_apply)

    fs = fsub.add_parser("status",
                         help="offline fleet status from the persisted "
                              "control-plane state")
    fs.add_argument("--root", required=True, help="fleet root directory")
    fs.set_defaults(fn=cmd_fleet_status)

    fr = fsub.add_parser("rollback",
                         help="rewrite the desired spec to the last "
                              "known-good version and quarantine the "
                              "bad one")
    fr.add_argument("--root", required=True, help="fleet root directory")
    fr.add_argument("--to", default="",
                    help="explicit version to roll back to (default: "
                         "the persisted stable version)")
    fr.set_defaults(fn=cmd_fleet_rollback)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
