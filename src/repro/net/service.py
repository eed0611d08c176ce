"""Packet services: XDP-verdict dispatch + supervisor integration.

A *service* is what the datapath hands each admitted payload to.  It
owns a :class:`~repro.core.runtime.KFlexRuntime` (one per shard worker)
and maps the extension's XDP verdict onto the reply decision:

========== =====================================================
verdict    datapath action
========== =====================================================
XDP_TX     reply with the packet the extension rewrote in place
           (kernel fast path — never leaves the ingress hook)
XDP_PASS   deliver the packet up the stack to the userspace
           server; its answer is the reply
XDP_DROP   no reply (the client sees a timeout, as on a real NIC)
========== =====================================================

Supervisor integration: a faulting extension is cancelled, unwound and
(for hard faults / persistent soft faults) *quarantined* by the
existing :class:`~repro.core.supervisor.ExtensionSupervisor`; the
service keeps serving by falling through to the userspace path until
the backoff elapses and the extension is re-admitted — §3.4 exercised
over real traffic.  The service also couples the simulated kernel
clock to wall time so quarantine backoffs elapse while real packets
flow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.ebpf.program import SK_PASS, XDP_PASS, XDP_TX
from repro.errors import FrameError
from repro.core.runtime import KFlexRuntime

#: Largest single wall-clock step fed into the simulated kernel clock;
#: keeps a stall (debugger, scheduler hiccup) from warping backoffs.
_MAX_CLOCK_STEP_NS = 50_000_000


@dataclass
class ServiceStats:
    """Per-service request accounting (merged across shards)."""

    requests: int = 0
    #: Served by the extension at the ingress hook (XDP_TX).
    kernel_tx: int = 0
    #: Fell through to the userspace path (XDP_PASS, quarantine,
    #: cancellation mid-request).
    userspace_pass: int = 0
    #: XDP_DROP verdicts (no reply sent).
    dropped: int = 0
    #: Undecodable frames the service refused (FrameError).
    bad_frames: int = 0
    #: Times the supervisor quarantined this service's extension.
    quarantines: int = 0
    #: Times the supervisor re-admitted it.
    readmissions: int = 0

    def merge(self, other: "ServiceStats") -> "ServiceStats":
        for f in (
            "requests", "kernel_tx", "userspace_pass", "dropped",
            "bad_frames", "quarantines", "readmissions",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self


class PacketService:
    """Base: clock coupling + supervisor subscription.

    Subclasses implement :meth:`_serve` returning ``(reply | None,
    path)`` with path one of ``"kernel"``, ``"userspace"``, ``"drop"``.
    """

    def __init__(self, runtime: KFlexRuntime):
        self.runtime = runtime
        self.stats = ServiceStats()
        self._last_wall_ns: int | None = None
        runtime.supervisor.listeners.append(self._supervisor_event)

    # -- supervisor plumbing ----------------------------------------------

    def _supervisor_event(self, event: str, ext, detail) -> None:
        if event == "quarantine":
            self.stats.quarantines += 1
        elif event == "readmit":
            self.stats.readmissions += 1

    @property
    def degraded(self) -> bool:
        """True while the fast-path extension is quarantined."""
        ext = getattr(self, "ext", None)
        return bool(ext is not None and ext.dead)

    # -- clock coupling ----------------------------------------------------

    def _tick(self) -> None:
        """Advance the simulated kernel clock by elapsed wall time.

        The supervisor's quarantine backoff is expressed in simulated
        nanoseconds, which normally only advance with executed
        extension cost.  A quarantined extension executes nothing, so
        without this coupling it could never heal on a real-traffic
        path; with it, backoffs elapse in wall time like the paper's
        runtime."""
        now = time.monotonic_ns()
        if self._last_wall_ns is not None:
            step = min(now - self._last_wall_ns, _MAX_CLOCK_STEP_NS)
            if step > 0:
                self.runtime.kernel.advance_ns(step)
        self._last_wall_ns = now

    # -- request entry -----------------------------------------------------
    #
    # The entry is split the way XDP splits it on hardware: `ingress`
    # runs synchronously in the receive callback (driver/NAPI context —
    # no scheduler hop), and only packets the verdict sends *up the
    # stack* (`path == "pass"`) are queued for the asynchronous
    # `deliver` stage.  The fast path never touches the event loop's
    # task machinery; that skip is most of its measured advantage, just
    # as it is in the paper.

    def ingress(self, payload: bytes, cpu: int = 0):
        """Synchronous ingress hook.  Returns ``(reply, path)`` with
        path one of ``"kernel"``, ``"userspace"`` (completed in-process
        fallback), ``"drop"``, ``"bad"``, or ``"pass"`` — the last
        means the caller must finish the request with :meth:`deliver`.
        """
        self.stats.requests += 1
        self._tick()
        try:
            reply, path = self._serve_sync(payload, cpu)
        except FrameError:
            self.stats.bad_frames += 1
            return None, "bad"
        if path == "kernel":
            self.stats.kernel_tx += 1
        elif path == "userspace":
            self.stats.userspace_pass += 1
        elif path == "drop":
            self.stats.dropped += 1
        return reply, path

    def ingress_batch(self, payloads, cpu: int = 0) -> list:
        """Synchronous ingress for one accumulated batch: one entry
        into the service for N packets.  Returns one ``(reply, path)``
        per payload, in order, with per-packet semantics identical to
        calling :meth:`ingress` N times.  The base implementation *is*
        that loop; :class:`ExtensionService` overrides it with an
        engine entry whose per-packet setup is amortized."""
        return [self.ingress(p, cpu) for p in payloads]

    async def deliver(self, payload: bytes, cpu: int = 0) -> bytes | None:
        """Asynchronous stack delivery for an ``ingress`` that returned
        ``"pass"``.  Base services have nowhere to deliver to."""
        self.stats.dropped += 1
        return None

    async def handle(self, payload: bytes, cpu: int = 0) -> bytes | None:
        """Serve one payload; returns the reply or None (drop)."""
        reply, path = self.ingress(payload, cpu)
        if path == "pass":
            return await self.deliver(payload, cpu)
        return reply

    def _serve_sync(self, payload: bytes, cpu: int):
        raise NotImplementedError

    def quiescence_report(self) -> dict:
        return self.runtime.quiescence_report()

    def close(self) -> None:
        try:
            self.runtime.supervisor.listeners.remove(self._supervisor_event)
        except ValueError:
            pass


class ExtensionService(PacketService):
    """Raw XDP-style dispatch: one extension, optional userspace server.

    ``userspace`` is a callable ``payload -> reply | None`` (sync or
    async — an async callable models a real delivery hop, e.g.
    :class:`~repro.net.datapath.UserspaceBridge.request`).  With no
    extension attached every packet takes the userspace path — the
    stock-server baseline leg of the Fig. 2 comparison.
    """

    def __init__(self, runtime, ext=None, userspace=None):
        super().__init__(runtime)
        self.ext = ext
        self.userspace = userspace
        if ext is not None and ext.program.hook not in ("xdp", "sk_skb"):
            raise ValueError(
                f"datapath extensions attach at xdp/sk_skb, not "
                f"{ext.program.hook!r}"
            )

    async def deliver(self, payload: bytes, cpu: int = 0) -> bytes | None:
        if self.userspace is None:
            self.stats.dropped += 1
            return None
        # PASS means the packet traverses the rest of the receive path
        # (skb copy, checksum, socket lookup, queue copy-out) before
        # the server sees it — the work XDP_TX replies skip.
        payload = self.runtime.kernel.net.stack_deliver(cpu, payload)
        reply = self.userspace(payload)
        if hasattr(reply, "__await__"):
            reply = await reply
        self.stats.userspace_pass += 1
        return reply

    def ingress_batch(self, payloads, cpu: int = 0) -> list:
        """Batched XDP dispatch: one engine entry for the whole batch.

        The per-packet constants — pooled engine, staged packet slot,
        ctx slot, watchdog arming — are bound once via
        :meth:`~repro.core.runtime.LoadedExtension.xdp_batch_invoker`;
        each packet then only rewrites the slot bytes and
        data/data_end before running.  Verdict mapping stays strictly
        per packet (an ``XDP_TX`` reply is read back before the next
        packet overwrites the shared slot), and a mid-batch
        cancellation that kills the extension downgrades the faulting
        packet and the remainder to the per-packet path, which honors
        quarantine/readmission exactly as unbatched ingress does.
        """
        ext = self.ext
        if ext is None or ext.dead or ext.program.hook != "xdp":
            return [self.ingress(p, cpu) for p in payloads]
        self._tick()
        run = ext.xdp_batch_invoker(cpu)
        read_reply = self.runtime.kernel.net.packet_reader(cpu)
        stats = self.stats
        out = []
        for i, payload in enumerate(payloads):
            stats.requests += 1
            verdict = run(payload)
            if ext.dead:
                # Cancelled + unloaded mid-batch: this packet falls
                # back to the stack (same as _serve_sync's dead path),
                # and the rest of the batch goes per-packet.
                out.append((None, "pass"))
                out.extend(self.ingress(p, cpu) for p in payloads[i + 1 :])
                return out
            if verdict == XDP_TX:
                stats.kernel_tx += 1
                out.append((read_reply(len(payload)), "kernel"))
            elif verdict == XDP_PASS:
                out.append((None, "pass"))
            else:
                stats.dropped += 1
                out.append((None, "drop"))
        return out

    def _serve_sync(self, payload: bytes, cpu: int):
        ext = self.ext
        if ext is None:
            return None, "pass"
        if ext.dead and not self.runtime.supervisor.try_readmit(ext):
            return None, "pass"
        if ext.program.hook == "xdp":
            verdict = ext.invoke(ext.xdp_ctx(payload, cpu), cpu=cpu)
            if verdict == XDP_TX and not ext.dead:
                return (
                    self.runtime.kernel.net.read_packet(cpu, len(payload)),
                    "kernel",
                )
            if verdict == XDP_PASS or ext.dead:
                # PASS by choice, or the invocation was cancelled and
                # unwound — either way the stack delivers the original
                # packet to userspace.
                return None, "pass"
            return None, "drop"
        # sk_skb: the verdict is SK_PASS/SK_DROP; "the kernel answered"
        # is signalled by the REPLY_FLAG the extension set in the slot.
        verdict = ext.invoke(ext.sk_skb_ctx(payload, cpu), cpu=cpu)
        if verdict == SK_PASS and not ext.dead:
            reply = self.runtime.kernel.net.read_packet(cpu, len(payload))
            if reply and reply[0] & 0x80:
                return reply, "kernel"
            return None, "pass"
        if ext.dead:
            return None, "pass"
        return None, "drop"


class DurableMemcachedService(ExtensionService):
    """Memcached over a pinned, WAL-journaled kernel map (repro.state).

    On a fresh store the service creates the hash map, pins it at
    ``pin`` and starts journaling.  On a store that already holds
    durable state — a restarted or failed-over shard — it instead runs
    full crash recovery: the map is rebuilt from snapshot + WAL, the
    program is recompiled over the recovered map (fresh fd, same pin
    identity) and re-attached, and ``recovery`` carries the
    :class:`~repro.state.recovery.RecoveryReport`.

    With the store's default ``sync_every=1`` every SET is flushed
    before the XDP reply leaves, so an acknowledged write is durable —
    the invariant the failover test checks key by key.

    When the store carries a :class:`~repro.state.replication
    .QuorumShipper`, the ack path becomes quorum-aware: records the
    extension journaled are shipped to the follower replicas *after*
    the engine returns and *before* the reply goes out, and a write
    that cannot reach ``sync_replicas`` durable follower acks is
    dropped, not answered (the client retries; nothing unreplicated is
    ever acknowledged).  A :class:`~repro.errors.PrimaryFenced` ship
    means a promotion deposed this node — it stops answering writes
    entirely and counts them as ``fenced_drops`` until failover
    replaces it.
    """

    def __init__(
        self,
        runtime: KFlexRuntime | None = None,
        *,
        store,
        pin: str = "memcached/cache",
        capacity: int = 4096,
        userspace=None,
        engine: str | None = None,
        program_builder=None,
        verify_profile: str = "",
    ):
        from repro.apps.memcached.durable_ext import (
            build_durable_memcached_program,
        )
        from repro.ebpf.maps import HashMap
        from repro.apps.memcached import protocol as P

        runtime = runtime or KFlexRuntime(engine=engine)
        self.store = store
        self.pin = pin
        #: Named verifier profile every program (initial load, crash
        #: recovery, live swap) is verified under; "" = plain eBPF.
        self.verify_profile = verify_profile
        #: ``builder(map) -> Program``; the fleet's rollout layer swaps
        #: it live via :meth:`swap_program`.
        self.program_builder = program_builder or build_durable_memcached_program
        self.recovered = pin in store.pins()
        self.recovery = None
        if self.recovered:
            loaded = {}

            def factory(rt, m):
                ext = self._load(rt, self.program_builder(m))
                loaded["ext"] = ext
                return ext

            self.recovery = runtime.recover(store, programs={pin: factory})
            self.cache = runtime.pins.get(pin)
            ext = loaded["ext"]
        else:
            k = runtime.kernel
            self.cache = HashMap(
                k.aspace,
                k.vmalloc,
                key_size=P.KEY_SIZE,
                value_size=P.VAL_SIZE,
                max_entries=capacity,
                name="durable-memcached",
            )
            runtime.pin_map(pin, self.cache, store)
            ext = self._load(runtime, self.program_builder(self.cache))
        super().__init__(runtime, ext=ext, userspace=userspace)
        self.shipper = getattr(store, "shipper", None)
        #: Writes dropped because the follower quorum was unreachable /
        #: because this primary has been fenced by a newer epoch.
        self.quorum_drops = 0
        self.fenced_drops = 0

    def _load(self, runtime, program):
        """Load a program under this shard's verification policy."""
        if self.verify_profile:
            return runtime.load(
                program, profile=self.verify_profile, attach=False
            )
        return runtime.load(program, mode="ebpf", attach=False)

    def verify_config(self):
        """The exact :class:`VerifierConfig` :meth:`_load` verifies
        under — what an out-of-band pre-verification must match for
        :meth:`adopt_analysis` to produce warm loads."""
        from repro.ebpf.verifier import VerifierConfig

        if self.verify_profile:
            from repro.verify.profiles import profile_config

            return profile_config(self.verify_profile)
        return VerifierConfig(mode="ebpf")

    def build_candidate(self, builder):
        """Materialise a candidate program over the live pinned map —
        the controller pre-verifies this exact artifact before asking
        for a swap."""
        return builder(self.cache)

    def adopt_analysis(self, program, analysis) -> None:
        """Seed the runtime's pipeline with a pre-verified analysis so
        the matching :meth:`swap_program` skips the verifier."""
        self.runtime.pipeline.seed_verify(
            program, self.verify_config(), analysis
        )

    @property
    def program_digest(self) -> str | None:
        """Content digest of the live bytecode (the canary/stable key:
        two artifact versions differ by digest by construction)."""
        from repro.ebpf.pipeline import program_digest

        return program_digest(self.ext.program) if self.ext is not None else None

    def swap_program(self, builder):
        """Verify + load new bytecode over the live pinned map and swap
        it in atomically (single-loop service: no request is mid-invoke
        while this runs on the shard's own loop).

        The new program is built over the *same* map — pin identity and
        journal hook are untouched, so durability is oblivious to the
        swap.  Verification failures raise out of ``runtime.load``
        before anything is swapped; the old extension keeps serving.
        Returns the new extension's content digest.
        """
        from repro.ebpf.pipeline import program_digest

        new_ext = self._load(self.runtime, builder(self.cache))
        old, self.ext = self.ext, new_ext
        self.program_builder = builder
        if old is not None and not old.dead:
            old.unload()
        return program_digest(new_ext.program)

    def _serve_sync(self, payload: bytes, cpu: int):
        reply, path = super()._serve_sync(payload, cpu)
        shipper = self.shipper
        if shipper is not None and shipper.has_staged():
            from repro.errors import PrimaryFenced, QuorumLost

            try:
                shipper.commit()
            except QuorumLost:
                self.quorum_drops += 1
                return None, "drop"
            except PrimaryFenced:
                self.fenced_drops += 1
                return None, "drop"
        return reply, path

    def ingress_batch(self, payloads, cpu: int = 0) -> list:
        if self.shipper is None:
            return super().ingress_batch(payloads, cpu)
        # The batched engine entry bypasses _serve_sync, and with it the
        # quorum commit; with replication on, every packet must pass
        # through the ship-then-ack gate, so batching degrades to the
        # per-packet loop (the replication benchmark prices this in).
        return [self.ingress(p, cpu) for p in payloads]

    def close(self) -> None:
        # Flush, don't snapshot: close must be cheap and crash-safe
        # (the WAL already holds everything acknowledged).
        self.store.close()
        super().close()


class SupervisedMemcachedService(PacketService):
    """The §3.4 co-design on the wire: ``SupervisedMemcached.serve``.

    Kernel fast path while healthy; on quarantine the request falls
    back to the userspace overlay and the surviving heap (through the
    user mapping), and overlay writes are replayed into the kernel
    table on re-admission — so results stay bit-identical to a stock
    userspace server across the whole quarantine cycle.
    """

    def __init__(self, runtime=None, **kflex_kwargs):
        from repro.apps.memcached.supervised import SupervisedMemcached

        runtime = runtime or KFlexRuntime()
        super().__init__(runtime)
        self.app = SupervisedMemcached(runtime, **kflex_kwargs)
        self.ext = self.app.ext

    def _serve_sync(self, payload: bytes, cpu: int):
        reply = self.app.serve(payload, cpu)
        return reply, self.app.last_path


class SupervisedRedisService(PacketService):
    """Stream-transport twin: ``SupervisedRedis.serve`` behind TCP."""

    def __init__(self, runtime=None, **kflex_kwargs):
        from repro.apps.redis.supervised import SupervisedRedis

        runtime = runtime or KFlexRuntime()
        super().__init__(runtime)
        self.app = SupervisedRedis(runtime, **kflex_kwargs)
        self.ext = self.app.ext

    def _serve_sync(self, payload: bytes, cpu: int):
        reply = self.app.serve(payload, cpu)
        return reply, self.app.last_path


def build_service(
    app: str,
    *,
    runtime: KFlexRuntime | None = None,
    fallback: str = "supervised",
    engine: str | None = None,
    userspace=None,
    **kflex_kwargs,
) -> PacketService:
    """Service factory shared by ``kflexctl serve`` and the benchmarks.

    ``fallback`` selects the degradation story:

    * ``"supervised"`` — kernel fast path + in-process §3.4 fallback
      (overlay + surviving heap);
    * ``"userspace"`` — no extension; every packet takes the userspace
      path (the stock-server baseline).  ``userspace`` must be the
      delivery callable (e.g. a :class:`UserspaceBridge` request);
    * ``"none"`` — extension only; PASS verdicts are dropped.

    ``app="ratelimit"`` and ``app="l4lb"`` are the hostile-traffic
    tiers and ignore ``fallback``: the shedder fronts a durable
    memcached, the balancer fronts ``n_backends`` of them (each
    backend owning its own runtime and store).
    """
    runtime = runtime or KFlexRuntime(engine=engine)
    if app == "ratelimit":
        from repro.apps.ratelimit import RateLimitConfig, RateLimitedService
        from repro.state import DurableStore, MemStorage

        inner = DurableMemcachedService(
            runtime,
            store=kflex_kwargs.pop("store", None)
            or DurableStore(storage=MemStorage()),
            pin=kflex_kwargs.pop("pin", "mc"),
        )
        return RateLimitedService(
            inner,
            config=kflex_kwargs.pop("config", None) or RateLimitConfig(),
        )
    if app == "l4lb":
        from repro.apps.l4lb import L4LBService
        from repro.state import DurableStore, MemStorage

        n_backends = int(kflex_kwargs.pop("n_backends", 3))
        backends = {
            bid: DurableMemcachedService(
                store=kflex_kwargs.pop(f"store{bid}", None)
                or DurableStore(storage=MemStorage()),
                pin=f"b{bid}",
                engine=engine,
            )
            for bid in range(n_backends)
        }
        return L4LBService(
            runtime,
            store=kflex_kwargs.pop("store", None)
            or DurableStore(storage=MemStorage()),
            backends=backends,
        )
    if fallback == "supervised":
        if app == "memcached":
            return SupervisedMemcachedService(runtime, **kflex_kwargs)
        if app == "redis":
            return SupervisedRedisService(runtime, **kflex_kwargs)
        raise ValueError(f"unknown app {app!r}")
    if fallback == "userspace":
        return ExtensionService(runtime, ext=None, userspace=userspace)
    if fallback == "none":
        if app == "memcached":
            from repro.apps.memcached.kflex_ext import KFlexMemcached

            return ExtensionService(
                runtime, ext=KFlexMemcached(runtime, **kflex_kwargs).ext
            )
        if app == "redis":
            from repro.apps.redis.kflex_ext import KFlexRedis

            return ExtensionService(
                runtime, ext=KFlexRedis(runtime, **kflex_kwargs).ext
            )
        raise ValueError(f"unknown app {app!r}")
    raise ValueError(f"unknown fallback {fallback!r}")
