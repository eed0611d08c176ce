"""The KFlex runtime: load, attach, invoke (Fig. 1).

``KFlexRuntime.load`` drives the staged compilation pipeline
(:mod:`repro.ebpf.pipeline`): (1) the eBPF verifier checks
kernel-interface compliance and produces the range / loop / resource
analysis; (2) Kie instruments the bytecode (guards, cancellation
points, translations, spills); (3) the JIT lowering assigns native
costs; (4) the execution engine translates per CPU.  Every stage is a
registered pass over typed artifacts, and the expensive ones are
memoized in the runtime's content-addressed program cache — repeated
loads of the same bytecode (per-CPU deployments, supervisor
re-admission after quarantine) skip straight to cached artifacts.  The
result is a :class:`LoadedExtension` that executes on the simulated
machine with full cancellation support.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import LoadError, KernelPanic
from repro.ebpf.helpers import (
    HelperTable,
    bind_standard_helpers,
    DECLARATIONS,
    BPF_COPY_FROM_USER,
    KFLEX_MALLOC,
    KFLEX_FREE,
    KFLEX_SPIN_LOCK,
    KFLEX_SPIN_UNLOCK,
    BPF_SK_RELEASE,
)
from repro.ebpf.engine import default_engine
from repro.ebpf.interpreter import ExecEnv
from repro.ebpf.pipeline import CompilationPipeline, LoweredProgram
from repro.ebpf.program import Program, HOOKS
from repro.ebpf.verifier import VerifierConfig
from repro.core.allocator import KflexAllocator
from repro.core.audit import QuiescenceAuditor, audit_enabled, reclaim_orphans
from repro.core.cancellation import CancellationEngine
from repro.core.heap import ExtensionHeap
from repro.core.locks import LockManager
from repro.core.supervisor import ExtensionSupervisor, HARD_REASONS
from repro.kernel.machine import Kernel
from repro.state.pins import PinRegistry

#: Per-CPU hook context area (xdp_md / sk_skb / bench context).
CTX_REGION_BASE = 0xFFFF_88A0_0000_0000
CTX_SLOT_SIZE = 256

#: Cached little-endian u64 packers for make_ctx, by field count.
_CTX_PACKERS: dict[int, struct.Struct] = {}


@dataclass
class ExtStats:
    invocations: int = 0
    cancellations: int = 0
    cancellations_by_reason: dict = field(default_factory=dict)
    total_cost_units: int = 0
    last_cost_units: int = 0

    def mean_cost(self) -> float:
        return self.total_cost_units / self.invocations if self.invocations else 0.0


class LoadedExtension:
    """A verified, instrumented, JIT-lowered extension ready to run."""

    def __init__(
        self,
        runtime: "KFlexRuntime",
        program: Program,
        lowered: LoweredProgram,
        heap: ExtensionHeap | None,
        allocator: KflexAllocator | None,
        locks: LockManager | None,
        helpers: HelperTable,
        *,
        quantum_units: int | None,
        unload_on_fault: bool = False,
        cancel_scope: str = "global",
        engine: str | None = None,
    ):
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.program = program
        self._install(lowered)
        self.heap = heap
        self.allocator = allocator
        self.locks = locks
        self.helpers = helpers
        self.quantum_units = quantum_units
        self.unload_on_fault = unload_on_fault
        #: "global": non-termination unloads the extension everywhere
        #: (the paper's policy, §4.3 "Cancellation scope").  "cpu": the
        #: future-work variant — only the faulting invocation dies.
        if cancel_scope not in ("global", "cpu"):
            raise LoadError(f"bad cancel_scope {cancel_scope!r}")
        self.cancel_scope = cancel_scope
        self.dead = False
        self.stats = ExtStats()

        self.cancellation = CancellationEngine(self.kernel.aspace)
        self._bind_destructors()

        allowed = ["stack:", "map:", "kernel:pkt"]
        if heap is not None:
            allowed.append(f"heap:{heap.name}")
        self._allowed_prefixes = tuple(allowed)
        self._envs: dict[int, ExecEnv] = {}
        #: Execution engine name ("interp" | "threaded"); resolved at
        #: load time so a later default change doesn't flip a loaded
        #: extension mid-flight.
        self.engine = engine or runtime.engine
        #: Per-CPU pooled :class:`~repro.ebpf.pipeline.TranslatedProgram`
        #: artifacts — translated once, reused across invocations.
        self._engines: dict[int, object] = {}
        #: Per-CPU cached batch invoker closures keyed on the pooled
        #: engine identity (dropped whenever the engine is retranslated).
        self._batch_cache: dict[int, tuple] = {}
        self._wd_callback = None
        #: ExecResult of the most recent run (parity/diagnostic surface).
        self.last_result = None
        #: Whether revive() should re-attach to the hook (set by load()).
        self._reattach_on_revive = False
        self.cancellation.on_unwound = self._post_unwind

    # -- plumbing ---------------------------------------------------------

    def _install(self, lowered: LoweredProgram) -> None:
        """Adopt pipeline output.  Initial load and supervisor
        re-admission both land here; ``iprog``/``jprog`` stay as the
        public inspection surface (tools, tests, figures)."""
        self.lowered = lowered
        self.iprog = lowered.kprog
        self.jprog = lowered.jprog

    @property
    def load_config(self) -> VerifierConfig | None:
        """The VerifierConfig this extension was compiled under
        (``None`` for unverified KMod loads)."""
        return self.lowered.raw.config

    def _bind_destructors(self) -> None:
        net = self.kernel.net

        def release_sock(value: int, cpu: int) -> None:
            sock = net.sock_by_addr(value)
            if sock is None:
                raise KernelPanic(
                    f"cancellation unwind: object table pointed at non-socket "
                    f"{value:#x}"
                )
            sock.put_ref()

        self.cancellation.bind_destructor(BPF_SK_RELEASE, release_sock)
        if self.locks is not None:
            self.cancellation.bind_destructor(
                KFLEX_SPIN_UNLOCK,
                lambda value, cpu: self.locks.force_release(value, cpu),
            )

    def _env(self, cpu: int) -> ExecEnv:
        env = self._envs.get(cpu)
        if env is None:
            env = ExecEnv(
                aspace=self.kernel.aspace,
                helpers=self.helpers,
                cpu=cpu,
                maps_by_addr={
                    m.region.base: m for m in self.program.maps.values()
                },
                heap=self.heap,
                allowed_store_regions=self._allowed_prefixes,
                injector=self.runtime.injector,
            )
            if self.runtime.watchdog_period is not None:
                env.watchdog_period = self.runtime.watchdog_period
            self._envs[cpu] = env
        return env

    def _engine(self, cpu: int):
        """Pooled per-CPU engine: translate once, reuse per invocation."""
        tp = self._engines.get(cpu)
        if tp is None or tp.engine.insns is not self.jprog.insns:
            # First use, or the program was re-instrumented/lowered
            # since translation (jprog swapped out underneath us).
            tp = self.runtime.pipeline.translate(
                self.lowered, self.engine, self._env(cpu), cpu
            )
            self._engines[cpu] = tp
        else:
            self.runtime.pipeline.stats.pool_hits += 1
        return tp.engine

    def invalidate_engines(self) -> None:
        """Drop pooled engines (call after re-instrumentation)."""
        self._engines.clear()
        self._batch_cache.clear()

    # -- execution ----------------------------------------------------------

    def invoke(self, ctx_addr: int = 0, cpu: int = 0) -> int:
        """Run the extension once at the given hook context."""
        if self.dead:
            # Quarantined extensions heal via exponential backoff: once
            # the penalty elapses the supervisor revives them (§4.3 +
            # the supervision layer).  Other dead states stay dead.
            if not self.runtime.supervisor.try_readmit(self):
                return self.program.default_ret
        env = self._env(cpu)
        if self.allocator is not None and audit_enabled():
            self.allocator.begin_invocation(cpu)
        if self.heap is not None and self.quantum_units is not None:
            wd = self.kernel.watchdog
            wd.quantum_units = self.quantum_units
            if self._wd_callback is None:
                # The callback reads quantum/armed state at fire time,
                # so one closure serves every invocation.
                self._wd_callback = wd.make_callback(self.heap, self.kernel.aspace)
            env.watchdog = self._wd_callback
        aspace = self.kernel.aspace
        if self.heap is not None and self.heap.pkey is not None:
            # Striped heap (§6): load this extension's protection key.
            aspace.active_pkeys = {self.heap.pkey}
        result = self._engine(cpu).run(ctx_addr)
        aspace.active_pkeys = None
        self.last_result = result
        cost = result.cost + self.jprog.prologue_cost
        self.stats.invocations += 1
        self.stats.total_cost_units += cost
        self.stats.last_cost_units = cost
        self.kernel.advance_units(cost)
        if result.ok:
            return result.ret
        return self._cancel(result, cpu)

    def _cancel(self, result, cpu: int) -> int:
        """The cancellation path (§3.3): unwind and return the default."""
        fault = result.fault
        table = self.iprog.object_tables.get(fault.orig_idx, ())
        armed = (
            self.heap is not None
            and self.kernel.aspace.read_int(self.heap.terminate_cell, 8) == 0
        )
        if fault.kind == "stall":
            reason = "hard_stall"
        elif fault.kind in ("lock_stall", "sleep_stall"):
            reason = fault.kind
        elif armed:
            reason = "watchdog"
        elif fault.kind == "page":
            reason = "page_fault"
        else:
            reason = fault.kind
        ret, record = self.cancellation.unwind(
            result,
            table,
            cpu=cpu,
            reason=reason,
            default_ret=self.program.default_ret,
            cancel_callback=self.program.cancel_callback,
        )
        self.stats.cancellations += 1
        self.stats.cancellations_by_reason[reason] = (
            self.stats.cancellations_by_reason.get(reason, 0) + 1
        )
        # Policy (§4.3): non-termination cancels the extension globally —
        # unload it; the heap survives for the user-space application.
        # With the future-work "cpu" scope, only this invocation dies.
        # The supervisor owns the decision: hard reasons quarantine
        # immediately (unload + backoff), soft faults count against the
        # fault-rate window and quarantine when persistent.
        hard = (
            reason in HARD_REASONS and self.cancel_scope == "global"
        ) or self.unload_on_fault
        self.runtime.supervisor.note_cancellation(self, reason, hard=hard)
        if self.heap is not None:
            self.kernel.watchdog.disarm(self.heap, self.kernel.aspace)
        return ret

    def _post_unwind(self, record, cpu: int) -> None:
        """Quiescence after every unwind (mandatory in tests): reclaim
        allocations the dead invocation never published — unreachable
        to the program forever — then audit that nothing leaked."""
        if not audit_enabled():
            return
        if self.allocator is not None and self.heap is not None:
            for addr in reclaim_orphans(self.allocator, self.heap, cpu):
                record.released.append(("heap_mem", addr))
        self.runtime.auditor.audit(self, record, cpu)

    def unload(self) -> None:
        self.dead = True
        self.kernel.hooks.detach(self)
        if self.heap is not None:
            # Stop monitoring: without this the watchdog's _armed dict
            # leaks an entry per armed-then-unloaded extension.
            self.kernel.watchdog.forget(self.heap)

    def revive(self) -> None:
        """Re-admit a quarantined extension (supervisor only): clear the
        dead flag, restore the terminate cell, re-attach if it was
        hook-attached at load.  The heap survived quarantine (§3.4), so
        the extension resumes over its existing data."""
        if not self.dead:
            return
        # Re-admission goes back through the compilation pipeline: the
        # program re-derives from the content-addressed cache (a warm
        # load — the verifier does not run again), and the pooled
        # engines stay valid iff the lowered artifact is unchanged
        # (the `is` check in _engine re-translates otherwise, e.g.
        # after a cache eviction produced a fresh lowering).
        self._install(
            self.runtime.pipeline.compile(
                self.program, config=self.load_config, heap=self.heap
            )
        )
        self.dead = False
        if self.heap is not None:
            self.kernel.watchdog.disarm(self.heap, self.kernel.aspace)
        if self._reattach_on_revive:
            self.kernel.hooks.attach(self)

    # -- context staging ---------------------------------------------------

    def xdp_ctx(self, payload: bytes, cpu: int = 0) -> int:
        """Stage a packet and build an xdp_md context; returns ctx addr."""
        data, data_end = self.kernel.net.stage_packet(cpu, payload)
        return self.runtime.make_ctx(cpu, [data, data_end])

    def sk_skb_ctx(self, payload: bytes, cpu: int = 0, sk_cookie: int = 0) -> int:
        data, data_end = self.kernel.net.stage_packet(cpu, payload)
        return self.runtime.make_ctx(cpu, [data, data_end, sk_cookie])

    # -- batched invocation (batched zero-copy ingress) --------------------

    def batch_invoker(self, cpu: int = 0):
        """Amortized invocation closure for one ingress batch.

        Hoists everything :meth:`invoke` repeats per call — pooled
        engine lookup, watchdog arming, pkey selection, attribute
        chasing for the stat counters — and returns
        ``run(ctx_addr) -> ret`` doing only the per-packet core: engine
        run, cost accounting, cancellation.  Per-packet semantics are
        identical to :meth:`invoke` (the cancellation path, supervisor
        escalation and allocation auditing all still run per
        invocation).  The closure is valid for one batch: callers must
        create it after checking ``dead`` and stop using it the moment
        ``dead`` flips (a mid-batch quarantine).
        """
        if self.dead:
            raise KernelPanic("batch_invoker on a dead extension")
        env = self._env(cpu)
        allocator = self.allocator if audit_enabled() else None
        if self.heap is not None and self.quantum_units is not None:
            wd = self.kernel.watchdog
            wd.quantum_units = self.quantum_units
            if self._wd_callback is None:
                self._wd_callback = wd.make_callback(self.heap, self.kernel.aspace)
            env.watchdog = self._wd_callback
        aspace = self.kernel.aspace
        pkeys = (
            {self.heap.pkey}
            if self.heap is not None and self.heap.pkey is not None
            else None
        )
        engine_run = self._engine(cpu).run
        stats = self.stats
        kernel = self.kernel
        prologue_cost = self.jprog.prologue_cost

        def run(ctx_addr: int) -> int:
            if allocator is not None:
                allocator.begin_invocation(cpu)
            if pkeys is not None:
                aspace.active_pkeys = pkeys
            result = engine_run(ctx_addr)
            if pkeys is not None:
                aspace.active_pkeys = None
            self.last_result = result
            cost = result.cost + prologue_cost
            stats.invocations += 1
            stats.total_cost_units += cost
            stats.last_cost_units = cost
            kernel.advance_units(cost)
            if result.ok:
                return result.ret
            return self._cancel(result, cpu)

        return run

    def xdp_batch_invoker(self, cpu: int = 0):
        """Batched XDP entry: ``run(payload) -> verdict``.

        Composes the amortized packet stager (slot bound once, payload
        bytes written straight into the staging backing), the amortized
        ctx writer (slot reused, only data/data_end rewritten per
        packet) and :meth:`batch_invoker`.  The staging slot is shared
        across the batch, so a caller wanting an ``XDP_TX`` reply must
        read it back before staging the next packet.
        """
        if self.dead:
            raise KernelPanic("batch_invoker on a dead extension")
        engine = self._engine(cpu)
        audit = audit_enabled()
        cached = self._batch_cache.get(cpu)
        if cached is not None and cached[0] is engine and cached[1] == audit:
            # Hot path: closures survive across batches; only the
            # watchdog quantum needs re-arming (it is a shared kernel
            # attribute another extension may have retargeted).
            if self.heap is not None and self.quantum_units is not None:
                self.kernel.watchdog.quantum_units = self.quantum_units
            return cached[2]
        stage = self.kernel.net.packet_stager(cpu)
        write_ctx = self.runtime.ctx_writer(cpu, 2)
        invoke_one = self.batch_invoker(cpu)

        def run(payload: bytes) -> int:
            data, data_end = stage(payload)
            return invoke_one(write_ctx(data, data_end))

        self._batch_cache[cpu] = (engine, audit, run)
        return run


def _copy_from_user(kernel, heap, dst: int, size: int, user_src: int) -> int:
    """bpf_copy_from_user for sleepable extensions (§4.3).

    Trusted kernel code: sanitises the destination, faults heap pages
    in, and copies from the user mapping.  A user page that can never
    arrive (unmapped source) blocks forever in the real kernel; the
    background checker the KFlex runtime keeps for sleepable extensions
    turns that into a cancellation, modelled here by raising SleepStall.
    """
    from repro.errors import PageFault, SleepStall

    size = max(0, min(int(size), heap.size))
    dst = heap.sanitize(dst)
    size = min(size, heap.base + heap.size - dst)
    if size == 0:
        return 0
    try:
        data = kernel.aspace.read_bytes(user_src, size)
    except PageFault as e:
        raise SleepStall(f"copy_from_user blocked: {e}") from None
    heap.populate(dst, size)
    kernel.aspace.write_bytes(dst, data)
    return 0


class KFlexRuntime:
    """One runtime per kernel; owns heaps and the load pipeline."""

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        engine: str | None = None,
        supervisor_policy=None,
        verify_service=None,
    ):
        self.kernel = kernel or Kernel()
        #: Default execution engine for extensions loaded by this
        #: runtime; individual loads may override.  See repro.ebpf.engine.
        self.engine = engine or default_engine()
        self.heaps: dict[int, ExtensionHeap] = {}  # fd -> heap
        self.allocators: dict[int, KflexAllocator] = {}
        self.lock_managers: dict[int, LockManager] = {}
        #: cpu -> (ctx base addr, ctx backing bytearray)
        self._ctx_slots: dict[int, tuple[int, bytearray]] = {}
        self.extensions: list[LoadedExtension] = []
        #: Fault injector threaded through engines/helpers/allocator/
        #: locks/watchdog; installed by :meth:`install_injector`.
        self.injector = None
        #: Override for ExecEnv.watchdog_period (None = keep default);
        #: chaos campaigns shorten it so short invocations still give
        #: the watchdog — and wd_fire injection — opportunities to run.
        self.watchdog_period: int | None = None
        self.supervisor = ExtensionSupervisor(self.kernel, supervisor_policy)
        self.auditor = QuiescenceAuditor(self.kernel)
        #: bpffs analog: maps pinned by path, refcounted independently
        #: of the extensions using them (repro.state).
        self.pins = PinRegistry()
        #: The staged load path (verify → instrument → lower →
        #: translate, plus the lazy codegen stage of hot engines) with
        #: its content-addressed program cache and per-stage
        #: statistics.  One per runtime: cache keys embed concrete
        #: heap/map addresses, which are only unique within one kernel
        #: address space.  ``verify_service`` routes the verify stage through a
        #: :class:`repro.verify.VerificationService` (queue + workers +
        #: differential memo); None keeps the serial in-process path.
        self.pipeline = CompilationPipeline(verify_service=verify_service)

    # -- fault injection ------------------------------------------------------

    def install_injector(self, plan_or_injector) -> "object":
        """Thread a fault plan through every injection point.

        Accepts a :class:`repro.sim.faults.FaultPlan` or a built
        :class:`~repro.sim.faults.FaultInjector`; returns the injector.
        Pass ``None`` to remove injection everywhere.
        """
        inj = plan_or_injector
        if inj is not None and hasattr(inj, "build"):
            inj = inj.build()
        self.injector = inj
        self.kernel.watchdog.injector = inj
        for allocator in self.allocators.values():
            allocator.injector = inj
        for locks in self.lock_managers.values():
            locks.injector = inj
        for ext in self.extensions:
            for env in ext._envs.values():
                env.injector = inj
        return inj

    # -- heaps ---------------------------------------------------------------

    def create_heap(
        self,
        size: int,
        name: str = "heap",
        cgroup: str | None = None,
        *,
        sfi=None,
        striped_arena=None,
    ) -> ExtensionHeap:
        cg = self.kernel.cgroups.group(cgroup) if cgroup else None
        heap = ExtensionHeap(
            self.kernel, size, name, cg, sfi=sfi, striped_arena=striped_arena
        )
        self.heaps[heap.fd] = heap
        allocator = KflexAllocator(heap, self.kernel.n_cpus)
        allocator.injector = self.injector
        self.allocators[heap.fd] = allocator
        locks = LockManager(heap, self.kernel.aspace)
        locks.injector = self.injector
        self.lock_managers[heap.fd] = locks
        return heap

    def allocator_for(self, heap: ExtensionHeap) -> KflexAllocator:
        return self.allocators[heap.fd]

    def locks_for(self, heap: ExtensionHeap) -> LockManager:
        return self.lock_managers[heap.fd]

    # -- the load pipeline (Fig. 1) -------------------------------------------

    def load(
        self,
        program: Program,
        *,
        mode: str = "kflex",
        perf_mode: bool = False,
        heap: ExtensionHeap | None = None,
        share_heap: bool = False,
        quantum_units: int | None = None,
        attach: bool = True,
        cgroup: str | None = None,
        elision: bool = True,
        cancel_scope: str = "global",
        engine: str | None = None,
        profile: str | None = None,
    ) -> LoadedExtension:
        """Verify, instrument, lower and (optionally) attach a program.

        ``profile`` selects a named verifier profile
        (:mod:`repro.verify.profiles`); its resolved settings replace
        the per-knob arguments (``mode`` / ``perf_mode`` / ``elision``)
        entirely — only ``translate_on_store`` still follows the
        heap-sharing decision, which is a placement choice, not policy.
        """
        if profile is not None:
            from repro.verify.profiles import profile_config

            config = profile_config(
                profile, translate_on_store=share_heap
            )
        else:
            config = VerifierConfig(
                mode=mode,
                perf_mode=perf_mode,
                translate_on_store=share_heap,
                elision=elision,
            )
        if program.heap_size is not None and heap is None:
            heap = self.create_heap(
                program.heap_size, name=program.name, cgroup=cgroup
            )
        if heap is not None and config.mode == "ebpf":
            raise LoadError("eBPF mode cannot use extension heaps")
        if share_heap:
            if heap is None:
                raise LoadError("share_heap requires an extension heap")
            heap.map_user()

        lowered = self.pipeline.compile(program, config=config, heap=heap)

        helpers = HelperTable()
        bind_standard_helpers(helpers, self.kernel)
        allocator = locks = None
        if heap is not None:
            allocator, locks = self._bind_heap_helpers(helpers, heap)

        ext = LoadedExtension(
            self,
            program,
            lowered,
            heap,
            allocator,
            locks,
            helpers,
            quantum_units=quantum_units,
            cancel_scope=cancel_scope,
            engine=engine,
        )
        self.extensions.append(ext)
        if attach:
            self.kernel.hooks.attach(ext)
            ext._reattach_on_revive = True
        return ext

    def _bind_heap_helpers(
        self, helpers: HelperTable, heap: ExtensionHeap, *,
        copy_from_user: bool = True,
    ) -> tuple[KflexAllocator, LockManager]:
        """Bind the KFlex heap helper family (malloc/free/locks) for one
        heap; returns the heap's ``(allocator, lock manager)``.

        ``copy_from_user=False`` is the KMod baseline: that helper
        models KFlex's *checked* sleepable copy — destination
        sanitisation, demand population, and the background checker
        that turns an unmappable user page into a cancellation (§4.3).
        An unsafe kernel module has none of that machinery; it
        dereferences user memory directly (modelled by plain
        loads/stores).  Its absence from the kmod path is intentional,
        not an oversight.
        """
        allocator = self.allocators[heap.fd]
        locks = self.lock_managers[heap.fd]
        helpers.bind(
            KFLEX_MALLOC, lambda env, size, a=allocator: a.malloc(size, env.cpu)
        )
        helpers.bind(
            KFLEX_FREE,
            lambda env, ptr, a=allocator: (a.free(ptr, env.cpu), 0)[1],
        )
        helpers.bind(
            KFLEX_SPIN_LOCK,
            lambda env, addr, l=locks: (l.ext_lock(addr, env.cpu), 0)[1],
        )
        helpers.bind(
            KFLEX_SPIN_UNLOCK,
            lambda env, addr, l=locks: (l.ext_unlock(addr, env.cpu), 0)[1],
        )
        if copy_from_user:
            helpers.bind(
                BPF_COPY_FROM_USER,
                lambda env, dst, size, src, h=heap: _copy_from_user(
                    self.kernel, h, dst, size, src
                ),
            )
        return allocator, locks

    def load_kmod(
        self,
        program: Program,
        *,
        heap: ExtensionHeap | None = None,
        attach: bool = False,
        engine: str | None = None,
    ) -> LoadedExtension:
        """Load the same bytecode as an *unsafe kernel module* (§5.2's
        KMod baseline): no verification, no instrumentation, no
        watchdog.  Represents the maximum achievable performance; the
        difference to a KFlex load of the same program is exactly the
        safety overhead Fig. 5 measures.
        """
        if program.heap_size is not None and heap is None:
            heap = self.create_heap(program.heap_size, name=program.name)
        # config=None selects the pipeline's unverified flavour: the
        # verify pass admits everything, Kie degrades to the identity
        # (relocation-only) instrumentation, and lowering charges no
        # heap prologue — see repro.ebpf.pipeline.
        lowered = self.pipeline.compile(program, config=None, heap=heap)
        helpers = HelperTable()
        bind_standard_helpers(helpers, self.kernel)
        allocator = locks = None
        if heap is not None:
            allocator, locks = self._bind_heap_helpers(
                helpers, heap, copy_from_user=False
            )
        ext = LoadedExtension(
            self, program, lowered, heap, allocator, locks, helpers,
            quantum_units=None, engine=engine,
        )
        # Unsafe module: no SFI containment check either.
        ext._allowed_prefixes = None
        self.extensions.append(ext)
        if attach:
            self.kernel.hooks.attach(ext)
        return ext

    # -- durable state ----------------------------------------------------------

    def pin_map(self, path: str, m, store=None) -> None:
        """Pin a map by path (bpffs analog) and, when a
        :class:`repro.state.store.DurableStore` is given, start
        journaling its mutations for crash recovery."""
        self.pins.pin(path, m)
        if store is not None:
            store.attach(path, m)

    def recover(self, store, *, programs=None):
        """Rebuild pinned maps, reload programs, re-attach hooks and
        audit quiescence after a crash — see
        :func:`repro.state.recovery.recover_runtime`."""
        from repro.state.recovery import recover_runtime

        return recover_runtime(self, store, programs=programs)

    # -- quiescence ------------------------------------------------------------

    def quiescence_report(self) -> dict:
        """Snapshot of extension-held kernel resources — all zero when
        no extension is mid-flight.

        The network datapath's graceful drain calls this after the last
        in-flight invocation completes: every cancellation already ran
        the unwinder, so a non-zero entry here means a request was
        dropped mid-extension instead of being quiesced (§3.3).
        """
        return {
            "sock_refs": self.kernel.net.total_extension_refs(),
            "held_locks": sum(
                len(lm.held_ext_locks()) for lm in self.lock_managers.values()
            ),
            "live_extensions": sum(1 for e in self.extensions if not e.dead),
        }

    # -- hook context staging ---------------------------------------------------

    def make_ctx(self, cpu: int, fields: list[int]) -> int:
        """Write a flat 8-byte-per-field context into the CPU's ctx slot."""
        slot = self._ctx_slots.get(cpu)
        if slot is None:
            base = CTX_REGION_BASE + cpu * CTX_SLOT_SIZE
            region = self.kernel.aspace.map_region(
                base, CTX_SLOT_SIZE, f"kernel:ctx{cpu}"
            )
            # The slot is kernel-staged (fully populated, trusted
            # writer): cache the backing and skip the paged path on the
            # per-invocation hot path.
            slot = (base, region.backing.data)
            self._ctx_slots[cpu] = slot
        base, data = slot
        packer = _CTX_PACKERS.get(len(fields))
        if packer is None:
            packer = _CTX_PACKERS[len(fields)] = struct.Struct(f"<{len(fields)}Q")
        try:
            blob = packer.pack(*fields)
        except struct.error:  # out-of-range value: mask like write_int did
            mask = (1 << 64) - 1
            blob = packer.pack(*((v & mask) for v in fields))
        data[0 : len(blob)] = blob
        return base

    def ctx_writer(self, cpu: int, n_fields: int):
        """Amortized :meth:`make_ctx` for batched ingress.

        Resolves the CPU's ctx slot and the field packer once and
        returns ``write(*fields) -> ctx_addr``: per packet only the
        field u64s themselves are rewritten in place (for an xdp_md
        that is data/data_end — the slot address and layout never
        change across a batch).  Callers pass in-range values; the
        staged fields come from the kernel's own staging slots.
        """
        slot = self._ctx_slots.get(cpu)
        if slot is None:
            self.make_ctx(cpu, [0] * n_fields)  # map + cache the slot
            slot = self._ctx_slots[cpu]
        base, data = slot
        packer = _CTX_PACKERS.get(n_fields)
        if packer is None:
            packer = _CTX_PACKERS[n_fields] = struct.Struct(f"<{n_fields}Q")
        pack_into = packer.pack_into

        def write(*fields) -> int:
            pack_into(data, 0, *fields)
            return base

        return write
