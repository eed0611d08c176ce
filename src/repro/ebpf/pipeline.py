"""Staged compilation pipeline: the Fig. 1 load path as explicit passes.

Historically ``KFlexRuntime.load`` ran verify → instrument → lower as an
inline monolith, with the threaded-engine translation bolted onto the
extension afterwards.  This module restructures the load path the way
Rex (arXiv:2502.18832) and BeePL (arXiv:2507.09883) argue extension
tooling should be built — as explicit, composable compilation stages
over typed, immutable artifacts:

    RawProgram → VerifiedProgram → InstrumentedProgram
               → LoweredProgram  → TranslatedProgram

* :class:`RawProgram` — the submitted bytecode plus everything the
  pipeline's behaviour depends on (verifier configuration, concrete
  heap) and a content digest of the bytecode.
* :class:`VerifiedProgram` — adds the verifier's
  :class:`~repro.ebpf.verifier.Analysis` (``None`` for unverified KMod
  loads; the pipeline models them as a verification pass that admits
  everything and learns nothing).
* :class:`InstrumentedProgram` — wraps Kie's output (guards,
  cancellation points, relocations, spills).  Unverified loads get the
  *identity* instrumentation via :func:`repro.core.kie.uninstrumented`,
  so no caller ever fabricates a stage output by hand.
* :class:`LoweredProgram` — wraps the JIT's cost-assigned
  :class:`~repro.ebpf.jit.JitProgram`.
* :class:`TranslatedProgram` — one engine instance bound to one
  ``ExecEnv`` (per CPU).  Translation closes over the environment, so
  unlike the earlier stages it is pooled per extension, not shared in
  the content-addressed cache.

A :class:`PassManager` runs registered :class:`Pass` objects in order.
Passes are pluggable: future optimisation stages (guard coalescing,
dead-store elimination) register between ``instrument`` and ``lower``
with :meth:`PassManager.register` and see exactly the artifacts the
built-in stages see.

On top sits the :class:`ProgramCache`, a content-addressed memo of
per-stage payloads:

* ``verify`` is keyed by ``(bytecode digest, VerifierConfig fields,
  heap size)`` — the analysis depends only on heap *geometry*, so it is
  shared across heap instances of the same size.
* ``instrument`` and ``lower`` additionally key on the concrete heap
  base, because relocation burns absolute heap/map addresses into the
  bytecode.
* ``codegen`` (the execution engine's compiled tier, filled lazily by
  engines that turn hot, never at load) keys on the lowered program's
  placement plus the SMAP flag.

Any difference in elision, mode, perf mode, or heap size therefore
lands on a different key — stale artifacts can never be served.  The
cache is bounded (LRU) and counts hits/misses/evictions per stage;
:class:`PipelineStats` adds per-stage wall-clock timings
(:class:`repro.sim.metrics.StageStats`).  ``kflexctl stats`` and
``benchmarks/bench_load_path.py`` surface both.
"""

from __future__ import annotations

import hashlib
import struct
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields as dataclass_fields

from repro.errors import LoadError
from repro.ebpf import isa, jit
from repro.ebpf.engine import CompiledProgram, TierStats, compile_program, make_engine
from repro.ebpf.program import Program
from repro.ebpf.verifier import Analysis, Verifier, VerifierConfig
from repro.sim.metrics import StageStats

# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


def program_digest(program: Program) -> str:
    """Content digest of everything verification reads from a program:
    the encoded bytecode, the hook (context layout and default return),
    sleepability, and the geometry of every referenced map (relocation
    bakes map bases into the instructions)."""
    h = hashlib.sha256()
    h.update(isa.encode(program.insns))
    h.update(program.hook.encode())
    h.update(b"\x01" if program.sleepable else b"\x00")
    for fd in sorted(program.maps):
        m = program.maps[fd]
        h.update(struct.pack("<qQQ", fd, m.region.base, m.region.size))
    return h.hexdigest()


def config_key(config: VerifierConfig | None) -> tuple:
    """Every VerifierConfig field, by name — a new knob automatically
    becomes part of the cache key, so adding one can never cause a
    stale hit.  ``None`` marks the unverified (KMod) load flavour."""
    if config is None:
        return ("unverified",)
    return tuple(
        (f.name, getattr(config, f.name)) for f in dataclass_fields(config)
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawProgram:
    """Stage 0: the submitted program plus the load parameters that
    determine every downstream artifact."""

    program: Program
    #: ``None`` = unverified load (the §5.2 KMod baseline).
    config: VerifierConfig | None
    #: Concrete extension heap (geometry *and* base address), or None.
    heap: object | None
    digest: str

    @property
    def heap_size(self) -> int | None:
        if self.heap is not None:
            return self.heap.size
        return self.program.heap_size

    def verify_key(self) -> tuple:
        """Cache key for heap-geometry-dependent stages (verification
        reads the heap size, never its base address)."""
        return (self.digest, config_key(self.config), self.heap_size)

    def placement_key(self) -> tuple:
        """Cache key for stages that bake concrete addresses in
        (relocation: heap base, map bases via the digest)."""
        heap_at = None if self.heap is None else (self.heap.base, self.heap.size)
        return self.verify_key() + (heap_at,)


@dataclass(frozen=True)
class VerifiedProgram:
    """Stage 1 output: the raw program plus the verifier's analysis
    (``None`` when the load flavour skips verification)."""

    raw: RawProgram
    analysis: Analysis | None

    @property
    def verified(self) -> bool:
        return self.analysis is not None


@dataclass(frozen=True)
class InstrumentedProgram:
    """Stage 2 output: wraps Kie's instrumented program (``kprog``)."""

    source: VerifiedProgram
    #: :class:`repro.core.kie.InstrumentedProgram`.
    kprog: object

    @property
    def raw(self) -> RawProgram:
        return self.source.raw


@dataclass(frozen=True)
class LoweredProgram:
    """Stage 3 output: wraps the JIT's cost-assigned program."""

    instrumented: InstrumentedProgram
    #: :class:`repro.ebpf.jit.JitProgram`.
    jprog: jit.JitProgram

    @property
    def raw(self) -> RawProgram:
        return self.instrumented.raw

    @property
    def kprog(self):
        return self.instrumented.kprog

    @property
    def analysis(self) -> Analysis | None:
        return self.instrumented.source.analysis


@dataclass(frozen=True)
class TranslatedProgram:
    """Stage 4 output: one engine bound to one ExecEnv.  Pooled per
    (extension, CPU) — the closures close over the environment, so this
    artifact is never shared through the content-addressed cache."""

    lowered: LoweredProgram
    engine_name: str
    cpu: int
    engine: object


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: stage name -> {"hits": n, "misses": n}
    by_stage: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "by_stage": {k: dict(v) for k, v in self.by_stage.items()},
        }


class ProgramCache:
    """Bounded (LRU) content-addressed cache of per-stage payloads.

    Entries are keyed by ``(stage name, stage cache key)``; the values
    are the stage *payloads* (an ``Analysis``, a Kie program, a
    ``JitProgram``) rather than whole artifacts, so a hit is re-wrapped
    around the caller's own upstream artifact — a cached analysis never
    smuggles a previous load's heap object along with it.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise LoadError(f"ProgramCache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _stage_stats(self, stage: str) -> dict:
        return self.stats.by_stage.setdefault(stage, {"hits": 0, "misses": 0})

    def get(self, stage: str, key: tuple):
        k = (stage, key)
        payload = self._entries.get(k)
        st = self._stage_stats(stage)
        if payload is None:
            self.stats.misses += 1
            st["misses"] += 1
            return None
        self._entries.move_to_end(k)
        self.stats.hits += 1
        st["hits"] += 1
        return payload

    def peek(self, stage: str, key: tuple):
        """Like :meth:`get`, but a miss is not counted (a caller probing
        for work someone else already did)."""
        payload = self._entries.get((stage, key))
        return None if payload is None else self.get(stage, key)

    def put(self, stage: str, key: tuple, payload) -> None:
        k = (stage, key)
        self._entries[k] = payload
        self._entries.move_to_end(k)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, *, digest: str | None = None,
                   stage: str | None = None) -> int:
        """Explicitly drop entries by program digest and/or stage;
        returns the number removed.  (Key mismatch already guarantees
        correctness — this exists for memory reclamation, e.g. when a
        program is retired for good.)"""
        doomed = [
            k for k in self._entries
            if (stage is None or k[0] == stage)
            and (digest is None or k[1][0] == digest)
        ]
        for k in doomed:
            del self._entries[k]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Pass:
    """One pipeline stage.

    Subclasses implement :meth:`run` (artifact in, artifact out).  A
    cacheable pass also implements :meth:`cache_key` (returning a
    content-address for its input; ``None`` disables caching),
    :meth:`payload` (what to store on a miss) and :meth:`rebuild`
    (re-wrap a cached payload around the *current* input artifact).
    """

    name = "?"

    def cache_key(self, art) -> tuple | None:
        return None

    def run(self, art):
        raise NotImplementedError

    def payload(self, out):
        return out

    def rebuild(self, art, payload):
        return payload

    def consume_subtimings(self) -> dict | None:
        """Wall-clock split of the last :meth:`run`, or None.  A pass
        that reports one returns ``{sub-stage: ns}`` exactly once per
        run (the manager records them as ``"name:sub"`` stages)."""
        return None


class VerifyPass(Pass):
    """Fig. 1 step 1: the eBPF verifier.  The single most expensive
    stage — and the one whose result depends only on bytecode, config
    and heap geometry, so it caches across heap instances.

    With a :class:`repro.verify.VerificationService` plugged in, jobs
    go through its queue/worker pool (and per-worker differential
    memos); without one, the pass runs the verifier inline — the serial
    fallback.  Either way the analysis is bit-identical and the
    queue-wait / region-explore / merge split is reported via
    :meth:`consume_subtimings`.
    """

    name = "verify"

    def __init__(self, service=None):
        #: Optional :class:`repro.verify.VerificationService`.
        self.service = service
        self._subtimings: dict | None = None

    def cache_key(self, art: RawProgram) -> tuple:
        return art.verify_key()

    def run(self, art: RawProgram) -> VerifiedProgram:
        if art.config is None:
            # Unverified flavour (KMod baseline §5.2): admit everything,
            # learn nothing.  Downstream stages see analysis=None.
            return VerifiedProgram(art, None)
        if self.service is not None:
            analysis, timings = self.service.verify_timed(
                art.program, art.config, art.heap_size
            )
            self._subtimings = timings
        else:
            v = Verifier(art.program, art.config, heap_size=art.heap_size)
            analysis = v.verify()
            self._subtimings = {
                "queue": 0.0,
                "explore": v.timings["explore_ns"],
                "merge": v.timings["merge_ns"],
            }
        return VerifiedProgram(art, analysis)

    def payload(self, out: VerifiedProgram):
        return (out.analysis,)  # tuple: a cached None is not a miss

    def rebuild(self, art: RawProgram, payload) -> VerifiedProgram:
        return VerifiedProgram(art, payload[0])

    def consume_subtimings(self) -> dict | None:
        sub, self._subtimings = self._subtimings, None
        return sub


class InstrumentPass(Pass):
    """Fig. 1 step 2: Kie.  Relocation bakes heap/map base addresses
    into the bytecode, so the key includes concrete placement."""

    name = "instrument"

    def cache_key(self, art: VerifiedProgram) -> tuple:
        return art.raw.placement_key()

    def run(self, art: VerifiedProgram) -> InstrumentedProgram:
        from repro.core import kie

        if art.analysis is None:
            kprog = kie.uninstrumented(art.raw.program, heap=art.raw.heap)
        else:
            kprog = kie.instrument(
                art.raw.program, art.analysis, heap=art.raw.heap
            )
        return InstrumentedProgram(art, kprog)

    def payload(self, out: InstrumentedProgram):
        return out.kprog

    def rebuild(self, art: VerifiedProgram, payload) -> InstrumentedProgram:
        return InstrumentedProgram(art, payload)


class LowerPass(Pass):
    """Fig. 1 step 3: JIT lowering (validation + native costs)."""

    name = "lower"

    def cache_key(self, art: InstrumentedProgram) -> tuple:
        return art.raw.placement_key()

    def run(self, art: InstrumentedProgram) -> LoweredProgram:
        # Unverified loads never pay the heap prologue: an unsafe
        # module reserves no mask/base registers (R9/R12, §4.2).
        uses_heap = art.kprog.uses_heap and art.source.verified
        jprog = jit.lower(art.kprog.insns, uses_heap=uses_heap, from_kie=True)
        return LoweredProgram(art, jprog)

    def payload(self, out: LoweredProgram):
        return out.jprog

    def rebuild(self, art: InstrumentedProgram, payload) -> LoweredProgram:
        return LoweredProgram(art, payload)


# ---------------------------------------------------------------------------
# Pass manager
# ---------------------------------------------------------------------------


class PassManager:
    """Runs registered passes in order, with per-stage caching and
    timing.  ``register`` splices new passes anywhere in the sequence —
    the seam future optimisation passes plug into."""

    def __init__(self, passes=None):
        self._passes: list[Pass] = list(
            passes if passes is not None else default_passes()
        )

    @property
    def names(self) -> list[str]:
        return [p.name for p in self._passes]

    def _index_of(self, name: str) -> int:
        for i, p in enumerate(self._passes):
            if p.name == name:
                return i
        raise LoadError(f"no pipeline pass named {name!r} (have: {self.names})")

    def register(self, p: Pass, *, before: str | None = None,
                 after: str | None = None) -> None:
        """Insert a pass.  Exactly one of ``before``/``after`` names an
        existing stage; with neither, the pass is appended."""
        if before is not None and after is not None:
            raise LoadError("register() takes before= or after=, not both")
        if any(q.name == p.name for q in self._passes):
            raise LoadError(f"pipeline pass {p.name!r} already registered")
        if before is not None:
            self._passes.insert(self._index_of(before), p)
        elif after is not None:
            self._passes.insert(self._index_of(after) + 1, p)
        else:
            self._passes.append(p)

    def replace(self, name: str, p: Pass) -> Pass:
        """Swap a stage implementation; returns the displaced pass."""
        i = self._index_of(name)
        old, self._passes[i] = self._passes[i], p
        return old

    def remove(self, name: str) -> Pass:
        i = self._index_of(name)
        return self._passes.pop(i)

    def run(self, art, *, cache: ProgramCache | None = None,
            stats: "PipelineStats | None" = None):
        for p in self._passes:
            t0 = time.perf_counter_ns()
            key = p.cache_key(art) if cache is not None else None
            payload = cache.get(p.name, key) if key is not None else None
            if payload is None:
                out = p.run(art)
                if key is not None:
                    cache.put(p.name, key, p.payload(out))
            else:
                out = p.rebuild(art, payload)
            sub = p.consume_subtimings()  # always drain, even w/o stats
            if stats is not None:
                stats.record_stage(
                    p.name, time.perf_counter_ns() - t0,
                    cached=payload is not None,
                )
                if sub:
                    for sub_name, ns in sub.items():
                        stats.record_stage(f"{p.name}:{sub_name}", ns)
            art = out
        return art


def default_passes() -> list[Pass]:
    return [VerifyPass(), InstrumentPass(), LowerPass()]


# ---------------------------------------------------------------------------
# Pipeline statistics
# ---------------------------------------------------------------------------


@dataclass
class PipelineStats:
    """Per-runtime pipeline accounting, surfaced by ``kflexctl stats``."""

    loads: int = 0
    #: Loads whose every cacheable stage hit (no verifier run at all).
    warm_loads: int = 0
    #: stage name -> StageStats (wall-clock, runs, cached-hit counts).
    stages: dict = field(default_factory=dict)
    #: Engine translations actually performed (cold per extension/CPU).
    translations: int = 0
    #: Invocations served by an already-translated pooled engine.
    pool_hits: int = 0
    #: Compiled-tier counters of every engine this pipeline translated.
    tier: TierStats = field(default_factory=TierStats)

    def record_stage(self, name: str, ns: float, *, cached: bool = False) -> None:
        st = self.stages.get(name)
        if st is None:
            st = self.stages[name] = StageStats()
        st.record(ns, cached=cached)

    def as_dict(self) -> dict:
        return {
            "loads": self.loads,
            "warm_loads": self.warm_loads,
            "translations": self.translations,
            "pool_hits": self.pool_hits,
            "tier": asdict(self.tier),
            "stages": {k: v.as_dict() for k, v in self.stages.items()},
        }


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


class CompilationPipeline:
    """One per :class:`~repro.core.runtime.KFlexRuntime`: owns the pass
    sequence, the content-addressed cache, and the statistics."""

    def __init__(self, *, cache: ProgramCache | None = None,
                 passes: PassManager | None = None,
                 verify_service=None):
        self.cache = cache if cache is not None else ProgramCache()
        self.passes = passes if passes is not None else PassManager()
        self.verify_service = verify_service
        if verify_service is not None:
            self.passes.replace("verify", VerifyPass(verify_service))
        self.stats = PipelineStats()

    # -- load-path stages -------------------------------------------------

    def compile(self, program: Program, *, config: VerifierConfig | None,
                heap=None) -> LoweredProgram:
        """Run the registered stages over a program; ``config=None``
        selects the unverified (KMod) flavour."""
        raw = RawProgram(program, config, heap, program_digest(program))
        misses_before = self.cache.stats.misses
        lowered = self.passes.run(raw, cache=self.cache, stats=self.stats)
        self.stats.loads += 1
        if self.cache.stats.misses == misses_before:
            self.stats.warm_loads += 1
        return lowered

    def seed_verify(self, program: Program, config: VerifierConfig,
                    analysis: Analysis, heap=None) -> None:
        """Pre-warm the verify stage with an analysis produced
        elsewhere (a batch pre-verification through the service): the
        next :meth:`compile` of the same (bytecode, config, heap
        geometry) hits the cache and skips the verifier entirely."""
        raw = RawProgram(program, config, heap, program_digest(program))
        self.cache.put("verify", raw.verify_key(), (analysis,))

    def translate(self, lowered: LoweredProgram, engine_name: str, env,
                  cpu: int = 0) -> TranslatedProgram:
        """Stage 4: bind an engine to one ExecEnv.  Not content-cached
        (the result closes over the environment); extensions pool the
        result per CPU and report reuse via ``stats.pool_hits``."""
        t0 = time.perf_counter_ns()
        engine = make_engine(
            engine_name,
            lowered.jprog.insns,
            env,
            costs=lowered.jprog.costs,
            helper_costs=lowered.jprog.helper_costs,
            codegen=lambda smap, compile: self.codegen(
                lowered, smap, compile=compile
            ),
            tier_stats=self.stats.tier,
        )
        self.stats.record_stage("translate", time.perf_counter_ns() - t0)
        self.stats.translations += 1
        return TranslatedProgram(lowered, engine_name, cpu, engine)

    def codegen(self, lowered: LoweredProgram, smap: bool, *,
                compile: bool = True) -> CompiledProgram | None:
        """The compiled tier's code for a lowered program, generated at
        most once per (placement, SMAP flag) and shared by every engine
        bound to it.  Engines call this lazily when they turn hot (never
        at load); ``compile=False`` only returns existing code."""
        t0 = time.perf_counter_ns()
        key = lowered.raw.placement_key() + (("smap", bool(smap)),)
        code = (self.cache.get if compile else self.cache.peek)("codegen", key)
        hit = code is not None
        if not hit:
            if not compile:
                return None
            heap = lowered.raw.heap
            jprog = lowered.jprog
            code = compile_program(
                jprog.insns, jprog.costs, jprog.helper_costs, smap=smap,
                heap_span=None if heap is None else (heap.base, heap.size),
            )
            self.cache.put("codegen", key, code)
        self.stats.record_stage(
            "codegen", time.perf_counter_ns() - t0, cached=hit
        )
        return code

    # -- reporting --------------------------------------------------------

    def stats_dict(self) -> dict:
        d = self.stats.as_dict()
        d["cache"] = self.cache.stats.as_dict()
        d["cache"]["entries"] = len(self.cache)
        return d

    def format_stats(self) -> str:
        s = self.stats
        lines = [
            f"compilation pipeline: {s.loads} loads ({s.warm_loads} warm), "
            f"{s.translations} translations, {s.pool_hits} pool reuses",
            f"  {'stage':<12s} {'runs':>5s} {'cached':>7s} "
            f"{'total':>10s} {'mean':>10s} {'max':>10s}",
        ]
        order = []
        for n in self.passes.names:
            if n in s.stages:
                order.append(n)
            # Sub-stages ("verify:explore") sit under their parent.
            order += [k for k in s.stages if k.startswith(f"{n}:")]
        order += [n for n in s.stages if n not in order]
        for name in order:
            st = s.stages[name]
            lines.append(
                f"  {name:<12s} {st.runs:>5d} {st.cached:>7d} "
                f"{st.total_ns / 1e6:>8.2f}ms {st.mean_ns / 1e6:>8.3f}ms "
                f"{st.max_ns / 1e6:>8.2f}ms"
            )
        t = s.tier
        lines.append(
            f"compiled tier: {t.tier_ups} tier-ups, {t.deopts} checkpoint "
            f"deopts, {t.fallback_sites} generic-path sites"
        )
        c = self.cache.stats
        lines.append(
            f"cache: {len(self.cache)} entries, {c.hits} hits, "
            f"{c.misses} misses, {c.evictions} evictions"
        )
        for stage, row in c.by_stage.items():
            lines.append(
                f"  {stage:<12s} {row['hits']} hits / {row['misses']} misses"
            )
        return "\n".join(lines)
