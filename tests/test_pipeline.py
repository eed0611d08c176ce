"""The staged compilation pipeline: artifacts, cache, pass manager.

Correctness of the content-addressed program cache is the load-bearing
property: a *stale hit* (serving an analysis or lowering produced under
different verifier settings or heap geometry) would silently disable
safety instrumentation.  These tests pin the key structure — same
digest with differing VerifierConfig or heap size must miss; same
geometry must hit and share the expensive artifacts by identity — plus
the PassManager plug-in seams and the supervisor's warm re-admission
accounting.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.runtime import KFlexRuntime
from repro.core.supervisor import QuarantinePolicy
from repro.errors import LoadError
from repro.ebpf.isa import Reg
from repro.ebpf.macroasm import MacroAsm
from repro.ebpf.pipeline import (
    CompilationPipeline,
    LoweredProgram,
    Pass,
    PassManager,
    ProgramCache,
    RawProgram,
    config_key,
    program_digest,
)
from repro.ebpf.program import Program
from repro.ebpf.verifier import VerifierConfig

R = Reg
HEAP = 1 << 16


def make_program(name="pipe", *, ret=7, walk=True, heap_size=HEAP):
    """A small heap-touching program (one unbounded walk => the verifier
    produces a non-trivial analysis with a cancellation point)."""
    m = MacroAsm()
    m.heap_addr(R.R6, 0x40)
    m.ldx(R.R7, R.R6)
    if walk:
        with m.while_("!=", R.R7, 0):
            m.ldx(R.R7, R.R7, 8)
    m.mov(R.R0, ret)
    m.exit()
    return Program(name, m.assemble(), hook="bench", heap_size=heap_size)


def verify_stage(rt):
    return rt.pipeline.cache.stats.by_stage.get(
        "verify", {"hits": 0, "misses": 0}
    )


# -- content addressing -------------------------------------------------------


def test_digest_is_content_addressed():
    assert program_digest(make_program()) == program_digest(make_program())
    assert program_digest(make_program()) != program_digest(
        make_program(ret=8)
    )
    # The hook changes context layout and default return: part of content.
    a = make_program()
    b = Program(a.name, list(a.insns), hook="xdp", heap_size=a.heap_size)
    assert program_digest(a) != program_digest(b)


def test_config_key_covers_every_field():
    base = VerifierConfig()
    assert config_key(None) == ("unverified",)
    assert config_key(base) == config_key(VerifierConfig())
    for f in dataclasses.fields(VerifierConfig):
        bumped = dataclasses.replace(
            base,
            **{f.name: not getattr(base, f.name)
               if isinstance(getattr(base, f.name), bool)
               else (getattr(base, f.name) or 0) + 1
               if isinstance(getattr(base, f.name), int)
               else "other"},
        )
        assert config_key(bumped) != config_key(base), \
            f"field {f.name} missing from the cache key"


# -- warm loads share artifacts ----------------------------------------------


def test_second_load_is_warm_and_shares_artifacts():
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="pipe")
    prog = make_program()
    e1 = rt.load(prog, heap=heap, attach=False)
    e2 = rt.load(prog, heap=heap, attach=False)
    assert rt.pipeline.stats.loads == 2
    assert rt.pipeline.stats.warm_loads == 1
    # The expensive artifacts are the very same objects.
    assert e2.iprog is e1.iprog
    assert e2.jprog is e1.jprog
    assert e2.iprog.analysis is e1.iprog.analysis
    # ...and the programs still run.
    assert e2.invoke(rt.make_ctx(0, [0] * 8)) == 7


def test_differing_verifier_config_misses():
    """Same bytecode digest, different VerifierConfig => verify miss."""
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="pipe")
    prog = make_program()
    e1 = rt.load(prog, heap=heap, attach=False)
    e2 = rt.load(prog, heap=heap, attach=False, perf_mode=True)
    e3 = rt.load(prog, heap=heap, attach=False, elision=False)
    assert rt.pipeline.stats.warm_loads == 0
    assert verify_stage(rt) == {"hits": 0, "misses": 3}
    assert e2.iprog.analysis is not e1.iprog.analysis
    assert e3.iprog.analysis is not e1.iprog.analysis
    # The distinct configs produce observably different instrumentation.
    assert e3.iprog.stats.guards_emitted > e1.iprog.stats.guards_emitted


def test_differing_profile_misses():
    """The profile name is part of the config key: the same bytecode
    verified under two profiles yields two cached analyses, and neither
    collides with the profile-less default config."""
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="pipe")
    prog = make_program()
    e1 = rt.load(prog, heap=heap, attach=False, profile="default")
    e2 = rt.load(prog, heap=heap, attach=False, profile="strict")
    e3 = rt.load(prog, heap=heap, attach=False)  # no profile at all
    assert rt.pipeline.stats.warm_loads == 0
    assert verify_stage(rt) == {"hits": 0, "misses": 3}
    assert e2.iprog.analysis is not e1.iprog.analysis
    assert e3.iprog.analysis is not e1.iprog.analysis


def test_same_profile_hits_across_loads():
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="pipe")
    prog = make_program()
    rt.load(prog, heap=heap, attach=False, profile="fast-rollout")
    rt.load(prog, heap=heap, attach=False, profile="fast-rollout")
    assert rt.pipeline.stats.warm_loads == 1


def test_profile_is_in_the_config_key():
    from repro.verify import profile_config

    base = config_key(VerifierConfig())
    tagged = config_key(profile_config("default"))
    assert base != tagged
    assert ("profile", "default") in tagged


def test_same_heap_size_shares_analysis_not_placement():
    """Verification depends on heap geometry only, so a second heap of
    the same size hits; instrument/lower bake the heap base, so they
    miss and produce distinct relocated artifacts."""
    rt = KFlexRuntime()
    prog = make_program()
    h1 = rt.create_heap(HEAP, name="a")
    h2 = rt.create_heap(HEAP, name="b")
    e1 = rt.load(prog, heap=h1, attach=False)
    e2 = rt.load(prog, heap=h2, attach=False)
    assert verify_stage(rt) == {"hits": 1, "misses": 1}
    assert e2.iprog.analysis is e1.iprog.analysis  # shared by identity
    assert e2.iprog is not e1.iprog  # different relocation
    assert e2.jprog is not e1.jprog
    assert rt.pipeline.stats.warm_loads == 0  # instrument/lower missed


def test_differing_heap_size_misses_verify():
    rt = KFlexRuntime()
    prog = make_program()
    e1 = rt.load(prog, heap=rt.create_heap(HEAP, name="a"), attach=False)
    e2 = rt.load(prog, heap=rt.create_heap(HEAP * 2, name="b"), attach=False)
    assert verify_stage(rt) == {"hits": 0, "misses": 2}
    assert e2.iprog.analysis is not e1.iprog.analysis


# -- the unverified (KMod) flavour -------------------------------------------


def test_kmod_load_is_a_proper_uninstrumented_artifact():
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="kmod")
    ext = rt.load_kmod(make_program(walk=False), heap=heap)
    assert ext.load_config is None
    assert ext.iprog.analysis is None
    assert ext.iprog.object_tables == {}
    assert ext.iprog.stats.guards_emitted == 0
    assert ext.iprog.stats.cancel_points == 0
    # No R9/R12 heap prologue for an unsafe module (§4.2 cost model).
    assert ext.jprog.prologue_cost == 0
    assert ext.invoke(rt.make_ctx(0, [0] * 8)) == 7


def test_kmod_and_kflex_never_share_cache_entries():
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="kmod")
    prog = make_program(walk=False)
    safe = rt.load(prog, heap=heap, attach=False)
    kmod = rt.load_kmod(prog, heap=heap)
    assert rt.pipeline.stats.warm_loads == 0  # ("unverified",) != config
    assert kmod.iprog is not safe.iprog
    assert safe.iprog.analysis is not None and kmod.iprog.analysis is None
    # A *second* kmod load of the same program is warm.
    again = rt.load_kmod(prog, heap=heap)
    assert rt.pipeline.stats.warm_loads == 1
    assert again.iprog is kmod.iprog


# -- artifacts are immutable --------------------------------------------------


def test_artifacts_are_frozen():
    prog = make_program()
    raw = RawProgram(prog, VerifierConfig(), None, program_digest(prog))
    with pytest.raises(dataclasses.FrozenInstanceError):
        raw.config = None
    m = MacroAsm()
    m.mov(R.R0, 0)
    m.exit()
    heapless = Program("flat", m.assemble(), hook="bench")
    pipe = CompilationPipeline()
    lowered = pipe.compile(heapless, config=VerifierConfig(), heap=None)
    assert isinstance(lowered, LoweredProgram)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lowered.jprog = None
    code = pipe.codegen(lowered, smap=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.heads = frozenset()
    assert lowered.raw.verify_key() != lowered.raw.placement_key()


# -- the cache itself ---------------------------------------------------------


def test_cache_is_lru_bounded():
    c = ProgramCache(capacity=2)
    c.put("verify", ("a",), 1)
    c.put("verify", ("b",), 2)
    assert c.get("verify", ("a",)) == 1  # refresh "a"
    c.put("verify", ("c",), 3)  # evicts the stale "b"
    assert len(c) == 2
    assert c.stats.evictions == 1
    assert c.get("verify", ("b",)) is None
    assert c.get("verify", ("a",)) == 1
    assert c.get("verify", ("c",)) == 3
    assert c.stats.by_stage["verify"] == {"hits": 3, "misses": 1}
    with pytest.raises(LoadError):
        ProgramCache(capacity=0)


def test_cache_invalidate_by_digest_and_stage():
    c = ProgramCache()
    c.put("verify", ("d1", "cfg"), 1)
    c.put("lower", ("d1", "cfg"), 2)
    c.put("verify", ("d2", "cfg"), 3)
    assert c.invalidate(digest="d1", stage="lower") == 1
    assert c.get("lower", ("d1", "cfg")) is None
    assert c.invalidate(digest="d1") == 1  # the verify entry
    assert c.get("verify", ("d2", "cfg")) == 3
    c.clear()
    assert len(c) == 0


def test_cache_eviction_recompiles_correctly():
    """A tiny cache forces evictions mid-stream; loads stay correct and
    pooled engines rebuild via the jprog identity check."""
    rt = KFlexRuntime()
    rt.pipeline.cache = ProgramCache(capacity=2)
    heap = rt.create_heap(HEAP, name="tiny")
    progs = [make_program(f"p{i}", ret=i + 1) for i in range(3)]
    ctx = rt.make_ctx(0, [0] * 8)
    for _ in range(2):  # second sweep: every load evicted in between
        for i, p in enumerate(progs):
            assert rt.load(p, heap=heap, attach=False).invoke(ctx) == i + 1
    assert rt.pipeline.cache.stats.evictions > 0


# -- pass manager -------------------------------------------------------------


class NullPass(Pass):
    """Identity pass that records what flowed through it."""

    def __init__(self, name="null"):
        self.name = name
        self.seen = []

    def run(self, art):
        self.seen.append(art)
        return art


def test_pass_manager_registration_order():
    pm = PassManager()
    assert pm.names == ["verify", "instrument", "lower"]
    pm.register(NullPass("coalesce"), before="lower")
    pm.register(NullPass("audit"), after="verify")
    pm.register(NullPass("tail"))
    assert pm.names == ["verify", "audit", "instrument", "coalesce",
                        "lower", "tail"]


def test_pass_manager_rejects_bad_registrations():
    pm = PassManager()
    with pytest.raises(LoadError):
        pm.register(NullPass("verify"))  # duplicate name
    with pytest.raises(LoadError):
        pm.register(NullPass("x"), before="lower", after="verify")
    with pytest.raises(LoadError):
        pm.register(NullPass("x"), before="nonesuch")
    with pytest.raises(LoadError):
        pm.remove("nonesuch")


def test_pass_manager_replace_and_remove():
    pm = PassManager()
    probe = NullPass("lower")  # stands in for the real stage
    old = pm.replace("lower", probe)
    assert old.name == "lower"
    assert pm.names == ["verify", "instrument", "lower"]
    assert pm.remove("lower") is probe
    assert pm.remove("instrument").name == "instrument"
    assert pm.names == ["verify"]


def test_registered_pass_runs_in_the_load_path():
    """The plug-in seam: a pass registered on a live runtime sees every
    load's artifact at its position in the sequence."""
    rt = KFlexRuntime()
    probe = NullPass("probe")
    rt.pipeline.passes.register(probe, after="lower")
    heap = rt.create_heap(HEAP, name="probe")
    rt.load(make_program(), heap=heap, attach=False)
    assert len(probe.seen) == 1
    assert isinstance(probe.seen[0], LoweredProgram)
    # Uncached pass => it runs again even on an otherwise-warm load.
    rt.load(make_program(), heap=heap, attach=False)
    assert len(probe.seen) == 2
    assert rt.pipeline.stats.warm_loads == 1


# -- supervisor integration ---------------------------------------------------


def test_readmission_recompiles_warm():
    policy = QuarantinePolicy(base_backoff_ns=1_000)
    rt = KFlexRuntime(supervisor_policy=policy)
    heap = rt.create_heap(HEAP, name="sup")
    ext = rt.load(make_program(), heap=heap, attach=False)
    jprog = ext.jprog
    rt.supervisor.quarantine(ext, "watchdog")
    rt.kernel.advance_ns(2_000)
    assert rt.supervisor.try_readmit(ext)
    assert rt.pipeline.stats.warm_loads == 1
    assert rt.supervisor.stats.warm_readmissions == 1
    assert rt.supervisor.health(ext).warm_readmissions == 1
    assert ext.jprog is jprog  # same cached lowering => pooled engines live


# -- the codegen stage ---------------------------------------------------------


def _hot_engine(ext, cpu=0):
    """Bind ``ext`` on ``cpu`` and force its engine into the compiled
    tier (through the pipeline's codegen stage)."""
    ext.batch_invoker(cpu)
    eng = ext._engines[cpu].engine
    eng.tier_up()
    return eng


def test_codegen_never_shares_code_across_smap_or_placement():
    """Compiled code is keyed by the lowered artifact's placement key
    plus the SMAP flag: other CPUs of the same load share one code
    object, while a flipped SMAP flag or another heap placement gets
    its own."""
    rt = KFlexRuntime()
    prog = make_program()
    heap = rt.create_heap(HEAP, name="cg")
    ext = rt.load(prog, heap=heap, attach=False)
    e0 = _hot_engine(ext, 0)
    e1 = _hot_engine(ext, 1)
    assert e0._compiled is e1._compiled
    st = rt.pipeline.cache.stats.by_stage["codegen"]
    assert st == {"hits": 1, "misses": 1}

    # SMAP off on one CPU: the engine re-tiers on its next run, under a
    # different key.
    ctx = rt.make_ctx(0, [0] * 8)
    ext._env(1).smap = False
    assert ext.invoke(ctx, cpu=1) == 7
    assert e1._compiled is not e0._compiled
    assert st == {"hits": 1, "misses": 2}

    # Same program, another heap placement: a third code object.
    other = rt.load(prog, heap=rt.create_heap(HEAP, name="cg2"), attach=False)
    e2 = _hot_engine(other, 0)
    assert e2._compiled is not e0._compiled
    assert e2._compiled is not e1._compiled
    assert st == {"hits": 1, "misses": 3}
    assert other.invoke(ctx) == 7


def test_codegen_entries_respect_lru_bound():
    """Codegen payloads live in the same bounded LRU: compiling the
    program at many placements on a tiny cache evicts rather than
    grows."""
    rt = KFlexRuntime()
    rt.pipeline.cache = ProgramCache(capacity=4)
    prog = make_program()
    ctx = rt.make_ctx(0, [0] * 8)
    for i in range(6):
        heap = rt.create_heap(HEAP, name=f"lru{i}")
        ext = rt.load(prog, heap=heap, attach=False)
        _hot_engine(ext)
        assert ext.invoke(ctx) == 7
    assert len(rt.pipeline.cache) <= 4
    assert rt.pipeline.cache.stats.evictions > 0
    assert rt.pipeline.cache.stats.by_stage["codegen"]["misses"] == 6


def test_stats_report_codegen_stage():
    """Loading never runs codegen; tiering up does, once, and the stats
    (and ``format_stats``) show the stage and the tier counters."""
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="cgstats")
    ext = rt.load(make_program(), heap=heap, attach=False)
    ctx = rt.make_ctx(0, [0] * 8)
    assert ext.invoke(ctx) == 7
    assert "codegen" not in rt.pipeline.stats.stages
    _hot_engine(ext)
    assert ext.invoke(ctx) == 7
    d = rt.pipeline.stats_dict()
    assert d["stages"]["codegen"]["runs"] == 1
    assert d["stages"]["codegen"]["cached"] == 0
    assert d["tier"] == {"tier_ups": 1, "deopts": 0, "fallback_sites": 0}
    text = rt.pipeline.format_stats()
    assert "codegen" in text
    assert "compiled tier: 1 tier-ups, 0 checkpoint deopts" in text


def test_stats_dict_shape():
    rt = KFlexRuntime()
    heap = rt.create_heap(HEAP, name="s")
    ext = rt.load(make_program(), heap=heap, attach=False)
    ext.invoke(rt.make_ctx(0, [0] * 8))
    d = rt.pipeline.stats_dict()
    assert d["loads"] == 1 and d["warm_loads"] == 0
    assert d["translations"] == 1
    assert set(d["stages"]) == {
        "verify", "verify:queue", "verify:explore", "verify:merge",
        "instrument", "lower", "translate",
    }
    assert d["stages"]["verify"]["runs"] == 1
    assert d["stages"]["translate"]["runs"] == 1
    assert d["cache"]["entries"] == 3  # one payload per cacheable stage
    text = rt.pipeline.format_stats()
    assert "1 loads (0 warm)" in text and "verify" in text
