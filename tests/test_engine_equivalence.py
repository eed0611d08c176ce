"""Differential execution: threaded engine vs reference interpreter.

The interpreter (:mod:`repro.ebpf.interpreter`) is the semantics
oracle; the threaded-code engine (:mod:`repro.ebpf.engine`) must agree
with it bit-for-bit on every observable of an execution: return value,
cost, step count, fault (kind / insn index / original index / address /
message) and the final register file.  This module enforces that over

* >=1000 randomized programs (pure ALU, branchy control flow, stack
  memory + atomics, demand-paged region access), and
* every fault path: page fault, SMAP trap, store-policy panic,
  watchdog cancellation, lock stall, step limit, helper fault,

plus runtime-level parity on the real Fig. 5 data-structure
extensions.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import KernelPanic, LoadError
from repro.ebpf import isa
from repro.ebpf.asm import Assembler
from repro.ebpf.isa import Insn, Reg
from repro.ebpf.engine import (
    ENGINES,
    ThreadedEngine,
    default_engine,
    engine_scope,
    set_default_engine,
)
from repro.ebpf.helpers import HelperTable
from repro.ebpf.interpreter import ExecEnv, Interpreter
from repro.kernel.addrspace import AddressSpace

R = Reg

#: Kernel-half base for scratch regions (above 2**47, so SMAP-clean).
KREGION = 0xFFFF_B000_0000_0000

_ALU_OPS = (
    isa.BPF_ADD, isa.BPF_SUB, isa.BPF_MUL, isa.BPF_DIV, isa.BPF_MOD,
    isa.BPF_OR, isa.BPF_AND, isa.BPF_XOR, isa.BPF_LSH, isa.BPF_RSH,
    isa.BPF_ARSH, isa.BPF_MOV,
)
_JMP_OPS = ("==", "!=", ">", ">=", "<", "<=", "s>", "s>=", "s<", "s<=", "&")
_ATOMIC_OPS = (
    isa.ATOMIC_ADD, isa.ATOMIC_ADD | isa.BPF_FETCH,
    isa.ATOMIC_OR, isa.ATOMIC_OR | isa.BPF_FETCH,
    isa.ATOMIC_AND, isa.ATOMIC_AND | isa.BPF_FETCH,
    isa.ATOMIC_XOR, isa.ATOMIC_XOR | isa.BPF_FETCH,
    isa.ATOMIC_XCHG, isa.ATOMIC_CMPXCHG,
)
_SIZES = (1, 2, 4, 8)


# -- differential harness -----------------------------------------------------


def _fresh_env(setup=None, **env_kw):
    aspace = AddressSpace()
    env = ExecEnv(aspace=aspace, helpers=HelperTable(), **env_kw)
    if setup is not None:
        setup(aspace, env)
    return env


def describe_result(r):
    """Every observable of an ExecResult, as a comparable tuple."""
    return (
        r.ret, r.cost, r.steps, r.regs, r.stack_base,
        None if r.fault is None else (
            r.fault.kind, r.fault.insn_idx, r.fault.orig_idx,
            r.fault.addr, r.fault.message,
        ),
    )


def assert_same(ri, rt, label=""):
    __tracebackhide__ = True
    assert describe_result(ri) == describe_result(rt), \
        f"engine divergence {label}"


#: Harness runs that actually executed compiled code — asserted
#: non-vacuous by test_fused_parity_sweep_is_not_vacuous.
_COMPILED_RUNS = {"runs": 0}


def compiled_engine(insns, env, **kw) -> ThreadedEngine:
    """A threaded engine with its compiled tier forced from run one."""
    eng = ThreadedEngine(insns, env, **kw)
    eng.tier_up()
    assert eng._fn is not None
    return eng


def run_both(insns, *, setup=None, ctx_addr=0, max_steps=None, **env_kw):
    """Run the interpreter, the threaded engine in tier 0 and the
    threaded engine with its compiled tier forced over identical fresh
    environments; assert three-way parity and return the interpreter's
    result."""
    env_i = _fresh_env(setup, **env_kw)
    env_t = _fresh_env(setup, **env_kw)
    env_c = _fresh_env(setup, **env_kw)
    ri = Interpreter(insns, env_i).run(ctx_addr, max_steps=max_steps)
    rt = ThreadedEngine(insns, env_t).run(ctx_addr, max_steps=max_steps)
    assert_same(ri, rt, "(tier 0)")
    eng = compiled_engine(insns, env_c)
    rc = eng.run(ctx_addr, max_steps=max_steps)
    assert_same(ri, rc, "(compiled)")
    # A second run over the memory the first one left: compiled code
    # now serves the regions its pointer kinds learned in the first.
    assert_same(
        Interpreter(insns, env_i).run(ctx_addr, max_steps=max_steps),
        eng.run(ctx_addr, max_steps=max_steps),
        "(compiled, second run)",
    )
    _COMPILED_RUNS["runs"] += eng.compiled_runs
    return ri


# -- random program generators ------------------------------------------------


def _seed_regs(a, rng, regs=(R.R0, R.R1, R.R2, R.R3, R.R4, R.R5)):
    for r in regs:
        a.ld_imm64(r, rng.getrandbits(64))


def _random_alu_op(a, rng, regs):
    dst = rng.choice(regs)
    kind = rng.randrange(10)
    if kind == 0:
        a.neg(dst)
    elif kind == 1:  # ALU32 NEG via raw encoding
        a.raw(Insn(isa.BPF_ALU | isa.BPF_NEG, int(dst)))
    elif kind == 2:  # byte-swap / truncate
        width = rng.choice((16, 32, 64))
        to_be = rng.random() < 0.5
        op = isa.BPF_ALU | isa.BPF_END | (isa.BPF_X if to_be else isa.BPF_K)
        a.raw(Insn(op, int(dst), 0, 0, width))
    else:
        op = rng.choice(_ALU_OPS)
        width64 = rng.random() < 0.7
        if rng.random() < 0.5:
            a._alu(op, dst, rng.choice(regs), width64=width64)
        else:
            imm = rng.randrange(-(1 << 31), 1 << 31)
            a._alu(op, dst, imm, width64=width64)


def gen_alu(rng) -> list[Insn]:
    a = Assembler()
    regs = (R.R0, R.R1, R.R2, R.R3, R.R4, R.R5)
    _seed_regs(a, rng, regs)
    for _ in range(rng.randrange(5, 25)):
        _random_alu_op(a, rng, regs)
    if rng.random() < 0.5:
        a.mov(R.R0, rng.choice(regs))
    a.exit()
    return a.assemble()


def gen_branchy(rng) -> list[Insn]:
    """Random forward-branching blocks (forward-only => terminates)."""
    a = Assembler()
    regs = (R.R0, R.R1, R.R2, R.R3, R.R4)
    _seed_regs(a, rng, regs)
    n_blocks = rng.randrange(3, 8)
    labels = [a.fresh_label(f"b{i}") for i in range(n_blocks)]
    done = a.fresh_label("done")
    for i in range(n_blocks):
        a.label(labels[i])
        for _ in range(rng.randrange(1, 4)):
            _random_alu_op(a, rng, regs)
        # Jump forward to a strictly later block (or the exit).
        target = rng.choice(labels[i + 1:] + [done])
        op = rng.choice(_JMP_OPS)
        width32 = rng.random() < 0.3
        if rng.random() < 0.5:
            a.jcc(op, rng.choice(regs), rng.choice(regs), target,
                  width32=width32)
        else:
            imm = rng.randrange(-(1 << 31), 1 << 31)
            a.jcc(op, rng.choice(regs), imm, target, width32=width32)
        if rng.random() < 0.3:
            a.jmp(target)
    a.label(done)
    a.exit()
    return a.assemble()


def gen_memory(rng) -> list[Insn]:
    """Stack traffic: ST/STX/LDX/atomics at random offsets/widths."""
    a = Assembler()
    regs = (R.R0, R.R1, R.R2, R.R3)
    _seed_regs(a, rng, regs)
    # Pre-fill a few slots so loads see defined bytes.
    for off in range(-64, 0, 8):
        a.st_imm(R.R10, off, rng.randrange(-(1 << 31), 1 << 31), 8)
    for _ in range(rng.randrange(8, 30)):
        size = rng.choice(_SIZES)
        off = -rng.randrange(1, 64 // size + 1) * size
        kind = rng.randrange(4)
        if kind == 0:
            a.st_imm(R.R10, off, rng.randrange(-(1 << 31), 1 << 31), size)
        elif kind == 1:
            a.stx(R.R10, rng.choice(regs), off, size)
        elif kind == 2:
            a.ldx(rng.choice(regs), R.R10, off, size)
        else:
            aop = rng.choice(_ATOMIC_OPS)
            a.atomic(R.R10, rng.choice(regs), off, aop,
                     size=rng.choice((4, 8)))
    a.ldx(R.R0, R.R10, -8, 8)
    a.exit()
    return a.assemble()


def _paged_setup(aspace, env):
    region = aspace.map_region(KREGION, 4 * 4096, "scratch", populated=False)
    aspace.populate(KREGION, 4096)              # page 0
    aspace.populate(KREGION + 2 * 4096, 4096)   # page 2; pages 1, 3 fault


def gen_paged(rng) -> list[Insn]:
    """Loads/stores over a partially populated region: some succeed via
    the fast path, some page-fault on unpopulated pages."""
    a = Assembler()
    a.ld_imm64(R.R6, KREGION)
    a.ld_imm64(R.R2, rng.getrandbits(64))
    a.mov(R.R0, 0)
    for _ in range(rng.randrange(4, 12)):
        size = rng.choice(_SIZES)
        # Mostly in-region; occasionally straddling a page boundary.
        off = rng.randrange(0, 4 * 4096 - 8)
        if rng.random() < 0.2:
            off = rng.choice((4096 - size // 2, 3 * 4096 - size // 2))
        if rng.random() < 0.5:
            a.ldx(R.R1, R.R6, 0, size)  # off folded into R6 below
        if rng.random() < 0.6:
            a.mov(R.R7, R.R6)
            a.add(R.R7, off)
            a.ldx(R.R1, R.R7, 0, size)
            a.add(R.R0, R.R1)
        else:
            a.mov(R.R7, R.R6)
            a.add(R.R7, off)
            a.stx(R.R7, R.R2, 0, size)
    a.exit()
    return a.assemble()


# -- randomized differential sweeps ------------------------------------------


def test_random_alu_programs_agree():
    rng = random.Random(0xA1)
    for trial in range(400):
        insns = gen_alu(random.Random(rng.getrandbits(64)))
        run_both(insns)


def test_random_branchy_programs_agree():
    rng = random.Random(0xB2)
    for trial in range(300):
        insns = gen_branchy(random.Random(rng.getrandbits(64)))
        run_both(insns)


def test_random_memory_programs_agree():
    rng = random.Random(0xC3)
    for trial in range(250):
        insns = gen_memory(random.Random(rng.getrandbits(64)))
        run_both(insns)


def test_random_paged_programs_agree():
    rng = random.Random(0xD4)
    for trial in range(100):
        insns = gen_paged(random.Random(rng.getrandbits(64)))
        run_both(insns, setup=_paged_setup)


def test_threaded_engine_is_reusable_across_runs():
    """Pooled engine state (regs, caches) must not leak between runs."""
    insns = gen_memory(random.Random(7))
    env = _fresh_env()
    eng = ThreadedEngine(insns, env)
    first = eng.run()
    for _ in range(3):
        again = eng.run()
        assert_same(first, again, "(pooled rerun)")


# -- fault-path parity --------------------------------------------------------


def test_unmapped_load_page_fault_parity():
    a = Assembler()
    a.ld_imm64(R.R6, KREGION + 0x123)  # nothing mapped there
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble())
    assert r.fault is not None and r.fault.kind == "page"


def test_unpopulated_page_fault_parity():
    a = Assembler()
    a.ld_imm64(R.R6, KREGION + 4096)  # page 1: mapped, never populated
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble(), setup=_paged_setup)
    assert r.fault is not None and r.fault.kind == "page"
    assert "unpopulated" in r.fault.message


def test_page_straddling_access_parity():
    """An 8-byte load whose first page is populated but second is not
    must fall off the fast path and fault identically."""
    a = Assembler()
    a.ld_imm64(R.R6, KREGION + 4096 - 4)  # straddles pages 0|1
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble(), setup=_paged_setup)
    assert r.fault is not None and r.fault.kind == "page"


def test_smap_trap_parity():
    a = Assembler()
    a.ld_imm64(R.R6, 0x10_0000)  # user-space address
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble())
    assert r.fault is not None and r.fault.kind == "page"
    assert "SMAP" in r.fault.message


def test_smap_disabled_parity():
    a = Assembler()
    a.ld_imm64(R.R6, 0x10_0000)
    a.ldx(R.R0, R.R6, 0, 8)
    a.exit()
    r = run_both(a.assemble(), smap=False)
    assert r.fault is not None and "unmapped" in r.fault.message


def test_store_policy_panic_parity():
    """Stores outside the allowed prefixes are kernel panics in both."""
    a = Assembler()
    a.ld_imm64(R.R6, KREGION)
    a.st_imm(R.R6, 0, 1, 8)
    a.exit()
    insns = a.assemble()
    msgs = []
    for cls in (Interpreter, ThreadedEngine):
        env = _fresh_env(_paged_setup, allowed_store_regions=("stack:",))
        with pytest.raises(KernelPanic) as exc:
            cls(insns, env).run()
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]
    assert "kernel-owned" in msgs[0]


def test_step_limit_stall_parity():
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 1)
    a.label(loop)
    a.add(R.R1, 1)
    a.jmp(loop)
    insns = a.assemble()
    r = run_both(insns, max_steps=997)
    assert r.fault is not None and r.fault.kind == "stall"
    assert r.steps == 997


def test_unknown_helper_fault_parity():
    a = Assembler()
    a.call(9999)
    a.exit()
    r = run_both(a.assemble())
    assert r.fault is not None and r.fault.kind == "helper"
    assert "unknown helper id 9999" in r.fault.message


def test_watchdog_callback_sequence_parity():
    """The watchdog must observe identical (step, cost) schedules."""
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 0)
    a.label(loop)
    a.add(R.R1, 1)
    a.jcc("<", R.R1, 40_000, loop)
    a.mov(R.R0, R.R1)
    a.exit()
    insns = a.assemble()
    seen = {}
    for name, cls in (("interp", Interpreter), ("threaded", ThreadedEngine)):
        calls = []
        env = _fresh_env(watchdog=calls.append)
        res = cls(insns, env).run()
        assert res.ok
        seen[name] = (calls, res.ret, res.cost, res.steps)
    assert seen["interp"] == seen["threaded"]
    assert len(seen["interp"][0]) > 5  # the watchdog actually fired


# -- compiled-tier parity ------------------------------------------------------
#
# Every compiled block is one fused unit: it is charged its steps and
# cost at its head, so these tests aim checkpoints and faults *inside*
# blocks and require the interpreter's exact observables.


def force_tier_up(rt):
    """Make every engine the runtime binds start in the compiled tier."""
    translate = rt.pipeline.translate

    def forced(*args, **kwargs):
        tp = translate(*args, **kwargs)
        if isinstance(tp.engine, ThreadedEngine):
            tp.engine.tier_up()
        return tp

    rt.pipeline.translate = forced
    return rt


@pytest.mark.compiled
def test_fused_parity_sweep_is_not_vacuous():
    """A self-contained sweep across every generator: the compiled tier
    must agree bit-for-bit AND every harness run must actually have
    executed compiled code — a parity sweep that never ran it proves
    nothing."""
    before = _COMPILED_RUNS["runs"]
    rng = random.Random(0xF5)
    runs = 0
    for gen in (gen_alu, gen_branchy, gen_memory):
        for _ in range(25):
            run_both(gen(random.Random(rng.getrandbits(64))))
            runs += 1
    for _ in range(25):
        run_both(gen_paged(random.Random(rng.getrandbits(64))),
                 setup=_paged_setup)
        runs += 1
    assert _COMPILED_RUNS["runs"] - before == 2 * runs


def _hot_loop():
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 0)
    a.label(loop)
    a.add(R.R1, 1)
    a.jcc("<", R.R1, 40_000, loop)
    a.mov(R.R0, R.R1)
    a.exit()
    return a.assemble()


@pytest.mark.compiled
def test_fused_watchdog_schedule_parity():
    """The hot loop body (ADD -> JCC) is one compiled block, so
    watchdog checkpoints repeatedly land *inside* it; the engine must
    hand those blocks to tier 0 so the watchdog observes the
    interpreter's exact (step, cost) schedule."""
    insns = _hot_loop()
    seen = {}
    engines = {}
    for name, make in (
        ("interp", lambda e: Interpreter(insns, e)),
        ("compiled", lambda e: compiled_engine(insns, e)),
    ):
        calls = []
        env = _fresh_env(watchdog=calls.append)
        eng = engines[name] = make(env)
        res = eng.run()
        assert res.ok
        seen[name] = (calls, res.ret, res.cost, res.steps)
    assert seen["interp"] == seen["compiled"]
    assert len(seen["interp"][0]) > 5
    eng = engines["compiled"]
    assert eng.compiled_runs == 1
    assert eng.tier.deopts == len(seen["interp"][0])  # one per checkpoint


@pytest.mark.compiled
def test_fused_step_limit_lands_mid_block():
    """Sweep the hard step limit across every phase of the compiled
    loop body: the stall fault must report identical steps/cost/pc
    whether the limit falls on a block head, mid-block, or a
    boundary."""
    a = Assembler()
    loop = a.fresh_label()
    a.mov(R.R1, 1)
    a.label(loop)
    a.add(R.R1, 1)
    a.xor(R.R2, R.R1)
    a.jmp(loop)
    insns = a.assemble()
    for limit in range(0, 17):
        ri = Interpreter(insns, _fresh_env()).run(max_steps=limit)
        rc = compiled_engine(insns, _fresh_env()).run(max_steps=limit)
        assert_same(ri, rc, f"(stall at limit {limit})")
        assert ri.fault is not None and ri.fault.kind == "stall"


@pytest.mark.compiled
def test_fused_mem_idiom_runtime_parity():
    """The LDX -> GUARD -> STX heap idiom at runtime level: compiled
    code serves load, guard and store from bound region handles; an
    unpopulated target page takes the generic path mid-block and must
    fault exactly like the interpreter (same insn index, same steps and
    cost, same cancellation accounting)."""
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    def trace(engine, compiled):
        rt = KFlexRuntime(engine=engine)
        if compiled:
            force_tier_up(rt)
        heap = rt.create_heap(1 << 16, name="memf")
        m = MacroAsm()
        m.heap_addr(R.R6, 0x40)
        m.mov(R.R3, 0xABCD)
        m.ldx(R.R7, R.R6)       # load a heap offset from the cell...
        m.stx(R.R7, R.R3, 0, 8)  # ...and store through it (Kie guards R7)
        m.mov(R.R0, 7)
        m.exit()
        prog = Program("memf", m.assemble(), hook="bench", heap_size=1 << 16)
        ext = rt.load(prog, heap=heap, attach=False, elision=False)
        assert heap.reserve_static(64) == 0x40
        ctx = rt.make_ctx(0, [0] * 8)
        out = []
        # Populated header page: the bound heap handle serves it.
        rt.kernel.aspace.write_int(heap.base + 0x40, 0x80, 8)
        out.append((ext.invoke(ctx), describe_result(ext.last_result)))
        out.append(rt.kernel.aspace.read_int(heap.base + 0x80, 8))
        # Unpopulated page: generic path -> page-fault cancel.
        rt.kernel.aspace.write_int(heap.base + 0x40, 0x8000, 8)
        ext.dead = False
        out.append((ext.invoke(ctx), describe_result(ext.last_result)))
        out.append(dict(ext.stats.cancellations_by_reason))
        if compiled:
            assert ext._engines[0].engine.compiled_runs == 2
        return out

    ti = trace("interp", False)
    t0 = trace("threaded", False)
    tc = trace("threaded", True)
    assert ti == t0 == tc
    assert ti[1] == 0xABCD  # the guarded store actually landed
    assert ti[2][1][5][0] == "page"  # and the second run faulted


@pytest.mark.compiled
def test_fused_injected_fault_parity():
    """Same fault plan, same workload: the compiled tier produces
    ExecResults and injector schedules bit-identical to the
    interpreter's."""
    ti = _run_injected_ds("interp")
    tc = _run_injected_ds("threaded", compiled=True)
    assert ti == tc
    assert sum(tc[2].values()) > 0


def _region_program():
    """Load from KREGION, store R2 back one word later, return the load."""
    a = Assembler()
    a.ld_imm64(R.R6, KREGION)
    a.ld_imm64(R.R2, 0x1122)
    a.ldx(R.R0, R.R6, 0, 8)
    a.stx(R.R6, R.R2, 8, 8)
    a.exit()
    return a.assemble()


def _region_setup(aspace, env):
    aspace.map_region(KREGION, 4096, "scratch")
    aspace.write_int(KREGION, 0x77, 8)


@pytest.mark.compiled
def test_compiled_rebinds_on_generation_pkeys_and_store_policy():
    """After tier-up, every change the region cache is keyed on — a
    remap (generation), the active protection keys, the store policy —
    rebinds the compiled code to fresh handles, and the result tracks
    the interpreter's through each change."""
    insns = _region_program()
    env_i = _fresh_env(_region_setup)
    env_c = _fresh_env(_region_setup)
    interp = Interpreter(insns, env_i)
    eng = compiled_engine(insns, env_c)

    def both():
        outs = []
        for e, env in ((interp, env_i), (eng, env_c)):
            try:
                outs.append(describe_result(e.run()))
            except KernelPanic as exc:
                outs.append(("panic", str(exc)))
        assert outs[0] == outs[1]
        return outs[0]

    def on_both(fn):
        for env in (env_i, env_c):
            fn(env.aspace, env)

    assert both()[0] == 0x77
    fn0 = eng._fn

    def remap(aspace, env):  # same address, new backing and contents
        aspace.unmap(KREGION)
        region = aspace.map_region(KREGION, 4096, "scratch")
        aspace.write_int(KREGION, 0x99, 8)
        region.pkey = 3

    on_both(remap)
    assert both()[0] == 0x99
    assert eng._fn is not fn0
    fn1 = eng._fn

    def lock_out(aspace, env):
        aspace.active_pkeys = {5}

    on_both(lock_out)
    r = both()
    assert r[5][0] == "page" and "protection-key" in r[5][4]
    assert eng._fn is not fn1

    def unlock(aspace, env):
        aspace.active_pkeys = None
        env.allowed_store_regions = ("stack:",)

    on_both(unlock)
    r = both()
    assert r[0] == "panic" and "kernel-owned" in r[1]
    assert eng.compiled_runs == 4


@pytest.mark.compiled
def test_compiled_reentrant_invocation():
    """A helper that re-enters the running engine: the nested run gets
    its own registers and helper-cost account, and both levels match
    the interpreter."""
    from repro.ebpf.helpers import BPF_KTIME_GET_NS

    a = Assembler()
    a.mov(R.R6, R.R1)
    a.call(BPF_KTIME_GET_NS)
    a.add(R.R0, R.R6)
    a.exit()
    insns = a.assemble()

    def make(engine_of):
        env = _fresh_env()
        eng = engine_of(env)

        def ktime(env_):
            # Re-enter once, from the outer run only.
            return 0 if ktime.depth else ktime.nested()

        def nested():
            ktime.depth += 1
            try:
                return eng.run(5).ret + 100
            finally:
                ktime.depth -= 1

        ktime.depth = 0
        ktime.nested = nested
        env.helpers.bind(BPF_KTIME_GET_NS, ktime)
        return eng

    ri = make(lambda env: Interpreter(insns, env)).run(1)
    eng = make(lambda env: compiled_engine(insns, env))
    rc = eng.run(1)
    assert_same(ri, rc, "(re-entrant)")
    assert ri.ret == 1 + 5 + 100
    assert eng.compiled_runs == 2


@pytest.mark.compiled
def test_invalidated_engines_bind_cached_code():
    """``invalidate_engines()`` drops the pooled engines; their
    replacements bind the cached code on their first run — one factory
    call, no second codegen."""
    from repro.core.runtime import KFlexRuntime

    rt = KFlexRuntime()
    heap = rt.create_heap(1 << 16, name="inval")
    ds_prog = _hashmap_lookup_program(rt, heap)
    ext = rt.load(ds_prog, heap=heap, attach=False)
    ctx = rt.make_ctx(0, [0] * 8)
    first = ext.invoke(ctx)
    ext._engines[0].engine.tier_up()
    tier = rt.pipeline.stats.tier
    assert tier.tier_ups == 1
    for cpu in (0, 1):
        ext.invalidate_engines()
        assert ext.invoke(ctx, cpu=cpu) == first
        eng = ext._engines[cpu].engine
        assert eng.compiled_runs == 1
    st = rt.pipeline.stats.stages["codegen"]
    assert st.runs - st.cached == 1  # generated once ...
    assert st.cached == 2            # ... bound twice more from the cache
    assert tier.tier_ups == 3


def _hashmap_lookup_program(rt, heap):
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    m = MacroAsm()
    m.heap_addr(R.R6, 0x40)
    m.ldx(R.R0, R.R6)
    m.add(R.R0, 1)
    m.exit()
    return Program("inval", m.assemble(), hook="bench", heap_size=heap.size)


@pytest.mark.compiled
def test_engine_tiers_up_lazily_when_hot():
    """Loading and binding an engine never generates code; the engine
    tiers up by itself once it has run TIER_UP_STEPS_PER_INSN steps per
    instruction, and then runs compiled."""
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.engine import TIER_UP_STEPS_PER_INSN

    rt = KFlexRuntime()
    heap = rt.create_heap(1 << 16, name="lazy")
    ext = rt.load(_hashmap_lookup_program(rt, heap), heap=heap, attach=False)
    ext.batch_invoker(0)
    assert "codegen" not in rt.pipeline.stats.stages
    eng = ext._engines[0].engine
    ctx = rt.make_ctx(0, [0] * 8)
    hot = TIER_UP_STEPS_PER_INSN * len(eng.insns)
    steps = 0
    while steps < hot:
        assert eng.compiled_runs == 0
        ext.invoke(ctx)
        steps += ext.last_result.steps
    ext.invoke(ctx)
    assert eng.compiled_runs == 1
    assert rt.pipeline.stats.tier.tier_ups == 1
    assert rt.pipeline.stats.stages["codegen"].runs == 1


# -- runtime-level parity -----------------------------------------------------


def _run_ds_ops(engine: str, struct: str, compiled: bool = False):
    from repro.core.runtime import KFlexRuntime
    from repro.apps.datastructures import ALL_STRUCTURES

    rt = KFlexRuntime(engine=engine)
    if compiled:
        force_tier_up(rt)
    ds = ALL_STRUCTURES[struct](rt)
    rng = random.Random(42)
    trace = []
    for k in range(64):
        trace.append(("u", ds.update(k, k * 3 + 1)))
    for _ in range(64):
        k = rng.randrange(96)  # mix of hits and misses
        op = rng.choice(("update", "lookup", "delete"))
        if op == "update":
            ret = ds.update(k, rng.randrange(1 << 30))
        elif op == "lookup":
            ret = ds.lookup(k)
        else:
            ret = ds.delete(k)
        cost = ds.exts[op].stats.last_cost_units
        trace.append((op, k, ret, cost))
    if compiled:
        # The pointer-kind pass binds every site of the shipped
        # structures: none takes the generic path once warm.
        assert rt.pipeline.stats.tier.fallback_sites == 0
    return trace


@pytest.mark.parametrize("struct", ["hashmap", "linkedlist"])
def test_runtime_datastructure_parity(struct):
    ti = _run_ds_ops("interp", struct)
    assert ti == _run_ds_ops("threaded", struct)
    assert ti == _run_ds_ops("threaded", struct, compiled=True)


def _watchdog_cancel_stats(engine: str):
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime(engine=engine)
    m = MacroAsm()
    m.mov(R.R3, 1)
    with m.while_("!=", R.R3, 0):
        m.add(R.R3, 1)
    m.mov(R.R0, 0)
    m.exit()
    prog = Program("spin", m.assemble(), hook="xdp", heap_size=1 << 16)
    ext = rt.load(prog, attach=False, quantum_units=10_000)
    ret = ext.invoke(rt.make_ctx(0, [0] * 8))
    return ret, ext.dead, dict(ext.stats.cancellations_by_reason), \
        ext.stats.last_cost_units


def test_runtime_watchdog_cancellation_parity():
    assert _watchdog_cancel_stats("interp") == \
        _watchdog_cancel_stats("threaded")


def _lock_stall_stats(engine: str):
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program
    from repro.ebpf.helpers import KFLEX_SPIN_LOCK, KFLEX_SPIN_UNLOCK

    rt = KFlexRuntime(engine=engine)
    m = MacroAsm()
    m.heap_addr(R.R6, 0x100)
    m.heap_addr(R.R7, 0x180)
    m.call_helper(KFLEX_SPIN_LOCK, R.R6)
    m.call_helper(KFLEX_SPIN_LOCK, R.R7)
    m.call_helper(KFLEX_SPIN_UNLOCK, R.R7)
    m.call_helper(KFLEX_SPIN_UNLOCK, R.R6)
    m.mov(R.R0, 0)
    m.exit()
    prog = Program("locker", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, attach=False)
    t = rt.kernel.sched.spawn("app")
    ext.locks.user_lock(0x180, t)
    ret = ext.invoke(rt.make_ctx(0, [0] * 8))
    return ret, ext.dead, dict(ext.stats.cancellations_by_reason), \
        ext.locks.owner(0x100)


def test_runtime_lock_stall_parity():
    assert _lock_stall_stats("interp") == _lock_stall_stats("threaded")


def test_runtime_pools_engine_across_invocations():
    """Satellite: invoke() must reuse one engine per CPU, rebuilt only
    if the lowered program changes."""
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime()
    m = MacroAsm()
    m.mov(R.R0, 5)
    m.exit()
    prog = Program("t", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, attach=False)
    ctx = rt.make_ctx(0, [0] * 8)
    ext.invoke(ctx)
    eng0 = ext._engines[0]
    for _ in range(5):
        ext.invoke(ctx)
    assert ext._engines[0] is eng0
    # Re-lowering the program invalidates the pooled engine.
    ext.jprog.insns = list(ext.jprog.insns)
    ext.invoke(ctx)
    assert ext._engines[0] is not eng0
    ext.invalidate_engines()
    assert ext._engines == {}


def _quarantine_readmit_trace(engine: str, compiled: bool = False):
    """Stall -> quarantine -> backoff -> re-admission, capturing every
    ExecResult.  The revived extension recompiles through the program
    cache; the cached lowering must execute bit-identically.  With
    ``compiled``, engines start compiled and the cached lowering is
    dropped while quarantined, so re-admission binds a fresh engine to
    the cached compiled code."""
    from repro.core.runtime import KFlexRuntime
    from repro.core.supervisor import QuarantinePolicy
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program

    rt = KFlexRuntime(
        engine=engine,
        supervisor_policy=QuarantinePolicy(base_backoff_ns=1_000),
    )
    heap = rt.create_heap(1 << 16, name="readmit")
    m = MacroAsm()
    m.heap_addr(R.R6, 0x40)
    m.ldx(R.R3, R.R6)
    with m.while_("!=", R.R3, 0):  # spins until the watchdog cancels
        m.add(R.R3, 1)
    m.mov(R.R0, 9)
    m.exit()
    prog = Program("readmit", m.assemble(), hook="bench", heap_size=1 << 16)
    if compiled:
        force_tier_up(rt)
    ext = rt.load(prog, heap=heap, attach=False, quantum_units=10_000)
    assert heap.reserve_static(64) == 0x40  # the cell the loop reads
    ctx = rt.make_ctx(0, [0] * 8)

    trace = []
    rt.kernel.aspace.write_int(heap.base + 0x40, 1, 8)  # non-zero: stall
    trace.append((ext.invoke(ctx), describe_result(ext.last_result)))
    assert ext.dead  # watchdog stall quarantined it
    if compiled:
        rt.pipeline.translate = type(rt.pipeline).translate.__get__(
            rt.pipeline
        )  # the replacement engine must find the code on its own
        for stage in ("instrument", "lower"):
            rt.pipeline.cache.invalidate(stage=stage)
    rt.kernel.advance_ns(2_000)  # backoff elapses
    rt.kernel.aspace.write_int(heap.base + 0x40, 0, 8)  # heal: loop exits
    trace.append((ext.invoke(ctx), describe_result(ext.last_result)))
    assert not ext.dead
    if compiled:
        assert ext._engines[0].engine.compiled_runs == 1
        st = rt.pipeline.stats.stages["codegen"]
        assert (st.runs, st.cached) == (2, 1)  # one codegen, one bind
    return (
        trace,
        rt.pipeline.stats.warm_loads,
        rt.supervisor.stats.warm_readmissions,
        dict(ext.stats.cancellations_by_reason),
    )


def test_quarantine_readmission_parity_across_engines():
    """Satellite: a cache-hit recompile after quarantine + re-admission
    produces bit-identical ExecResults under both engines."""
    ti = _quarantine_readmit_trace("interp")
    tt = _quarantine_readmit_trace("threaded")
    assert ti == tt
    trace, warm_loads, warm_readmissions, reasons = ti
    assert trace[1][0] == 9  # the revived run completed
    assert warm_loads >= 1  # revive() was served from the cache
    assert warm_readmissions == 1
    assert reasons == {"watchdog": 1}


@pytest.mark.compiled
def test_quarantine_readmission_binds_cached_code():
    """Re-admission after quarantine builds a fresh engine (the cached
    lowering was dropped), which binds the cached compiled code on its
    first run and replays the interpreter's trace."""
    ti = _quarantine_readmit_trace("interp")
    tc = _quarantine_readmit_trace("threaded", compiled=True)
    assert ti[0] == tc[0]


# -- injected-fault parity ----------------------------------------------------


def _run_injected_ds(engine: str, compiled: bool = False):
    """Drive a hashmap under a fault plan; capture every observable."""
    from repro.core.runtime import KFlexRuntime
    from repro.apps.datastructures import ALL_STRUCTURES
    from repro.sim.faults import FaultPlan

    rt = KFlexRuntime(engine=engine)
    if compiled:
        force_tier_up(rt)
    rt.watchdog_period = 64
    ds = ALL_STRUCTURES["hashmap"](rt)
    inj = rt.install_injector(FaultPlan(11, {
        "heap_page": 0.01,
        "sfi_guard": 0.01,
        "helper_fail": 0.03,
        "alloc_fail": 0.05,
    }))
    rng = random.Random(4)
    trace = []
    for _ in range(250):
        k = rng.randrange(48)
        op = rng.choice(("update", "lookup", "delete"))
        if op == "update":
            ret = ds.update(k, rng.randrange(1 << 30))
        else:
            ret = getattr(ds, op)(k)
        # The bit-identical surface: the op's full ExecResult, not just
        # its return value — fault sites and register files included.
        trace.append((op, k, ret, describe_result(ds.exts[op].last_result)))
    return trace, list(inj.log), dict(inj.fires)


def test_injected_fault_parity_on_datastructure_runtime():
    """Same fault plan + same workload => bit-identical ExecResults,
    identical injector fire schedules, under both engines."""
    ti = _run_injected_ds("interp")
    tt = _run_injected_ds("threaded")
    assert ti == tt
    assert sum(ti[2].values()) > 0  # the plan actually fired


def _run_injected_helpers(engine: str):
    """Helper-layer injection parity on a lock-holding extension: the
    unwinder must release the lock from the same fault state."""
    from repro.core.runtime import KFlexRuntime
    from repro.ebpf.macroasm import MacroAsm
    from repro.ebpf.program import Program
    from repro.ebpf.helpers import KFLEX_SPIN_LOCK, KFLEX_SPIN_UNLOCK
    from repro.sim.faults import FaultPlan

    rt = KFlexRuntime(engine=engine)
    heap = rt.create_heap(1 << 16, name="eq")
    m = MacroAsm()
    m.heap_addr(R.R6, 0x40)
    m.call_helper(KFLEX_SPIN_LOCK, R.R6)
    m.call_helper(KFLEX_SPIN_UNLOCK, R.R6)
    m.mov(R.R0, 3)
    m.exit()
    prog = Program("eq", m.assemble(), hook="bench", heap_size=1 << 16)
    ext = rt.load(prog, heap=heap, attach=False)
    inj = rt.install_injector(FaultPlan(2, {"helper_fail": 0.25}))
    ctx = rt.make_ctx(0, [0] * 8)
    trace = []
    for _ in range(60):
        ret = ext.invoke(ctx)
        trace.append((ret, describe_result(ext.last_result),
                      ext.locks.owner(0x40)))
        ext.dead = False  # keep probing past quarantines
    return trace, list(inj.log)


def test_injected_helper_fault_parity_releases_locks():
    ti = _run_injected_helpers("interp")
    tt = _run_injected_helpers("threaded")
    assert ti == tt
    assert any(r[1][5] is not None for r in ti[0])  # some run faulted
    assert all(r[2] == 0 for r in ti[0])  # lock never left held


# -- engine selection ---------------------------------------------------------


def test_engine_registry_and_scope():
    assert set(ENGINES) == {"interp", "threaded"}
    prev = default_engine()
    with engine_scope("interp"):
        assert default_engine() == "interp"
    assert default_engine() == prev
    with pytest.raises(LoadError):
        set_default_engine("nonesuch")


def test_runtime_engine_selector():
    from repro.core.runtime import KFlexRuntime

    assert KFlexRuntime().engine == default_engine()
    assert KFlexRuntime(engine="interp").engine == "interp"
    with engine_scope("interp"):
        assert KFlexRuntime().engine == "interp"


# -- verification-service parity ----------------------------------------------
#
# The verifier is an oracle too: the parallel worker pool and the
# differential replay path must reproduce the single-threaded
# ``Verifier.verify()`` analysis bit-for-bit — object tables included,
# since those drive exception-cleanup at runtime.


def _verify_corpus():
    """(program, config, heap_size) triples: the Fig. 5 data-structure
    extensions (real malloc/lock/unbounded-walk bytecode) plus the
    multi-region chaos programs."""
    from repro.core.runtime import KFlexRuntime
    from repro.apps.datastructures import ALL_STRUCTURES
    from repro.ebpf.verifier import VerifierConfig
    from repro.sim.chaos import _verify_chaos_program

    rt = KFlexRuntime()
    corpus = []
    for name in ("hashmap", "linkedlist"):
        ds = ALL_STRUCTURES[name](rt)
        for ext in ds.exts.values():
            corpus.append((ext.program, ext.load_config, ext.heap.size))
    for v in range(6):
        corpus.append((_verify_chaos_program(v), VerifierConfig(), None))
    return corpus


@pytest.mark.verify_svc
def test_verify_service_object_table_parity():
    from repro.ebpf.verifier import Verifier
    from repro.verify import VerificationService, VerifyJob

    corpus = _verify_corpus()
    refs = [Verifier(p, c, heap_size=h).verify() for p, c, h in corpus]

    pool = VerificationService(workers=2, poll_s=0.02)
    try:
        outs = pool.submit_batch(
            [VerifyJob(p, c, h) for p, c, h in corpus]
        )
        # Resubmit: the differential path replays memoised regions and
        # must still merge to the identical analysis.
        outs2 = pool.submit_batch(
            [VerifyJob(p, c, h) for p, c, h in corpus]
        )
    finally:
        pool.close()
    for (prog, _c, _h), ref, out, out2 in zip(corpus, refs, outs, outs2):
        assert out.ok and out2.ok, (prog.name, out.error, out2.error)
        assert out.analysis == ref, prog.name
        assert out2.analysis == ref, prog.name
        assert out.analysis.object_tables == ref.object_tables, prog.name
    assert sum(o.regions_reused for o in outs2) > 0
