"""The bytecode VM: ALU semantics, memory, atomics, calls, faults."""

import pytest

from repro.errors import KernelPanic
from repro.ebpf import isa
from repro.ebpf.asm import Assembler
from repro.ebpf.helpers import HelperTable
from repro.ebpf.interpreter import ExecEnv, Interpreter
from repro.ebpf.isa import Insn, Reg
from repro.kernel.addrspace import AddressSpace

R0, R1, R2, R3, R10 = Reg.R0, Reg.R1, Reg.R2, Reg.R3, Reg.R10


def run(build, **env_kwargs):
    a = Assembler()
    build(a)
    env = ExecEnv(aspace=AddressSpace(), helpers=HelperTable(), **env_kwargs)
    return Interpreter(a.assemble(), env).run()


def expr(f):
    """Run a builder that leaves its result in R0."""
    res = run(lambda a: (f(a), a.exit()))
    assert res.ok, res.fault
    return res.ret


def test_add_wraps_64():
    assert expr(lambda a: (a.ld_imm64(R0, isa.U64), a.add(R0, 1))) == 0


def test_sub_wraps():
    assert expr(lambda a: (a.mov(R0, 0), a.sub(R0, 1))) == isa.U64


def test_mul_div_mod():
    assert expr(lambda a: (a.mov(R0, 7), a.mul(R0, 6))) == 42
    assert expr(lambda a: (a.mov(R0, 45), a.div(R0, 6))) == 7
    assert expr(lambda a: (a.mov(R0, 45), a.mod(R0, 6))) == 3


def test_div_by_zero_yields_zero_mod_keeps_dst():
    assert expr(lambda a: (a.mov(R0, 45), a.mov(R1, 0), a.div(R0, R1))) == 0
    assert expr(lambda a: (a.mov(R0, 45), a.mov(R1, 0), a.mod(R0, R1))) == 45


def test_alu32_truncates():
    assert expr(lambda a: (a.ld_imm64(R0, 0xFFFF_FFFF), a.add32(R0, 1))) == 0


def test_shifts():
    assert expr(lambda a: (a.mov(R0, 1), a.lsh(R0, 40))) == 1 << 40
    assert expr(lambda a: (a.ld_imm64(R0, 1 << 40), a.rsh(R0, 8))) == 1 << 32
    # arsh keeps the sign bit
    assert expr(lambda a: (a.ld_imm64(R0, isa.U64), a.arsh(R0, 4))) == isa.U64


def test_neg():
    assert expr(lambda a: (a.mov(R0, 5), a.neg(R0))) == isa.U64 - 4


def test_mov_imm_sign_extends_64():
    assert expr(lambda a: a.mov(R0, -1)) == isa.U64
    assert expr(lambda a: a.mov32(R0, -1)) == 0xFFFF_FFFF


def test_jmp32_compares_low_bits():
    def build(a):
        a.ld_imm64(R1, (1 << 32) | 5)
        a.mov(R0, 0)
        a.jcc("==", R1, 5, "yes", width32=True)
        a.exit()
        a.label("yes")
        a.mov(R0, 1)
        a.exit()

    assert run(build).ret == 1


def test_signed_compare():
    def build(a):
        a.mov(R1, -5)  # sign-extended
        a.mov(R0, 0)
        a.jcc("s<", R1, 0, "neg")
        a.exit()
        a.label("neg")
        a.mov(R0, 1)
        a.exit()

    assert run(build).ret == 1


def test_jset():
    def build(a):
        a.mov(R1, 0b1010)
        a.mov(R0, 0)
        a.jcc("&", R1, 0b0010, "hit")
        a.exit()
        a.label("hit")
        a.mov(R0, 1)
        a.exit()

    assert run(build).ret == 1


def test_stack_store_load_all_sizes():
    def build(a):
        a.ld_imm64(R1, 0x1122_3344_5566_7788)
        a.stx(R10, R1, -8, 8)
        a.ldx(R0, R10, -8, 4)  # low word, little-endian
        a.exit()

    assert run(build).ret == 0x5566_7788


def test_byteswap_to_be():
    def build(a):
        a.mov(R0, 0x1234)
        a.raw(Insn(isa.BPF_ALU | isa.BPF_END | isa.BPF_X, 0, 0, 0, 16))
        a.exit()

    assert run(build).ret == 0x3412


def test_atomic_add_and_fetch():
    def build(a):
        a.st_imm(R10, -8, 10, 8)
        a.mov(R1, 5)
        a.atomic(R10, R1, -8, isa.ATOMIC_ADD | isa.BPF_FETCH, 8)
        # R1 now holds the old value (10); memory holds 15.
        a.ldx(R0, R10, -8, 8)
        a.add(R0, R1)
        a.exit()

    assert run(build).ret == 25


def test_atomic_xchg():
    def build(a):
        a.st_imm(R10, -8, 7, 8)
        a.mov(R1, 9)
        a.atomic(R10, R1, -8, isa.ATOMIC_XCHG, 8)
        a.ldx(R0, R10, -8, 8)
        a.add(R0, R1)  # 9 (new mem) + 7 (old val)
        a.exit()

    assert run(build).ret == 16


def test_atomic_cmpxchg():
    def build(a):
        a.st_imm(R10, -8, 7, 8)
        a.mov(R0, 7)   # expected
        a.mov(R1, 11)  # new
        a.atomic(R10, R1, -8, isa.ATOMIC_CMPXCHG, 8)
        a.ldx(R2, R10, -8, 8)
        a.mov(R0, R2)
        a.exit()

    assert run(build).ret == 11


def test_unmapped_load_faults():
    def build(a):
        a.ld_imm64(R1, 0xDEAD_0000)
        a.ldx(R0, R1, 0, 8)
        a.exit()

    res = run(build)
    assert not res.ok
    assert res.fault.kind == "page"


def test_hard_step_limit_reports_stall():
    """The default limit is ``env.max_steps`` (``DEFAULT_MAX_STEPS``
    unless set), honoured by both engines when ``run()`` gets no
    ``max_steps``; spinning to the real 50M default would only retest
    the same comparison for a minute."""
    from repro.ebpf.engine import ThreadedEngine
    from repro.ebpf.interpreter import DEFAULT_MAX_STEPS

    a = Assembler()
    a.label("spin")
    a.jmp("spin")
    insns = a.assemble()
    assert ExecEnv(aspace=AddressSpace(), helpers=HelperTable()).max_steps \
        == DEFAULT_MAX_STEPS
    for cls in (Interpreter, ThreadedEngine):
        env = ExecEnv(aspace=AddressSpace(), helpers=HelperTable(),
                      max_steps=1234)
        res = cls(insns, env).run()
        assert not res.ok and res.fault.kind == "stall"
        assert res.steps == 1234
        res = cls(insns, env).run(max_steps=100)
        assert not res.ok and res.fault.kind == "stall"
        assert res.steps == 100


def test_store_outside_allowed_regions_panics():
    aspace = AddressSpace()
    aspace.map_region(0x5000_0000, 4096, "kernel:secrets")

    a = Assembler()
    a.ld_imm64(R1, 0x5000_0000)
    a.st_imm(R1, 0, 0x41, 8)
    a.exit()
    env = ExecEnv(
        aspace=aspace, helpers=HelperTable(), allowed_store_regions=("stack:",)
    )
    with pytest.raises(KernelPanic):
        Interpreter(a.assemble(), env).run()


def test_costs_accumulate_with_custom_table():
    a = Assembler()
    a.mov(R0, 1)
    a.mov(R1, 2)
    a.exit()
    insns = a.assemble()
    env = ExecEnv(aspace=AddressSpace(), helpers=HelperTable())
    res = Interpreter(insns, env, costs=[10, 20, 1]).run()
    assert res.cost == 31


def test_helper_call_clobbers_r1_to_r5():
    from repro.ebpf.helpers import BPF_KTIME_GET_NS, HelperTable

    table = HelperTable()
    table.bind(BPF_KTIME_GET_NS, lambda env: 1234)
    a = Assembler()
    a.mov(R1, 99)
    a.call(BPF_KTIME_GET_NS)
    a.mov(R0, R1)  # clobbered to 0
    a.exit()
    env = ExecEnv(aspace=AddressSpace(), helpers=table)
    assert Interpreter(a.assemble(), env).run().ret == 0
