"""Threaded-code execution engine with a compiled hot tier.

The reference interpreter (:mod:`repro.ebpf.interpreter`) re-decodes
every instruction on every step: an ``if/elif`` chain over the opcode,
attribute reads on the ``Insn``, dict lookups to resolve jump slots,
and a ``bisect`` region walk for every memory access.  That decode work
dwarfs the actual semantics — the same interpreter-vs-JIT gap the real
eBPF runtime closes with its JIT.

:class:`ThreadedEngine` closes that gap in two tiers, staying in pure
Python.

**Tier 0 (threaded code).**  A one-time translation pass compiles each
instruction of a verified, instrumented, JIT-lowered program into one
specialised closure with everything burned in — opcode dispatch,
operand extraction, sign extension and width masks, jump targets
resolved from slot offsets, GUARD / TRANSLATE / CANCELPT constants,
helper argument counts and costs.  Execution is a tight
``pc = handlers[pc](regs)`` loop.  Loads and stores consult a small
cache of region handles ``(base, end, backing bytes, populated pages)``
and fall back to the paged :class:`~repro.kernel.addrspace.
AddressSpace` for anything else (unmapped addresses, unpopulated pages,
SMAP traps, store-policy violations, protection-key faults), so fault
semantics are bit-identical to the interpreter.  The cache is
revalidated against the address space's ``generation``, the active
protection-key set and the store policy at every ``run()``.

**Tier 1 (compiled).**  Once an engine has executed
:data:`TIER_UP_STEPS_PER_INSN` steps per instruction of its program, it
generates Python source for the whole program and compiles it with
``compile()`` into *one* function (:func:`compile_program`): registers
are locals, basic blocks are native ``if``/``while`` code charged their
steps and cost once per block, and every memory access is bound to one
region handle chosen by a forward pointer-kind pass (ctx / stack /
packet / heap / other), checked with one bounds-and-population test and
served by ``struct.unpack_from`` / ``pack_into``; a miss takes the
generic paged path.  The code object is env-free and cached in the
pipeline's ``ProgramCache`` (stage ``codegen``); everything
env-specific — the region handles, the helper table, the tier-0
handlers — is a factory argument, so rebinding costs one call.

A block that would cross the stall-limit or watchdog checkpoint is not
entered: the compiled function returns its state and tier 0
single-steps through the checkpoint, re-entering compiled code at the
next dispatch head.  A fault inside a block recovers the exact pc from
the site index the block recorded and the exact steps and cost from
static per-pc remainders.  ``ExecResult`` is therefore bit-identical
across the interpreter and both tiers.

Cycle accounting is unchanged: per-instruction costs are the same
JIT-lowered array the interpreter charges (cost is per-insn *data*,
independent of host dispatch speed), so every figure's numbers are
identical under either engine — only wall-clock changes.

The interpreter remains the reference semantics and the ``"interp"``
escape hatch; ``tests/test_engine_equivalence.py`` asserts
``ExecResult`` parity (ret, cost, steps, fault kind/index, registers)
between the engines over randomized programs and every fault path,
with the compiled tier forced.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import (
    ExtensionFault,
    HelperFault,
    KernelPanic,
    LoadError,
    LockStall,
    PageFault,
    SleepStall,
    StackFault,
)
from repro.ebpf import isa
from repro.ebpf.helpers import DECLARATIONS, Ret
from repro.ebpf.isa import U32, U64, sign_extend
from repro.ebpf.interpreter import (
    ALU_BINOPS,
    JMP_TESTS,
    ExecResult,
    Fault,
    Interpreter,
    STACK_SIZE,
    exec_atomic,
)

#: Canonical user/kernel split (see Interpreter.USER_SPACE_TOP).
USER_SPACE_TOP = 1 << 47

#: Cap on cached region handles per engine; beyond this the slow path
#: simply stops promoting regions (correctness is unaffected).
MAX_CACHED_REGIONS = 8

#: Tier-up threshold: an engine compiles its program once it has
#: executed this many steps per instruction of the program.  Codegen
#: costs about as much as this many tier-0 steps save (derivation in
#: DESIGN.md, "Execution engine").
TIER_UP_STEPS_PER_INSN = 100

_ZERO_REGS = [0] * 11

#: Region handle that never matches (an unbound pointer kind).
_NO_REGION = (0, 0, b"", None)


class _ExitSignal(Exception):
    """Control-flow signal raised by the EXIT handler."""


_EXIT = _ExitSignal()


@dataclass
class TierStats:
    """Compiled-tier counters (shared by every engine of a pipeline)."""

    #: Engines that bound compiled code (freshly generated or cached).
    tier_ups: int = 0
    #: Dispatch heads handed to tier 0 because the code inlined below
    #: them could cross a stall-limit or watchdog checkpoint.
    deopts: int = 0
    #: Memory sites that took the generic paged path with their pointer
    #: kind already bound to another region (or to none eligible).
    fallback_sites: int = 0


class ThreadedEngine:
    """Executes one translated program.  Drop-in for ``Interpreter``:
    same constructor signature, same ``run()`` contract, same
    ``ExecResult``.  Unlike the interpreter it is built once per loaded
    program and reused across invocations — translation state, the
    region-handle cache, the register file and the compiled tier are
    all pooled.

    ``codegen(smap, compile)`` supplies tier-1 code: the pipeline's
    cached stage, or (by default) an uncached :func:`compile_program`.
    With ``compile=False`` it only returns code that already exists.
    """

    #: The constructor takes ``codegen=`` and ``tier_stats=``.
    tiered = True

    def __init__(
        self,
        insns,
        env,
        *,
        costs: list[int] | None = None,
        helper_costs: dict[int, int] | None = None,
        codegen=None,
        tier_stats: TierStats | None = None,
    ):
        self.insns = insns
        self.env = env
        self.costs = costs if costs is not None else [1] * len(insns)
        self.helper_costs = helper_costs or {}
        slot_of = isa.slot_offsets(insns)
        self._slot_of = slot_of
        self._slot_to_idx = {s: i for i, s in enumerate(slot_of)}

        # Mutable run state shared with handlers.  The cache lists are
        # closed over by memory handlers, so they are mutated in place
        # (never rebound) on refresh.
        self._xcost = [0]  # helper cost accumulated this run
        self._ld_cache: list[tuple] = []  # (base, end, data, pages|None)
        self._st_cache: list[tuple] = []
        self._cached_bases: set[int] = set()
        self._cache_key = None
        self._regs = [0] * 11
        self._running = False

        # Compiled tier.  ``_ld_kind``/``_st_kind`` hold the region
        # handle each pointer kind is bound to; they are copied into
        # the compiled function's closure, so changing them flags a
        # rebind (done at the next outermost run).
        self._codegen = codegen or self._codegen_uncached
        self.tier = tier_stats if tier_stats is not None else TierStats()
        self._hot_steps = TIER_UP_STEPS_PER_INSN * len(insns)
        self._warm_steps = 0
        self._peek = True  # first run binds code that already exists
        self._compiled = None
        self._fn = None
        self._rebind = False
        self._ld_kind = [_NO_REGION] * N_KINDS
        self._st_kind = [_NO_REGION] * N_KINDS
        self._fallbacks: set[int] = set()
        #: Runs served (at least partly) by compiled code.
        self.compiled_runs = 0

        self._smap = bool(env.smap)
        self.handlers = self._translate()

    # -- entry ----------------------------------------------------------

    def run(self, ctx_addr: int = 0, max_steps: int | None = None) -> ExecResult:
        env = self.env
        if bool(env.smap) != self._smap:
            # The SMAP policy is burned into load handlers and into the
            # compiled code's key; re-translate if a test flipped it on
            # a cached engine (hot engines re-tier at once).
            self._smap = bool(env.smap)
            self.handlers = self._translate()
            if self._compiled is not None:
                self._warm_steps = max(self._warm_steps, self._hot_steps)
            self._compiled = self._fn = None
            self._peek = True
        stack = env.stack_base or env.ensure_stack()
        self._refresh_caches()

        nested = self._running
        if nested:
            # Re-entrant invocation: do not clobber the pooled file.
            regs = [0] * 11
        else:
            regs = self._regs
            regs[:] = _ZERO_REGS
            if self._fn is None:
                if self._warm_steps >= self._hot_steps:
                    self.tier_up()
                elif self._peek:
                    self._peek = False
                    self._adopt(self._codegen(self._smap, False))
            elif self._rebind:
                self._bind()
        regs[isa.FP] = stack + STACK_SIZE
        regs[1] = ctx_addr & U64

        xc = self._xcost
        xc_outer = xc[0]
        xc[0] = 0
        pc = 0
        steps = 0
        cost = 0
        limit = max_steps if max_steps is not None else env.max_steps
        handlers = self.handlers
        costs = self.costs
        n = len(handlers)
        watchdog = env.watchdog
        wd_period = env.watchdog_period
        # Single check per iteration: the next step count at which
        # either the stall limit or the watchdog needs servicing.
        next_wd = wd_period if watchdog is not None else limit + 1
        checkpoint = next_wd if next_wd < limit else limit
        fn = self._fn
        code = self._compiled
        # ``resume``: run compiled code next (tier 0 otherwise).
        resume = fn is not None
        heads = code.heads if resume else ()
        self.compiled_runs += resume
        self._running = True
        try:
            while True:
                if resume:
                    # Compiled code charges helper costs into ``cost``.
                    cost += xc[0]
                    xc[0] = 0
                    pc, steps, cost, exc = fn(regs, pc, steps, cost, checkpoint)
                    if exc is not None:
                        # ``pc`` is the faulting site; its block was
                        # charged in full, so take back the remainder.
                        steps -= code.rem_steps[pc]
                        cost -= code.rem_costs[pc]
                        raise exc
                    if pc < 0:
                        return ExecResult(
                            regs[0], cost, steps, regs=list(regs),
                            stack_base=stack,
                        )
                    # The block at ``pc`` would cross the checkpoint:
                    # single-step through it in tier 0, then re-enter
                    # compiled code at the next dispatch head.
                    self.tier.deopts += 1
                    resume = False
                while True:
                    if pc >= n:
                        raise KernelPanic(f"pc {pc} fell off program end")
                    if steps >= checkpoint:
                        # Order matters for parity: stall limit first,
                        # then the watchdog — same as the interpreter.
                        if steps >= limit:
                            return self._fault(
                                regs, pc, cost + xc[0], steps, stack, "stall",
                                message="hard step limit (hardlockup)",
                            )
                        watchdog(cost + xc[0])
                        next_wd = steps + wd_period
                        checkpoint = next_wd if next_wd < limit else limit
                        resume = fn is not None
                    elif resume and pc in heads:
                        break
                    steps += 1
                    cost += costs[pc]
                    pc = handlers[pc](regs)
        except _ExitSignal as e:
            # _EXIT is a preallocated singleton: re-raising an instance
            # that still carries a traceback *chains* the old frames
            # onto the new one (tb_next), pinning every invocation's
            # frame graph forever.  Drop it before the instance is
            # raised again.
            e.__traceback__ = None
            return ExecResult(
                regs[0], cost + xc[0], steps, regs=list(regs), stack_base=stack
            )
        except PageFault as pf:
            return self._fault(regs, pc, cost + xc[0], steps, stack, "page",
                               pf.addr, str(pf))
        except LockStall as ls:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "lock_stall", message=str(ls))
        except SleepStall as ss:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "sleep_stall", message=str(ss))
        except HelperFault as hf:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "helper", message=str(hf))
        except StackFault as sf:
            return self._fault(regs, pc, cost + xc[0], steps, stack,
                               "page", message=str(sf))
        finally:
            self._running = nested
            xc[0] = xc_outer
            if fn is None:
                self._warm_steps += steps

    def _fault(self, regs, pc, cost, steps, stack, kind, addr=0, message=""):
        insns = self.insns
        insn = insns[pc] if pc < len(insns) else None
        orig = insn.orig_idx if insn is not None else None
        if orig is None and insn is not None:
            orig = pc
        return ExecResult(
            0, cost, steps, Fault(kind, pc, orig, addr, message),
            regs=list(regs), stack_base=stack,
        )

    # -- compiled tier ---------------------------------------------------

    def tier_up(self) -> None:
        """Compile (or fetch the cached code for) this program and bind
        it now.  Normally reached when the engine turns hot; tests call
        it to exercise the compiled tier from the first run."""
        self._peek = False
        self._warm_steps = 0  # code that cannot bind: retry when hot again
        self._adopt(self._codegen(self._smap, True))

    def _codegen_uncached(self, smap: bool, compile: bool):
        if not compile:
            return None
        heap = self.env.heap
        return compile_program(
            self.insns, self.costs, self.helper_costs, smap=smap,
            heap_span=None if heap is None else (heap.base, heap.size),
        )

    def _adopt(self, code) -> None:
        # Code generated for a heap binds only to an env with one (and
        # vice versa): GUARD is compiled inline only with a heap.
        if code is None or code.has_heap != (self.env.heap is not None):
            return
        self._compiled = code
        self.tier.tier_ups += 1
        self._bind()

    def _bind(self) -> None:
        """One factory call: bind the cached code to this env."""
        env = self.env
        heap = env.heap
        self._rebind = False
        if heap is None:
            hconst = (0, 0, b"", 0, 0)
        else:
            hconst = (heap.base, heap.mask, heap.region.backing.data,
                      heap.terminate_cell - heap.base, heap.terminate_target)
        self._fn = self._compiled.factory(
            env, env.helpers.invoke, self.handlers, *hconst,
            tuple(self._ld_kind), tuple(self._st_kind),
            self._ld_generic, self._st_generic,
        )

    def _bind_kind(self, kind: int, addr: int, store: bool) -> bool:
        """Bind ``kind`` to the cached region holding ``addr``, if it is
        eligible for a handle.  Load handles never cover the SMAP window:
        compiled code checks SMAP only on its generic path."""
        for entry in self._st_cache if store else self._ld_cache:
            base, end = entry[0], entry[1]
            if base <= addr < end:
                if (not store and self._smap and base < USER_SPACE_TOP
                        and end > 4096):
                    return False
                (self._st_kind if store else self._ld_kind)[kind] = entry
                self._rebind = True
                return True
        return False

    def _ld_generic(self, addr: int, size: int, kind: int, pc: int) -> int:
        value = self._slow_load(addr, size)
        self._learn(kind, addr, False, pc)
        return value

    def _st_generic(self, addr: int, value: int, size: int, kind: int,
                    pc: int) -> None:
        self._slow_store(addr, value, size)
        self._learn(kind, addr, True, pc)

    def _learn(self, kind: int, addr: int, store: bool, pc: int) -> None:
        """After a generic access: bind an unbound kind to the region it
        reached; count the site if its kind is bound elsewhere (or the
        region is ineligible).  Bindings are sticky until the region
        cache is revalidated, so a polymorphic site cannot thrash."""
        h = (self._st_kind if store else self._ld_kind)[kind]
        if h is _NO_REGION:
            if self._bind_kind(kind, addr, store):
                return
        elif h[0] <= addr < h[1]:
            return  # bound this run; the rebind is pending
        if pc not in self._fallbacks:
            self._fallbacks.add(pc)
            self.tier.fallback_sites += 1

    # -- memory fast path ------------------------------------------------

    def _refresh_caches(self) -> None:
        """Revalidate the region-handle cache against mapping state.

        The cache key covers everything an entry's eligibility was
        decided on: the address space's map/unmap generation, the
        active protection-key set, and the store policy.  Anything else
        that changes mid-run (page population, backing contents) is
        shared by reference and needs no invalidation.  A change also
        resets the compiled tier's kind bindings to the heap and stack.
        """
        asp = self.env.aspace
        pkeys = asp.active_pkeys
        key = (
            asp.generation,
            None if pkeys is None else frozenset(pkeys),
            self.env.allowed_store_regions,
        )
        if key == self._cache_key:
            return
        self._cache_key = key
        self._ld_cache.clear()
        self._st_cache.clear()
        self._cached_bases.clear()
        self._ld_kind[:] = [_NO_REGION] * N_KINDS
        self._st_kind[:] = [_NO_REGION] * N_KINDS
        self._rebind = True
        heap = self.env.heap
        if heap is not None and not heap.closed:
            self._admit(heap.region)
            for store in (False, True):
                self._bind_kind(K_HEAP, heap.base, store)
        if self.env.stack_base:
            region = asp.find_region(self.env.stack_base)
            if region is not None:
                self._admit(region)
                for store in (False, True):
                    self._bind_kind(K_STACK, region.base, store)

    def _admit(self, region) -> None:
        """Add a region's handle to the fast-path caches if eligible."""
        if region.base in self._cached_bases:
            return
        if len(self._cached_bases) >= MAX_CACHED_REGIONS:
            return
        asp = self.env.aspace
        if (
            region.pkey is not None
            and asp.active_pkeys is not None
            and region.pkey not in asp.active_pkeys
        ):
            return  # slow path raises the protection-key fault
        backing = region.backing
        pages = None if backing.all_populated else backing.populated
        entry = (region.base, region.base + region.size, backing.data, pages)
        self._cached_bases.add(region.base)
        self._ld_cache.append(entry)
        allowed = self.env.allowed_store_regions
        if region.writable and (
            allowed is None or region.name.startswith(allowed)
        ):
            self._st_cache.append(entry)

    def _slow_load(self, addr: int, size: int) -> int:
        value = self.env.aspace.read_int(addr, size)
        self._promote(addr)
        return value

    def _slow_store(self, addr: int, value: int, size: int) -> None:
        self._check_store(addr)
        self.env.aspace.write_int(addr, value, size)
        self._promote(addr)

    def _promote(self, addr: int) -> None:
        """After a successful slow access, cache the region for next time."""
        if len(self._cached_bases) >= MAX_CACHED_REGIONS:
            return
        region = self.env.aspace.find_region(addr)
        if region is not None:
            self._admit(region)

    def _check_store(self, addr: int) -> None:
        # Mirrors Interpreter._check_store exactly.
        allowed = self.env.allowed_store_regions
        if allowed is None:
            return
        region = self.env.aspace.find_region(addr)
        if region is not None and not region.name.startswith(allowed):
            raise KernelPanic(
                f"extension store to kernel-owned region {region.name!r} "
                f"at {addr:#x} — memory corruption"
            )

    # -- translation -----------------------------------------------------

    def _translate(self) -> list:
        return [self._compile(i, insn) for i, insn in enumerate(self.insns)]

    def _raiser(self, exc_cls, message: str):
        def h(regs, exc_cls=exc_cls, message=message):
            raise exc_cls(message)

        return h

    def _compile(self, i: int, insn):
        op = insn.opcode
        cls = op & isa.CLASS_MASK
        npc = i + 1
        if cls == isa.BPF_ALU64 or cls == isa.BPF_ALU:
            return self._compile_alu(insn, cls == isa.BPF_ALU64, npc)
        if cls == isa.BPF_LDX:
            return self._compile_ldx(insn, npc)
        if cls == isa.BPF_LD:
            if insn.is_ld_imm64:
                value = (insn.imm64 or 0) & U64
                d = insn.dst

                def h(regs, d=d, value=value, npc=npc):
                    regs[d] = value
                    return npc

                return h
            return self._raiser(ExtensionFault, f"unsupported LD mode {op:#x}")
        if cls == isa.BPF_ST or cls == isa.BPF_STX:
            if insn.is_atomic:
                return self._compile_atomic(insn, npc)
            return self._compile_store(insn, npc)
        if cls == isa.BPF_JMP or cls == isa.BPF_JMP32:
            return self._compile_jmp(i, insn, cls == isa.BPF_JMP32, npc)
        return self._raiser(ExtensionFault, f"unknown opcode {op:#x}")

    # -- ALU -------------------------------------------------------------

    def _compile_alu(self, insn, is64: bool, npc: int):
        # Tier 0 runs cold code only: one closure shape per operation
        # class, sharing the interpreter's semantics table.
        op = insn.opcode & isa.OP_MASK
        use_reg = bool(insn.opcode & isa.BPF_X)
        d = insn.dst
        s = insn.src
        mask = U64 if is64 else U32

        if op == isa.BPF_END:
            # Width is checked at run time, so malformed programs fail
            # at execution exactly like the interpreter.
            def h(regs, d=d, width=insn.imm, use_reg=use_reg, npc=npc):
                val = regs[d] & ((1 << width) - 1)
                if use_reg:  # BPF_X encodes "to_be"
                    val = int.from_bytes(val.to_bytes(width // 8, "little"), "big")
                regs[d] = val
                return npc

            return h

        if op == isa.BPF_NEG:

            def h(regs, d=d, mask=mask, npc=npc):
                regs[d] = -regs[d] & mask
                return npc

            return h

        fn = ALU_BINOPS.get(op)
        if fn is None:
            return self._raiser(ExtensionFault, f"unknown ALU op {op:#x}")
        if use_reg:

            def h(regs, d=d, s=s, fn=fn, is64=is64, mask=mask, npc=npc):
                regs[d] = fn(regs[d] & mask, regs[s] & mask, is64) & mask
                return npc

        else:
            b = sign_extend(insn.imm, 32) & U64 if is64 else insn.imm & U32

            def h(regs, d=d, b=b, fn=fn, is64=is64, mask=mask, npc=npc):
                regs[d] = fn(regs[d] & mask, b, is64) & mask
                return npc

        return h

    # -- memory ----------------------------------------------------------

    def _compile_ldx(self, insn, npc: int):
        d = insn.dst
        s = insn.src
        off = insn.off
        size = isa.size_bytes(insn.opcode)
        ld = self._ld_cache
        slow = self._slow_load

        def h(regs, d=d, s=s, off=off, size=size, npc=npc, ld=ld, slow=slow,
              smap=self._smap):
            addr = (regs[s] + off) & U64
            if smap and 4096 <= addr < USER_SPACE_TOP:
                raise PageFault(
                    addr, f"SMAP: supervisor access to user address {addr:#x}"
                )
            for base, end, data, pages in ld:
                if base <= addr and addr + size <= end:
                    o = addr - base
                    if pages is None:
                        regs[d] = int.from_bytes(data[o : o + size], "little")
                        return npc
                    p0 = o >> 12
                    p1 = (o + size - 1) >> 12
                    if p0 in pages and (p1 == p0 or p1 in pages):
                        regs[d] = int.from_bytes(data[o : o + size], "little")
                        return npc
                    break
            regs[d] = slow(addr, size)
            return npc

        return h

    def _compile_store(self, insn, npc: int):
        """ST (immediate) and STX (register) through the region cache."""
        size = isa.size_bytes(insn.opcode)
        src = insn.src if (insn.opcode & isa.CLASS_MASK) == isa.BPF_STX else None

        def h(regs, d=insn.dst, s=src, imm=insn.imm & U64, off=insn.off,
              size=size, mask=(1 << (size * 8)) - 1, npc=npc,
              st=self._st_cache, slow=self._slow_store):
            addr = (regs[d] + off) & U64
            value = imm if s is None else regs[s]
            for base, end, data, pages in st:
                if base <= addr and addr + size <= end:
                    o = addr - base
                    if pages is not None:
                        p1 = (o + size - 1) >> 12
                        if (o >> 12) not in pages or p1 not in pages:
                            break
                    data[o : o + size] = (value & mask).to_bytes(size, "little")
                    return npc
            slow(addr, value, size)
            return npc

        return h

    def _compile_atomic(self, insn, npc: int):
        d = insn.dst
        s = insn.src
        off = insn.off
        size = isa.size_bytes(insn.opcode)
        aop = insn.imm
        check = self._check_store
        aspace = self.env.aspace

        def h(regs, d=d, s=s, off=off, size=size, aop=aop, npc=npc,
              check=check, aspace=aspace):
            addr = (regs[d] + off) & U64
            check(addr)
            exec_atomic(aspace, regs, aop, s, addr, size)
            return npc

        return h

    # -- jumps / calls / pseudo-instructions ------------------------------

    def _compile_jmp(self, i: int, insn, is32: bool, npc: int):
        op = insn.opcode
        env = self.env

        if op == isa.KFLEX_GUARD:
            heap = env.heap
            if heap is None:
                return self._raiser(KernelPanic, "GUARD without an extension heap")
            hb = heap.base
            hm = heap.mask
            d = insn.dst

            def h(regs, d=d, hb=hb, hm=hm, npc=npc):
                regs[d] = (hb + (regs[d] & hm)) & U64
                return npc

            return h

        if op == isa.KFLEX_TRANSLATE:
            heap = env.heap
            if heap is None:
                return self._raiser(KernelPanic, "TRANSLATE without a shared heap")
            hm = heap.mask
            d = insn.dst

            def h(regs, d=d, heap=heap, hm=hm, npc=npc):
                # user_base is read at run time: map_user() may happen
                # after load, exactly as the interpreter observes it.
                ub = heap.user_base
                if not ub:
                    raise KernelPanic("TRANSLATE without a shared heap")
                regs[d] = (ub + (regs[d] & hm)) & U64
                return npc

            return h

        if op == isa.KFLEX_CANCELPT:
            heap = env.heap
            if heap is None:
                return self._raiser(KernelPanic, "CANCELPT without an extension heap")
            # The terminate cell lives in the heap's always-populated
            # header page: read the backing directly.  The dereference
            # of the loaded pointer succeeds iff it still points at the
            # terminate target; anything else (0 when armed) takes the
            # paged path and faults exactly like the interpreter.
            hdata = heap.region.backing.data
            toff = heap.terminate_cell - heap.base
            tt = heap.terminate_target
            read = env.aspace.read_int

            def h(regs, env=env, heap=heap, hdata=hdata, toff=toff, tt=tt,
                  read=read, npc=npc):
                # Fault injection first, matching the interpreter's
                # CANCELPT order exactly (injected fault, then the
                # terminate-pointer dereference).
                inj = env.injector
                if inj is not None:
                    inj.at_cancelpt(env.aspace, heap)
                term = int.from_bytes(hdata[toff : toff + 8], "little")
                if term != tt:
                    read(term, 1)
                return npc

            return h

        if insn.is_call:
            helpers = env.helpers
            hid = insn.imm
            try:
                decl = helpers.declaration(hid)
            except HelperFault:
                # Unknown helper: fault at execution, like the interpreter.
                def h(regs, helpers=helpers, hid=hid):
                    helpers.declaration(hid)
                    raise HelperFault(f"call to unknown helper id {hid}")

                return h
            n_args = decl.n_args
            hcost = self.helper_costs.get(hid, decl.cost)
            invoke = helpers.invoke
            xc = self._xcost
            end = 1 + n_args

            def h(regs, invoke=invoke, hid=hid, env=env, end=end, hcost=hcost,
                  xc=xc, npc=npc):
                ret = invoke(hid, env, tuple(regs[1:end]))
                regs[0] = (ret or 0) & U64
                # R1-R5 are caller-saved: clobber them, as the JIT would.
                regs[1] = 0
                regs[2] = 0
                regs[3] = 0
                regs[4] = 0
                regs[5] = 0
                xc[0] += hcost
                return npc

            return h

        if insn.is_exit:

            def h(regs):
                raise _EXIT

            return h

        # Branches: pre-resolve the taken target from slot offsets.
        op_hi = op & isa.OP_MASK
        tslot = self._slot_of[i] + insn.slots + insn.off
        t = self._slot_to_idx.get(tslot)
        panic_msg = f"jump to mid-instruction slot {tslot}"

        if op_hi == isa.BPF_JA:
            if t is None:
                return self._raiser(KernelPanic, panic_msg)

            def h(regs, t=t):
                return t

            return h

        test = JMP_TESTS.get(op_hi)
        if test is None:
            return self._raiser(ExtensionFault, f"unknown jump op {op_hi:#x}")

        cond = self._make_cond(insn, is32, test)
        if t is None:
            # Malformed taken-target: panic only if the branch is taken.
            def h(regs, cond=cond, npc=npc, msg=panic_msg):
                if cond(regs):
                    raise KernelPanic(msg)
                return npc

            return h

        def h(regs, cond=cond, t=t, npc=npc):
            return t if cond(regs) else npc

        return h

    def _make_cond(self, insn, is32: bool, test):
        """``regs -> bool`` closure with Interpreter._branch semantics."""
        mask = U32 if is32 else U64
        half = 1 << (31 if is32 else 63)
        src = insn.src if insn.opcode & isa.BPF_X else None

        def cond(regs, d=insn.dst, s=src, b=sign_extend(insn.imm, 32) & mask,
                 mask=mask, half=half, test=test):
            a = regs[d] & mask
            if s is not None:
                b = regs[s] & mask
            sa = a - 2 * half if a >= half else a
            return test(a, b, sa, b - 2 * half if b >= half else b)

        return cond


# ---------------------------------------------------------------------------
# Compiled tier: code generation
# ---------------------------------------------------------------------------

#: Pointer kinds of the forward kind pass.  Each kind owns one region
#: handle per access direction in bound code; a kind the pass cannot
#: pin down is ``K_OTHER``, which binds to the first region it touches.
K_CTX, K_STACK, K_PKT, K_HEAP, K_OTHER = range(5)
N_KINDS = 5

#: Deepest ``if`` nesting, and longest chain, of inlined blocks below a
#: dispatch head; beyond either a block becomes a dispatch head itself
#: (Python caps indentation at 100 levels, and emission recurses once
#: per inlined block).
_MAX_NEST = 40
_MAX_CHAIN = 200

_M64 = hex(U64)
_M32 = hex(U32)
_REGS = ", ".join(f"r{i}" for i in range(11))

#: Names the generated module sees as globals.
_CODE_GLOBALS = {
    "KP": KernelPanic,
    "PF": PageFault,
    **{f"UNPACK{n}": struct.Struct(f).unpack_from
       for n, f in ((2, "<H"), (4, "<I"), (8, "<Q"))},
    **{f"PACK{n}": struct.Struct(f).pack_into
       for n, f in ((2, "<H"), (4, "<I"), (8, "<Q"))},
    **{f"ALU_{op:#x}": fn for op, fn in ALU_BINOPS.items()},
}

#: Native comparison operator of each unsigned / JSET jump test.
_CMP = {
    isa.BPF_JEQ: "==", isa.BPF_JNE: "!=", isa.BPF_JGT: ">",
    isa.BPF_JGE: ">=", isa.BPF_JLT: "<", isa.BPF_JLE: "<=",
    isa.BPF_JSET: "&",
}
#: Signed tests compare operands with the sign bit flipped, which maps
#: two's-complement order onto unsigned order.
_SCMP = {
    isa.BPF_JSGT: ">", isa.BPF_JSGE: ">=", isa.BPF_JSLT: "<",
    isa.BPF_JSLE: "<=",
}
#: Native 64-bit ALU expressions (``{d}`` destination, ``{b}`` operand).
_ALU64 = {
    isa.BPF_MOV: "{b}",
    isa.BPF_ADD: f"({{d}} + {{b}}) & {_M64}",
    isa.BPF_SUB: f"({{d}} - {{b}}) & {_M64}",
    isa.BPF_MUL: f"({{d}} * {{b}}) & {_M64}",
    isa.BPF_AND: "{d} & {b}",
    isa.BPF_OR: "{d} | {b}",
    isa.BPF_XOR: "{d} ^ {b}",
}


@dataclass(frozen=True)
class CompiledProgram:
    """Codegen output: env-free, so one instance serves every engine of
    the same lowered program and SMAP flag (cached in the pipeline's
    ``codegen`` stage).  ``factory(env, invoke, handlers, heap_base,
    heap_mask, terminate_data, terminate_off, terminate_target,
    ld_handles, st_handles, ld_generic, st_generic)``
    returns the bound function ``fn(regs, pc, steps, cost, checkpoint)
    -> (pc, steps, cost, exc)``."""

    factory: object
    #: Dispatch heads: the pcs compiled code can be (re-)entered at.
    heads: frozenset
    #: Per pc: steps and cost of the rest of its block after it.
    rem_steps: tuple
    rem_costs: tuple
    has_heap: bool


def compile_program(insns, costs, helper_costs=None, *, smap: bool,
                    heap_span: tuple | None) -> CompiledProgram:
    """Generate and compile the tier-1 function for a lowered program.

    ``heap_span`` is ``(base, size)`` of the extension heap the program
    was relocated against (or None); it only steers the kind pass and
    whether GUARD compiles inline.  Every other env-specific value is a
    factory argument."""
    return _Codegen(insns, costs, helper_costs or {}, smap, heap_span).build()


class _Codegen:
    def __init__(self, insns, costs, helper_costs, smap, heap_span):
        self.insns = insns
        self.costs = costs
        self.helper_costs = helper_costs
        self.smap = smap
        self.heap_span = heap_span
        self.n = n = len(insns)
        slot_of = isa.slot_offsets(insns)
        to_idx = {s: i for i, s in enumerate(slot_of)}
        #: Per pc: None (straight-line), ("exit",), ("ja", t) or
        #: ("cond", t); t is None for a mid-instruction slot target.
        self.term = [self._terminator(insn, slot_of[i], to_idx)
                     for i, insn in enumerate(insns)]
        leaders = {0}
        for i, t in enumerate(self.term):
            if t is not None:
                if i + 1 < n:
                    leaders.add(i + 1)
                if len(t) > 1 and t[1] is not None:
                    leaders.add(t[1])
        starts = sorted(x for x in leaders if x < n)
        #: block start -> last pc of the block.
        self.end = {s: e - 1 for s, e in zip(starts, starts[1:] + [n])}
        self.lines: list[str] = []
        self.ld_used: set = set()
        self.st_used: set = set()

    # -- control flow --------------------------------------------------

    def _terminator(self, insn, slot: int, to_idx: dict):
        """Mirrors ThreadedEngine._compile_jmp's decision order."""
        op = insn.opcode
        cls = op & isa.CLASS_MASK
        if cls != isa.BPF_JMP and cls != isa.BPF_JMP32:
            return None
        if op in (isa.KFLEX_GUARD, isa.KFLEX_TRANSLATE, isa.KFLEX_CANCELPT):
            return None
        if insn.is_call:
            return None
        if insn.is_exit:
            return ("exit",)
        op_hi = op & isa.OP_MASK
        t = to_idx.get(slot + insn.slots + insn.off)
        if op_hi == isa.BPF_JA:
            return ("ja", t)
        if op_hi in JMP_TESTS:
            return ("cond", t)
        return None  # unknown jump op: a tier-0 raiser

    def succs(self, b: int) -> list[int]:
        """Successor block starts (``n`` = falls off the program)."""
        e = self.end[b]
        t = self.term[e]
        if t is None:
            return [e + 1]
        if t[0] == "exit":
            return []
        if t[0] == "ja":
            return [] if t[1] is None else [t[1]]
        return ([] if t[1] is None else [t[1]]) + [e + 1]

    # -- pointer kinds -------------------------------------------------

    def kinds(self) -> dict:
        """Forward pass: the pointer kind of every register at every
        reachable block start (unequal kinds join to K_OTHER)."""
        entry = [K_OTHER] * 11
        entry[1] = K_CTX
        entry[isa.FP] = K_STACK
        state = {0: entry}
        work = [0]
        while work:
            b = work.pop()
            k = list(state[b])
            for i in range(b, self.end[b] + 1):
                self._kind_step(k, self.insns[i])
            for s in self.succs(b):
                if s >= self.n:
                    continue
                old = state.get(s)
                if old is None:
                    state[s] = list(k)
                elif any(o != x and o != K_OTHER for o, x in zip(old, k)):
                    state[s] = [o if o == x else K_OTHER
                                for o, x in zip(old, k)]
                else:
                    continue
                work.append(s)
        return state

    def _kind_step(self, k: list, insn) -> None:
        op = insn.opcode
        cls = op & isa.CLASS_MASK
        d = insn.dst
        if cls == isa.BPF_ALU64 or cls == isa.BPF_ALU:
            alu = op & isa.OP_MASK
            if cls == isa.BPF_ALU64 and alu == isa.BPF_MOV and op & isa.BPF_X:
                k[d] = k[insn.src]
            elif not (cls == isa.BPF_ALU64 and alu in (isa.BPF_ADD, isa.BPF_SUB)):
                k[d] = K_OTHER  # pointer arithmetic keeps the kind
        elif cls == isa.BPF_LD:
            k[d] = K_OTHER
            span = self.heap_span
            if insn.is_ld_imm64 and span is not None:
                if span[0] <= (insn.imm64 or 0) & U64 < span[0] + span[1]:
                    k[d] = K_HEAP
        elif cls == isa.BPF_LDX:
            src = k[insn.src]
            if src == K_CTX:
                k[d] = K_PKT
            elif src == K_HEAP and isa.size_bytes(op) == 8:
                k[d] = K_HEAP
            else:
                k[d] = K_OTHER
        elif cls == isa.BPF_STX and insn.is_atomic:
            k[0] = k[insn.src] = K_OTHER
        elif op == isa.KFLEX_GUARD:
            k[d] = K_HEAP
        elif op == isa.KFLEX_TRANSLATE:
            k[d] = K_OTHER
        elif insn.is_call:
            decl = DECLARATIONS.get(insn.imm)
            heap_ret = decl is not None and decl.ret == Ret.HEAP_OR_NULL
            k[0] = K_HEAP if heap_ret else K_OTHER
            k[1:6] = [K_OTHER] * 5

    # -- layout ----------------------------------------------------------

    def layout(self, reach: set) -> set:
        """Pick dispatch heads: the entry, every block without exactly
        one predecessor edge, and blocks nested too deep to inline."""
        preds: dict = {}
        for b in reach:
            for s in self.succs(b):
                preds[s] = preds.get(s, 0) + 1
        heads = {b for b in reach if b == 0 or preds.get(b, 0) != 1}
        todo = sorted(heads)
        while todo:
            stack = [(todo.pop(), 0, 0)]
            while stack:
                b, depth, chain = stack.pop()
                if (depth > _MAX_NEST or chain > _MAX_CHAIN) and b not in heads:
                    heads.add(b)
                    todo.append(b)
                    continue
                ss = self.succs(b)
                for j, s in enumerate(ss):
                    if s < self.n and s not in heads:
                        # A taken branch nests one level deeper.
                        nest = len(ss) == 2 and j == 0
                        stack.append((s, depth + nest, chain + 1))
        return heads

    # -- emission --------------------------------------------------------

    def emit(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def build(self) -> CompiledProgram:
        n = self.n
        state = self.kinds()
        reach = set(state)
        self.state = state
        self.heads = heads = self.layout(reach)
        rem_steps = [0] * n
        rem_costs = [0] * n
        for b, e in self.end.items():
            acc = 0
            for i in range(e, b - 1, -1):
                rem_steps[i] = e - i
                rem_costs[i] = acc
                acc += self.costs[i]

        body = self.lines
        self._tree(sorted(heads), 4)
        self.lines = []
        self.emit(0, "def factory(ENV, INV, HN, HB, HM, TD, TO, TT, HL, HS, "
                     "LD, ST):")
        for prefix, used, src in (("", self.ld_used, "HL"),
                                  ("S", self.st_used, "HS")):
            for k in sorted({k for k, _ in used}):
                self.emit(1, f"{prefix}B{k}, {prefix}E{k}, {prefix}D{k}, "
                             f"{prefix}P{k} = {src}[{k}]")
            for k, size in sorted(used):
                self.emit(1, f"{prefix}L{k}_{size} = "
                             f"{prefix}E{k} - {prefix}B{k} - {size}")
        self.emit(1, "def run(R, pc, S, C, CK):")
        self.emit(2, f"{_REGS} = R")
        self.emit(2, "q = 0")
        self.emit(2, "try:")
        self.emit(3, "while True:")
        self.lines += body
        self.emit(3, f"R[:] = {_REGS}")
        self.emit(3, "return pc, S, C, None")
        self.emit(2, "except Exception as e:")
        # A negative site spilled its registers to R before the fault.
        self.emit(3, "if q < 0:")
        self.emit(4, "q = ~q")
        self.emit(3, "else:")
        self.emit(4, f"R[:] = {_REGS}")
        self.emit(3, "return q, S, C, e")
        self.emit(1, "return run")
        ns = dict(_CODE_GLOBALS)
        exec(compile("\n".join(self.lines), "<kflex-compiled>", "exec"), ns)
        return CompiledProgram(
            ns["factory"], frozenset(heads), tuple(rem_steps),
            tuple(rem_costs), self.heap_span is not None,
        )

    def _tree(self, hs: list, ind: int) -> None:
        """Binary dispatch over the heads.  Every block ends in a
        transfer, so the upper half follows the ``if`` unindented."""
        while len(hs) > 1:
            mid = len(hs) // 2
            self.emit(ind, f"if pc < {hs[mid]}:")
            self._tree(hs[:mid], ind + 1)
            hs = hs[mid:]
        # One checkpoint test per head covers every block inlined
        # below it: enter only if the longest inlined path fits.
        h = hs[0]
        self.emit(ind, f"if S + {self._longest(h)} > CK:")
        self.emit(ind + 1, "break")
        self._block(h, ind)

    def _longest(self, b: int) -> int:
        """Steps of the longest path through ``b`` and the blocks
        inlined below it (up to the next dispatch head)."""
        inner = [self._longest(s) for s in self.succs(b)
                 if s < self.n and s not in self.heads]
        return self.end[b] - b + 1 + max(inner, default=0)

    def _goto(self, t: int, ind: int) -> None:
        if t >= self.n:
            self.emit(ind, f'raise KP("pc {t} fell off program end")')
        elif t in self.heads:
            self.emit(ind, f"pc = {t}")
            self.emit(ind, "continue")
        else:
            self._block(t, ind)

    def _block(self, b: int, ind: int) -> None:
        e = self.end[b]
        self.emit(ind, f"S += {e - b + 1}")
        self.emit(ind, f"C += {sum(self.costs[b:e + 1])}")
        kinds = list(self.state[b])
        for i in range(b, e + 1):
            insn = self.insns[i]
            if self.term[i] is None:
                self._insn(i, insn, kinds, ind)
                self._kind_step(kinds, insn)
        t = self.term[e]
        if t is None:
            self._goto(e + 1, ind)
        elif t[0] == "exit":
            self.emit(ind, "pc = -1")
            self.emit(ind, "break")
        elif t[0] == "ja":
            if t[1] is None:
                self._mid_slot(self.insns[e], e, ind)
            else:
                self._goto(t[1], ind)
        else:
            self.emit(ind, f"if {self._cond(self.insns[e])}:")
            if t[1] is None:
                self._mid_slot(self.insns[e], e, ind + 1)
            else:
                self._goto(t[1], ind + 1)
            self._goto(e + 1, ind)

    def _mid_slot(self, insn, i: int, ind: int) -> None:
        tslot = isa.slot_offsets(self.insns)[i] + insn.slots + insn.off
        self.emit(ind, f'raise KP("jump to mid-instruction slot {tslot}")')

    def _cond(self, insn) -> str:
        op = insn.opcode
        op_hi = op & isa.OP_MASK
        is32 = (op & isa.CLASS_MASK) == isa.BPF_JMP32
        mask = U32 if is32 else U64
        if op & isa.BPF_X:
            a, b = f"r{insn.dst}", f"r{insn.src}"
            if is32:
                a, b = f"(r{insn.dst} & {_M32})", f"(r{insn.src} & {_M32})"
        else:
            a = f"(r{insn.dst} & {_M32})" if is32 else f"r{insn.dst}"
            b = sign_extend(insn.imm, 32) & mask
        if op_hi in _CMP:
            return f"{a} {_CMP[op_hi]} {b}"
        flip = 1 << (31 if is32 else 63)
        b = b ^ flip if isinstance(b, int) else f"({b} ^ {flip})"
        return f"({a} ^ {flip}) {_SCMP[op_hi]} {b}"

    def _spill(self, i: int, ind: int) -> None:
        """Run the tier-0 handler over the register file."""
        self.emit(ind, f"R[:] = {_REGS}")
        self.emit(ind, f"q = {~i}")
        self.emit(ind, f"HN[{i}](R)")
        self.emit(ind, f"{_REGS} = R")

    def _insn(self, i: int, insn, kinds: list, ind: int) -> None:
        op = insn.opcode
        cls = op & isa.CLASS_MASK
        d = insn.dst
        emit = self.emit
        if cls == isa.BPF_ALU64 or cls == isa.BPF_ALU:
            expr = self._alu(insn, cls == isa.BPF_ALU64)
            if expr is None:
                self._spill(i, ind)
            else:
                emit(ind, f"r{d} = {expr}")
        elif cls == isa.BPF_LD:
            if insn.is_ld_imm64:
                emit(ind, f"r{d} = {(insn.imm64 or 0) & U64}")
            else:
                self._spill(i, ind)
        elif cls == isa.BPF_LDX:
            self._load(i, insn, kinds[insn.src], ind)
        elif cls == isa.BPF_ST:
            size = isa.size_bytes(op)
            self._store(i, insn, kinds[d], ind,
                        insn.imm & U64 & ((1 << (size * 8)) - 1),
                        insn.imm & U64)
        elif cls == isa.BPF_STX and not insn.is_atomic:
            size = isa.size_bytes(op)
            v = f"r{insn.src}"
            self._store(i, insn, kinds[d], ind,
                        v if size == 8 else f"{v} & {(1 << (size * 8)) - 1}", v)
        elif op == isa.KFLEX_GUARD and self.heap_span is not None:
            emit(ind, f"r{d} = (HB + (r{d} & HM)) & {_M64}")
        elif op == isa.KFLEX_CANCELPT and self.heap_span is not None:
            # Disarmed and no injector: the terminate pointer still
            # holds its target, and the dereference cannot fault.
            # Otherwise the tier-0 handler (it touches no registers)
            # does both in the interpreter's order.
            emit(ind, "if ENV.injector is not None or UNPACK8(TD, TO)[0] != TT:")
            emit(ind + 1, f"q = {i}")
            emit(ind + 1, f"HN[{i}](R)")
        elif insn.is_call and insn.imm in DECLARATIONS:
            decl = DECLARATIONS[insn.imm]
            args = "".join(f"r{r}, " for r in range(1, 1 + decl.n_args))
            emit(ind, f"q = {i}")
            emit(ind, f"r0 = INV({insn.imm}, ENV, ({args})) or 0")
            emit(ind, f"r0 &= {_M64}")
            emit(ind, "r1 = r2 = r3 = r4 = r5 = 0")
            emit(ind, f"C += {self.helper_costs.get(insn.imm, decl.cost)}")
        else:
            # Atomics, TRANSLATE, odd widths and every raiser.
            self._spill(i, ind)

    def _alu(self, insn, is64: bool) -> str | None:
        op = insn.opcode & isa.OP_MASK
        d = f"r{insn.dst}"
        use_reg = insn.opcode & isa.BPF_X
        if op == isa.BPF_END:
            width = insn.imm
            if width not in (16, 32, 64):
                return None
            mask = hex((1 << width) - 1)
            if use_reg:  # BPF_X encodes "to_be"
                return (f"int.from_bytes(({d} & {mask}).to_bytes("
                        f"{width // 8}, 'little'), 'big')")
            return f"{d} & {mask}"
        if op == isa.BPF_NEG:
            return f"-{d} & {_M64 if is64 else _M32}"
        if op not in ALU_BINOPS:
            return None
        if is64:
            b = f"r{insn.src}" if use_reg else str(sign_extend(insn.imm, 32) & U64)
            if op in _ALU64:
                return _ALU64[op].format(d=d, b=b)
            if op == isa.BPF_LSH:
                sh = f"({b} & 63)" if use_reg else insn.imm & 63
                return f"({d} << {sh}) & {_M64}"
            if op == isa.BPF_RSH:
                sh = f"({b} & 63)" if use_reg else insn.imm & 63
                return f"{d} >> {sh}"
            return f"ALU_{op:#x}({d}, {b}, True) & {_M64}"
        b = f"r{insn.src} & {_M32}" if use_reg else str(insn.imm & U32)
        return f"ALU_{op:#x}({d} & {_M32}, {b}, False) & {_M32}"

    def _check(self, p: str, k: int, size: int, off: str) -> str:
        """Bounds-and-population test of offset ``off`` in handle ``k``."""
        # A page-crossing access takes the generic path.
        pages = f"({off} >> 12) in {p}P{k}"
        if size > 1:
            pages += f" and {off} & 4095 <= {4096 - size}"
        return (f"0 <= {off} <= {p}L{k}_{size} and "
                f"({p}P{k} is None or ({pages}))")

    def _addr(self, reg: int, off: int) -> str:
        return f"r{reg} + {off}" if off else f"r{reg}"

    def _load(self, i: int, insn, k: int, ind: int) -> None:
        size = isa.size_bytes(insn.opcode)
        self.ld_used.add((k, size))
        addr = self._addr(insn.src, insn.off)
        d = f"r{insn.dst}"
        emit = self.emit
        emit(ind, f"o = {addr} - B{k}")
        emit(ind, f"if {self._check('', k, size, 'o')}:")
        emit(ind + 1, f"{d} = D{k}[o]" if size == 1
             else f"{d} = UNPACK{size}(D{k}, o)[0]")
        emit(ind, "else:")
        emit(ind + 1, f"q = {i}")
        emit(ind + 1, f"a = ({addr}) & {_M64}")
        if self.smap:
            emit(ind + 1, f"if 4096 <= a < {USER_SPACE_TOP}:")
            emit(ind + 2, 'raise PF(a, "SMAP: supervisor access to user '
                          'address %#x" % a)')
        emit(ind + 1, f"{d} = LD(a, {size}, {k}, {i})")

    def _store(self, i: int, insn, k: int, ind: int, fast, value) -> None:
        """``fast``: the width-masked value; ``value``: what the generic
        path stores (it masks itself)."""
        size = isa.size_bytes(insn.opcode)
        self.st_used.add((k, size))
        addr = self._addr(insn.dst, insn.off)
        emit = self.emit
        emit(ind, f"o = {addr} - SB{k}")
        emit(ind, f"if {self._check('S', k, size, 'o')}:")
        if size == 1:
            emit(ind + 1, f"SD{k}[o] = {fast}")
        else:
            emit(ind + 1, f"PACK{size}(SD{k}, o, {fast})")
        emit(ind, "else:")
        emit(ind + 1, f"q = {i}")
        emit(ind + 1, f"ST(({addr}) & {_M64}, {value}, {size}, {k}, {i})")


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------

#: Available execution engines.  ``"interp"`` is the reference
#: interpreter (the semantics oracle and escape hatch); ``"threaded"``
#: is the default fast path.
ENGINES: dict[str, type] = {
    "interp": Interpreter,
    "threaded": ThreadedEngine,
}

_default_engine = os.environ.get("REPRO_ENGINE", "threaded")


def default_engine() -> str:
    """The engine name new :class:`~repro.core.runtime.KFlexRuntime`
    instances pick up (``REPRO_ENGINE`` env var, default ``threaded``)."""
    return _default_engine


def set_default_engine(name: str) -> None:
    global _default_engine
    if name not in ENGINES:
        raise LoadError(
            f"unknown execution engine {name!r} (have: {sorted(ENGINES)})"
        )
    _default_engine = name


@contextmanager
def engine_scope(name: str):
    """Temporarily override the default engine (benchmarks, A/B tests)."""
    global _default_engine
    prev = _default_engine
    set_default_engine(name)
    try:
        yield
    finally:
        _default_engine = prev


def make_engine(name: str, insns, env, *, costs=None, helper_costs=None,
                codegen=None, tier_stats=None):
    """Construct the named engine over a lowered instruction list.

    ``codegen``/``tier_stats`` feed the compiled tier (see
    :class:`ThreadedEngine`); engines without one — the reference
    interpreter — ignore them and stay the semantics oracle.
    """
    cls = ENGINES.get(name)
    if cls is None:
        raise LoadError(
            f"unknown execution engine {name!r} (have: {sorted(ENGINES)})"
        )
    if getattr(cls, "tiered", False):
        return cls(insns, env, costs=costs, helper_costs=helper_costs,
                   codegen=codegen, tier_stats=tier_stats)
    return cls(insns, env, costs=costs, helper_costs=helper_costs)
