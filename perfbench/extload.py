"""Extension-load worker: cold loads and warm reloads of every shipped
app extension, closed loop, one load at a time, in its own process.

Each corpus entry gets a fresh :class:`~repro.core.runtime.KFlexRuntime`
(so its ``ProgramCache`` starts cold); every program of the entry is
then loaded through ``KFlexRuntime.load`` and bound to an engine (the
translate stage) — the cold load — and loaded again on the same
runtime, where every cacheable stage must hit — the warm reload.  The
seed only shuffles the order of the corpus in each pass.  Before the
first timed run, and before the first traced one, one untimed pass
warms lazy imports and first-use paths.

Control is one JSON object per line on stdin, answered on stdout:

* ``{"cmd": "run", "seconds": s, "trace": bool}`` — load passes for
  ``s`` seconds; with ``trace`` the span tracer is installed first;
* ``{"cmd": "quit"}`` — reply with peak RSS and exit.

Run: ``python3 perfbench/extload.py --seed N`` with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import random
import resource
import sys
import time

from child import reply

_now = time.perf_counter


def _memcached(rt):
    from repro.apps.memcached.kflex_ext import STATIC_BYTES, build_memcached_program

    heap = rt.create_heap(1 << 26, name="kvmemc")
    prog = build_memcached_program(heap.reserve_static(STATIC_BYTES), heap_size=heap.size)
    return [(prog, {"heap": heap, "perf_mode": True})]


def _durable(rt):
    from repro.apps.memcached import protocol as P
    from repro.apps.memcached.durable_ext import build_durable_memcached_program
    from repro.ebpf.maps import HashMap

    k = rt.kernel
    cache = HashMap(k.aspace, k.vmalloc, key_size=P.KEY_SIZE,
                    value_size=P.VAL_SIZE, max_entries=4096)
    return [(build_durable_memcached_program(cache), {"mode": "ebpf"})]


def _redis(rt):
    from repro.apps.redis.kflex_ext import STATIC_BYTES, build_redis_program

    heap = rt.create_heap(1 << 26, name="kvredis")
    prog = build_redis_program(heap.reserve_static(STATIC_BYTES), heap_size=heap.size)
    return [(prog, {"heap": heap})]


def _ratelimit(rt):
    from repro.apps.ratelimit.ext import STATIC_BYTES, build_ratelimit_program

    heap = rt.create_heap(1 << 20, name="ratelimit")
    prog = build_ratelimit_program(heap.reserve_static(STATIC_BYTES), heap_size=heap.size)
    return [(prog, {"heap": heap})]


def _l4lb(rt):
    from repro.apps.l4lb.ext import build_l4lb_program
    from repro.apps.l4lb.ext import RING_SIZE
    from repro.ebpf.maps import ArrayMap, HashMap

    k = rt.kernel
    conn = HashMap(k.aspace, k.vmalloc, key_size=8, value_size=8, max_entries=4096)
    ring = ArrayMap(k.aspace, k.vmalloc, value_size=8, max_entries=RING_SIZE)
    return [(build_l4lb_program(conn, ring), {"mode": "ebpf"})]


def _datastructure(cls):
    """Every op of a Fig. 5 data structure, built the way its
    :class:`~repro.apps.datastructures.common.DataStructureExt`
    constructor builds them (without loading them there)."""

    def build(rt):
        from repro.ebpf.macroasm import MacroAsm
        from repro.ebpf.program import Program

        heap = rt.create_heap(1 << cls.HEAP_BITS, name=cls.NAME)
        static = heap.reserve_static(cls.STATIC_BYTES)
        emitter = cls.__new__(cls)  # the build_* emitters keep no state
        out = []
        for op in cls.OPS:
            emit = getattr(emitter, f"build_{op}", None)
            if emit is None:
                continue
            m = MacroAsm()
            emit(m, static)
            prog = Program(f"{cls.NAME}_{op}", m.assemble(), hook="bench",
                           heap_size=heap.size)
            out.append((prog, {"heap": heap}))
        return out

    return build


def corpus() -> dict:
    from repro.apps.datastructures import hashmap, linkedlist, rbtree, skiplist

    return {
        "memcached": _memcached,
        "memcached-durable": _durable,
        "redis": _redis,
        "ratelimit": _ratelimit,
        "l4lb": _l4lb,
        "hashmap": _datastructure(hashmap.HashMapDS),
        "linkedlist": _datastructure(linkedlist.LinkedListDS),
        "skiplist": _datastructure(skiplist.SkipListDS),
        "rbtree": _datastructure(rbtree.RBTreeDS),
    }


def pass_orders(seed: int, n_passes: int) -> list[list[str]]:
    """The seeded corpus order of each pass."""
    rng = random.Random(f"perfbench:ext-load:{seed}")
    names = sorted(corpus())
    out = []
    for _ in range(n_passes):
        order = names[:]
        rng.shuffle(order)
        out.append(order)
    return out


class Loader:
    def __init__(self, seed: int):
        from repro.core.runtime import KFlexRuntime
        from repro.errors import ReproError

        self.Runtime = KFlexRuntime
        self.errors = (ReproError,)
        self.builders = corpus()
        self.orders = pass_orders(seed, 1000)
        self.next_pass = 0

    def load_once(self, rt, prog, kwargs):
        ext = rt.load(prog, attach=False, **kwargs)
        ext.batch_invoker(0)  # bind to an engine: the translate stage
        return ext

    def load_entry(self, name: str, out: dict) -> None:
        """Cold load and warm reload every program of one corpus entry
        on a fresh runtime; appends to ``out``."""
        rt = self.Runtime()
        for prog, kwargs in self.builders[name](rt):
            try:
                t0 = _now()
                ext = self.load_once(rt, prog, kwargs)
                t1 = _now()
                warm_before = rt.pipeline.stats.warm_loads
                again = self.load_once(rt, prog, kwargs)
                t2 = _now()
            except self.errors as e:
                print(f"ext-load: {prog.name}: {e!r}", file=sys.stderr)
                out["failed"] += 1
                continue
            out["cold_s"].append(t1 - t0)
            out["warm_s"].append(t2 - t1)
            out["reload_hits"] += rt.pipeline.stats.warm_loads == warm_before + 1
            ext.unload()
            again.unload()

    def run(self, seconds: float) -> dict:
        """Whole passes until ``seconds`` have passed (at least one)."""
        out = {"cold_s": [], "warm_s": [], "failed": 0, "reload_hits": 0}
        deadline = _now() + seconds
        while True:
            for name in self.orders[self.next_pass % len(self.orders)]:
                self.load_entry(name, out)
                # Runtimes are cyclic garbage holding whole heaps.  The
                # last references to this one were load_entry's locals;
                # free it before the next is built (outside the
                # timings), so the peak RSS does not depend on the
                # corpus order.
                gc.collect()
            self.next_pass += 1
            if _now() >= deadline:
                break
        out["passes"] = self.next_pass
        return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    loader = Loader(args.seed)

    reply({"ready": True, "corpus": sorted(loader.builders)})
    tracer = None
    cold = True
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "run":
            if cmd.get("trace") and tracer is None:
                from spans import Tracer

                tracer = Tracer().install()
                cold = True
            if cold:
                loader.run(0.0)
                cold = False
            if tracer is not None:
                tracer.reset()
            out = loader.run(cmd["seconds"])
            if tracer is not None:
                out["trace"] = dataclasses.asdict(tracer.summary())
            reply(out)
        elif cmd["cmd"] == "quit":
            reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
            break


if __name__ == "__main__":
    main()
