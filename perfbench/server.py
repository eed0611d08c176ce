"""Benchmark server: one serving workload in its own process.

Builds the workload's service and datapath, prints ``{"ready": ...}``
with its port, then serves until told to stop.  Control is one JSON
object per line on stdin, answered on stdout:

* ``{"cmd": "stats"}`` — cumulative counters (plus the trace summary of
  everything since the last reset, when traced) and peak RSS;
* ``{"cmd": "reset"}`` — drop recorded spans (call while idle);
* ``{"cmd": "reload", "n": N}`` — warm-reload the served program N times
  through the runtime (every pipeline stage a cache hit), timing each;
* ``{"cmd": "stop"}`` — graceful drain; checks that every request took
  the XDP fast path and that the kernel is quiescent.

Run: ``python3 perfbench/server.py --workload W [--trace]`` with ``src``
on ``PYTHONPATH``.  ``--trace`` installs the span tracer
(:mod:`spans`) before anything is built.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import resource
import sys
import time

import plan as P
from child import reply


def build(workload: str):
    """The service and datapath for a serving workload, not started."""
    from repro.net import TcpDatapath, UdpDatapath, build_service

    w = P.SERVING[workload]
    if workload == "mc-udp-read":
        svc = build_service("memcached", fallback="none", perf_mode=True)
        dp = UdpDatapath(
            svc, cpu=0, batch_size=w["batch_size"],
            batch_timeout=w["batch_timeout_s"],
        )
        return svc, dp
    from repro.net.service import DurableMemcachedService
    from repro.state import DurableStore, MemStorage
    from repro.state.replication import LocalChannel, QuorumShipper, ReplicaSession

    follower = LocalChannel("f1", ReplicaSession(MemStorage(), node_id="f1"))
    shipper = QuorumShipper([follower], sync_replicas=1)
    store = DurableStore(storage=MemStorage(), sync_every=1, shipper=shipper)
    svc = DurableMemcachedService(store=store, capacity=4096)
    return svc, TcpDatapath(svc, cpu=0, batch_size=w["batch_size"])


def counters(svc, dp) -> dict:
    """Cumulative counters the per-layer metrics are computed from."""
    batched = sum(s * c for s, c in dp.stats.batch_hist.items())
    shed = dp.admission.stats
    return {
        "requests": svc.stats.requests,
        "kernel_tx": svc.stats.kernel_tx,
        "batches": dp.stats.batches,
        "batched": batched,
        "admitted": shed.admitted,
        "shed": shed.shed_inflight + shed.shed_queue + shed.shed_draining,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reload_once(svc) -> float:
    """Warm reload of the served program; returns seconds.  The copy
    is translated (bound to an engine), then unloaded and dropped."""
    ext, rt = svc.ext, svc.runtime
    warm_before = rt.pipeline.stats.warm_loads
    t0 = time.perf_counter()
    if ext.heap is not None:
        new = rt.load(ext.program, heap=ext.heap, attach=False, perf_mode=True)
    else:
        new = rt.load(ext.program, mode="ebpf", attach=False)
    new.batch_invoker(0)
    dt = time.perf_counter() - t0
    if rt.pipeline.stats.warm_loads != warm_before + 1:
        raise RuntimeError("warm reload missed the program cache")
    new.unload()
    rt.extensions.remove(new)
    return dt


async def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(P.SERVING))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    svc, dp = build(args.workload)
    await dp.start()
    gc.collect()
    gc.freeze()

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    reply({"ready": True, "port": dp.port})
    while line := await reader.readline():
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "stats":
            out = {"counters": counters(svc, dp), "peak_rss_mb": peak_rss_mb()}
            if tracer is not None:
                out["trace"] = dataclasses.asdict(tracer.summary())
            reply(out)
        elif cmd == "reset":
            if tracer is not None:
                tracer.reset()
            reply({"ok": True})
        elif cmd == "reload":
            reply({"reload_s": [reload_once(svc) for _ in range(msg["n"])]})
        elif cmd == "stop":
            break
    quiescence = await dp.stop(drain_timeout=5.0)
    c = counters(svc, dp)
    reply({
        "counters": c,
        "quiescence": quiescence,
        "fastpath_ratio": c["kernel_tx"] / c["requests"] if c["requests"] else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    })


if __name__ == "__main__":
    asyncio.run(main())
