"""Network-datapath benchmark: kernel fast path vs userspace fallback.

The paper's headline Memcached result (Fig. 2) is that serving GETs
from the XDP ingress hook beats forwarding them to the userspace server
because the fast path skips the rest of the network stack and the
kernel/user boundary.  The reproduction's datapath (:mod:`repro.net`)
makes that skip physically real over loopback:

* **kernel leg** — a :class:`~repro.net.service.ExtensionService`
  running the Memcached KFlex extension; every request is answered at
  the ingress hook (``XDP_TX``), one socket hop total;
* **userspace leg** — the same datapath with no extension; every
  request pays the modelled stack traversal
  (:meth:`~repro.kernel.net.NetStack.stack_deliver`) and a *second*
  real UDP hop (:class:`~repro.net.datapath.UserspaceBridge` ->
  :class:`~repro.net.datapath.UserspaceEndpoint`) to a stock server
  running the identical table bytecode as a bare KMod load — the
  ``XDP_PASS`` delivery path, costed by the same convention as the
  Fig. 2 models (``apps/memcached/userspace.py``).

Two measurements per leg:

* a **closed-loop** run (N clients, one outstanding request each) for
  latency percentiles and the per-request view;
* an **open-loop** run (burst offered load, bounded outstanding
  window) for sustainable packets-per-second — the measurement where
  batched ingress matters, because a backlog exists to amortize.  The
  kernel leg is swept across ``BATCH_SIZES`` to produce the
  pps-vs-batch-size curve; the userspace leg cannot batch away its
  per-packet bridge hop, so it runs unbatched.

The gate: best kernel open-loop pps must be at least ``SPEEDUP_FLOOR``
x the userspace leg's open-loop pps, and must not regress more than
``REGRESSION_TOLERANCE`` against the committed baseline
``benchmarks/results/BENCH_net.json``.

.. code-block:: console

    $ python benchmarks/bench_net_datapath.py            # print results
    $ python benchmarks/bench_net_datapath.py --update   # refresh baseline
    $ python benchmarks/bench_net_datapath.py --check    # gate (make bench-net)
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
BASELINE_JSON = HERE / "results" / "BENCH_net.json"

#: Acceptance floor: kernel fast path >= 3x userspace fallback
#: (open-loop pps, batched ingress + compiled engine tier).
SPEEDUP_FLOOR = 3.0
#: Wall-clock socket benchmarks are noisy; gate loosely vs baseline.
REGRESSION_TOLERANCE = 0.50

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 400
N_KEYS = 128
SET_EVERY = 16  # GET-heavy: the Fig. 2 read-mostly mix
REPS = 3  # keep the best of N runs per leg (min wall-clock noise)

#: Open-loop sweep: ingress batch sizes for the pps curve.
BATCH_SIZES = (1, 4, 16, 64)
#: Ingress time budget while batching (seconds).
BATCH_TIMEOUT = 0.002
OPEN_LOOP = {"duration_s": 0.8}
OPEN_REPS = 3


def _open_loop_params(batch: int) -> dict:
    # The outstanding window must scale with the batch size or large
    # batches can never fill (window=128 at batch=64 leaves at most two
    # batches of backlog in front of the server).
    return {
        **OPEN_LOOP,
        "window": max(128, 4 * batch),
        "burst": max(16, batch),
    }


def _workload_and_matcher():
    from repro.apps.memcached import protocol as P

    def workload(cid, seq):
        key = (cid * 31 + seq) % N_KEYS
        if seq % SET_EVERY == 0:
            return key, P.encode_set(key, cid * 100_000 + seq)
        return key, P.encode_get(key)

    def matcher(req, rep):
        return len(rep) == P.PKT_SIZE and rep[8:40] == req[8:40]

    return workload, matcher


async def _warm(dp):
    """Seed the store over the wire so timed runs are steady-state."""
    from repro.net import UdpLoadGenerator
    from repro.apps.memcached import protocol as P

    _, matcher = _workload_and_matcher()
    warm = UdpLoadGenerator(
        [dp.port],
        lambda cid, seq: (seq, P.encode_set(seq, seq)),
        n_clients=1,
        requests_per_client=N_KEYS,
        matcher=matcher,
    )
    await warm.run()


async def _closed_loop(dp) -> dict:
    from repro.net import UdpLoadGenerator

    workload, matcher = _workload_and_matcher()
    best = None
    for _ in range(REPS):
        gen = UdpLoadGenerator(
            [dp.port],
            workload,
            n_clients=N_CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            matcher=matcher,
        )
        res = await gen.run()
        assert res.failures == 0, f"leg had {res.failures} failed requests"
        if best is None or res.throughput_rps > best.throughput_rps:
            best = res
    return {
        "throughput_rps": round(best.throughput_rps, 1),
        "p50_us": round(best.latency.percentile(50) / 1e3, 1),
        "p99_us": round(best.latency.percentile(99) / 1e3, 1),
        "replies": best.replies,
    }


async def _open_loop(dp, batch: int = 1) -> float:
    from repro.net import OpenLoopUdpGenerator
    from repro.apps.memcached import protocol as P

    # Pre-encoded GETs: a pps generator does not re-marshal per packet.
    pkts = [P.encode_get(k) for k in range(N_KEYS)]
    best = 0.0
    for _ in range(OPEN_REPS):
        gen = OpenLoopUdpGenerator(
            [dp.port],
            lambda cid, seq: (seq % N_KEYS, pkts[seq % N_KEYS]),
            **_open_loop_params(batch),
        )
        res = await gen.run()
        best = max(best, res.pps)
    return best


def _kernel_service():
    # perf_mode matches the paper's Memcached configuration (§5.2's
    # performance mode: sparse cancellation checkpoints).
    from repro.net import build_service

    return build_service("memcached", fallback="none", perf_mode=True)


async def _userspace_setup():
    # The stock server executes the *same table bytecode* as a bare
    # KMod load — the repo-wide comparison convention (see
    # apps/memcached/userspace.py): all legs' data-structure costs come
    # from one implementation and differ only in path.  It runs as a
    # real separate process (repro.net.userspace_proc), the way stock
    # Memcached does: the PASS path pays genuine scheduler handoffs,
    # not a same-event-loop shortcut.
    from repro.net import UserspaceBridge, build_service
    from repro.net.userspace_proc import spawn

    server = spawn()
    bridge = await UserspaceBridge(server.port).start()
    svc = build_service(
        "memcached", fallback="userspace", userspace=bridge.request
    )

    def cleanup():
        bridge.close()
        server.close()

    return svc, cleanup


async def _bench() -> dict:
    from repro.net import UdpDatapath

    # Kernel leg, closed loop (unbatched: one request outstanding per
    # client leaves nothing to batch; this run is the latency view).
    kernel_svc = _kernel_service()
    dp = await UdpDatapath(kernel_svc, cpu=0).start()
    await _warm(dp)
    kernel = await _closed_loop(dp)
    kernel["service"] = {
        "kernel_tx": kernel_svc.stats.kernel_tx,
        "userspace_pass": kernel_svc.stats.userspace_pass,
    }
    await dp.stop()
    assert kernel_svc.stats.userspace_pass == 0, "kernel leg fell through"
    gc.collect()

    # Kernel leg, open loop: pps vs ingress batch size.
    curve = {}
    mean_batches = {}
    for batch in BATCH_SIZES:
        svc = _kernel_service()
        dp = await UdpDatapath(
            svc, cpu=0, batch_size=batch, batch_timeout=BATCH_TIMEOUT
        ).start()
        await _warm(dp)
        curve[str(batch)] = round(await _open_loop(dp, batch), 1)
        mean_batches[str(batch)] = round(dp.stats.mean_batch(), 1)
        await dp.stop()
        assert svc.stats.userspace_pass == 0, "kernel leg fell through"
        # Each leg retires a full service graph (kernel, heaps, engine
        # closures) that is cyclic and only dies in a gen2 collection;
        # collect now so GC pauses can't bleed into the next leg.
        del svc, dp
        gc.collect()

    # Userspace leg: closed loop + open loop (unbatched — every packet
    # pays the bridge hop regardless of ingress batching).
    user_svc, cleanup = await _userspace_setup()
    dp = await UdpDatapath(user_svc, cpu=0).start()
    await _warm(dp)
    userspace = await _closed_loop(dp)
    userspace["service"] = {
        "kernel_tx": user_svc.stats.kernel_tx,
        "userspace_pass": user_svc.stats.userspace_pass,
    }
    userspace_pps = round(await _open_loop(dp), 1)
    await dp.stop()
    cleanup()
    assert user_svc.stats.kernel_tx == 0, "userspace leg used the fast path"

    best_batch = max(curve, key=lambda k: curve[k])
    return {
        "workload": (
            f"memcached UDP, {N_CLIENTS} clients x "
            f"{REQUESTS_PER_CLIENT} reqs closed loop + "
            f"{OPEN_LOOP['duration_s']}s open loop, 1/{SET_EVERY} sets"
        ),
        "kernel": kernel,
        "userspace": userspace,
        "open_loop": {
            **OPEN_LOOP,
            "window": "max(128, 4*batch)",
            "burst": "max(16, batch)",
            "batch_timeout_s": BATCH_TIMEOUT,
            "kernel_pps": curve,
            "kernel_mean_batch": mean_batches,
            "userspace_pps": userspace_pps,
            "best_batch": int(best_batch),
        },
        "speedup": round(curve[best_batch] / userspace_pps, 2),
        "closed_loop_speedup": round(
            kernel["throughput_rps"] / userspace["throughput_rps"], 2
        ),
    }


def run_benchmark() -> dict:
    return asyncio.run(_bench())


def format_result(result: dict) -> str:
    k, u, ol = result["kernel"], result["userspace"], result["open_loop"]
    lines = [
        "network datapath: kernel fast path vs userspace fallback",
        f"  ({result['workload']})",
        f"  kernel (XDP_TX)    {k['throughput_rps']:10,.0f} req/s   "
        f"p50 {k['p50_us']:7.1f} us   p99 {k['p99_us']:7.1f} us",
        f"  userspace (PASS)   {u['throughput_rps']:10,.0f} req/s   "
        f"p50 {u['p50_us']:7.1f} us   p99 {u['p99_us']:7.1f} us",
        "  open-loop pps vs ingress batch size:",
    ]
    for batch, pps in ol["kernel_pps"].items():
        lines.append(
            f"    batch {batch:>3}        {pps:10,.0f} pps    "
            f"(mean batch {ol['kernel_mean_batch'][batch]:.1f})"
        )
    lines += [
        f"    userspace        {ol['userspace_pps']:10,.0f} pps    (unbatched)",
        f"  speedup            {result['speedup']:10.2f} x      "
        f"(open loop, batch {ol['best_batch']}; floor {SPEEDUP_FLOOR}x; "
        f"closed loop {result['closed_loop_speedup']:.2f}x)",
    ]
    return "\n".join(lines)


def check_result(result: dict) -> tuple[bool, str]:
    if result["speedup"] < SPEEDUP_FLOOR:
        return False, (
            f"kernel/userspace speedup {result['speedup']:.2f}x below "
            f"the {SPEEDUP_FLOOR}x acceptance floor"
        )
    if not BASELINE_JSON.exists():
        return True, f"no baseline at {BASELINE_JSON}; floor-only gate passed"
    baseline = json.loads(BASELINE_JSON.read_text())
    floor = baseline["speedup"] * (1.0 - REGRESSION_TOLERANCE)
    ok = result["speedup"] >= floor
    msg = (
        f"speedup {result['speedup']:.2f}x vs baseline "
        f"{baseline['speedup']:.2f}x (floor {floor:.2f}x): "
        + ("OK" if ok else "REGRESSION")
    )
    return ok, msg


# -- pytest entry -------------------------------------------------------------


def test_net_datapath_speedup():
    from conftest import emit

    result = run_benchmark()
    emit("BENCH_net", format_result(result))
    assert result["speedup"] >= SPEEDUP_FLOOR, format_result(result)
    ok, msg = check_result(result)
    assert ok, msg


# -- standalone entry ---------------------------------------------------------


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--update", action="store_true",
                   help="rewrite the committed baseline BENCH_net.json")
    p.add_argument("--check", action="store_true",
                   help="fail below the 3x floor or on >50%% baseline "
                        "regression")
    args = p.parse_args(argv)

    result = run_benchmark()
    print(format_result(result))
    if args.update:
        BASELINE_JSON.parent.mkdir(exist_ok=True)
        BASELINE_JSON.write_text(json.dumps(result, indent=2) + "\n")
        print(f"baseline updated: {BASELINE_JSON}")
    if args.check:
        ok, msg = check_result(result)
        print(msg)
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
