"""Per-layer metrics from a traced run (see METRICS.md).

Time metrics are self times per request (serving) or per load
operation (ext-load), from :class:`spans.Summary`.  The ledger is
exact by construction: ``unattributed_us`` is the traced mean latency
minus the sum of every layer's mean self time, i.e. loopback, socket
queues, the generator and the event loop outside the traced calls.
"""

from __future__ import annotations

import statistics

from spans import Summary

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "net.client.lag_p99_us": "us",
    "net.client.sent": "count",
    "net.backpressure.shed_ratio": "ratio",
    "net.datapath.wait_us": "us",
    "net.datapath.self_us": "us",
    "net.datapath.mean_batch": "count",
    "net.service.self_us": "us",
    "net.service.fastpath_ratio": "ratio",
    "core.runtime.stage_us": "us",
    "core.runtime.invoke_self_us": "us",
    "ebpf.engine.run_us": "us",
    "ebpf.engine.steps_per_req": "count",
    "ebpf.engine.cost_per_req": "count",
    "ebpf.maps.lookup_us": "us",
    "ebpf.maps.update_us": "us",
    "ebpf.maps.calls_per_req": "count",
    "state.store.journal_us": "us",
    "state.wal.append_us": "us",
    "state.wal.flush_us": "us",
    "state.wal.records_per_set": "count",
    "state.replication.commit_us": "us",
    "state.replication.follower_us": "us",
    "state.replication.frames_per_commit": "count",
    "ebpf.pipeline.verify_ms": "ms",
    "ebpf.pipeline.instrument_ms": "ms",
    "ebpf.pipeline.lower_ms": "ms",
    "ebpf.pipeline.fuse_ms": "ms",
    "ebpf.pipeline.translate_ms": "ms",
    "ebpf.pipeline.reload_hit_ratio": "ratio",
    "ebpf.verifier.verify_ms": "ms",
    "unattributed_us": "us",
    "trace_overhead_us": "us",
}

#: Span name -> per-layer self-time metric (microseconds per op).
SELF_US = {
    "net.service": "net.service.self_us",
    "core.runtime.stage": "core.runtime.stage_us",
    "core.runtime.invoke": "core.runtime.invoke_self_us",
    "ebpf.engine": "ebpf.engine.run_us",
    "ebpf.maps.lookup": "ebpf.maps.lookup_us",
    "ebpf.maps.update": "ebpf.maps.update_us",
    "state.store.journal": "state.store.journal_us",
    "state.wal.append": "state.wal.append_us",
    "state.wal.flush": "state.wal.flush_us",
    "state.replication.commit": "state.replication.commit_us",
    "state.replication.follower": "state.replication.follower_us",
}

#: Load-path stages: span name -> metric (inclusive ms per cold load).
STAGE_MS = {
    "ebpf.pipeline.verify": "ebpf.pipeline.verify_ms",
    "ebpf.pipeline.instrument": "ebpf.pipeline.instrument_ms",
    "ebpf.pipeline.lower": "ebpf.pipeline.lower_ms",
    "ebpf.pipeline.fuse": "ebpf.pipeline.fuse_ms",
    "ebpf.verifier": "ebpf.verifier.verify_ms",
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _common(s: Summary, n_ops: int, cold_loads: int) -> dict:
    """Metrics computed the same way on every workload."""
    out = {m: s.self_ns.get(name, 0) / n_ops / 1e3 if n_ops else 0.0
           for name, m in SELF_US.items()}
    out["ebpf.engine.steps_per_req"] = _ratio(s.steps, n_ops)
    out["ebpf.engine.cost_per_req"] = _ratio(s.cost, n_ops)
    out["ebpf.maps.calls_per_req"] = _ratio(
        s.calls.get("ebpf.maps.lookup", 0) + s.calls.get("ebpf.maps.update", 0),
        n_ops)
    out["state.replication.frames_per_commit"] = _ratio(
        s.calls.get("state.replication.follower", 0),
        s.calls.get("state.replication.commit", 0))
    for name, m in STAGE_MS.items():
        out[m] = _ratio(s.incl_ns.get(name, 0), cold_loads) / 1e6
    out["ebpf.pipeline.translate_ms"] = _ratio(
        s.incl_ns.get("ebpf.pipeline.translate", 0),
        s.calls.get("ebpf.pipeline.translate", 0)) / 1e6
    return out


def serving_ledger(untraced: dict, traced: dict, before: dict, after: dict) -> dict:
    """``untraced``/``traced``: the generator's accounting of the two
    nominal-rate phases; ``before``/``after``: the traced server's
    stats around its phase (the tracer was reset just before)."""
    s = Summary(**after["trace"])
    n = s.requests
    if not n or s.admits != n or s.releases != n:
        raise RuntimeError(
            f"traced window not closed: {n} served, {s.admits} admitted, "
            f"{s.releases} released"
        )
    d = {k: after["counters"][k] - before["counters"][k] for k in after["counters"]}
    out = _common(s, n, cold_loads=0)
    out.update({
        "net.client.lag_p99_us": traced["lag_p99_us"],
        "net.client.sent": float(traced["sent"]),
        "net.backpressure.shed_ratio": _ratio(d["shed"], d["admitted"] + d["shed"]),
        "net.datapath.wait_us": s.datapath_wait_ns() / n / 1e3,
        "net.datapath.self_us": s.datapath_self_ns() / n / 1e3,
        "net.datapath.mean_batch": _ratio(d["batched"], d["batches"]),
        "net.service.fastpath_ratio": _ratio(d["kernel_tx"], d["requests"]),
        "state.wal.records_per_set": _ratio(
            s.calls.get("state.wal.append", 0), traced["sets"]),
        "ebpf.pipeline.reload_hit_ratio": 0.0,
    })
    attributed_ns = sum(s.self_ns.values()) + s.datapath_self_ns()
    out["unattributed_us"] = traced["mean_us"] - attributed_ns / n / 1e3
    out["trace_overhead_us"] = traced["p50_us"] - untraced["p50_us"]
    return {m: (out[m], UNITS[m]) for m in UNITS}


def extload_ledger(plain: dict, traced: dict) -> dict:
    """``plain``/``traced``: the loader's untraced and traced runs."""
    s = Summary(**traced["trace"])
    cold, warm = traced["cold_s"], traced["warm_s"]
    n_ops = len(cold) + len(warm)
    out = _common(s, n_ops, cold_loads=len(cold))
    for m in UNITS:
        out.setdefault(m, 0.0)
    out["ebpf.pipeline.reload_hit_ratio"] = _ratio(traced["reload_hits"], len(warm))
    mean_op_us = (sum(cold) + sum(warm)) / n_ops * 1e6
    out["unattributed_us"] = mean_op_us - sum(s.self_ns.values()) / n_ops / 1e3
    out["trace_overhead_us"] = (
        statistics.median(cold) - statistics.median(plain["cold_s"])) * 1e6
    return {m: (out[m], UNITS[m]) for m in UNITS}
