"""The repository benchmark: end-to-end latency, capacity, load time,
set-up time and memory of the KFlex reproduction on three workloads,
plus a traced run that splits the time by layer.

    python3 perfbench/run.py --workload mc-udp-read --seed 1 --seconds 30 --trace 0

* ``mc-udp-read`` — Memcached KFlex extension on the UDP datapath
  (batched ingress), Zipf(0.99) keys, 95:5 GET:SET, open loop;
* ``mc-tcp-durable-k1`` — durable, replicated (k=1) Memcached on the TCP
  datapath, Zipf(0.99) keys, 50:50 GET:SET, open loop;
* ``ext-load`` — cold load and warm reload of every shipped extension,
  closed loop.

The server (or loader) and the load generator each run in a process
of their own; traffic crosses the host's loopback interface.  Every
reply is checked against an oracle.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it makes an untraced and a
traced run at the same rate and prints the per-layer ledger.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  METRICS.md says
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from child import Child  # noqa: E402
from extload import pass_orders  # noqa: E402
from ledger import extload_ledger, serving_ledger  # noqa: E402
from stats import geometric_ladder, min_samples, percentile, search_max_rate  # noqa: E402

WORKLOADS = ("mc-udp-read", "mc-tcp-durable-k1", "ext-load")

#: Set-ups per run; ``setup_s`` is their median.  They are spread
#: over the run (between phases), because the machine's speed drifts
#: over seconds and a start-up is short.
SETUP_REPS = 9
#: Warm reloads of the served program after each phase of a serving
#: run, so the samples spread over the run instead of one instant.
RELOADS = 50
#: Shares of ``--seconds``: the nominal-rate phase of a serving run
#: (the max-rate search takes the rest), the loading window of an
#: ext-load run, and each of the two phases of a traced run.
NOMINAL_SHARE = 0.4
LOAD_SHARE = 0.7
TRACE_SHARE = 0.3
#: Shortest max-rate probe, seconds.
PROBE_S = 1.0
#: The server and the generator each get a CPU of their own when the
#: machine has two or more.
SERVER_CPU, GENERATOR_CPU = (0, 1) if (os.cpu_count() or 1) >= 2 else (None, None)


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    import subprocess

    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def replay_record(workload: str, seed: int, seconds: int, trace: int,
                  plan_digest: str, config: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "plan_digest": plan_digest,
        "config": config,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "network": "host loopback (127.0.0.1), not a real link",
    }


# -- serving workloads ---------------------------------------------------------


class Serving:
    """One server process plus one generator process for a workload.

    Spawns both, checks that the generator built the expected plan, and
    SETs every key (``warm``), so every GET afterwards must hit."""

    def __init__(self, workload: str, seed: int, *, trace: bool = False):
        import plan as P

        self.cursor = self.wrong = 0
        self.gen = None
        self.srv = Child("server.py", "--workload", workload,
                         *(["--trace"] if trace else []), cpu=SERVER_CPU)
        try:
            ready = self.srv.read()
            self.setup_s = time.perf_counter() - self.srv.started
            self.gen = Child("loadgen.py", "--workload", workload,
                             "--seed", str(seed), "--port", str(ready["port"]),
                             cpu=GENERATOR_CPU)
            hello = self.gen.read()
            self.digest = P.digest(P.make_plan(workload, seed))
            if hello["plan_digest"] != self.digest:
                raise RuntimeError(f"generator plan digest "
                                   f"{hello['plan_digest']} != {self.digest}")
            self.warm = self.gen.call(cmd="warm", timeout=120)
        except BaseException:
            self.kill()
            raise

    def phase(self, rate: float, seconds: float) -> dict:
        """Offer the next plan requests open-loop at ``rate``."""
        r = self.gen.call(cmd="run", rate=rate, seconds=seconds,
                          start=self.cursor, timeout=seconds + 60)
        self.cursor += r["sent"]
        self.wrong += r["wrong"]
        return r

    def kill(self) -> None:
        for c in (self.gen, self.srv):
            if c is not None:
                c.close()

    def close(self) -> dict:
        """Stop the generator, then drain and stop the server; returns
        the server's final report."""
        try:
            self.gen.send(cmd="quit")
            self.gen.wait()
            self.srv.send(cmd="stop")
            final = self.srv.read()
            self.srv.wait()
        finally:
            self.kill()
        return final


def server_setup(workload: str) -> float:
    """Start a throwaway server; seconds from spawn to ready."""
    with Child("server.py", "--workload", workload, cpu=SERVER_CPU) as c:
        c.read()
        dt = time.perf_counter() - c.started
        c.send(cmd="stop")
        c.read()
        c.wait()
    return dt


def probe_passes(r: dict, w: dict) -> bool:
    """One max-rate probe meets the workload's limits: p90 (failed
    requests count as infinitely late) under the latency limit, few
    enough failures, no growing backlog, and a generator that kept up."""
    limit = w["latency_limit_us"]
    return (
        r["p90_us"] is not None
        and r["p90_us"] <= limit
        and r["failed"] <= w["fail_threshold"] * r["sent"]
        and r["backlog_at_end"] <= r["rate"] * limit / 1e6
        and (r["lag_p99_us"] or 0.0) <= limit
    )


def server_ok(final: dict) -> list[str]:
    """Invariants the server must hold at stop."""
    problems = []
    if final["fastpath_ratio"] != 1.0:
        problems.append(f"fastpath_ratio {final['fastpath_ratio']} != 1.0")
    q = final["quiescence"]
    if q["sock_refs"] or q["held_locks"] or q["live_extensions"] != 1:
        problems.append(f"kernel not quiescent at stop: {q}")
    return problems


def run_serving(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    import plan as P

    w = P.SERVING[workload]
    s = Serving(workload, seed)
    setups = [s.setup_s]
    reloads = []

    def between():
        """Between phases, while the served server is idle: warm
        reloads, and one more set-up until there are enough."""
        reloads.extend(s.srv.call(cmd="reload", n=RELOADS)["reload_s"])
        if len(setups) < SETUP_REPS:
            setups.append(server_setup(workload))

    try:
        between()
        s.phase(w["nominal_rps"], 0.5)  # settle caches and buffers
        between()
        # The nominal phase comes first, so overload probes leave no
        # backlog or memory behind it, and the peak RSS covers a fixed
        # number of requests.
        nominal = s.phase(w["nominal_rps"], seconds * NOMINAL_SHARE)
        between()
        rss = s.srv.call(cmd="stats")["peak_rss_mb"]
        ladder = geometric_ladder(*w["ladder"])
        min_n = min_samples(90)
        probes = []

        def probe(rate):
            r = s.phase(rate, max(PROBE_S, min_n / rate))
            between()
            ok = probe_passes(r, w)
            probes.append({"rate": rate, "pass": ok, "p90_us": r["p90_us"],
                           "failed": r["failed"], "backlog": r["backlog_at_end"]})
            return ok

        max_rate, _ = search_max_rate(ladder, probe)
        while len(setups) < SETUP_REPS:
            setups.append(server_setup(workload))
    finally:
        final = s.close()
    problems = server_ok(final)
    if s.wrong:
        problems.append(f"{s.wrong} wrong replies")
    if s.warm["failed"]:
        problems.append(f"{s.warm['failed']} warm-up SETs failed")
    metrics = {
        "p50_us": (nominal["p50_us"], "us"),
        "max_rate_rps": (float(max_rate or 0), "1/s"),
        "reload_p50_us": (statistics.median(reloads) * 1e6, "us"),
        "setup_s": (statistics.median(setups), "s"),
        "rss_mb": (rss, "MB"),
    }
    info = {
        "attempted": nominal["sent"] + w["n_keys"],
        # Wrong replies are in ``failed`` already; those of max-rate
        # probes (not in ``attempted``) are among ``problems``.
        "failed": nominal["failed"] + s.warm["failed"],
        "problems": problems,
        "plan_digest": s.digest,
        "config": w,
        "notes": {
            "requests": f"{nominal['sent']} at {w['nominal_rps']} rps, open loop",
            "fail_ratio": nominal["failed"] / nominal["sent"],
            "p90_us (informational)": nominal["p90_us"],
            "p99_us (informational)": nominal["p99_us"],
            "lag_p99_us": nominal["lag_p99_us"],
            "reload_samples": len(reloads),
            "probes": probes,
            "setups_s": setups,
        },
    }
    return metrics, info


def run_serving_trace(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Untraced then traced run at the nominal rate; per-layer ledger."""
    import plan as P

    w = P.SERVING[workload]
    runs = {}
    problems, attempted, failed = [], 0, 0
    for traced in (False, True):
        s = Serving(workload, seed, trace=traced)
        try:
            s.phase(w["nominal_rps"], 0.5)
            s.srv.call(cmd="reset")
            before = s.srv.call(cmd="stats")
            res = s.phase(w["nominal_rps"], seconds * TRACE_SHARE)
            after = s.srv.call(cmd="stats")
        finally:
            final = s.close()
        problems += server_ok(final)
        if s.wrong:
            problems.append(f"{s.wrong} wrong replies")
        attempted += res["sent"] + w["n_keys"]
        failed += res["failed"] + s.warm["failed"]
        runs[traced] = (res, before, after)
    metrics = serving_ledger(runs[False][0], *runs[True])
    return metrics, {
        "attempted": attempted, "failed": failed, "problems": problems,
        "plan_digest": s.digest, "config": w,
        "notes": {"untraced_p50_us": runs[False][0]["p50_us"],
                  "traced_p50_us": runs[True][0]["p50_us"]},
    }


# -- ext-load -----------------------------------------------------------------


def _loader(seed: int):
    c = Child("extload.py", "--seed", str(seed))
    ready = c.read()
    return c, time.perf_counter() - c.started, ready


def _merge(chunks: list[dict]) -> dict:
    """One loading window out of consecutive ``run`` replies."""
    return {
        "cold_s": [t for r in chunks for t in r["cold_s"]],
        "warm_s": [t for r in chunks for t in r["warm_s"]],
        "failed": sum(r["failed"] for r in chunks),
        "reload_hits": sum(r["reload_hits"] for r in chunks),
        "passes": chunks[-1]["passes"],
    }


def run_extload(seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    import plan as P

    c, dt, ready = _loader(seed)
    setups = [dt]
    try:
        if trace:
            plain = c.call(cmd="run", seconds=seconds * TRACE_SHARE,
                           timeout=seconds + 120)
            traced = c.call(cmd="run", seconds=seconds * TRACE_SHARE,
                            trace=True, timeout=seconds + 120)
            runs = [plain, traced]
        else:
            # The loading window is cut into one chunk per set-up, and
            # the other set-ups run between chunks, while the loader
            # is idle.
            chunks = []
            for i in range(SETUP_REPS):
                if i:
                    other, dt, _ = _loader(seed)
                    other.close()
                    setups.append(dt)
                chunks.append(c.call(cmd="run", timeout=seconds + 120,
                                     seconds=seconds * LOAD_SHARE / SETUP_REPS))
            plain = _merge(chunks)
            runs = [plain]
        rss = c.call(cmd="quit")["peak_rss_mb"]
        c.wait()
    finally:
        c.close()
    problems = []
    attempted = failed = 0
    for r in runs:
        attempted += len(r["cold_s"]) + len(r["warm_s"]) + r["failed"]
        failed += r["failed"] + (len(r["warm_s"]) - r["reload_hits"])
        if r["reload_hits"] != len(r["warm_s"]):
            problems.append("warm reloads missed the program cache")
    plan_digest = P.digest(pass_orders(seed, runs[-1]["passes"]))
    config = {"corpus": ready["corpus"], "closed_loop": "one load at a time"}
    if trace:
        metrics = extload_ledger(plain, traced)
    else:
        cold = sorted(plain["cold_s"])
        metrics = {
            "p50_us": (percentile(cold, 50) * 1e6, "us"),
            "max_rate_rps": (len(cold) / sum(cold), "1/s"),
            "reload_p50_us": (statistics.median(plain["warm_s"]) * 1e6, "us"),
            "setup_s": (statistics.median(setups), "s"),
            "rss_mb": (rss, "MB"),
        }
    return metrics, {
        "attempted": attempted, "failed": failed, "problems": problems,
        "plan_digest": plan_digest, "config": config,
        "notes": {
            "cold_loads": sum(len(r["cold_s"]) for r in runs),
            "passes": runs[-1]["passes"],
            "p95_us (informational)": percentile(sorted(runs[0]["cold_s"]), 95) * 1e6
            if len(runs[0]["cold_s"]) >= min_samples(95) else None,
            "fail_ratio": failed / attempted if attempted else 0.0,
            "setups_s": setups,
        },
    }


# -- entry --------------------------------------------------------------------


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that stop the children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    if args.workload == "ext-load":
        metrics, info = run_extload(args.seed, args.seconds, bool(args.trace))
    elif args.trace:
        metrics, info = run_serving_trace(args.workload, args.seed, args.seconds)
    else:
        metrics, info = run_serving(args.workload, args.seed, args.seconds)
    wall = time.perf_counter() - t0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({wall:.1f}s wall; traffic over host loopback)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.3f} {unit}")
    for k, v in info["notes"].items():
        if k != "probes":
            print(f"  # {k}: {v}")
    for p in info["notes"].get("probes", []):
        print(f"  # probe {p}")
    for problem in info["problems"]:
        print(f"  ! {problem}")
    print("replay " + json.dumps(replay_record(
        args.workload, args.seed, args.seconds, args.trace,
        info["plan_digest"], info["config"])))
    print(json.dumps({
        "correct": not info["problems"],
        "attempted": int(info["attempted"]),
        "failed": int(info["failed"]),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
