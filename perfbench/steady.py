"""Steadiness runner: run one workload N times and judge the spread.

    python3 perfbench/steady.py --workload mc-udp-read --runs 10
    python3 perfbench/steady.py --workload mc-tcp-durable-k1 --runs 3 --trace 1 --same-seed

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` against the metric's bound from BENCHMARK.json.
An end-to-end metric whose spread exceeds a third of its bound is
flagged, ``setup_s`` included.  With ``--same-seed`` every run uses the
first seed, and the deterministic counts of the traced run must then
repeat exactly.  Exit status 1 if anything is flagged or a run is
incorrect.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import spread  # noqa: E402

#: Traced counts that depend only on the seed's plan.
DETERMINISTIC = (
    "ebpf.engine.steps_per_req",
    "ebpf.engine.cost_per_req",
    "ebpf.maps.calls_per_req",
    "state.wal.records_per_set",
    "state.replication.frames_per_commit",
    "net.client.sent",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results = []
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        r = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
        print(f"run {i + 1} seed {seed}: correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']} {vals}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    flagged = [f"run {i + 1} incorrect or failed"
               for i, r in enumerate(results) if not r["correct"] or r["failed"]]
    print(f"\n{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3, s = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
        bound = bounds.get(name)
        mark = ""
        if bound is not None and s > bound / 3:
            mark = "  UNSTEADY" if s > bound else "  wide"
            flagged.append(f"{name}: spread {s:.3f} vs bound {bound}")
        if args.same_seed and name in DETERMINISTIC and len(set(values)) > 1:
            mark = "  NOT DETERMINISTIC"
            flagged.append(f"{name} differs across runs of one seed: {values}")
        print(f"{name:<36} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} {s:>8.3f} "
              f"{bound if bound is not None else '-':>6}{mark}")
    for f in flagged:
        print("! " + f)
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
