"""Unit tests for the benchmark's own arithmetic and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import pathlib
import statistics
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import plan as P  # noqa: E402
from loadgen import Book, open_loop  # noqa: E402
from stats import (  # noqa: E402
    beyond, coverage, geometric_ladder, min_samples, percentile,
    search_max_rate, self_times, spread,
)


# -- percentiles: at least ten samples beyond ------------------------------


def test_percentile_nearest_rank():
    vals = list(range(1, 1001))
    assert percentile(vals, 50) == 500
    assert percentile(vals, 99) == 990
    assert beyond(1000, 99) == 10


def test_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(199)), 95)
    assert percentile(list(range(200)), 95) == 189
    assert percentile([7], 50) == 7


def test_min_samples():
    assert min_samples(99) == 1000
    assert min_samples(95) == 200
    for q in (95, 99):
        n = min_samples(q)
        assert beyond(n, q) >= 10 > beyond(n - 1, q)


# -- self time = span - children's coverage ----------------------------------


def test_coverage_merges_and_clips():
    assert coverage([(10, 30), (20, 50)], 0, 100) == 40
    assert coverage([(-5, 10), (90, 200)], 0, 100) == 20
    assert coverage([(10, 20), (30, 40)], 0, 100) == 20
    assert coverage([], 0, 100) == 0


def test_self_times_nested():
    spans = [
        (0, 100, -1),   # root
        (10, 40, 0),    # child
        (20, 30, 1),    # grandchild: covered by its parent, not the root
        (50, 60, 0),    # second child
    ]
    assert self_times(spans) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_times_overlapping_children_counted_once():
    assert self_times([(0, 100, -1), (10, 50, 0), (30, 70, 0)])[0] == 40


# -- open loop: latency from the due time, lag on its own --------------------


def _reply_to(pkt: bytes, hit: bool = True) -> bytes:
    return bytes((0x80 | pkt[0], 1 if hit else 0)) + pkt[2:]


def test_latency_runs_from_due_time():
    book = Book(range(0, 10))
    req = P.encode(P.OP_SET, 5, 1)
    book.on_send(1, P.OP_SET, 5, due=1_000, now=1_500)
    book.on_reply(_reply_to(req), now=3_000)
    assert book.latency_ns == [2_000]  # from due, not from the send
    assert book.lag_ns == [500]


def test_oracle_counts_wrong_and_lost_and_late():
    book = Book(range(0, 10))
    get = P.encode(P.OP_GET, 7, 2)
    book.on_send(2, P.OP_GET, 7, due=0, now=0)
    # A GET reply carrying the request's zero value is wrong: every key
    # was set to value_of(key) first.
    book.on_reply(_reply_to(get), now=10)
    book.on_send(3, P.OP_GET, 8, due=0, now=0)  # never answered
    book.on_reply(_reply_to(P.encode(P.OP_SET, 1, 99)), now=10)  # earlier phase
    r = book.result()
    assert (r["wrong"], r["lost"], r["late"], r["failed"]) == (1, 1, 1, 2)


def test_get_hit_with_the_oracle_value_is_right():
    from repro.apps.memcached import protocol as Proto

    book = Book(range(0, 10))
    get = P.encode(P.OP_GET, 7, 4)
    book.on_send(4, P.OP_GET, 7, due=0, now=0)
    reply = _reply_to(get)[:Proto.VAL_OFF] + Proto.value_bytes(P.value_of(7))
    book.on_reply(reply, now=10)
    assert book.result()["ok"] == 1


def test_open_loop_schedule_and_lag():
    sent = []

    def send(book, i, due):
        import time

        book.on_send(i, P.OP_GET, 0, due, time.perf_counter_ns())
        sent.append((i, due))

    book = Book(range(100, 120))
    asyncio.run(open_loop(book, send, rate=2000.0, n=20, start=100))
    assert [i for i, _ in sent] == list(range(100, 120))
    gaps = {b - a for (_, a), (_, b) in zip(sent, sent[1:])}
    assert gaps <= {499_999, 500_000, 500_001}  # 1/rate apart, whatever the sends did
    assert all(lag >= 0 for lag in book.lag_ns)
    assert book.backlog_at_end == 20  # nobody answered


# -- max-rate search ---------------------------------------------------------


def test_search_settles_at_the_capacity():
    ladder = geometric_ladder(1000, 20000, 1.05)
    cap = 9000
    top = max(r for r in ladder if r <= cap)
    rate, log = search_max_rate(ladder, lambda r: r <= cap)
    # The staircase alternates between the last passing rung and the
    # first failing one.
    assert top <= rate <= ladder[ladder.index(top) + 1]
    assert len(log) <= 2 * 7 + 6


def test_search_step_is_finer_than_bound():
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "max_rate_rps")
    for w in P.SERVING.values():
        ladder = geometric_ladder(*w["ladder"])
        assert max(b / a for a, b in zip(ladder, ladder[1:])) - 1 < bound / 3


def test_search_recovers_from_a_false_failure():
    ladder = list(range(1000, 21000, 1000))
    seen = {}

    def flaky(r):
        # Every rung fails the first time it is tried (a stall), then
        # passes up to the capacity of 16000.
        seen[r] = seen.get(r, 0) + 1
        return r <= 16000 and seen[r] > 1

    rate, log = search_max_rate(ladder, flaky)
    assert (16000, True) in log
    assert 15000 < rate < 17000


def test_search_edges():
    ladder = [100, 200, 300]
    assert search_max_rate(ladder, lambda r: False)[0] is None
    assert search_max_rate(ladder, lambda r: True)[0] == pytest.approx(300, rel=0.2)


def test_spread_is_iqr_over_median():
    q1, med, q3, s = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == tuple(statistics.quantiles(range(1, 11), n=4))
    assert s == pytest.approx((q3 - q1) / med)


# -- plans -------------------------------------------------------------------


def test_plan_is_a_function_of_the_seed():
    a = P.make_plan("mc-udp-read", 1)
    assert a == P.make_plan("mc-udp-read", 1)
    assert P.digest(a) != P.digest(P.make_plan("mc-udp-read", 2))
    get_share = sum(op == P.OP_GET for op, _ in a) / len(a)
    assert 0.94 < get_share < 0.96
    assert max(k for _, k in a) < P.SERVING["mc-udp-read"]["n_keys"]


# -- the tracer charges an injected delay to its own layer -------------------


def test_injected_delay_is_charged_to_its_layer_only():
    """A 50 us busy-wait inside every ``HashMap.update`` must show up in
    that span's self time and not in its caller's or its callees'.

    Short phases alternate without and with the delay on one service,
    and each hot phase is compared with the cold phase just before it,
    so the machine's drift cancels out.  (A 5 us delay is attributed the
    same way, but on a VM the noise between phases is of that size.)"""
    import server
    from spans import Tracer

    delay = 50_000  # ns
    tracer = Tracer().install()
    try:
        svc, _dp = server.build("mc-tcp-durable-k1")
        for i in range(1024):
            svc.ingress(P.encode(P.OP_SET, i, i), 0)
        plan = P.make_plan("mc-tcp-durable-k1", 3)
        phases = []
        for phase in range(20):
            tracer.inject.clear()
            if phase % 2:
                tracer.inject["ebpf.maps.update"] = delay
            tracer.reset()
            # SETs only: every engine run then makes exactly one update,
            # so each span's self time has one mode to take a median of.
            for i in range(100 * phase, 100 * phase + 100):
                svc.ingress(P.encode(P.OP_SET, plan[i][1], i), 0)
            spans = list(tracer.spans)
            by_name = {}
            for s, st in zip(spans, self_times([(s[1], s[2], s[3]) for s in spans])):
                by_name.setdefault(tracer.names[s[0]], []).append(st)
            phases.append({n: statistics.median(v) for n, v in by_name.items()})
        svc.close()
    finally:
        tracer.uninstall()

    def shift(name):
        return statistics.median(
            hot[name] - cold[name] for cold, hot in zip(phases[::2], phases[1::2])
        )

    assert shift("ebpf.maps.update") == pytest.approx(delay, rel=0.1)
    # Its caller (the engine), its callees (journal, WAL) and the layers
    # above stay put.
    for neighbour in ("ebpf.engine", "state.store.journal", "state.wal.append",
                      "core.runtime.invoke", "net.service"):
        assert abs(shift(neighbour)) < delay / 10, neighbour


def test_uninstall_restores_the_classes():
    from repro.ebpf.maps import HashMap
    from spans import Tracer

    orig = HashMap.__dict__["update"]
    t = Tracer().install()
    assert HashMap.__dict__["update"] is not orig
    t.uninstall()
    assert HashMap.__dict__["update"] is orig
