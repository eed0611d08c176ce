"""Workload definitions and seeded request plans.

A plan is generated from the workload and the seed alone; the server
only ever sees the resulting packets.  Its digest goes into every
result's replay record.
"""

from __future__ import annotations

import bisect
import hashlib
import random

from repro.apps.memcached import protocol as P
from repro.errors import FrameError

OP_GET, OP_SET = 0, 1

#: Serving workloads.  Rates are requests per second offered by the
#: open-loop generator; ``nominal_rps`` is frozen at about half the
#: capacity measured when the benchmark was defined (2-core x86 VM,
#: loopback) so a faster server shows as lower latency at the same
#: load, and ``max_rate_rps`` shows the capacity itself.
SERVING = {
    "mc-udp-read": {
        "transport": "udp",
        "service": "kflex memcached (heap table, SFI, perf_mode) on UdpDatapath",
        "n_keys": 4096,
        "get_ratio": 0.95,
        "zipf_s": 0.99,
        # A partial batch is drained on the next loop iteration: at the
        # nominal rate no request waits for a batch to fill (see
        # METRICS.md, "Why a batch timer of 0").
        "batch_size": 16,
        "batch_timeout_s": 0.0,
        "nominal_rps": 6000,
        "ladder": (3000, 24000, 1.03),
        "latency_limit_us": 10000,
        "fail_threshold": 0.001,
    },
    "mc-tcp-durable-k1": {
        "transport": "tcp",
        "service": (
            "DurableMemcachedService (HashMap, DurableStore sync_every=1, "
            "QuorumShipper k=1 to one in-process follower) on TcpDatapath"
        ),
        "n_keys": 1024,
        "get_ratio": 0.5,
        "zipf_s": 0.99,
        "batch_size": 1,
        "nominal_rps": 3000,
        "ladder": (1500, 12000, 1.03),
        "latency_limit_us": 10000,
        "fail_threshold": 0.001,
    },
}

#: Requests in one plan; phases walk it cyclically.
PLAN_LEN = 1 << 16


def value_of(key: int) -> int:
    """The value every SET writes for ``key`` (the GET oracle)."""
    return (key * 0x9E3779B97F4A7C15 + 1) & ((1 << 64) - 1)


def zipf_keys(rng: random.Random, n_keys: int, s: float, n: int) -> list[int]:
    cum, acc = [], 0.0
    for k in range(n_keys):
        acc += 1.0 / (k + 1) ** s
        cum.append(acc)
    # Rank r gets the r-th most popular slot; shuffle which key id it is
    # so popularity does not follow the hash order of small integers.
    ids = list(range(n_keys))
    rng.shuffle(ids)
    return [ids[bisect.bisect_left(cum, rng.random() * acc)] for _ in range(n)]


def make_plan(workload: str, seed: int) -> list[tuple[int, int]]:
    """``[(op, key)]`` of length :data:`PLAN_LEN` for a serving workload."""
    w = SERVING[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    keys = zipf_keys(rng, w["n_keys"], w["zipf_s"], PLAN_LEN)
    ratio = w["get_ratio"]
    return [(OP_GET if rng.random() < ratio else OP_SET, k) for k in keys]


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- wire format ----------------------------------------------------------
#
# The generator puts a request id in the six pad bytes after the op and
# status bytes; both extensions rewrite only op and status, so the id
# comes back in the reply.


def encode(op: int, key: int, req_id: int) -> bytes:
    value = P.value_bytes(value_of(key)) if op == OP_SET else bytes(P.VAL_SIZE)
    return (
        bytes((op, 0)) + (req_id & 0xFFFFFFFFFFFF).to_bytes(6, "little")
        + P.key_bytes(key) + value
    )


def reply_id(reply: bytes) -> int:
    return int.from_bytes(reply[2:8], "little")


def reply_ok(op: int, key: int, reply: bytes) -> bool:
    """Oracle: the reply answers ``op`` on ``key``.  Every key is set
    before measurement and every SET writes :func:`value_of`, so every
    GET must hit with exactly that value."""
    try:
        hit, value = P.decode_reply(reply)
    except FrameError:
        return False
    if reply[0] != P.REPLY_FLAG | op or not hit:
        return False
    if reply[P.KEY_OFF:P.VAL_OFF] != P.key_bytes(key):
        return False
    return op == OP_SET or value == value_of(key)
