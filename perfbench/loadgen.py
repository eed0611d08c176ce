"""Open-loop load generator: its own process, one asyncio loop, two
sockets (UDP) or two framed connections (TCP) to the server over the
host's loopback interface.

Requests are due at fixed intervals from the phase start, whatever the
server does; latency runs from each request's due time to its reply,
so a stall also delays every request queued behind it, and the lag
between due time and actual send is reported on its own.

Driven over stdin/stdout, one JSON object per line:

* ``{"cmd": "warm"}`` — SET every key once (so every GET can be checked
  exactly), 16 requests in flight at a time;
* ``{"cmd": "run", "rate": r, "seconds": s, "start": i}`` — offer plan
  requests ``i, i+1, ...`` at ``r`` per second for ``s`` seconds, wait
  for the stragglers, reply with the phase's accounting;
* ``{"cmd": "quit"}``.

Run: ``python3 perfbench/loadgen.py --workload W --seed N --port P``
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import gc
import json
import socket
import sys
import time

import plan as P
from child import reply
from repro.net.datapath import FRAME_HDR
from stats import min_samples, percentile

_now = time.perf_counter_ns
N_SOCKETS = 2
#: :func:`settle` gives up on the outstanding replies once none has
#: arrived for ``QUIET_S`` (the rest are lost), or after ``CAP_S``.
QUIET_S = 0.1
CAP_S = 15.0


class Book:
    """Accounting for one phase: due, send and reply times per request,
    oracle verdicts, and what never came back."""

    def __init__(self, ids: range = range(0)):
        #: Request ids this phase sends; a reply outside them is a late
        #: answer to an earlier phase, not a wrong one.
        self.ids = ids
        self.late = 0
        self.pending: dict[int, tuple[int, int, int]] = {}
        self.latency_ns: list[int] = []
        self.lag_ns: list[int] = []
        self.sent = self.sets = self.wrong = self.shed = 0
        self.backlog_at_end = 0
        self.last_reply = 0

    def on_send(self, rid: int, op: int, key: int, due: int, now: int) -> None:
        self.pending[rid] = (op, key, due)
        self.lag_ns.append(now - due)
        self.sent += 1
        self.sets += op == P.OP_SET

    def on_reply(self, reply: bytes, now: int) -> None:
        self.last_reply = now
        rid = P.reply_id(reply)
        entry = self.pending.pop(rid, None)
        if entry is None:
            if rid in self.ids:
                self.wrong += 1  # a second reply to one request
            else:
                self.late += 1
            return
        op, key, due = entry
        if P.reply_ok(op, key, reply):
            self.latency_ns.append(now - due)
        else:
            self.wrong += 1

    def on_shed(self, rid: int) -> None:
        """An explicit refusal (TCP's empty reply frame)."""
        self.last_reply = _now()
        if self.pending.pop(rid, None) is not None:
            self.shed += 1

    def result(self) -> dict:
        lost = len(self.pending)
        lat = sorted(self.latency_ns)
        # A request with no good reply misses every latency limit.
        with_fails = lat + [float("inf")] * (lost + self.wrong + self.shed)
        failed = lost + self.wrong + self.shed
        out = {
            "sent": self.sent,
            "sets": self.sets,
            "ok": len(lat),
            "wrong": self.wrong,
            "shed": self.shed,
            "lost": lost,
            "late": self.late,
            "failed": failed,
            "backlog_at_end": self.backlog_at_end,
            "lag_p99_us": _pct_us(sorted(self.lag_ns), 99),
            "mean_us": sum(lat) / len(lat) / 1e3 if lat else None,
        }
        for q in (50, 90, 99):
            out[f"p{q}_us"] = _pct_us(with_fails, q)
        return out


def _pct_us(sorted_ns, q: int) -> float | None:
    """The q-th percentile in microseconds, or None when too few
    samples lie beyond it."""
    if len(sorted_ns) < min_samples(q):
        return None
    return percentile(sorted_ns, q) / 1e3


async def open_loop(book: Book, send, rate: float, n: int, start: int) -> None:
    """Send requests ``start .. start+n-1``, request k due at
    ``t0 + k / rate``.

    Between sends the generator spins through the event loop instead of
    sleeping: the loop's timers resolve to a millisecond, and on a VM a
    sleeping process pays a wake-up of ~100 us or more per reply, which
    would read as server latency.  The generator has a core of its own.
    """
    interval = 1e9 / rate
    t0 = _now() + 1_000_000
    i = 0
    while i < n:
        now = _now()
        due = t0 + int(i * interval)
        while i < n and due <= now:
            send(book, start + i, due)
            i += 1
            due = t0 + int(i * interval)
            now = _now()
        await asyncio.sleep(0)
    book.backlog_at_end = len(book.pending)


async def settle(book: Book) -> None:
    """Wait for outstanding replies until none is left, none has
    arrived for :data:`QUIET_S` (the rest are lost), or :data:`CAP_S`
    passed."""
    start = _now()
    while book.pending:
        now = _now()
        if now - max(book.last_reply, start) > QUIET_S * 1e9 or now - start > CAP_S * 1e9:
            break
        await asyncio.sleep(0)


class Client:
    def __init__(self, workload: str, seed: int, port: int):
        self.w = P.SERVING[workload]
        self.plan = P.make_plan(workload, seed)
        self.port = port
        self.book = Book()
        self._next_sock = 0

    # -- transports -------------------------------------------------------

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        self.socks = []
        if self.w["transport"] == "udp":
            client = self

            class Proto(asyncio.DatagramProtocol):
                def datagram_received(self, data, addr):
                    client.book.on_reply(data, _now())

            for _ in range(N_SOCKETS):
                tr, _ = await loop.create_datagram_endpoint(
                    Proto, remote_addr=("127.0.0.1", self.port)
                )
                tr.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20
                )
                self.socks.append((tr.sendto, None))
        else:
            self._readers = []
            for _ in range(N_SOCKETS):
                r, wr = await asyncio.open_connection("127.0.0.1", self.port)
                fifo = collections.deque()
                self.socks.append((wr.write, fifo))
                self._readers.append(loop.create_task(self._read(r, fifo)))

    async def _read(self, reader, fifo) -> None:
        try:
            while True:
                (n,) = FRAME_HDR.unpack(await reader.readexactly(FRAME_HDR.size))
                data = await reader.readexactly(n) if n else b""
                now = _now()
                rid = fifo.popleft()
                if data:
                    self.book.on_reply(data, now)
                else:
                    self.book.on_shed(rid)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass

    def send(self, book: Book, i: int, due: int) -> None:
        """Send plan request ``i`` (its id is ``i``)."""
        op, key = self.plan[i % len(self.plan)]
        self._send(book, i, op, key, due)

    def _send(self, book: Book, rid: int, op: int, key: int, due: int) -> None:
        pkt = P.encode(op, key, rid)
        write, fifo = self.socks[self._next_sock]
        self._next_sock = (self._next_sock + 1) % len(self.socks)
        book.on_send(rid, op, key, due, _now())
        if fifo is None:
            write(pkt)
        else:
            fifo.append(rid)
            write(FRAME_HDR.pack(len(pkt)) + pkt)

    # -- commands ---------------------------------------------------------

    async def warm(self) -> dict:
        """SET every key, 16 in flight, ids above any plan index."""
        base = 1 << 40
        keys = list(range(self.w["n_keys"]))
        book = self.book = Book(range(base, base + len(keys)))
        for lo in range(0, len(keys), 16):
            for k in keys[lo:lo + 16]:
                self._send(book, base + k, P.OP_SET, k, _now())
            await settle(book)
        res = book.result()
        return {"ok": res["ok"], "failed": res["failed"]}

    async def run(self, rate: float, seconds: float, start: int) -> dict:
        n = max(1, int(rate * seconds))
        book = self.book = Book(range(start, start + n))
        await open_loop(book, self.send, rate, n, start)
        await settle(book)
        return {"rate": rate, "seconds": seconds, "start": start, **book.result()}


async def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(P.SERVING))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--port", type=int, required=True)
    args = ap.parse_args(argv)
    client = Client(args.workload, args.seed, args.port)
    await client.connect()
    # The generator's garbage is acyclic; a cyclic collection scanning
    # the plan would stall sends for milliseconds and read as server
    # latency.
    gc.collect()
    gc.freeze()
    gc.disable()
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )

    reply({"ready": True, "plan_digest": P.digest(client.plan)})
    while line := await reader.readline():
        cmd = json.loads(line)
        if cmd["cmd"] == "warm":
            reply(await client.warm())
        elif cmd["cmd"] == "run":
            reply(await client.run(cmd["rate"], cmd["seconds"], cmd["start"]))
        elif cmd["cmd"] == "quit":
            break


if __name__ == "__main__":
    asyncio.run(main())
