"""Span tracer wrapped around each layer's public calls, from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
the listed methods on their classes with wrappers that record one span
per call — name, start, end, parent span and request id — and
:meth:`Tracer.uninstall` restores the originals.  Calls that return a per-batch closure
(``packet_stager``, ``ctx_writer``, ``batch_invoker``,
``xdp_batch_invoker``) are spans themselves and also get their closure
wrapped, so the per-packet work inside a batch is traced too.

Install before the service is built: closures bound at build time
capture whatever the class attributes were then.

Spans stay in memory; :meth:`Tracer.summary` turns them into per-name
self time (span minus the part its children cover, see
:func:`stats.self_times`) and call counts.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from stats import self_times

_now = time.perf_counter_ns


def _tag(payload) -> int | None:
    """Request id the load generator writes into bytes 2..8 of each
    Memcached request (the extensions echo those bytes untouched)."""
    if isinstance(payload, (bytes, bytearray)) and len(payload) >= 8:
        return int.from_bytes(payload[2:8], "little")
    return None


def targets():
    """``(span name, class, method, kind, payload arg index | None)``
    for every traced call.  ``kind`` is ``"call"`` or ``"factory"``
    (the returned closure is wrapped too; its payload index applies to
    the closure)."""
    from repro.core.runtime import KFlexRuntime, LoadedExtension
    from repro.ebpf.engine import ThreadedEngine
    from repro.ebpf.maps import HashMap
    from repro.ebpf.pipeline import CompilationPipeline, default_passes
    from repro.ebpf.verifier import Verifier
    from repro.kernel.net import NetStack
    from repro.net.backpressure import AdmissionControl
    from repro.net.service import ExtensionService, PacketService
    from repro.state.replication import QuorumShipper, ReplicaSession
    from repro.state.store import MapJournal
    from repro.state.wal import MapWal

    out = [
        ("net.backpressure.admit", AdmissionControl, "try_admit", "call", None),
        ("net.backpressure.release", AdmissionControl, "release", "call", None),
        ("net.service", PacketService, "ingress", "call", 0),
        ("net.service", PacketService, "ingress_batch", "call", None),
        ("net.service", ExtensionService, "ingress_batch", "call", None),
        ("core.runtime.stage", LoadedExtension, "xdp_ctx", "call", 0),
        ("core.runtime.stage", NetStack, "stage_packet", "call", 1),
        ("core.runtime.stage", NetStack, "packet_stager", "factory", 0),
        ("core.runtime.stage", KFlexRuntime, "ctx_writer", "factory", None),
        ("core.runtime.invoke", LoadedExtension, "invoke", "call", None),
        ("core.runtime.invoke", LoadedExtension, "batch_invoker", "factory", None),
        ("core.runtime.invoke", LoadedExtension, "xdp_batch_invoker", "factory", 0),
        ("ebpf.engine", ThreadedEngine, "run", "call", None),
        ("ebpf.maps.lookup", HashMap, "lookup", "call", None),
        ("ebpf.maps.update", HashMap, "update", "call", None),
        ("state.store.journal", MapJournal, "record_update", "call", None),
        ("state.wal.append", MapWal, "append", "call", None),
        ("state.wal.flush", MapWal, "flush", "call", None),
        ("state.replication.commit", QuorumShipper, "commit", "call", None),
        ("state.replication.follower", ReplicaSession, "handle_frame", "call", None),
        ("ebpf.pipeline.translate", CompilationPipeline, "translate", "call", None),
        ("ebpf.verifier", Verifier, "verify", "call", None),
    ]
    for p in default_passes():
        out.append((f"ebpf.pipeline.{p.name}", type(p), "run", "call", None))
    return out


#: Names that mark a request's entry into the service (the root of the
#: in-service span tree).
SERVICE = "net.service"


@dataclass
class Summary:
    """Per-name totals over one traced window (nanoseconds)."""

    calls: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    #: Duration of outermost spans of each name (nested same-name
    #: spans are counted once).
    incl_ns: dict = field(default_factory=dict)
    #: Requests that entered the service, summed over root entries.
    requests: int = 0
    #: Engine results: bytecode steps and native cost units.
    steps: int = 0
    cost: int = 0
    #: Datapath sums: admitted requests and their admit/release times,
    #: the request-weighted start of root service entries, and their
    #: total length.
    admits: int = 0
    admit_sum: int = 0
    releases: int = 0
    release_sum: int = 0
    entry_start_sum: int = 0
    entry_len_sum: int = 0

    def datapath_wait_ns(self) -> int:
        """Summed admit -> service-entry time of every request."""
        return self.entry_start_sum - self.admit_sum

    def datapath_self_ns(self) -> int:
        """Summed admit -> release time minus the time spent in the
        service.  A batched request also waits for the service time of
        its batch-mates; that wait is the datapath's (batching trades it
        for throughput), so it lands here."""
        return self.release_sum - self.admit_sum - self.entry_len_sum


class Tracer:
    """Collects spans.  ``inject`` maps a span name to a busy-wait (ns)
    added inside every call of that name (the attribution check); it is
    empty unless a test fills it, and read at call time, so a test can
    switch the delay on and off."""

    def __init__(self):
        self.inject: dict[str, int] = {}
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        #: (name idx, start, end, parent idx, request id)
        self.spans: list = []
        #: Counters kept as the calls happen; :meth:`summary` adds the
        #: per-name times.
        self.acc = Summary()
        self._stack: list[int] = []
        self._req: list = []
        self._in_service = 0
        self._installed: list = []

    def reset(self) -> None:
        """Drop everything recorded so far (between phases, while no
        request is in flight)."""
        self.spans.clear()
        self.acc = Summary()

    # -- wrapping ---------------------------------------------------------

    def _idx(self, name: str) -> int:
        i = self._name_idx.get(name)
        if i is None:
            i = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name: str, payload_arg: int | None):
        """A span-recording wrapper around ``fn``; ``payload_arg`` is the
        position of the request payload in the call's arguments."""
        idx = self._idx(name)
        spans, stack, reqs, inject = self.spans, self._stack, self._req, self.inject
        is_service = name == SERVICE
        is_admit = name == "net.backpressure.admit"
        is_release = name == "net.backpressure.release"
        is_engine = name == "ebpf.engine"
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            req = None
            if payload_arg is not None and len(args) > payload_arg:
                req = _tag(args[payload_arg])
            if req is None and reqs:
                req = reqs[-1]
            root = is_service and not tracer._in_service
            if is_service:
                tracer._in_service += 1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            reqs.append(req)
            t0 = _now()
            if inject:
                until = t0 + inject.get(name, 0)
                while _now() < until:
                    pass
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                reqs.pop()
                spans[me] = (idx, t0, t1, parent, req)
                if is_service:
                    tracer._in_service -= 1
                if root:
                    # ingress(self, payload, ...) serves one request;
                    # ingress_batch(self, payloads, ...) the batch.
                    n = 1 if payload_arg is not None else len(args[1])
                    acc = tracer.acc
                    acc.requests += n
                    acc.entry_start_sum += t0 * n
                    acc.entry_len_sum += t1 - t0
            if is_engine:
                tracer.acc.steps += out.steps
                tracer.acc.cost += out.cost
            elif is_admit and out:
                tracer.acc.admits += 1
                tracer.acc.admit_sum += t1
            elif is_release:
                tracer.acc.releases += 1
                tracer.acc.release_sum += t0
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_factory(self, fn, name: str, payload_arg: int | None):
        """Trace a closure factory: the call and the closure it returns."""
        make = self.wrap(fn, name, None)

        def traced_factory(*args, **kwargs):
            return self.wrap(make(*args, **kwargs), name, payload_arg)

        traced_factory.__wrapped__ = fn
        return traced_factory

    def install(self) -> "Tracer":
        for name, cls, attr, kind, payload_arg in targets():
            orig = cls.__dict__.get(attr)
            if orig is None:
                raise AttributeError(f"{cls.__name__}.{attr} is not defined there")
            # Methods: the payload index counts ``self`` as argument 0.
            pos = None if payload_arg is None else payload_arg + 1
            if kind == "factory":
                new = self.wrap_factory(orig, name, payload_arg)
            else:
                new = self.wrap(orig, name, pos)
            setattr(cls, attr, new)
            self._installed.append((cls, attr, orig))
        return self

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, orig = self._installed.pop()
            setattr(cls, attr, orig)

    # -- reduction --------------------------------------------------------

    def summary(self) -> Summary:
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("summary() while spans are still open")
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        out = dataclasses.replace(self.acc, calls={}, self_ns={}, incl_ns={})
        names = self.names
        for (idx, t0, t1, parent, _req), st in zip(spans, selfs):
            name = names[idx]
            out.calls[name] = out.calls.get(name, 0) + 1
            out.self_ns[name] = out.self_ns.get(name, 0) + st
            if parent < 0 or spans[parent][0] != idx:
                out.incl_ns[name] = out.incl_ns.get(name, 0) + (t1 - t0)
        return out
