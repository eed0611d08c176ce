"""Worker-process side of the verification service.

A worker is a forked process running :func:`worker_main`: it pulls
:class:`JobSpec` messages off a shared task queue, rebuilds the program
from pure data (instructions pickle directly; attached maps are
reduced to :class:`MapSpec` geometry stubs — the verifier only ever
reads ``fd`` / ``key_size`` / ``value_size``), runs the region-sliced
verifier, and streams progress back on the results queue:

* ``("start", wid, jid, pid)`` — job picked up by process ``pid``,
* ``("region", wid, jid, ordinal, reused)`` — one region finished,
* ``("done", wid, jid, analysis, info)`` — full analysis attached,
* ``("fail", wid, jid, message)`` — the program was *rejected* (a
  rejection is a result, not a worker fault).

Each worker owns a long-lived :class:`RegionMemo`, so differential
reuse compounds across the jobs a worker sees — the second variant of
a program family re-explores only its changed regions.

``JobSpec.die_after_regions`` is the chaos hook: the worker calls
``os._exit`` before announcing that region, simulating a crash
mid-exploration with some progress already streamed.  The scheduler
must treat the death as retryable and must not admit any partial
analysis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.errors import VerificationError
from repro.ebpf import isa
from repro.ebpf.program import Program
from repro.ebpf.verifier import Verifier, VerifierConfig
from repro.verify.differential import RegionMemo

#: Progress messages are sent once per this many completed regions:
#: they only feed the scheduler's ``regions_retried`` accounting, and a
#: per-region message on every tiny region would cost more queue
#: traffic than the exploration it reports on.
ANNOUNCE_EVERY = 8


@dataclass(frozen=True)
class MapSpec:
    """Picklable geometry of one attached map."""

    fd: int
    key_size: int
    value_size: int
    base: int
    size: int


class _GeoRegion:
    __slots__ = ("base", "size")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size


class MapGeometry:
    """Map stand-in rebuilt inside the worker: just enough surface for
    the verifier (``key_size`` / ``value_size``) and for digesting
    (``fd`` / ``region.base`` / ``region.size``)."""

    __slots__ = ("fd", "key_size", "value_size", "region")

    def __init__(self, spec: MapSpec):
        self.fd = spec.fd
        self.key_size = spec.key_size
        self.value_size = spec.value_size
        self.region = _GeoRegion(spec.base, spec.size)


@dataclass(frozen=True)
class JobSpec:
    """One verification job as shipped to a worker — pure data."""

    jid: int
    name: str
    #: ``isa.encode``d bytecode — one bytes blob ships far cheaper
    #: through the task queue than a tuple of Insn dataclasses.
    insns: bytes
    hook: str
    sleepable: bool
    maps: tuple  # tuple[MapSpec, ...]
    heap_size: int | None
    config: VerifierConfig
    #: Chaos: os._exit(1) before announcing this many completed regions.
    die_after_regions: int | None = None


def job_spec(
    jid: int,
    program: Program,
    config: VerifierConfig,
    heap_size: int | None = None,
    die_after_regions: int | None = None,
) -> JobSpec:
    """Reduce a :class:`Program` + config to a shippable spec."""
    maps = tuple(
        MapSpec(fd, m.key_size, m.value_size, m.region.base, m.region.size)
        for fd, m in sorted(program.maps.items())
    )
    return JobSpec(
        jid=jid,
        name=program.name,
        insns=isa.encode(program.insns),
        hook=program.hook,
        sleepable=program.sleepable,
        maps=maps,
        heap_size=(
            heap_size if heap_size is not None else program.heap_size
        ),
        config=config,
        die_after_regions=die_after_regions,
    )


def sanitize(spec: JobSpec) -> JobSpec:
    """Strip chaos injection before a retry: a requeued job must run
    clean, or a killed worker would loop killing its replacements."""
    if spec.die_after_regions is None:
        return spec
    return replace(spec, die_after_regions=None)


def build_program(spec: JobSpec) -> Program:
    return Program(
        name=spec.name,
        insns=isa.decode(spec.insns),
        hook=spec.hook,
        maps={m.fd: MapGeometry(m) for m in spec.maps},
        heap_size=spec.heap_size,
        sleepable=spec.sleepable,
    )


def run_job(spec: JobSpec, memo: RegionMemo, emit, quiesce=None) -> None:
    """Verify one job, reporting through ``emit(message_tuple)``.

    ``quiesce`` is called right before a chaos ``os._exit``: the worker
    loop passes a queue flush here, because exiting while the queue's
    feeder thread holds the shared pipe lock would deadlock every
    *other* worker's puts — a harness artifact, not the crash semantics
    under test (the scheduler still sees an unannounced death).
    """
    from time import perf_counter_ns

    program = build_program(spec)
    verifier = Verifier(program, spec.config, heap_size=spec.heap_size)
    verifier.region_memo = memo
    announced = 0
    reused_seen = 0

    def on_region(ordinal, part):
        nonlocal announced, reused_seen
        if (
            spec.die_after_regions is not None
            and announced + 1 >= spec.die_after_regions
        ):
            # Crash *before* announcing: the scheduler sees silence
            # after ``announced`` regions, then a dead worker.
            if quiesce is not None:
                quiesce()
            os._exit(1)
        announced += 1
        reused = verifier.regions_reused > reused_seen
        reused_seen = verifier.regions_reused
        if announced % ANNOUNCE_EVERY == 0:
            emit(("region", spec.jid, ordinal, reused))

    verifier.region_hook = on_region
    t0 = perf_counter_ns()
    try:
        analysis = verifier.verify()
    except VerificationError as exc:
        emit(("fail", spec.jid, str(exc)))
        return
    info = {
        "regions_total": verifier.regions_total,
        "regions_reused": verifier.regions_reused,
        "verify_ns": perf_counter_ns() - t0,
        "explore_ns": verifier.timings["explore_ns"],
        "merge_ns": verifier.timings["merge_ns"],
    }
    emit(("done", spec.jid, analysis, info))


def worker_main(wid: int, task_q, result_q, memo_capacity: int) -> None:
    """Worker loop: runs until a ``None`` sentinel arrives."""
    memo = RegionMemo(memo_capacity)

    def emit(msg):
        result_q.put((msg[0], wid) + msg[1:])

    def quiesce():
        # Flush buffered messages and retire the feeder thread so a
        # chaos exit never dies holding the queue's shared pipe lock.
        result_q.close()
        result_q.join_thread()

    while True:
        spec = task_q.get()
        if spec is None:
            break
        result_q.put(("start", wid, spec.jid, os.getpid()))
        run_job(spec, memo, emit, quiesce)
