"""The verification service: job queue, scheduler, worker pool.

:class:`VerificationService` is the submission front for batched
verification, modelled on Klever's scheduler/worker decomposition: a
batch of :class:`VerifyJob` is fanned out over a pool of forked worker
processes through a shared task queue; the scheduler consumes a
results stream (start / region / done / fail messages), detects worker
death by liveness polling, respawns the worker, and requeues the jobs
it had started but not finished — with any chaos injection stripped,
so a retried job runs clean.  A job's analysis is admitted only from a
``done`` message carrying the *complete* merged :class:`Analysis`;
partial progress from a crashed worker is discarded wholesale, never
merged (no partial-analysis admission).

With ``workers=0`` the service degrades to an in-process serial loop
over the same region-sliced verifier, sharing one :class:`RegionMemo`
across jobs — differential re-verification without any processes.
Either way results are ordered by submission index and each analysis
is bit-identical to a bare single-threaded ``Verifier.verify()``: the
workers run the *same* region loop, and reused partials are replayed
through the same deterministic merge.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.errors import ReproError, VerificationError
from repro.ebpf.program import Program
from repro.ebpf.verifier import Analysis, Verifier, VerifierConfig
from repro.verify.differential import RegionMemo
from repro.verify.workers import job_spec, sanitize, worker_main


class VerifyServiceError(ReproError):
    """Scheduler-level failure (not a program rejection)."""


@dataclass
class VerifyJob:
    """One program + config submitted for verification."""

    program: Program
    config: VerifierConfig = field(default_factory=VerifierConfig)
    heap_size: int | None = None
    #: Chaos: worker os._exit()s before announcing this many regions.
    die_after_regions: int | None = None


@dataclass
class VerifyOutcome:
    """Result of one job, in submission order."""

    jid: int
    analysis: Analysis | None = None
    error: str | None = None
    regions_total: int = 0
    regions_reused: int = 0
    queue_ns: float = 0.0
    explore_ns: float = 0.0
    merge_ns: float = 0.0
    worker: int | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.analysis is not None


class VerificationService:
    """Batched verification front; see module docstring.

    ``workers=0`` (the default) runs jobs inline — the serial fallback
    the pipeline keeps when no pool is configured.
    """

    #: A job is retried at most this many times after worker deaths
    #: before being failed outright.
    MAX_RETRIES = 2

    def __init__(
        self,
        workers: int = 0,
        *,
        memo_capacity: int = 4096,
        poll_s: float = 0.05,
    ):
        self.workers = max(0, int(workers))
        self.poll_s = poll_s
        self.memo_capacity = memo_capacity
        #: Inline-mode memo (worker memos live in the worker processes).
        self.memo = RegionMemo(memo_capacity)
        self._ctx = mp.get_context("fork")
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self.stats = {
            "workers": self.workers,
            "batches": 0,
            "jobs": 0,
            "failures": 0,
            "retries": 0,
            "regions_retried": 0,
            "regions_total": 0,
            "regions_reused": 0,
            "queue_depth_peak": 0,
            "queue_ns_total": 0.0,
            "busy_ns_total": 0.0,
            "wall_ns_total": 0.0,
        }

    # -- public API ----------------------------------------------------

    def verify(
        self,
        program: Program,
        config: VerifierConfig | None = None,
        heap_size: int | None = None,
    ) -> Analysis:
        """Verify one program; raises :class:`VerificationError` on
        rejection.  This is the :class:`CompilationPipeline` seam."""
        analysis, _timings = self.verify_timed(program, config, heap_size)
        return analysis

    def verify_timed(
        self,
        program: Program,
        config: VerifierConfig | None = None,
        heap_size: int | None = None,
    ) -> tuple[Analysis, dict]:
        """Like :meth:`verify` but also returns the queue/explore/merge
        wall-time split for sub-stage stats."""
        job = VerifyJob(program, config or VerifierConfig(), heap_size)
        out = self.submit_batch([job])[0]
        if out.error is not None:
            raise VerificationError(out.error)
        return out.analysis, {
            "queue": out.queue_ns,
            "explore": out.explore_ns,
            "merge": out.merge_ns,
        }

    def submit_batch(self, jobs: list[VerifyJob]) -> list[VerifyOutcome]:
        """Verify a batch; returns outcomes in submission order.

        Rejections are reported per-outcome (``error`` set), not
        raised — a fleet rollout wants the full picture.
        """
        self.stats["batches"] += 1
        self.stats["jobs"] += len(jobs)
        t_batch = perf_counter_ns()
        if self.workers == 0:
            outs = self._run_inline(jobs)
        else:
            outs = self._run_pool(jobs)
        self.stats["wall_ns_total"] += perf_counter_ns() - t_batch
        for out in outs:
            self.stats["regions_total"] += out.regions_total
            self.stats["regions_reused"] += out.regions_reused
            self.stats["queue_ns_total"] += out.queue_ns
            if out.error is not None:
                self.stats["failures"] += 1
        return outs

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if not self._procs:
            return
        for _ in self._procs:
            self._task_q.put(None)
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs = []
        self._task_q = None
        self._result_q = None

    def stats_dict(self) -> dict:
        d = dict(self.stats)
        wall = d["wall_ns_total"]
        denom = wall * self.workers
        d["utilization"] = (d["busy_ns_total"] / denom) if denom else 0.0
        total = d["regions_total"]
        d["differential_saved"] = (
            d["regions_reused"] / total if total else 0.0
        )
        d["memo"] = self.memo.stats_dict()
        return d

    # -- inline path ---------------------------------------------------

    def _run_inline(self, jobs: list[VerifyJob]) -> list[VerifyOutcome]:
        outs = []
        for jid, job in enumerate(jobs):
            verifier = Verifier(
                job.program, job.config, heap_size=job.heap_size
            )
            verifier.region_memo = self.memo
            out = VerifyOutcome(jid=jid)
            try:
                out.analysis = verifier.verify()
            except VerificationError as exc:
                out.error = str(exc)
            out.regions_total = verifier.regions_total
            out.regions_reused = verifier.regions_reused
            out.explore_ns = verifier.timings["explore_ns"]
            out.merge_ns = verifier.timings["merge_ns"]
            outs.append(out)
        return outs

    # -- pool path -----------------------------------------------------

    def _spawn(self, wid: int) -> None:
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, self._task_q, self._result_q, self.memo_capacity),
            daemon=True,
        )
        proc.start()
        self._procs[wid] = proc

    def _ensure_pool(self) -> None:
        if self._procs:
            return
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs = [None] * self.workers
        for wid in range(self.workers):
            self._spawn(wid)

    def _run_pool(self, jobs: list[VerifyJob]) -> list[VerifyOutcome]:
        self._ensure_pool()
        specs = {
            jid: job_spec(
                jid,
                job.program,
                job.config,
                heap_size=job.heap_size,
                die_after_regions=job.die_after_regions,
            )
            for jid, job in enumerate(jobs)
        }
        t_submit = perf_counter_ns()
        for spec in specs.values():
            self._task_q.put(spec)
        self.stats["queue_depth_peak"] = max(
            self.stats["queue_depth_peak"], len(specs)
        )

        pending = set(specs)
        #: jid -> (wid, start_ns) for jobs a worker has picked up.
        started: dict[int, tuple[int, float]] = {}
        regions_seen: dict[int, int] = {jid: 0 for jid in specs}
        attempts: dict[int, int] = {jid: 1 for jid in specs}
        outcomes: dict[int, VerifyOutcome] = {}
        last_reap = perf_counter_ns()
        last_msg = perf_counter_ns()

        while pending:
            try:
                msg = self._result_q.get(timeout=self.poll_s)
            except queue_mod.Empty:
                msg = None
            now = perf_counter_ns()
            if msg is None or now - last_reap > self.poll_s * 1e9:
                self._reap_dead(
                    specs, pending, started, regions_seen, attempts,
                    outcomes,
                )
                last_reap = now
            if msg is None:
                # A worker that dies between dequeuing a job and its
                # "start" message flushing leaves the job stranded:
                # nothing maps it to the dead worker.  If workers sit
                # idle while unstarted jobs linger with no traffic,
                # requeue them — a duplicate completion (if the job
                # was merely slow to start) is dropped by the pending
                # check and is bit-identical anyway.
                stalled = now - last_msg > max(1e9, 10 * self.poll_s * 1e9)
                busy = {w for w, _t in started.values()}
                idle = len(busy) < len(self._procs)
                if stalled and idle:
                    for jid in sorted(pending - set(started)):
                        attempts[jid] += 1
                        self.stats["retries"] += 1
                        specs[jid] = sanitize(specs[jid])
                        self._task_q.put(specs[jid])
                    last_msg = now
                continue
            last_msg = now
            kind, wid = msg[0], msg[1]
            jid = msg[2]
            if jid not in pending:
                continue  # stale message from a superseded attempt
            if kind == "start":
                if msg[3] != self._procs[wid].pid:
                    # Sent by a dead incarnation of ``wid`` that was
                    # reaped before this message was read: the job is
                    # unstarted, and the stall requeue picks it up.
                    continue
                started[jid] = (wid, now)
                regions_seen[jid] = 0
            elif kind == "region":
                # Throttled progress beacon (every ANNOUNCE_EVERY
                # regions); msg[3] is the ordinal just finished.
                regions_seen[jid] = msg[3] + 1
            elif kind in ("done", "fail"):
                out = VerifyOutcome(
                    jid=jid, worker=wid, attempts=attempts[jid]
                )
                if jid in started and started[jid][0] == wid:
                    _w, t_start = started.pop(jid)
                    out.queue_ns = t_start - t_submit
                    self.stats["busy_ns_total"] += now - t_start
                if kind == "done":
                    analysis, info = msg[3], msg[4]
                    out.analysis = analysis
                    out.regions_total = info["regions_total"]
                    out.regions_reused = info["regions_reused"]
                    out.explore_ns = info["explore_ns"]
                    out.merge_ns = info["merge_ns"]
                else:
                    out.error = msg[3]
                outcomes[jid] = out
                pending.discard(jid)
        return [outcomes[jid] for jid in sorted(outcomes)]

    def _reap_dead(
        self, specs, pending, started, regions_seen, attempts, outcomes
    ) -> None:
        """Respawn dead workers and requeue their in-flight jobs."""
        dead = [
            wid
            for wid, proc in enumerate(self._procs)
            if not proc.is_alive()
        ]
        if not dead:
            return
        for wid in dead:
            self._procs[wid].join()
            self._spawn(wid)
        dead_set = set(dead)
        for jid, (wid, _t) in list(started.items()):
            if wid not in dead_set or jid not in pending:
                continue
            del started[jid]
            self.stats["retries"] += 1
            self.stats["regions_retried"] += regions_seen[jid]
            regions_seen[jid] = 0
            attempts[jid] += 1
            if attempts[jid] > self.MAX_RETRIES + 1:
                out = VerifyOutcome(
                    jid=jid,
                    error="verification worker died repeatedly",
                    attempts=attempts[jid],
                )
                outcomes[jid] = out
                pending.discard(jid)
                continue
            # Retries run clean: chaos injection is never re-applied.
            specs[jid] = sanitize(specs[jid])
            self._task_q.put(specs[jid])
