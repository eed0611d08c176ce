"""One campaign harness: every robustness gate as a declaration.

Each chaos and scenario gate follows one protocol::

    seeded plan -> traffic / fault and crash sites -> oracles
        -> replay digest -> report

A campaign *body* (:mod:`repro.sim.chaos`, :mod:`repro.sim.scenarios`)
derives its whole schedule from the seed, drives real code, checks its
oracles inline and returns a :class:`CampaignReport`.  A
:class:`Campaign` *declaration* fixes everything a gate pins — seeds,
sizes, engines, the coverage floor, the sites that must fire and
whether runs must agree across engines — and :func:`sweep` applies
those checks the same way for every gate.  Declarations are constants:
each gate has exactly one configuration.

Run from the command line (the ``make chaos-*`` targets)::

    python -m repro.sim.campaign apps recovery
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: Oracle violations kept per report; ``ok`` is false either way.
ERROR_CAP = 20


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return str(round(value, 3))
    return str(value).replace(" ", "")


@dataclass
class CampaignReport:
    """Observable outcome of one campaign run (the determinism surface)."""

    name: str
    seed: int
    #: Requests / mutations / programs / event steps driven; None when
    #: the body fixes its own traffic volume.
    size: int | None = None
    #: The leg of the run (engine, quorum size); under a cross-checked
    #: declaration the variant must not change the digest.
    variant: str = ""
    #: Replay digest (hex): the same seed reproduces it bit for bit.
    digest: str = ""
    #: Fault kinds or crash sites that fired, sorted.
    sites: tuple = ()
    #: Ordered counters and measurements; ``describe`` prints each.
    counts: dict = field(default_factory=dict)
    #: Keys of ``counts`` that no oracle gates (informational only).
    info: tuple = ()
    #: Oracle violations: (op index or None, description).  Must be empty.
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, i, msg: str) -> None:
        if len(self.errors) < ERROR_CAP:
            self.errors.append((i, msg))

    def describe(self) -> str:
        tag = f"{self.name}/{self.variant}" if self.variant else self.name
        parts = [f"[{tag}] seed={self.seed}"]
        if self.size is not None:
            parts.append(f"size={self.size}")
        for key, value in self.counts.items():
            mark = "(info)" if key in self.info else ""
            parts.append(f"{key}={_fmt(value)}{mark}")
        if self.sites:
            parts.append("sites=" + ",".join(self.sites))
        parts.append(f"digest={self.digest[:16]}")
        parts.append("ok" if self.ok else f"{len(self.errors)} ERRORS")
        lines = [" ".join(parts)]
        for i, msg in self.errors:
            where = "error" if i is None else f"op {i}"
            lines.append(f"  {where}: {msg}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Campaign:
    """A gate: the runs it makes and the checks the sweep applies."""

    name: str
    #: Yields one report per run, lazily, so each prints as it lands.
    runs: Callable[[], Iterable[CampaignReport]]
    #: (counts key, minimum summed over every run); the key ``"runs"``
    #: counts the runs themselves.
    floor: tuple[str, int] | None = None
    #: Sites that must fire in at least one run.
    sites: frozenset = frozenset()
    #: Runs sharing (name, seed, size) must share one digest across
    #: their variants.
    cross_check: bool = False


def sweep(campaigns: Iterable[Campaign]) -> int:
    """Run each campaign and apply its checks; 1 if any check fails."""
    failed = False
    for campaign in campaigns:
        reports = []
        for report in campaign.runs():
            print(report.describe(), flush=True)
            reports.append(report)
        bad = sum(not r.ok for r in reports)
        summary = f"{campaign.name}: {len(reports)} runs, {bad} failed"
        problems = []
        if campaign.floor is not None:
            key, minimum = campaign.floor
            total = len(reports) if key == "runs" else sum(
                r.counts[key] for r in reports
            )
            summary += f", {key}={total} (floor {minimum})"
            if total < minimum:
                problems.append(
                    f"INSUFFICIENT COVERAGE: {key} {total} < {minimum}"
                )
        fired = set().union(*(r.sites for r in reports))
        missing = campaign.sites - fired
        if missing:
            problems.append(f"SITES NOT EXERCISED: {sorted(missing)}")
        if campaign.cross_check:
            by_run: dict = {}
            for r in reports:
                by_run.setdefault((r.name, r.seed, r.size), {})[r.variant] = (
                    r.digest[:16]
                )
            for (name, seed, _), digests in by_run.items():
                if len(set(digests.values())) > 1:
                    problems.append(
                        f"DIGEST DIVERGENCE in {name} seed={seed}: {digests}"
                    )
        print(summary, flush=True)
        for problem in problems:
            print(f"  {problem}", flush=True)
        failed |= bool(bad or problems)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


# Each gate's rationale is on its Makefile target (``make chaos-*``).


def _apps():
    """Memcached, redis and datastructures at seed 3 x 250 requests,
    each under both engines (``make chaos-quick``)."""
    from repro.sim.chaos import APPS, run_campaign

    for app in APPS:
        for engine in ("interp", "threaded"):
            yield run_campaign(app, 3, 250, engine)


def _recovery():
    """Seeds 1-6 x 1500 mutations, file-backed in a temporary directory
    (``make chaos-recovery``)."""
    from repro.sim.chaos import run_recovery_campaign
    from repro.state import DirStorage

    with tempfile.TemporaryDirectory(prefix="kflex-recfuzz.") as root:
        for i in range(6):
            yield run_recovery_campaign(
                1 + i, 1500, storage=DirStorage(f"{root}/run{i}")
            )


def _replication():
    """Seeds 1-5 x 1200 mutations at k=1, plus seed 100 x 600 at k=2
    (``make chaos-replication``)."""
    from repro.sim.chaos import run_replication_campaign

    for seed in range(1, 6):
        yield run_replication_campaign(seed, 1200, sync_replicas=1)
    # One quorum-2 leg: every follower outage is then a quorum loss.
    yield run_replication_campaign(100, 600, sync_replicas=2)


def _fleet():
    """Seeds 1-8 x 150 event-loop steps (``make chaos-fleet``)."""
    from repro.sim.chaos import run_fleet_campaign

    for seed in range(1, 9):
        yield run_fleet_campaign(seed, 150)


def _verify():
    """Verification-service worker kills mid-exploration: seeds 0-3 x
    12 programs; fails on any failed job, any merged analysis that
    differs from the inline verifier, or a kill never retried."""
    from repro.sim.chaos import run_verify_campaign

    for seed in range(4):
        yield run_verify_campaign(seed, 12)


def _scenarios():
    """Every scenario at seeds 0-29 (``make chaos-scenarios``)."""
    from repro.sim.scenarios import SCENARIOS, run_scenario

    for name in sorted(SCENARIOS):
        for seed in range(30):
            yield run_scenario(name, seed)


CAMPAIGNS = {
    c.name: c
    for c in (
        Campaign("apps", _apps, cross_check=True),
        Campaign("recovery", _recovery, floor=("crashes", 200)),
        Campaign(
            "replication", _replication, floor=("deaths", 200),
            sites=frozenset({
                "ship.send", "replica.append", "replica.flush",
                "antientropy.install", "antientropy.send", "promote.recover",
            }),
        ),
        Campaign(
            "fleet", _fleet, floor=("deaths", 200),
            sites=frozenset({
                "migrate.snapshot", "migrate.install", "migrate.tail",
                "migrate.cutover", "rollout.load", "rollout.window",
                "rollout.promote", "rollout.rollback",
            }),
        ),
        Campaign("verify", _verify, floor=("kills", 10)),
        Campaign("scenarios", _scenarios, floor=("runs", 200)),
    )
}


def main(argv=None, campaigns: dict | None = None) -> int:
    campaigns = CAMPAIGNS if campaigns is None else campaigns
    ap = argparse.ArgumentParser(
        prog="repro.sim.campaign",
        description="Run seeded robustness campaigns and apply their gates.",
    )
    ap.add_argument(
        "names", nargs="+", choices=sorted(campaigns), metavar="NAME",
        help="campaigns to run: " + ", ".join(sorted(campaigns)),
    )
    args = ap.parse_args(argv)
    return sweep(campaigns[name] for name in args.names)


if __name__ == "__main__":
    raise SystemExit(main())
