"""Test-suite plumbing: every test under tests/ is tier-1.

Tier-1 is the fast correctness suite run on every change
(``make test`` / ``pytest -m tier1``); benchmark runs under
``benchmarks/`` carry the ``bench`` marker instead.

Quiescence auditing is forced on for every test: each cancellation any
test provokes is followed by a lock/sock/allocation audit
(:mod:`repro.core.audit`), so a destructor regression fails the suite
even where no test asserts on resources explicitly.
"""

import pytest

from repro.core.audit import audit_enabled, enable_quiescence_audit


def pytest_collection_modifyitems(config, items):
    # ``net`` tests open real sockets and run wall-clock load; they are
    # excluded from tier-1 unless explicitly selected (`make test-net` /
    # `pytest -m net`).  Everything else under tests/ is tier-1.
    markexpr = config.option.markexpr or ""
    run_net = "net" in markexpr
    run_recovery = "recovery" in markexpr
    run_replication = "replication" in markexpr
    run_fleet = "fleet" in markexpr
    run_scenario = "scenario" in markexpr
    skip_net = pytest.mark.skip(
        reason="network datapath test: run with -m net (make test-net)"
    )
    skip_recovery = pytest.mark.skip(
        reason="crash-recovery test: run with -m recovery (make test-recovery)"
    )
    skip_replication = pytest.mark.skip(
        reason="replication test: run with -m replication (make test-replication)"
    )
    skip_fleet = pytest.mark.skip(
        reason="fleet control-plane test: run with -m fleet (make test-fleet)"
    )
    skip_scenario = pytest.mark.skip(
        reason="adversarial scenario run: run with -m scenario "
        "(make test-scenarios)"
    )
    for item in items:
        if item.get_closest_marker("net") is not None:
            if not run_net:
                item.add_marker(skip_net)
        elif item.get_closest_marker("scenario") is not None:
            # Full adversarial scenarios: seeded hostile traffic over
            # real loopback sockets; excluded from tier-1 like ``net``.
            if not run_scenario:
                item.add_marker(skip_scenario)
        elif item.get_closest_marker("fleet") is not None:
            # Live fleet tests: threaded shard workers + TCP front under
            # wall-clock load; excluded from tier-1 like ``net``.
            if not run_fleet:
                item.add_marker(skip_fleet)
        elif item.get_closest_marker("replication") is not None:
            # Multi-node WAL shipping over real sockets (threaded replica
            # workers + wall-clock load); excluded from tier-1 like ``net``.
            if not run_replication:
                item.add_marker(skip_replication)
        elif item.get_closest_marker("recovery") is not None:
            # File-backed (real fsync/rename) and/or real-socket crash
            # recovery; excluded from tier-1 like ``net``.
            if not run_recovery:
                item.add_marker(skip_recovery)
        else:
            # ``compiled``- and ``verify_svc``-marked tests stay IN
            # tier-1 (the markers only make them selectable via
            # `pytest -m compiled` / `pytest -m verify_svc`).
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(autouse=True)
def _mandatory_quiescence_audit():
    prev = audit_enabled()
    enable_quiescence_audit(True)
    yield
    enable_quiescence_audit(prev)
