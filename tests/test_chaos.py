"""Seeded chaos campaigns: panics, quiescence, degradation, replay.

Every test here carries the ``chaos`` marker (``make chaos-quick`` runs
the same campaigns from the CLI).  The campaigns force quiescence
auditing on, so a leak after any injected cancellation surfaces as a
``QuiescenceViolation`` — a ``KernelPanic`` subclass — and fails the
run outright.
"""

from __future__ import annotations

import pytest

from repro.sim.chaos import (
    run_campaign,
    run_datastructures_campaign,
    run_memcached_campaign,
    run_redis_campaign,
)

pytestmark = pytest.mark.chaos


# -- the acceptance campaign --------------------------------------------------


def test_memcached_campaign_both_engines_bit_identical():
    """>=500 requests, >=5 fault kinds, zero panics/leaks/oracle errors,
    and a bit-identical digest under both execution engines."""
    reports = {
        engine: run_memcached_campaign(seed=3, n_ops=500, engine=engine)
        for engine in ("interp", "threaded")
    }
    for r in reports.values():
        assert r.ok, r.errors
        assert len(r.sites) >= 5, r.describe()
        assert r.counts["quarantines"] >= 1
        assert r.counts["readmissions"] >= 1
        assert r.counts["cancellations"] >= 1
        assert r.counts["kernel_ops"] > 0
        assert r.counts["fallback_ops"] > 0  # degradation path actually served
    assert reports["interp"].digest == reports["threaded"].digest


def test_redis_campaign_both_engines_bit_identical():
    reports = {
        engine: run_redis_campaign(seed=5, n_ops=300, engine=engine)
        for engine in ("interp", "threaded")
    }
    for r in reports.values():
        assert r.ok, r.errors
        assert r.counts["total_fires"] > 0
        assert r.counts["cancellations"] >= 1
    assert reports["interp"].digest == reports["threaded"].digest


def test_datastructures_campaign_both_engines_bit_identical():
    reports = {
        engine: run_datastructures_campaign(seed=7, n_ops=300, engine=engine)
        for engine in ("interp", "threaded")
    }
    for r in reports.values():
        assert r.ok, r.errors
        assert r.counts["total_fires"] > 0
    assert reports["interp"].digest == reports["threaded"].digest


def test_campaign_replays_deterministically_from_seed():
    a = run_memcached_campaign(seed=11, n_ops=120)
    b = run_memcached_campaign(seed=11, n_ops=120)
    assert a.digest == b.digest
    assert a.describe() == b.describe()
    c = run_memcached_campaign(seed=12, n_ops=120)
    assert c.digest != a.digest  # the seed is the whole schedule


def test_run_campaign_dispatch():
    r = run_campaign("datastructures", 1, 50)
    assert r.name == "datastructures" and r.size == 50
    with pytest.raises(KeyError):
        run_campaign("postgres")


# -- graceful degradation, examined up close ---------------------------------


def test_fallback_serves_correct_results_through_quarantine():
    """§3.4 end to end: quarantine the extension by hand, watch GET fall
    back to the surviving heap via the user mapping, SET land in the
    overlay, and re-admission replay drain the overlay into the kernel
    table."""
    from repro.apps.memcached.supervised import SupervisedMemcached
    from repro.core.runtime import KFlexRuntime
    from repro.core.supervisor import QuarantinePolicy

    policy = QuarantinePolicy(base_backoff_ns=10_000, max_backoff_ns=10_000)
    rt = KFlexRuntime(supervisor_policy=policy)
    sm = SupervisedMemcached(rt, use_locks=True, heap_size=1 << 22)

    # Healthy: values land in the kernel table.
    assert sm.set(1, 111)
    assert sm.set(2, 222)
    assert sm.get(1) == (True, 111)
    assert sm.stats.kernel_gets == 1 and sm.stats.kernel_sets == 2

    rt.supervisor.quarantine(sm.ext, "watchdog")

    # GET of an extension-written key is answered from the surviving
    # heap through the user mapping (no overlay copy exists).
    assert sm.get(2) == (True, 222)
    assert sm.stats.heap_hits == 1
    # SET during quarantine lands in the overlay; GET prefers it.
    assert sm.set(1, 999)
    assert sm.pending == 1
    assert sm.get(1) == (True, 999)
    assert sm.get(3) == (False, None)  # a miss stays a miss
    assert sm.stats.fallback_gets == 3 and sm.stats.fallback_sets == 1

    # Backoff elapses; the next request re-admits and replays.
    rt.kernel.advance_ns(policy.base_backoff_ns + 1)
    assert sm.get(1) == (True, 999)
    assert not sm.ext.dead
    assert sm.pending == 0
    assert sm.stats.replays == 1
    assert rt.supervisor.stats.readmissions == 1
    # The replayed value is now served by the kernel fast path.
    assert sm.get(1) == (True, 999)
