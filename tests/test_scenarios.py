"""The adversarial scenario matrix (``scenario`` tier).

One pytest case per scenario — each is a full seeded hostile-traffic
run over real loopback sockets with its pass/fail oracles evaluated
inside (acked writes never lost, graceful shed, bounded recovery,
p99 envelope).  ``make test-scenarios`` runs this file; the chaos
sweep (``make chaos-scenarios``) runs the same matrix across many
seeds via the campaign CLI (``python -m repro.sim.campaign scenarios``).
"""

import pytest

from repro.sim.scenarios import SCENARIOS, run_scenario


@pytest.mark.scenario
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_oracles_hold(name):
    rep = run_scenario(name, seed=0)
    assert rep.ok, rep.describe()


@pytest.mark.scenario
def test_traffic_plan_digest_is_replayable():
    # The digest hashes the *offered traffic plan*, not the timing-
    # dependent outcome: same seed → byte-identical plan, different
    # seed → different plan.
    a = run_scenario("hot_key_migration", seed=1)
    b = run_scenario("hot_key_migration", seed=1)
    c = run_scenario("hot_key_migration", seed=2)
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert a.ok and b.ok and c.ok
