"""The campaign harness: pinned replay digests, the fleet campaign, and
the sweep's gate checks.

The digests below were recorded before the campaigns moved onto the
shared harness; any change to what a campaign feeds its hasher (op
order, RNG draws, crash-log tail) shows up here in tier-1 rather than
only in the manual ``make chaos-*`` runs.
"""

from __future__ import annotations

import pytest

from repro.sim import chaos
from repro.sim.campaign import Campaign, CampaignReport, main, sweep

PINNED = {
    ("memcached", "interp"): "5ef41725a1d06a4bc2102aa320ccd086"
                             "da2bc3875bbec94b079d2424b3bef8a0",
    ("memcached", "threaded"): "5ef41725a1d06a4bc2102aa320ccd086"
                               "da2bc3875bbec94b079d2424b3bef8a0",
    ("redis", "interp"): "4d298f5d18b76c446bb7e68f2c19093a"
                         "22d400b319543e610aa4349c06cbfaf3",
    ("redis", "threaded"): "4d298f5d18b76c446bb7e68f2c19093a"
                           "22d400b319543e610aa4349c06cbfaf3",
    ("datastructures", "interp"): "f05f0789ff7ccc7751cd66a45839cc73"
                                  "dffe72e0fe642adeb859cb4ed7087298",
    ("datastructures", "threaded"): "f05f0789ff7ccc7751cd66a45839cc73"
                                    "dffe72e0fe642adeb859cb4ed7087298",
    ("recovery", ""): "62b82ba3ccca3031f35f8fbe7a95e880"
                      "c392413780d2a3cb81ec2972342e1a05",
    ("replication", "k=1"): "608086c27b16a22364cceaf482c8872f"
                            "d113a935e1805517f2f66d94e7486415",
    ("fleet", ""): "2faca95b18f2d8e30557a61a9eb6af99"
                   "59f93789cb56884babf7d1bfc61ecc09",
    ("verify", ""): "b3f368c91051b42fda0789a50de8dbe5"
                    "e51b589d0c9e7aa504fbae98da6de2f3",
}


def _run(name: str, variant: str) -> CampaignReport:
    """The small seed each campaign is pinned at (in-memory storage)."""
    if name in chaos.APPS:
        return chaos.run_campaign(name, 1, 60, variant)
    if name == "recovery":
        return chaos.run_recovery_campaign(1, 150)
    if name == "replication":
        return chaos.run_replication_campaign(5, 200, sync_replicas=1)
    if name == "fleet":
        return chaos.run_fleet_campaign(5, 24)
    return chaos.run_verify_campaign(1, 4)


@pytest.mark.parametrize("name,variant", sorted(PINNED))
def test_campaign_digest_is_pinned(name, variant):
    report = _run(name, variant)
    assert report.ok, report.describe()
    assert (report.name, report.variant) == (name, variant)
    assert report.digest == PINNED[name, variant]


def test_fleet_campaign_small_run_is_deterministic():
    a = chaos.run_fleet_campaign(5, 24)
    b = chaos.run_fleet_campaign(5, 24)
    assert a.ok, a.describe()
    assert a.counts["deaths"] > 0
    assert a.digest == b.digest
    assert a.describe() == b.describe()


def test_describe_marks_informational_and_missing_values():
    r = CampaignReport(
        "probe", 0, counts={"baseline_p99_us": None, "loaded_p99_us": 2.5e5},
        info=("loaded_p99_us",),
    )
    line = r.describe()
    assert "baseline_p99_us=n/a " in line
    assert "loaded_p99_us=250000.0(info) " in line
    r.error(None, "boom")
    assert not r.ok and r.describe().endswith("1 ERRORS\n  error: boom")


def test_report_caps_recorded_errors():
    r = CampaignReport("capped", 0)
    for i in range(50):
        r.error(i, "bad")
    assert len(r.errors) == 20 and not r.ok


# -- the sweep's gates, driven by fake declarations ---------------------------


def _fake(*reports, **checks) -> Campaign:
    return Campaign("fake", lambda: iter(reports), **checks)


def _report(digest="d", variant="", sites=(), deaths=5, errors=()):
    return CampaignReport(
        "fake", 1, 10, variant=variant, digest=digest, sites=sites,
        counts={"deaths": deaths}, errors=list(errors),
    )


PASSING = _fake(
    _report(variant="interp", sites=("a",)),
    _report(variant="threaded", sites=("b",)),
    floor=("deaths", 10), sites=frozenset({"a", "b"}), cross_check=True,
)

#: why -> (declaration, what the sweep prints about it)
FAILING = {
    "floor above the total": (
        _fake(_report(), floor=("deaths", 6)),
        "INSUFFICIENT COVERAGE: deaths 5 < 6",
    ),
    "required site never fires": (
        _fake(_report(sites=("a",)), sites=frozenset({"a", "b"})),
        "SITES NOT EXERCISED: ['b']",
    ),
    "cross-engine digest mismatch": (
        _fake(
            _report(digest="x", variant="interp"),
            _report(digest="y", variant="threaded"),
            cross_check=True,
        ),
        "DIGEST DIVERGENCE in fake seed=1",
    ),
    "report carrying an error": (
        _fake(_report(errors=[(3, "oracle")])),
        "fake: 1 runs, 1 failed",
    ),
    "run floor above the run count": (
        _fake(_report(), floor=("runs", 2)),
        "INSUFFICIENT COVERAGE: runs 1 < 2",
    ),
}


def test_sweep_passes_a_clean_campaign(capsys):
    assert sweep([PASSING]) == 0
    assert main(["fake"], campaigns={"fake": PASSING}) == 0
    assert "fake: 2 runs, 0 failed, deaths=10 (floor 10)" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("why", sorted(FAILING))
def test_sweep_gate_fails(why, capsys):
    campaign, message = FAILING[why]
    assert sweep([campaign]) == 1
    assert message in capsys.readouterr().out
    # The CLI exits 1 too, even when a passing campaign runs first.
    campaigns = {"ok": PASSING, "bad": campaign}
    assert main(["ok", "bad"], campaigns=campaigns) == 1


def test_cli_rejects_unknown_campaign():
    with pytest.raises(SystemExit) as exc:
        main(["nope"], campaigns={"fake": PASSING})
    assert exc.value.code == 2
