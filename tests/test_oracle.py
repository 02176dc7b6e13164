"""Exact risk and matrix verdicts against a 60-digit oracle over the conditioning range.

Each kind's ``mmse`` and ``mse`` from :func:`shrinklogit.risk` must agree
with :func:`oracle.oracle_risks` within 1e-13 * kappa(C) of the largest
value, over the scenarios of ``test_risk_properties`` (kappa 1e1 to 1e7,
m from 2 to 8, truth in null(H)). The T3.3, T3.5 and T3.7 ``delta_psd``
and ``condition_holds`` must equal the verdicts that
:func:`oracle.oracle_extremes` gives, outside a band of 1e-12 * ||D||
around zero; today they do not (ROADMAP item 2), which a strict xfail
pins and an opt-in audit of the ``scenario_audit`` pool counts.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

pytest.importorskip("mpmath")

from shrinklogit import KINDS, SHRINKAGE_KINDS, EstimatorSpec, LinearRestriction, RiskScenario, risk
from shrinklogit import TABLE_SUITE_D_GRID, check_t33, check_t35, check_t37
from oracle import oracle_extremes, oracle_risks
from test_risk_properties import scenario, scenarios

#: Half-width of the zero band of a verdict, relative to ||D||.
BAND = 1e-12
CHECKS = {"T3.3": check_t33, "T3.5": check_t35, "T3.7": check_t37}
VERDICT_FIELDS = ("delta_psd", "condition_holds")
ITEM_2 = (
    "ROADMAP item 2: T3.3/T3.5 test b1 in range(D) against a relative cut below the rounding "
    "of D D^+ b1, and T3.7 tests L (C^-1 - A) L against the absolute PSD_SLACK, so verdicts "
    "read wrong at high kappa (the findings in CHANGES.md)"
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_risk_agrees_with_the_oracle(sc, d):
    kappa = np.linalg.cond(sc.C)
    oracle = oracle_risks(sc, d)
    for kind in KINDS:
        got = risk(sc, EstimatorSpec(kind, d if kind in SHRINKAGE_KINDS else None))
        mmse, mse = oracle[kind]
        assert np.max(np.abs(got.mmse - mmse)) <= 1e-13 * kappa * np.max(np.abs(mmse)), (kind, "mmse")
        assert abs(got.mse - mse) <= 1e-13 * kappa * abs(mse), (kind, "mse")


def oracle_verdicts(sc, d) -> dict[tuple[str, str], bool]:
    """The oracle's verdict per (theorem, field) for T3.3, T3.5 and T3.7.

    A difference counts as PSD when its smallest exact eigenvalue is at
    least -BAND * ||D||, D being the difference before b1 b1' is taken off
    (Delta5 itself for T3.7): inside the band a value is a zero, as the
    q zero eigenvalues of the singular differences are exactly. A check
    is applicable where D is PSD; there the lemma behind T3.3 and T3.5
    makes the criterion hold iff Delta = D - b1 b1' is PSD, so
    ``condition_holds`` has an oracle only there. T3.7's criterion is the
    theorem itself: Delta5 is PSD."""
    extremes = oracle_extremes(sc, d)

    def psd(name, scale):
        return extremes[name][0] >= -BAND * max(map(abs, extremes[scale]))

    verdicts = {}
    for theorem, dispersion, delta in (("T3.3", "D1", "Delta1"), ("T3.5", "D3", "Delta3")):
        verdicts[theorem, "applicable"] = psd(dispersion, dispersion)
        verdicts[theorem, "delta_psd"] = psd(delta, dispersion)
        if verdicts[theorem, "applicable"]:
            verdicts[theorem, "condition_holds"] = verdicts[theorem, "delta_psd"]
    verdicts["T3.7", "delta_psd"] = verdicts["T3.7", "condition_holds"] = psd("Delta5", "Delta5")
    return verdicts


def verdict_errors(sc, d) -> dict[tuple[str, str], bool]:
    """Whether the package's verdict differs from the oracle's, for each
    (theorem, field) that the oracle decides."""
    got = {theorem: check(sc, d) for theorem, check in CHECKS.items()}
    return {
        (theorem, field): getattr(got[theorem], field) != want
        for (theorem, field), want in oracle_verdicts(sc, d).items()
    }


@pytest.mark.xfail(strict=True, reason=ITEM_2)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(scenario(0, 5.0, m=4, q=1), 0.5)  # the T3.5 xfail of test_risk_properties
@example(scenario(2751935651, 7.0, m=5, q=1), 0.5)  # the T3.7 xfail of test_risk_properties
@given(scenarios(), st.floats(0.0, 1.0))
def test_verdicts_agree_with_the_oracle(sc, d):
    errors = verdict_errors(sc, d)
    assert [key for key, wrong in errors.items() if wrong and key[1] in VERDICT_FIELDS] == []


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=ITEM_2)
def test_audit_of_the_seed_1707_pool(monkeypatch, capsys):
    """Every T3.3/T3.5/T3.7 verdict on the seed-1707 ``scenario_audit`` pool
    (72 scenarios, m 4/8/20, at the ten table d) against the oracle, with
    the count of wrong verdicts per (theorem, field) printed, applicability
    included. Opt in with ``pytest -m slow tests/test_oracle.py``; it
    takes a few minutes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import scenario_inputs

    wrong, compared = Counter(), Counter()
    for raw in scenario_inputs(1707):
        sc = RiskScenario(raw["C"], raw["beta"], LinearRestriction(raw["H"], raw["h"]))
        for d in TABLE_SUITE_D_GRID:
            errors = verdict_errors(sc, d)
            compared.update(errors.keys())
            wrong.update(key for key, error in errors.items() if error)
    with capsys.disabled():
        for key in sorted(compared):
            print(f"{key[0]} {key[1]}: {wrong[key]} wrong of {compared[key]}")
    assert not wrong, dict(wrong)
