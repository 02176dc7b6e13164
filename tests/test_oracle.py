"""Exact risk against a 60-digit oracle over the conditioning range.

Each kind's ``mmse`` and ``mse`` from :func:`shrinklogit.risk` must agree
with :func:`oracle.oracle_risks` within 1e-13 * kappa(C) of the largest
value, over the scenarios of ``test_risk_properties`` (kappa 1e1 to 1e7,
m from 2 to 8, truth in null(H)).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

pytest.importorskip("mpmath")

from shrinklogit import KINDS, SHRINKAGE_KINDS, EstimatorSpec, risk
from oracle import oracle_risks
from test_risk_properties import scenarios


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
