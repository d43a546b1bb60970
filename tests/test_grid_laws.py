"""Grid calls of the law, distance and bound functions against their
single-time calls, over the accepted domain.

A single time is the one-point grid [t], so every value must be the same float
at every grid length (lengths up to 130 cover the remainder lanes of numpy's
SIMD loops), and ``verify_bounds`` must report its rows in family order, then
time order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modred import (
    CoupledParams,
    InvalidParams,
    OscillatorParams,
    coupled_full_law,
    coupled_longtime_bound,
    coupled_reduced_law,
    coupled_w2_exact,
    osc_longtime_bound,
    osc_w2_exact,
    oscillator_full_law,
    oscillator_marginal_law,
    oscillator_reduced_law,
    verify_bounds,
)
from modred.bounds import SMALL_COUPLING_K_MAX


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


initial = st.floats(-1e3, 1e3)
oscillators = st.builds(
    lambda omega, excess, beta, x0, v0: OscillatorParams(
        gamma=2.0 * omega * (1.0 + excess), omega=omega, beta=beta, x0=x0, v0=v0
    ),
    omega=log_uniform(-3, 3),
    excess=log_uniform(-6, 4),
    beta=log_uniform(-3, 3),
    x0=initial,
    v0=initial,
)
coupled_pairs = st.builds(
    lambda rate, k, x1, x2: CoupledParams(a=-rate, d=-rate, k=k, x1=x1, x2=x2),
    rate=log_uniform(-3, 3),
    k=log_uniform(-4, 4),
    x1=initial,
    x2=initial,
)
# grid points in units of the slow relaxation time, zero and subnormals included
factors = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=130).map(sorted)

EQUILIBRIUM = ["equilibrium_rate_original", "equilibrium_rate_reduced"]


def assert_same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def check_rows(p, grid, families, w2_exact, longtime_bound):
    reports = verify_bounds(p, grid)
    assert [(r.name, r.t) for r in reports] == [
        (name, t) for name in families for t in grid.tolist()
    ]
    reduction = [r for r in reports if r.name not in EQUILIBRIUM]
    assert_same_bits([r.exact_sq for r in reduction], [w2_exact(p, r.t) for r in reduction])
    long_time = [r for r in reports if r.name == "long_time"]
    assert_same_bits([r.bound for r in long_time], [longtime_bound(p, r.t) for r in long_time])


@settings(max_examples=100, deadline=None)
@given(p=oscillators, factors=factors)
def test_oscillator_grid_matches_scalar_calls(p, factors):
    grid = np.array(factors) / p.rate_slow
    times = grid.tolist()
    for law_fn in (oscillator_marginal_law, oscillator_reduced_law):
        law = law_fn(p, grid)
        points = [law_fn(p, t) for t in times]
        assert_same_bits(law.mean, [g.mean[0] for g in points])
        assert_same_bits(law.var, [g.variance for g in points])
    assert_same_bits(osc_w2_exact(p, grid), [osc_w2_exact(p, t) for t in times])
    assert_same_bits(osc_longtime_bound(p, grid), [osc_longtime_bound(p, t) for t in times])
    families = ["high_friction", "long_time", *EQUILIBRIUM]
    check_rows(p, grid, families, osc_w2_exact, osc_longtime_bound)


@settings(max_examples=100, deadline=None)
@given(p=coupled_pairs, factors=factors)
def test_coupled_grid_matches_scalar_calls(p, factors):
    grid = np.array(factors) / -p.a
    times = grid.tolist()
    joint = coupled_full_law(p, grid)
    points = [coupled_full_law(p, t) for t in times]
    assert_same_bits(joint.mean1, [g.mean[0] for g in points])
    assert_same_bits(joint.mean2, [g.mean[1] for g in points])
    assert_same_bits(joint.var, [g.cov[0, 0] for g in points])
    assert_same_bits(joint.var, [g.cov[1, 1] for g in points])
    assert_same_bits(joint.cov, [g.cov[0, 1] for g in points])
    reduced = coupled_reduced_law(p, grid)
    points = [coupled_reduced_law(p, t) for t in times]
    assert_same_bits(reduced.mean, [g.mean[0] for g in points])
    assert_same_bits(reduced.var, [g.variance for g in points])
    assert_same_bits(coupled_w2_exact(p, grid), [coupled_w2_exact(p, t) for t in times])
    assert_same_bits(
        coupled_longtime_bound(p, grid), [coupled_longtime_bound(p, t) for t in times]
    )
    small = ["small_coupling"] if p.k <= SMALL_COUPLING_K_MAX else []
    families = [*small, "long_time", *EQUILIBRIUM]
    check_rows(p, grid, families, coupled_w2_exact, coupled_longtime_bound)


@pytest.mark.parametrize("bad", [[0.0, -1.0], [0.0, np.nan], [[0.0, 1.0]]])
def test_time_arrays_are_checked(bad):
    p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0)
    with pytest.raises(InvalidParams):
        oscillator_marginal_law(p, np.array(bad))
    with pytest.raises(InvalidParams):
        osc_w2_exact(p, np.array(bad))


def test_full_oscillator_law_takes_a_single_time():
    p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0)
    with pytest.raises(InvalidParams):
        oscillator_full_law(p, np.array([0.0, 1.0]))
