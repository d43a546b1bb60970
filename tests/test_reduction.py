import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modred import (
    CoupledParams,
    InvalidParams,
    LinearModel,
    NotOverdamped,
    OscillatorParams,
    ReducedModel,
    eig2,
    equilibrium_laws,
    invariance_roots,
    reduce_coupled,
    reduce_oscillator,
    select_closure,
    solve_lyapunov2,
    stationary_law,
)

rate_a = st.floats(min_value=-5.0, max_value=-0.1, allow_nan=False)
rate_gap = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
coupling = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)


class TestParamTypes:
    def test_oscillator_rates(self):
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0)
        assert p.rate_fast == 4.0 and p.rate_slow == 1.0

    def test_oscillator_rejects_critical_damping(self):
        with pytest.raises(NotOverdamped):
            OscillatorParams(gamma=4.0, omega=2.0, beta=1.0)

    def test_oscillator_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            OscillatorParams(gamma=5.0, omega=2.0, beta=0.0)

    def test_coupled_matrices(self):
        p = CoupledParams(a=-1.0, d=-3.0, k=2.0, sigma1=0.5, sigma2=1.5)
        np.testing.assert_array_equal(p.drift_matrix(), [[-3.0, 2.0], [2.0, -5.0]])
        np.testing.assert_array_equal(p.diffusion_matrix(), np.diag([0.5, 1.5]))
        assert not p.is_normalized

    def test_coupled_rejects_wrong_order(self):
        with pytest.raises(InvalidParams):
            CoupledParams(a=-3.0, d=-1.0, k=1.0)

    def test_coupled_rejects_zero_coupling(self):
        with pytest.raises(InvalidParams):
            CoupledParams(a=-1.0, d=-1.0, k=0.0)

    def test_oscillator_family_members(self):
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=0.3, v0=-1.2)
        assert p.initial_state == (0.3, -1.2)
        assert p.reduce() == reduce_oscillator(p)

    @settings(max_examples=60, deadline=None)
    @given(rate_a, rate_gap, coupling)
    def test_coupled_family_members(self, a, gap, k):
        p = CoupledParams(a=a, d=a - gap, k=k, sigma1=0.5, sigma2=2.0, x1=0.3, x2=-1.2)
        lam_slow, lam_fast = p.drift_eigenvalues()
        assert p.rate_slow == abs(lam_slow) and p.rate_fast == abs(lam_fast)
        assert p.initial_state == (0.3, -1.2)
        assert p.reduce() == reduce_coupled(p)

    @pytest.mark.parametrize("a, k", [(-1e-8, 1e3), (-0.1, 10.0)])
    def test_coupled_eigenvalues_match_mpmath(self, a, k):
        p = CoupledParams(a=a, d=a, k=k)
        with mpmath.workdps(40):
            # eigenvalues of [[a - k, k], [k, d - k]] from the exact parameters
            a_, d_, k_ = mpmath.mpf(p.a), mpmath.mpf(p.d), mpmath.mpf(p.k)
            tr, det = a_ + d_ - 2 * k_, a_ * d_ - k_ * (a_ + d_)
            root = mpmath.sqrt(tr * tr - 4 * det)
            exact = ((tr + root) / 2, (tr - root) / 2)
            for got, want in zip(p.drift_eigenvalues(), exact):
                assert abs(got - want) <= 4 * math.ulp(float(want))

    def test_coupled_unit_pair_eigenvalues_exact(self):
        assert CoupledParams(a=-1.0, d=-1.0, k=1.0).drift_eigenvalues() == (-1.0, -3.0)

    def test_reduced_model_consistency_enforced(self):
        with pytest.raises(InvalidParams):
            ReducedModel(drift=-1.0, diffusion=1.0, stationary_variance=0.5)


class TestInvarianceRoots:
    def test_symmetric_case(self):
        plus, minus = invariance_roots(-1.0, -1.0, 0.7)
        assert plus == 1.0 and minus == -1.0

    def test_hand_value(self):
        plus, minus = invariance_roots(-1.0, -3.0, 1.0)
        assert math.isclose(plus, -1.0 + math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(minus, -1.0 - math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(plus * minus, -1.0, rel_tol=1e-15)

    def test_residual_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            a = rng.uniform(-5.0, -0.1)
            d = a - rng.uniform(0.0, 4.0)
            k = math.exp(rng.uniform(math.log(1e-2), math.log(10.0)))
            for alpha in invariance_roots(a, d, k):
                residual = k * alpha**2 + (a - d) * alpha - k
                assert abs(residual) < 1e-12

    def test_residual_oracle_extreme_coupling(self):
        # below k ~ 1e-2 the monomials grow like 1/k, so measure relative to them
        rng = np.random.default_rng(311)
        for _ in range(200):
            a = rng.uniform(-5.0, -0.1)
            d = a - rng.uniform(0.0, 4.0)
            k = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))
            for alpha in invariance_roots(a, d, k):
                residual = k * alpha**2 + (a - d) * alpha - k
                scale = max(1.0, k * alpha**2, abs((a - d) * alpha))
                assert abs(residual) < 1e-12 * scale

    def test_rejects_zero_coupling(self):
        with pytest.raises(InvalidParams):
            invariance_roots(-1.0, -1.0, 0.0)


class TestSelectClosure:
    def test_symmetric_gives_unit_slaving(self):
        assert select_closure(-1.0, -1.0, 1.0) == 1.0
        drift = -1.0 - 1.0 + 1.0 * select_closure(-1.0, -1.0, 1.0)
        assert drift == -1.0

    def test_small_coupling_decouples(self):
        k = 1e-8
        alpha = select_closure(-1.0, -3.0, k)
        assert abs(k * alpha) < 1e-7

    def test_reduced_drift_is_slow_eigenvalue(self):
        a, d, k = -1.0, -3.0, 1.0
        drift = a - k + k * select_closure(a, d, k)
        assert math.isclose(drift, (-6.0 + math.sqrt(8.0)) / 2.0, rel_tol=1e-14)

    @given(rate_a, rate_gap, coupling)
    @settings(max_examples=300, deadline=None)
    def test_eigenvalue_identity(self, a, gap, k):
        d = a - gap
        lam_plus = 0.5 * ((a + d - 2.0 * k) + math.hypot(a - d, 2.0 * k))
        drift = a - k + k * select_closure(a, d, k)
        assert abs(drift - lam_plus) < 1e-13 * max(1.0, abs(lam_plus))

    def test_continuity_in_k(self):
        ks = np.geomspace(1e-6, 10.0, 200)
        values = [select_closure(-1.0, -3.0, k) for k in ks]
        diffs = np.abs(np.diff(values))
        steps = np.abs(np.diff(ks))
        # d alpha/dk is bounded by ~1/(a-d) here; no jumps between branches
        assert np.all(diffs <= 2.0 * steps / 2.0 + 1e-9)
        assert abs(ks[0] * values[0]) < 1e-6


class TestReduceCoupled:
    def test_normalized_hand_values(self):
        rm = reduce_coupled(CoupledParams(a=-1.0, d=-1.0, k=1.0))
        assert rm.drift == -1.0
        assert math.isclose(rm.stationary_variance, 2.0 / 3.0, rel_tol=1e-15)
        assert math.isclose(rm.diffusion, 2.0 / 3.0, rel_tol=1e-15)

    def test_small_coupling_limit_matches_isolated_oscillator(self):
        rm = reduce_coupled(CoupledParams(a=-2.0, d=-2.0, k=1e-10))
        assert math.isclose(rm.drift, -2.0, rel_tol=1e-9)
        assert math.isclose(rm.stationary_variance, 0.5, rel_tol=1e-9)

    def test_fd_consistency_invariant(self):
        rm = reduce_coupled(CoupledParams(a=-1.5, d=-1.5, k=0.7))
        assert math.isclose(rm.stationary_variance, rm.diffusion / abs(rm.drift), rel_tol=1e-13)

    def test_general_case_uses_lyapunov_variance(self):
        p = CoupledParams(a=-1.0, d=-3.0, k=2.0, sigma1=0.5, sigma2=1.5)
        rm = reduce_coupled(p)
        sigma = solve_lyapunov2(p.drift_matrix(), p.diffusion_matrix())
        assert math.isclose(rm.stationary_variance, sigma[0, 0], rel_tol=1e-12)
        lam_plus, _ = eig2(p.drift_matrix())
        assert abs(rm.drift - lam_plus) < 1e-12

    def test_spectrum_inclusion_random(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a = rng.uniform(-5.0, -0.1)
            d = a - rng.uniform(0.0, 4.0)
            k = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            p = CoupledParams(a=a, d=d, k=k)
            rm = reduce_coupled(p)
            lam_plus, _ = eig2(p.drift_matrix())
            assert abs(rm.drift - lam_plus) < 1e-12


class TestStationaryVarianceFromEntries:
    """reduce_coupled and equilibrium_laws read the stationary covariance from
    the parameters' entries, without building a LinearModel."""

    def test_no_linear_model_is_built(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a LinearModel was built")

        monkeypatch.setattr(LinearModel, "__post_init__", refuse)
        p = CoupledParams(a=-1.0, d=-3.0, k=0.7, sigma1=0.5, sigma2=2.0)
        assert not p.is_normalized
        assert reduce_coupled(p).stationary_variance > 0.0
        for q in (p, CoupledParams(a=-1.0, d=-1.0, k=1.0), OscillatorParams(gamma=5.0, omega=2.0, beta=1.0)):
            original, reduced = equilibrium_laws(q)
            assert math.isclose(original.variance, reduced.variance, rel_tol=1e-12)

    @given(
        st.floats(-3.0, 3.0), st.floats(0.0, math.log(1e6)), st.floats(-5.0, 5.0),
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_stationary_law_of_the_model(self, log_a, log_ratio, log_k, log_s1, log_s2):
        # |d/a| up to 1e6 and noise strengths in e^-3 to e^3
        a = -math.exp(log_a)
        p = CoupledParams(a=a, d=a * math.exp(log_ratio), k=-a * math.exp(log_k),
                          sigma1=math.exp(log_s1), sigma2=math.exp(log_s2))
        assume(not p.is_normalized)
        variance = float(stationary_law(p.to_linear_model()).cov[0, 0])
        rm = reduce_coupled(p)
        assert rm.diffusion == -rm.drift * variance
        assert equilibrium_laws(p)[0].variance == variance


class TestReduceOscillator:
    def test_hand_values(self):
        rm = reduce_oscillator(OscillatorParams(gamma=5.0, omega=2.0, beta=1.0))
        assert rm.drift == -1.0
        assert math.isclose(rm.diffusion, 0.25, rel_tol=1e-15)
        assert math.isclose(rm.stationary_variance, 0.25, rel_tol=1e-15)

    def test_stationary_variance_independent_of_friction(self):
        one = reduce_oscillator(OscillatorParams(gamma=5.0, omega=2.0, beta=1.0))
        two = reduce_oscillator(OscillatorParams(gamma=10.0, omega=2.0, beta=1.0))
        assert math.isclose(one.stationary_variance, two.stationary_variance, rel_tol=1e-13)
        assert math.isclose(one.stationary_variance, 0.25, rel_tol=1e-13)

    def test_boundary_rejected(self):
        with pytest.raises(NotOverdamped):
            reduce_oscillator(OscillatorParams(gamma=4.0, omega=2.0, beta=1.0))

    def test_drift_is_eigenvalue_of_kinetic_matrix(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            omega = rng.uniform(0.5, 4.0)
            gamma = omega * rng.uniform(2.05, 50.0)
            p = OscillatorParams(gamma=gamma, omega=omega, beta=1.0)
            rm = reduce_oscillator(p)
            lam_max, _ = eig2(p.drift_matrix())
            assert abs(rm.drift - lam_max) < 1e-12
