import math

import numpy as np
import pytest

from modred import (
    CoupledParams,
    EmptyGrid,
    Gaussian,
    InvalidParams,
    NotOverdamped,
    OscillatorParams,
    SimConfig,
    Unsupported,
    bootstrap_w2_se,
    coupled_equilibrium_rate,
    coupled_longtime_bound,
    coupled_small_k_bound,
    default_time_grid,
    empirical_w2_1d,
    exact_w2_sq,
    model_time_grid,
    osc_equilibrium_rate,
    osc_highfriction_bound,
    osc_longtime_bound,
    oscillator_marginal_law,
    oscillator_reduced_law,
    reduce_coupled,
    reduce_oscillator,
    simulate_ensembles,
    sup_exact_w2_sq,
    verify_bounds,
    w2_1d,
)

BASE_OSC = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
BASE_COUPLED = CoupledParams(a=-1.0, d=-1.0, k=1.0, x1=1.0, x2=0.0)


class TestExactDistances:
    def test_osc_zero_at_t0(self):
        assert exact_w2_sq(BASE_OSC, 0.0) == 0.0

    def test_osc_vanishes_at_long_time(self):
        assert exact_w2_sq(BASE_OSC, 200.0) < 1e-25

    def test_osc_matches_w2_1d(self):
        for t in [0.1, 0.5, 1.0, 3.0]:
            direct = exact_w2_sq(BASE_OSC, t)
            via_w2 = w2_1d(
                oscillator_marginal_law(BASE_OSC, t), oscillator_reduced_law(BASE_OSC, t)
            ) ** 2
            assert abs(direct - via_w2) < 1e-13 * max(1.0, direct)

    def test_coupled_zero_at_t0(self):
        assert exact_w2_sq(BASE_COUPLED, 0.0) == 0.0

    def test_coupled_equal_start_drops_mean_term(self):
        p = CoupledParams(a=-1.0, d=-1.0, k=1.0, x1=0.5, x2=0.5)
        from modred import coupled_full_law, coupled_reduced_law

        for t in [0.2, 1.0, 4.0]:
            full = coupled_full_law(p, t)
            reduced = coupled_reduced_law(p, t)
            assert abs(full.mean[0] - reduced.mean[0]) < 1e-15
            variance_term = (
                math.sqrt(full.cov[0, 0]) - math.sqrt(reduced.variance)
            ) ** 2
            assert math.isclose(exact_w2_sq(p, t), variance_term, rel_tol=1e-12)

    def test_coupled_rejects_general_case(self):
        with pytest.raises(Unsupported):
            exact_w2_sq(CoupledParams(a=-1.0, d=-2.0, k=1.0), 1.0)


class TestOscillatorBounds:
    def test_highfriction_hand_value(self):
        assert math.isclose(osc_highfriction_bound(BASE_OSC), 32.0 / 9.0, rel_tol=1e-15)

    def test_highfriction_quarters_under_doubling(self):
        omega = 2.0
        for gamma in [40.0, 80.0, 160.0]:
            p1 = OscillatorParams(gamma, omega, 1.0, 1.0, 0.0)
            p2 = OscillatorParams(2.0 * gamma, omega, 1.0, 1.0, 0.0)
            ratio = osc_highfriction_bound(p2) / osc_highfriction_bound(p1)
            assert abs(ratio - 0.25) < 0.05 * 0.25

    def test_highfriction_dominates_grid_sup(self):
        sup = sup_exact_w2_sq(BASE_OSC, model_time_grid(BASE_OSC))
        assert sup <= osc_highfriction_bound(BASE_OSC)

    def test_longtime_hand_value(self):
        assert math.isclose(osc_longtime_bound(BASE_OSC, 0.0), 16.0 / 9.0, rel_tol=1e-15)
        assert math.isclose(
            osc_longtime_bound(BASE_OSC, 2.0), (16.0 / 9.0) * math.exp(-2.0), rel_tol=1e-14
        )

    def test_longtime_ratio_constant(self):
        values = [osc_longtime_bound(BASE_OSC, t) * math.exp(BASE_OSC.rate_slow * t) for t in [0.0, 0.7, 3.3, 11.0]]
        for v in values[1:]:
            assert abs(v - values[0]) < 1e-13 * values[0]

    def test_longtime_log_linear_decay(self):
        grid = default_time_grid(BASE_OSC.rate_slow)
        logs = np.log([osc_longtime_bound(BASE_OSC, float(t)) for t in grid])
        diffs = np.diff(logs) + BASE_OSC.rate_slow * np.diff(grid)
        assert np.max(np.abs(diffs)) < 1e-10

    def test_equilibrium_rate_hand_value(self):
        rates = osc_equilibrium_rate(BASE_OSC)
        assert math.isclose(rates.c_reduced, math.sqrt(1.25), rel_tol=1e-15)
        assert rates.rate == BASE_OSC.rate_slow

    def test_equilibrium_rate_zero_start(self):
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=0.0, v0=0.0)
        rates = osc_equilibrium_rate(p)
        assert math.isclose(rates.c_reduced, 1.0 / (p.omega * math.sqrt(p.beta)), rel_tol=1e-14)
        eq = Gaussian(0.0, 1.0 / (p.beta * p.omega**2))
        for t in default_time_grid(p.rate_slow):
            w2 = w2_1d(oscillator_reduced_law(p, float(t)), eq)
            assert w2 <= rates.c_reduced * math.exp(-rates.rate * float(t)) * (1 + 1e-12)


class TestCoupledBounds:
    def test_small_k_hand_value(self):
        p = CoupledParams(a=-1.0, d=-1.0, k=0.1, x1=1.0, x2=0.0)
        expected = 0.01 / math.e**2 + 0.1 / math.e
        assert math.isclose(coupled_small_k_bound(p), expected, rel_tol=1e-15)

    def test_small_k_equal_start(self):
        p = CoupledParams(a=-1.0, d=-1.0, k=0.5, x1=0.3, x2=0.3)
        assert math.isclose(coupled_small_k_bound(p), 0.5 / math.e, rel_tol=1e-15)

    def test_small_k_linear_scaling(self):
        base = CoupledParams(a=-1.0, d=-1.0, k=1e-3, x1=1.0, x2=0.0)
        half = CoupledParams(a=-1.0, d=-1.0, k=5e-4, x1=1.0, x2=0.0)
        ratio = coupled_small_k_bound(half) / coupled_small_k_bound(base)
        assert abs(ratio - 0.5) < 0.05 * 0.5

    def test_small_k_rejects_large_coupling(self):
        with pytest.raises(InvalidParams):
            coupled_small_k_bound(CoupledParams(a=-1.0, d=-1.0, k=11.0))

    def test_longtime_zero_at_t0(self):
        assert coupled_longtime_bound(BASE_COUPLED, 0.0) == 0.0

    def test_longtime_asymptote(self):
        p = BASE_COUPLED
        t = 30.0
        expected = math.exp(2.0 * p.a * t) * (
            0.25 * (p.x2 - p.x1) ** 2 + 0.5 / (2.0 * p.k - p.a)
        )
        assert math.isclose(coupled_longtime_bound(p, t), expected, rel_tol=1e-10)

    def test_longtime_log_linear_decay(self):
        # log-linear at rate 2a once the 1 - e^{-2kt} factors have saturated
        # (e^{-2kt} < 1e-10 needs t > 11.5 at k = 1)
        grid = default_time_grid(1.0)
        tail = grid[grid >= 12.0]
        logs = np.log([coupled_longtime_bound(BASE_COUPLED, float(t)) for t in tail])
        diffs = np.diff(logs) - 2.0 * BASE_COUPLED.a * np.diff(tail)
        assert np.max(np.abs(diffs)) < 1e-10

    def test_longtime_dominates_exact(self):
        for t in model_time_grid(BASE_COUPLED):
            assert exact_w2_sq(BASE_COUPLED, float(t)) <= coupled_longtime_bound(
                BASE_COUPLED, float(t)
            ) * (1 + 1e-12) + 1e-15

    def test_equilibrium_rate_hand_value(self):
        rates = coupled_equilibrium_rate(BASE_COUPLED)
        assert math.isclose(rates.c_reduced, math.sqrt(1.0 + 2.0 / 3.0), rel_tol=1e-15)
        assert rates.rate == 1.0


class TestVerifyBounds:
    def test_oscillator_all_satisfied_default_grid(self):
        reports = verify_bounds(BASE_OSC)
        assert len(reports) == 4 * 60
        assert all(r.satisfied for r in reports)
        names = {r.name for r in reports}
        assert names == {
            "high_friction",
            "long_time",
            "equilibrium_rate_original",
            "equilibrium_rate_reduced",
        }

    def test_coupled_sweep_all_satisfied(self):
        for k in [0.1, 1.0, 10.0]:
            p = CoupledParams(a=-1.0, d=-1.0, k=k, x1=1.0, x2=0.0)
            assert all(r.satisfied for r in verify_bounds(p))

    def test_reports_sorted_by_time_within_family(self):
        reports = verify_bounds(BASE_OSC)
        by_name: dict = {}
        for r in reports:
            by_name.setdefault(r.name, []).append(r.t)
        for times in by_name.values():
            assert times == sorted(times)

    def test_margin_definition(self):
        report = verify_bounds(BASE_OSC)[5]
        assert math.isclose(report.margin, report.bound - report.exact_sq, rel_tol=1e-15)

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            verify_bounds(BASE_OSC, [])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidParams):
            verify_bounds(BASE_OSC, [1.0, 0.5])

    def test_random_draw_dominance(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            omega = rng.uniform(0.5, 4.0)
            p = OscillatorParams(
                gamma=omega * rng.uniform(2.05, 50.0),
                omega=omega,
                beta=rng.uniform(0.1, 10.0),
                x0=rng.uniform(-2, 2),
                v0=rng.uniform(-2, 2),
            )
            assert all(r.satisfied for r in verify_bounds(p))
        for _ in range(20):
            a = -rng.uniform(0.1, 5.0)
            p = CoupledParams(
                a=a, d=a, k=rng.uniform(1e-3, 10.0), x1=rng.uniform(-2, 2), x2=rng.uniform(-2, 2)
            )
            assert all(r.satisfied for r in verify_bounds(p))


class TestGrids:
    def test_default_grid_shape(self):
        grid = default_time_grid(2.0)
        assert grid.size == 60
        assert grid[0] == 0.0
        assert math.isclose(grid[-1], 10.0, rel_tol=1e-12)
        assert np.all(np.diff(grid) > 0)

    def test_model_grid_resolves_fast_scale(self):
        p = OscillatorParams(gamma=80.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
        grid = model_time_grid(p)
        positive = grid[grid > 0]
        assert positive[0] < 1.0 / p.gamma
        assert grid[-1] >= 20.0 / p.rate_slow * (1 - 1e-12)

    def test_default_grid_rejects_bad_rate(self):
        with pytest.raises(InvalidParams):
            default_time_grid(0.0)


class TestSameRateProperty:
    def test_fitted_decay_rates_match_slow_rate(self):
        p = BASE_OSC
        eq = Gaussian(0.0, 1.0 / (p.beta * p.omega**2))
        ts = np.linspace(5.0, 20.0, 16)
        for law_fn in (oscillator_marginal_law, oscillator_reduced_law):
            w2 = np.array([w2_1d(law_fn(p, float(t)), eq) for t in ts])
            slope = np.polyfit(ts, np.log(w2), 1)[0]
            assert abs(-slope - p.rate_slow) < 0.02 * p.rate_slow


class TestMonteCarloCrossCheck:
    def test_osc_exact_within_three_se(self):
        p = BASE_OSC
        cfg = SimConfig(dt=1e-3, n_steps=1000, n_paths=20_000, seed=777)
        ensembles = [(p.to_linear_model(), [p.x0, p.v0]),
                     (reduce_oscillator(p).to_linear_model(), [p.x0])]
        (full,), (reduced,) = simulate_ensembles(ensembles, cfg, [1.0])
        emp = empirical_w2_1d(full.values[:, 0], reduced.values)
        se = bootstrap_w2_se(full.values[:, 0], reduced.values, seed=777)
        assert abs(emp - math.sqrt(exact_w2_sq(p, 1.0))) <= 3.0 * se

    def test_coupled_exact_within_three_se(self):
        p = BASE_COUPLED
        cfg = SimConfig(dt=1e-3, n_steps=1000, n_paths=20_000, seed=778)
        ensembles = [(p.to_linear_model(), [p.x1, p.x2]),
                     (reduce_coupled(p).to_linear_model(), [p.x1])]
        (full,), (reduced,) = simulate_ensembles(ensembles, cfg, [1.0])
        emp = empirical_w2_1d(full.values[:, 0], reduced.values)
        se = bootstrap_w2_se(full.values[:, 0], reduced.values, seed=778)
        assert abs(emp - math.sqrt(exact_w2_sq(p, 1.0))) <= 3.0 * se


class TestValidationErrors:
    def test_not_overdamped_surfaces(self):
        with pytest.raises(NotOverdamped):
            OscillatorParams(gamma=3.9, omega=2.0, beta=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParams):
            osc_longtime_bound(BASE_OSC, -1.0)
