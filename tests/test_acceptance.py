"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
from contextlib import contextmanager

import numpy as np

from modred import (
    CoupledParams,
    Gaussian,
    OscillatorParams,
    SimConfig,
    bootstrap_w2_se,
    coupled_full_law,
    coupled_small_k_bound,
    coupled_w2_exact,
    eig2,
    empirical_w2_1d,
    equilibrium_laws,
    invariance_roots,
    is_hurwitz,
    model_time_grid,
    moment_estimates,
    osc_highfriction_bound,
    osc_w2_exact,
    oscillator_full_law,
    oscillator_marginal_law,
    oscillator_reduced_law,
    propagate_law,
    reduce_coupled,
    reduce_oscillator,
    select_closure,
    simulate_ensembles,
    solve_lyapunov2,
    verify_bounds,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def random_oscillator(rng) -> OscillatorParams:
    omega = rng.uniform(0.5, 4.0)
    return OscillatorParams(
        gamma=omega * rng.uniform(2.05, 50.0),
        omega=omega,
        beta=math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
        x0=rng.uniform(-2.0, 2.0),
        v0=rng.uniform(-2.0, 2.0),
    )


def random_coupled(rng) -> CoupledParams:
    a = -math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
    return CoupledParams(
        a=a,
        d=a,
        k=math.exp(rng.uniform(math.log(1e-3), math.log(10.0))),
        x1=rng.uniform(-2.0, 2.0),
        x2=rng.uniform(-2.0, 2.0),
    )


def test_criterion_1_same_equilibrium():
    with criterion("criterion 1: original and reduced dynamics share the equilibrium law"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_oscillator(rng)
            target = 1.0 / (p.beta * p.omega**2)
            original, reduced = equilibrium_laws(p)
            tol = 1e-12 * (1.0 + target)
            assert abs(original.variance - target) <= tol
            assert abs(reduced.variance - target) <= tol
            assert original.mean[0] == 0.0 and reduced.mean[0] == 0.0
        for _ in range(100):
            p = random_coupled(rng)
            target = -0.5 * (1.0 / (p.a - 2.0 * p.k) + 1.0 / p.a)
            original, reduced = equilibrium_laws(p)
            tol = 1e-12 * (1.0 + target)
            assert abs(original.variance - target) <= tol
            assert abs(reduced.variance - target) <= tol


def test_criterion_2_bound_dominance():
    with criterion("criterion 2: every bound dominates the exact W2 on the default grid"):
        rng = np.random.default_rng(102)
        violations = 0
        for _ in range(100):
            reports = verify_bounds(random_oscillator(rng))
            violations += sum(not r.satisfied for r in reports)
        for _ in range(100):
            reports = verify_bounds(random_coupled(rng))
            violations += sum(not r.satisfied for r in reports)
        assert violations == 0


def test_criterion_3_high_friction_decay():
    with criterion("criterion 3: sup W2^2 decays at the 1/gamma^2 high-friction rate"):
        gammas = [5.0, 10.0, 20.0, 40.0, 80.0]
        sups, bounds = {}, {}
        for gamma in gammas:
            p = OscillatorParams(gamma=gamma, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
            grid = model_time_grid(p)
            sups[gamma] = max(osc_w2_exact(p, float(t)) for t in grid)
            bounds[gamma] = osc_highfriction_bound(p)
        assert math.isclose(bounds[5.0], 32.0 / 9.0, rel_tol=1e-13)
        for gamma in gammas:
            assert sups[gamma] < bounds[gamma]
        for lo, hi in zip(gammas, gammas[1:]):
            assert sups[hi] < sups[lo]
        for lo, hi in [(20.0, 40.0), (40.0, 80.0)]:
            assert 0.2 <= sups[hi] / sups[lo] <= 0.3


def test_criterion_4_exponential_closeness_rate():
    with criterion("criterion 4: log W2 tail slope equals the slow relaxation rate within 2%"):
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
        rate = p.rate_slow
        ts = np.linspace(5.0 / rate, 20.0 / rate, 16)
        slope = np.polyfit(ts, [0.5 * math.log(osc_w2_exact(p, float(t))) for t in ts], 1)[0]
        assert abs(-slope - rate) <= 0.02 * rate

        q = CoupledParams(a=-1.0, d=-1.0, k=1.0, x1=1.0, x2=0.0)
        ts = np.linspace(5.0, 20.0, 16)
        slope = np.polyfit(ts, [0.5 * math.log(coupled_w2_exact(q, float(t))) for t in ts], 1)[0]
        assert abs(slope - q.a) <= 0.02 * abs(q.a)


def test_criterion_5_small_coupling_scaling():
    with criterion("criterion 5: sup W2^2 is dominated by the linear-in-k bound"):
        ks = [0.4, 0.2, 0.1, 0.05]
        sups, bounds = [], []
        for k in ks:
            p = CoupledParams(a=-1.0, d=-1.0, k=k, x1=1.0, x2=0.0)
            grid = model_time_grid(p)
            sups.append(max(coupled_w2_exact(p, float(t)) for t in grid))
            bounds.append(coupled_small_k_bound(p))
        for sup, bound in zip(sups, bounds):
            assert sup <= bound
        for coarse, fine in zip(sups, sups[1:]):
            assert fine < coarse
        # the bound is the linear-in-k object: successive ratios approach 1/2
        ratios = [fine / coarse for coarse, fine in zip(bounds, bounds[1:])]
        for ratio in ratios:
            assert abs(ratio - 0.5) <= 0.15 * 0.5
        deviations = [abs(r - 0.5) for r in ratios]
        assert all(b <= a for a, b in zip(deviations, deviations[1:]))


def test_criterion_6_closed_forms_match_generic_propagator():
    with criterion("criterion 6: closed-form laws equal the generic propagator to 1e-10"):
        rng = np.random.default_rng(106)
        for _ in range(50):
            p = random_oscillator(rng)
            model = p.to_linear_model()
            init = Gaussian([p.x0, p.v0], np.zeros((2, 2)))
            for t in np.linspace(0.0, 10.0 / p.rate_slow, 20):
                law = oscillator_full_law(p, float(t))
                prop = propagate_law(model, init, float(t))
                assert np.max(np.abs(law.mean - prop.mean)) < 1e-10
                assert np.max(np.abs(law.cov - prop.cov)) < 1e-10
        for _ in range(50):
            p = random_coupled(rng)
            model = p.to_linear_model()
            init = Gaussian([p.x1, p.x2], np.zeros((2, 2)))
            for t in np.linspace(0.0, 10.0 / abs(p.a), 20):
                law = coupled_full_law(p, float(t))
                prop = propagate_law(model, init, float(t))
                assert np.max(np.abs(law.mean - prop.mean)) < 1e-10
                assert np.max(np.abs(law.cov - prop.cov)) < 1e-10


def test_criterion_7_monte_carlo_cross_check():
    with criterion("criterion 7: simulated ensembles reproduce the closed-form laws"):
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
        cfg = SimConfig(dt=1e-3, n_steps=2000, n_paths=100_000, seed=20260808)
        record = [0.5, 1.0, 2.0]
        full_sets, reduced_sets = simulate_ensembles(
            [(p.to_linear_model(), [p.x0, p.v0]), (reduce_oscillator(p).to_linear_model(), [p.x0])],
            cfg,
            record,
        )
        for full_set, reduced_set in zip(full_sets, reduced_sets):
            t = full_set.t
            retained = full_set.values[:, 0]
            est = moment_estimates(retained)
            law = oscillator_marginal_law(p, t)
            assert abs(est.mean - law.mean[0]) <= 4.0 * est.se_mean
            assert abs(est.variance - law.variance) <= 4.0 * est.se_variance
            est_r = moment_estimates(reduced_set.values)
            law_r = oscillator_reduced_law(p, t)
            assert abs(est_r.mean - law_r.mean[0]) <= 4.0 * est_r.se_mean
            assert abs(est_r.variance - law_r.variance) <= 4.0 * est_r.se_variance
            emp = empirical_w2_1d(retained, reduced_set.values)
            se = bootstrap_w2_se(retained, reduced_set.values, seed=cfg.seed)
            assert abs(emp - math.sqrt(osc_w2_exact(p, t))) <= 3.0 * se


def test_criterion_8_algebraic_identities():
    with criterion("criterion 8: closure, spectrum and Lyapunov identities hold"):
        rng = np.random.default_rng(108)
        for _ in range(1000):
            a = rng.uniform(-5.0, -0.1)
            d = a - rng.uniform(0.0, 4.0)
            k = math.exp(rng.uniform(math.log(1e-4), math.log(10.0)))
            lam_plus = 0.5 * ((a + d - 2.0 * k) + math.hypot(a - d, 2.0 * k))
            drift = a - k + k * select_closure(a, d, k)
            assert abs(drift - lam_plus) <= 1e-13 * max(1.0, abs(lam_plus))
            alpha_plus, alpha_minus = invariance_roots(a, d, k)
            lam_minus = 0.5 * ((a + d - 2.0 * k) - math.hypot(a - d, 2.0 * k))
            assert abs((a - k + k * alpha_minus) - lam_minus) <= 1e-13 * max(1.0, abs(lam_minus))

        for _ in range(200):
            p = random_coupled(rng)
            drift = reduce_coupled(p).drift
            lam_plus, _ = eig2(p.drift_matrix())
            assert abs(drift - lam_plus) <= 1e-12
        for _ in range(200):
            p = random_oscillator(rng)
            drift = reduce_oscillator(p).drift
            lam_max, _ = eig2(p.drift_matrix())
            assert abs(drift - lam_max) <= 1e-12

        checked = 0
        while checked < 200:
            c = rng.uniform(-3.0, 3.0, size=(2, 2))
            if not is_hurwitz(c):
                continue
            g = rng.uniform(-2.0, 2.0, size=(2, 2))
            d_mat = g @ g.T
            sigma = solve_lyapunov2(c, d_mat)
            residual = np.max(np.abs(2.0 * d_mat + c @ sigma + sigma @ c.T))
            scale = np.max(np.abs(c)) * np.max(np.abs(sigma)) + np.max(np.abs(d_mat))
            assert residual <= 1e-12 * scale
            checked += 1
