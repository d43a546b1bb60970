import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modred import linear_sde
from modred import (
    CoupledParams,
    Gaussian,
    InvalidParams,
    LinearModel,
    NonFinite,
    NotHurwitz,
    NotSPD,
    OscillatorParams,
    Singular,
    is_hurwitz,
    propagate_law,
    stationary_law,
)
from modred.linalg2 import _lyapunov2_entries, project_psd

entry = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def make_model_2d(c_entries, d_entries):
    c = np.array(c_entries).reshape(2, 2)
    g = np.array(d_entries).reshape(2, 2)
    return LinearModel(c, 0.5 * (g @ g.T))


class TestLinearModel:
    def test_scalar_inputs(self):
        m = LinearModel(-1.0, 0.5)
        assert m.dim == 1
        assert m.drift[0, 0] == -1.0

    def test_rejects_indefinite_diffusion(self):
        with pytest.raises(NotSPD):
            LinearModel(-np.eye(2), np.diag([1.0, -1.0]))

    def test_accepts_rounding_level_asymmetric_diffusion(self):
        # the unsymmetrized matrix has a complex eigenvalue pair
        m = LinearModel(-np.eye(2), [[1.0, 1e-14], [-1e-14, 1.0]])
        assert m.dim == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParams):
            LinearModel(-np.eye(2), np.array([[1.0]]))


class TestPropagateLaw:
    def test_time_zero_returns_init_exactly(self):
        model = make_model_2d([-1.0, 0.3, 0.2, -2.0], [1.0, 0.0, 0.0, 1.0])
        init = Gaussian([1.0, -2.0], [[0.5, 0.1], [0.1, 0.4]])
        out = propagate_law(model, init, 0.0)
        np.testing.assert_array_equal(out.mean, init.mean)
        np.testing.assert_array_equal(out.cov, init.cov)

    def test_scalar_ou_closed_form(self):
        # point mass at x0 relaxing at rate alpha with diffusion d_r:
        # N(e^{-alpha t} x0, (d_r/alpha)(1 - e^{-2 alpha t}))
        alpha, d_r, x0 = 1.3, 0.7, 2.0
        model = LinearModel(-alpha, d_r)
        for t in [0.0, 0.2, 1.0, 5.0]:
            law = propagate_law(model, Gaussian(x0, 0.0), t)
            assert math.isclose(law.mean[0], math.exp(-alpha * t) * x0, rel_tol=1e-14, abs_tol=1e-300)
            target = d_r / alpha * (1.0 - math.exp(-2.0 * alpha * t))
            assert math.isclose(law.variance, target, rel_tol=1e-13, abs_tol=1e-15)

    def test_matches_ode_oracle(self):
        # d mean/dt = C mean and d Cov/dt = C Cov + Cov C^T + 2D integrated independently
        c = np.array([[-1.2, 0.7], [0.3, -2.5]])
        d = np.array([[0.8, 0.2], [0.2, 1.1]])
        init = Gaussian([1.0, -0.5], [[0.3, 0.1], [0.1, 0.2]])

        def rhs(_, y):
            s = y[2:].reshape(2, 2)
            return np.concatenate([c @ y[:2], (c @ s + s @ c.T + 2.0 * d).ravel()])

        y0 = np.concatenate([init.mean, init.cov.ravel()])
        sol = scipy.integrate.solve_ivp(rhs, (0.0, 2.3), y0, rtol=1e-12, atol=1e-14)
        got = propagate_law(LinearModel(c, d), init, 2.3)
        assert np.max(np.abs(got.mean - sol.y[:2, -1])) < 1e-10
        assert np.max(np.abs(got.cov - sol.y[2:, -1].reshape(2, 2))) < 1e-10

    def test_fast_path_matches_quadrature(self):
        # symmetric drift commuting with D: the closed form against adaptive
        # quadrature of 2 e^{sC} D e^{sC^T} and the mean against e^{tC} m0
        model = make_model_2d([-2.0, 1.0, 1.0, -2.0], [math.sqrt(2.0), 0, 0, math.sqrt(2.0)])
        init = Gaussian([1.0, 0.0], np.zeros((2, 2)))
        c, d = model.drift, model.diffusion
        for t in [0.1, 0.7, 2.0, 9.0]:
            quad, _ = scipy.integrate.quad_vec(
                lambda s: 2.0 * scipy.linalg.expm(s * c) @ d @ scipy.linalg.expm(s * c.T),
                0.0, t, epsabs=1e-14, epsrel=1e-13,
            )
            got = propagate_law(model, init, t)
            assert np.max(np.abs(got.cov - quad)) < 1e-10
            assert np.max(np.abs(got.mean - scipy.linalg.expm(t * c) @ init.mean)) < 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 25:
            c = rng.uniform(-2, 2, (2, 2))
            if not is_hurwitz(c):
                continue
            g = rng.uniform(-1, 1, (2, 2))
            model = LinearModel(c, g @ g.T)
            init = Gaussian(rng.uniform(-1, 1, 2), np.zeros((2, 2)))
            s, t = rng.uniform(0.0, 2.0, 2)
            two_step = propagate_law(model, propagate_law(model, init, s), t)
            one_step = propagate_law(model, init, s + t)
            assert np.max(np.abs(two_step.mean - one_step.mean)) < 1e-10
            assert np.max(np.abs(two_step.cov - one_step.cov)) < 1e-10
            checked += 1

    def test_converges_to_stationary_law(self):
        model = make_model_2d([-1.0, 0.5, 0.2, -3.0], [1.0, 0.3, 0.3, 1.0])
        rate = 0.9  # |max real eigenvalue| is just above this
        law = propagate_law(model, Gaussian([2.0, -1.0], np.zeros((2, 2))), 40.0 / rate)
        target = stationary_law(model)
        assert np.max(np.abs(law.cov - target.cov)) < 1e-10
        assert np.max(np.abs(law.mean)) < 1e-10

    def test_variance_monotone_below_stationary(self):
        model = LinearModel(-0.8, 1.1)
        stat = stationary_law(model).variance
        init = Gaussian(0.0, 0.25 * stat)
        values = [propagate_law(model, init, t).variance for t in np.linspace(0.0, 8.0, 40)]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
        assert values[-1] <= stat * (1.0 + 1e-12)

    def test_rejects_negative_time(self):
        model = LinearModel(-1.0, 1.0)
        with pytest.raises(InvalidParams):
            propagate_law(model, Gaussian(0.0, 1.0), -0.5)

    def test_rejects_dim_mismatch(self):
        model = LinearModel(-1.0, 1.0)
        with pytest.raises(InvalidParams):
            propagate_law(model, Gaussian([0.0, 0.0], np.eye(2)), 1.0)

    @pytest.mark.parametrize("drift, t", [
        ([[1.0]], 1000.0),
        (np.diag([0.5, -1.0]), 1000.0),
        (np.diag([0.5, -1.0]), 2000.0),
    ])
    def test_overflow_raises_nonfinite_without_warning(self, drift, t):
        dim = len(drift)
        model = LinearModel(drift, np.eye(dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cov0 in (np.zeros((dim, dim)), np.eye(dim)):
                with pytest.raises(NonFinite):
                    propagate_law(model, Gaussian(np.ones(dim), cov0), t)

    @given(entry, st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_scalar_semigroup_fuzz(self, c, d, t):
        assume(c < -0.05)
        model = LinearModel(c, d)
        init = Gaussian(1.0, 0.3)
        one = propagate_law(model, init, 2.0 * t)
        two = propagate_law(model, propagate_law(model, init, t), t)
        assert abs(one.variance - two.variance) < 1e-10
        assert abs(one.mean[0] - two.mean[0]) < 1e-12


def oracle_cov_integral(c, d, t, dps=50):
    """2 int_0^t e^{sC} D e^{sC^T} ds in ``dps``-digit arithmetic.

    Diagonalizable C: C = V diag(lam) V^-1 and the integral is
    V [(V^-1 D V^-T)_ij (e^{(lam_i + lam_j) t} - 1)/(lam_i + lam_j)] V^T.
    Repeated eigenvalue lam: e^{sC} = e^{lam s} (I + s K) with K = C - lam I
    nilpotent, integrated term by term.
    """
    with mpmath.workdps(dps):
        cm, dm, t = mpmath.matrix(c.tolist()), mpmath.matrix(d.tolist()), mpmath.mpf(t)
        if (cm[0, 0] - cm[1, 1]) ** 2 + 4 * cm[0, 1] * cm[1, 0] == 0:
            lam = (cm[0, 0] + cm[1, 1]) / 2
            k = cm - lam * mpmath.eye(2)
            mom = [mpmath.quad(lambda s, j=j: s**j * mpmath.exp(2 * lam * s), [0, t]) for j in range(3)]
            out = mom[0] * dm + mom[1] * (k * dm + dm * k.T) + mom[2] * (k * dm * k.T)
        else:
            lam, v = mpmath.eig(cm)
            v_inv = mpmath.inverse(v)
            inner = v_inv * dm * v_inv.T
            for i in range(2):
                for j in range(2):
                    mu = lam[i] + lam[j]
                    inner[i, j] *= mpmath.expm1(mu * t) / mu if mu != 0 else t
            out = v * inner * v.T
        return np.array([[float(mpmath.re(2 * out[i, j])) for j in range(2)] for i in range(2)])


def oscillator_model(gamma_over_omega):
    omega = 2.0
    return OscillatorParams(gamma=gamma_over_omega * omega, omega=omega, beta=1.0).to_linear_model()


FULL_D = np.array([[1.0, 0.4], [0.4, 0.5]])
ACCURACY_CASES = {
    "distinct_real": LinearModel(np.array([[-1.0, 0.5], [0.3, -2.5]]), FULL_D),
    "stiff_ratio_1e3": LinearModel(np.array([[-0.2, 3.0], [0.01, -200.0]]), FULL_D),
    "complex_pair": LinearModel(np.array([[-0.5, 2.0], [-3.0, -1.0]]), FULL_D),
    "near_critical_1e-4": oscillator_model(2.0 * (1.0 + 1e-4)),
    "near_critical_1e-8": oscillator_model(2.0 * (1.0 + 1e-8)),
    "scalar_drift_full_d": LinearModel(-0.7 * np.eye(2), FULL_D),
    "jordan_block": LinearModel(np.array([[-1.5, 2.0], [0.0, -1.5]]), FULL_D),
    "positive_eigenvalue": LinearModel(np.array([[0.5, 1.0], [0.2, -2.0]]), FULL_D),
    "zero_eigenvalue_sum": LinearModel(np.array([[0.6, 1.0], [0.2, -0.6]]), FULL_D),
    "rotation": LinearModel(np.array([[0.0, 1.0], [-1.0, 0.0]]), FULL_D),
}


class TestCovarianceAccuracy:
    """The closed-form covariance against 50-digit arithmetic.

    From a point mass the covariance is the integral alone.  The error is
    relative to the largest entry of the exact covariance; 3e-14 leaves room
    for the eps |2 lambda t| that rounding the exponent costs at t = 40/rate
    (lambda t = 40 for the positive eigenvalue), and is exceeded by the
    unguarded divided differences near delta = 0 (2e-13 at gamma/omega =
    2(1 + 1e-4), 3e-9 at 2(1 + 1e-8), division by zero at delta = 0).
    """

    @pytest.mark.parametrize("name", list(ACCURACY_CASES))
    def test_matches_50_digit_oracle(self, name):
        model = ACCURACY_CASES[name]
        rate = float(np.min(np.abs(np.linalg.eigvals(model.drift))))
        init = Gaussian([0.0, 0.0], np.zeros((2, 2)))
        for t in (1e-8, 1e-5, 1e-2, 1.0, 40.0 / rate):
            exact = oracle_cov_integral(model.drift, model.diffusion, t)
            err = np.max(np.abs(propagate_law(model, init, t).cov - exact))
            assert err <= 3e-14 * np.max(np.abs(exact)), (t, err)

    def test_zero_drift_adds_brownian_covariance(self):
        init = Gaussian([1.0, -1.0], [[0.3, 0.1], [0.1, 0.2]])
        model = LinearModel(np.zeros((2, 2)), FULL_D)
        for t in (1e-8, 1e-5, 1e-2, 1.0, 40.0):
            law = propagate_law(model, init, t)
            np.testing.assert_array_equal(law.mean, init.mean)
            np.testing.assert_allclose(law.cov, init.cov + 2.0 * t * FULL_D, rtol=2.3e-16, atol=0)

    def test_stiff_coupled_pairs_reach_stationary_law(self):
        # 40 slow relaxation times; the first pair once exhausted the panel
        # budget of an adaptive quadrature
        cases = [
            (CoupledParams(a=-0.1694697493349298, d=-169.46974933492982, k=0.004209511625297187,
                           sigma1=3.331090308777063, sigma2=0.23998175227633306,
                           x1=1.6157919169074169, x2=-1.8809882743621773), 230.30973234489014),
            (CoupledParams(a=-2.0, d=-2000.0, k=0.7, sigma1=0.4, sigma2=1.3, x1=-1.0, x2=2.0), None),
        ]
        for p, t in cases:
            model = p.to_linear_model()
            t = 40.0 / -p.drift_eigenvalues()[0] if t is None else t
            law = propagate_law(model, Gaussian([p.x1, p.x2], np.zeros((2, 2))), t)
            target = stationary_law(model).cov
            assert np.max(np.abs(law.cov - target)) <= 1e-11 * np.max(np.abs(target))
            assert np.max(np.abs(law.mean)) <= 1e-11


unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
moderate_t = st.floats(min_value=0.0, max_value=2.0)


def van_loan_law(c, d, mean0, cov0, t):
    """Mean and covariance at t from scipy's expm of the block
    t [[C, 2D], [0, -C^T]] = [[E, G], [0, E^-T]], whose corner G E^T is
    2 int_0^t e^{sC} D e^{sC^T} ds (Van Loan, IEEE TAC 1978)."""
    n = c.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = c, 2.0 * d, -c.T
    f = scipy.linalg.expm(t * block)
    e, g = f[:n, :n], f[:n, n:]
    return e, e @ mean0, e @ cov0 @ e.T + g @ e.T


@st.composite
def drift_2d(draw):
    """C = tau I + N, N = [[u, v], [w, -u]] with N^2 = (u^2 + v w) I: any
    entries, a complex pair, a repeated eigenvalue up to rounding of w, or
    an exact Jordan block."""
    kind = draw(st.sampled_from(["any", "complex", "repeated", "jordan"]))
    if kind == "any":
        return np.array([[draw(entry), draw(entry)], [draw(entry), draw(entry)]])
    tau, u = draw(st.floats(-2.0, 1.0)), draw(st.floats(-1.5, 1.5))
    v = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    if kind == "complex":
        w = -(draw(st.floats(0.1, 2.0)) ** 2 + u * u) / v
    elif kind == "repeated":
        w = -u * u / v
    else:
        u = w = 0.0
    return np.array([[tau + u, v], [w, tau - u]])


@st.composite
def psd_2d(draw):
    g = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    return g @ g.T


class TestAgainstVanLoan:
    """The float kernel against scipy's expm of the Van Loan block, from a
    full initial covariance.  Errors are relative to the largest entry of
    the reference covariance and, for the mean, to |e^{tC}| |mean(0)|.  The
    bound is scipy's accuracy, not the kernel's: against 50-digit mpmath,
    scipy's block exponential errs by up to 2e-12 of the largest entry on
    this domain (at C = [[2, 2], [2, 2]], t = 2), the kernel by 2e-15; the
    50-digit oracle above holds the kernel to 3e-14.  Subnormal inputs add
    the smallest normal number: scipy returns 0 for the covariance at
    C = 0, D = 5e-324, t = 1/2, whose exact value D the kernel gives."""

    @staticmethod
    def check(model, init, t):
        law = propagate_law(model, init, t)
        e, mean, cov = van_loan_law(model.drift, model.diffusion, init.mean, init.cov, t)
        mean_scale = np.max(np.abs(e)) * np.max(np.abs(init.mean))
        tiny = np.finfo(float).tiny  # scipy's products lose subnormal inputs
        assert np.max(np.abs(law.mean - mean)) <= 1e-11 * mean_scale + tiny
        assert np.max(np.abs(law.cov - cov)) <= 1e-11 * np.max(np.abs(cov)) + tiny
        # exactly symmetric, and PSD up to the rounding of its largest entry
        assert law.cov[0, -1] == law.cov[-1, 0]
        low = np.linalg.eigvalsh(law.cov)[0]
        assert low >= -4.0 * np.finfo(float).eps * np.max(np.abs(law.cov))

    @given(entry, st.floats(0.0, 2.0), unit, st.floats(0.0, 2.0), moderate_t)
    @settings(max_examples=100, deadline=None)
    def test_scalar_drift(self, c, d, m0, s0, t):
        self.check(LinearModel(c, d), Gaussian(m0, s0), t)

    @given(drift_2d(), psd_2d(), st.tuples(unit, unit), psd_2d(), moderate_t)
    @settings(max_examples=300, deadline=None)
    def test_2x2_drift(self, c, g, m0, cov0, t):
        self.check(LinearModel(c, 0.5 * g), Gaussian(list(m0), cov0), t)


class TestStationaryLaw:
    def test_scalar(self):
        law = stationary_law(LinearModel(-2.0, 1.0))
        assert law.mean[0] == 0.0 and law.variance == 0.5

    def test_isotropic(self):
        law = stationary_law(LinearModel(-np.eye(2), np.eye(2)))
        np.testing.assert_allclose(law.cov, np.eye(2), atol=1e-15)

    def test_symmetric_coupled_first_coordinate(self):
        q = np.array([[-2.0, 1.0], [1.0, -2.0]])
        law = stationary_law(LinearModel(q, np.eye(2)))
        assert math.isclose(law.cov[0, 0], 2.0 / 3.0, rel_tol=1e-14)

    def test_rejects_unstable_scalar(self):
        with pytest.raises(NotHurwitz):
            stationary_law(LinearModel(0.5, 1.0))

    def test_rejects_unstable_matrix(self):
        with pytest.raises(NotHurwitz):
            stationary_law(LinearModel(np.diag([0.5, -1.0]), np.eye(2)))

    def test_overflowing_variance_raises_nonfinite(self):
        with pytest.raises(NonFinite):
            stationary_law(LinearModel(-1e-310, 1.0))

    def test_normalised_pair_variance_matches_closed_form(self):
        # the pair of ROADMAP defect 1(b): the closed form
        # -(1/(a - 2k) + 1/a)/2 at 60 digits; the LU solve erred by 5.3e-13
        a, k = -0.00121, 9.52
        law = stationary_law(CoupledParams(a=a, d=a, k=k, x1=-37.4, x2=1.96).to_linear_model())
        with mpmath.workdps(60):
            exact = -(1 / (mpmath.mpf(a) - 2 * mpmath.mpf(k)) + 1 / mpmath.mpf(a)) / 2
            assert abs(law.cov[0, 0] - exact) <= 1e-13 * exact


@st.composite
def low_rank_psd(draw):
    """Full-rank, rank-1 or zero PSD 2x2 matrices, whose propagated
    covariances can have rounding-level negative eigenvalues."""
    kind = draw(st.sampled_from(["full", "rank1", "zero"]))
    if kind == "full":
        return draw(psd_2d())
    u = np.array([draw(unit), draw(unit)])
    return np.outer(u, u) if kind == "rank1" else np.zeros((2, 2))


def _raise(*args, **kwargs):
    raise AssertionError("LAPACK called")


class TestHotPathWithoutLapack:
    """A clearly PD law is built from the entries alone: no linear solve and
    no eigendecomposition."""

    def test_no_solve_or_eigh(self, monkeypatch):
        model = LinearModel([[-0.2, 3.0], [0.01, -200.0]], np.diag([0.3, 1.0]))
        init = Gaussian([1.0, -2.0], [[0.5, 0.1], [0.1, 0.4]])
        monkeypatch.setattr(np.linalg, "solve", _raise)
        monkeypatch.setattr(np.linalg, "eigh", _raise)
        assert stationary_law(model).cov[0, 0] > 0.0
        assert propagate_law(model, init, 0.7).cov[0, 0] > 0.0

    @given(drift_2d(), low_rank_psd(), st.tuples(unit, unit), low_rank_psd(), moderate_t)
    @settings(max_examples=300, deadline=None)
    def test_covariance_is_project_psd_of_the_entries(self, c, g, m0, cov0, t):
        model, init = LinearModel(c, 0.5 * g), Gaussian(list(m0), cov0)
        law = propagate_law(model, init, t)
        c11, c12, c22 = linear_sde._propagate2(model, init, t)[1]
        sym = np.array([[c11, c12], [c12, c22]])
        assert law.cov.tobytes() == (project_psd(sym) if t > 0.0 else sym).tobytes()
        entries = [*model.drift.ravel().tolist(), *model.diffusion.ravel().tolist()]
        try:
            s11, s12, s22 = _lyapunov2_entries(*entries)
        except (NotHurwitz, Singular):
            return
        expected = project_psd(np.array([[s11, s12], [s12, s22]]))
        assert stationary_law(model).cov.tobytes() == expected.tobytes()
