import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modred import (
    ComplexPair,
    InvalidParams,
    NotHurwitz,
    NotSPD,
    Singular,
    eig2,
    expm2,
    is_hurwitz,
    solve_lyapunov2,
    spectral_abscissa,
    spectral_radius,
    sqrtm_spd2,
)
from modred.linalg2 import project_psd

finite_entry = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def random_mat2(rng):
    return rng.uniform(-3.0, 3.0, size=(2, 2))


class TestExpm2:
    def test_diagonal(self):
        out = expm2(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out, np.diag([math.e, 1.0 / math.e]), rtol=1e-15)

    def test_nilpotent_degenerate_branch(self):
        np.testing.assert_array_equal(expm2([[0.0, 1.0], [0.0, 0.0]]), [[1.0, 1.0], [0.0, 1.0]])

    def test_symmetric_against_scaling_squaring(self):
        m = np.array([[-2.0, 1.0], [1.0, -2.0]])
        ref = scipy.linalg.expm(m)
        assert np.max(np.abs(expm2(m) - ref)) < 1e-12

    def test_zero_matrix_is_exact_identity(self):
        np.testing.assert_array_equal(expm2(np.zeros((2, 2))), np.eye(2))

    def test_complex_discriminant_against_scaling_squaring(self):
        m = np.array([[0.3, -2.0], [1.5, -0.1]])
        assert eig2(m).__class__ is ComplexPair
        ref = scipy.linalg.expm(m)
        assert np.max(np.abs(expm2(m) - ref)) < 1e-13

    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
    def test_stiff_drift_keeps_slow_eigenvalue(self, t):
        # the slow eigenvalue half_tr + delta/2 of this drift cancels
        m = np.array([[-0.2, 3.0], [0.01, -200.0]]) * t
        with mpmath.workdps(50):
            exact = mpmath.expm(mpmath.matrix(m.tolist()))
            ref = np.array([[float(exact[i, j]) for j in range(2)] for i in range(2)])
        got = expm2(m)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("tau", [1e-16, 1e-12, 1e-9])
    def test_nearly_repeated_eigenvalue_with_small_trace(self, tau):
        # both eigenvalues within about 1e-8 of 0 (4/3 is rounded): det M is
        # rounding noise there, so det M over the other eigenvalue is off by
        # about 1e-8, and so was e^M
        m = np.array([[tau + 1.0, -0.75], [4.0 / 3.0, tau - 1.0]]) * 0.625
        with mpmath.workdps(50):
            exact = mpmath.expm(mpmath.matrix(m.tolist()))
            ref = np.array([[float(exact[i, j]) for j in range(2)] for i in range(2)])
        assert np.max(np.abs(expm2(m) - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_random_against_scaling_squaring(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m = random_mat2(rng)
            ref = scipy.linalg.expm(m)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(expm2(m) - ref)) < 1e-12 * scale

    def test_inverse_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            m = random_mat2(rng)
            prod = expm2(m) @ expm2(-m)
            assert np.max(np.abs(prod - np.eye(2))) < 1e-12

    def test_symmetric_input_gives_symmetric_output(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = random_mat2(rng)
            m = 0.5 * (m + m.T)
            e = expm2(m)
            assert abs(e[0, 1] - e[1, 0]) < 1e-13

    def test_liouville_determinant(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            m = random_mat2(rng)
            e = expm2(m)
            det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
            assert abs(det - math.exp(m[0, 0] + m[1, 1])) < 1e-12 * math.exp(m[0, 0] + m[1, 1])

    @given(finite_entry, finite_entry, finite_entry, finite_entry)
    @settings(max_examples=200, deadline=None)
    def test_fuzz_inverse_identity_scaled(self, a, b, c, d):
        m = np.array([[a, b], [c, d]])
        e_plus = expm2(m)
        e_minus = expm2(-m)
        cond = max(1.0, np.max(np.abs(e_plus)) * np.max(np.abs(e_minus)))
        assert np.max(np.abs(e_plus @ e_minus - np.eye(2))) < 1e-12 * cond

    def test_stiff_matrix_no_overflow(self):
        # eigenvalues around -0.01 and -5e4: hyperbolic form would overflow cosh
        m = np.array([[0.0, 1.0], [-500.0, -50000.0]]) * 1.0
        out = expm2(100.0 * m)
        assert np.all(np.isfinite(out))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParams):
            expm2([[np.nan, 0.0], [0.0, 0.0]])


class TestEig2:
    def test_symmetric_coupling_matrix(self):
        # a = d = -1, k = 1 gives drift [[-2, 1], [1, -2]]
        assert eig2([[-2.0, 1.0], [1.0, -2.0]]) == (-1.0, -3.0)

    def test_diagonal_descending(self):
        assert eig2(np.diag([2.0, 5.0])) == (5.0, 2.0)

    def test_rotation_flags_complex(self):
        out = eig2([[0.0, -1.0], [1.0, 0.0]])
        assert isinstance(out, ComplexPair)
        assert out.real == 0.0 and out.imag == 1.0

    def test_spectral_helpers(self):
        assert spectral_abscissa([[-2.0, 1.0], [1.0, -2.0]]) == -1.0
        assert spectral_radius([[-2.0, 1.0], [1.0, -2.0]]) == 3.0
        assert spectral_radius([[0.0, -2.0], [2.0, 0.0]]) == 2.0
        assert is_hurwitz([[-1.0, 0.0], [0.0, -2.0]])
        assert not is_hurwitz([[1.0, 0.0], [0.0, -2.0]])


class TestSqrtmSpd2:
    def test_identity(self):
        np.testing.assert_array_equal(sqrtm_spd2(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(sqrtm_spd2(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), rtol=0)

    def test_square_recovers_input(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = sqrtm_spd2(m)
        assert np.max(np.abs(s @ s - m)) < 1e-12

    def test_zero_matrix(self):
        np.testing.assert_array_equal(sqrtm_spd2(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_random_psd_roundtrip_and_nonneg_eigs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            g = rng.uniform(-2.0, 2.0, size=(2, 2))
            m = g @ g.T
            s = sqrtm_spd2(m)
            scale = max(1.0, np.max(np.abs(m)))
            assert np.max(np.abs(s @ s - m)) < 1e-12 * scale
            assert eig2(s)[1] >= 0.0

    def test_clips_roundoff_negative_eigenvalue(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-15]])
        s = sqrtm_spd2(m)
        assert eig2(s)[1] >= 0.0
        assert np.max(np.abs(s @ s - m)) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSPD):
            sqrtm_spd2([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            sqrtm_spd2([[1.0, 0.0], [0.0, -0.5]])


def eigh_projection(m):
    """project_psd by LAPACK's eigh alone, without its closed-form shortcut."""
    sym = 0.5 * (m + m.T)
    w, vecs = np.linalg.eigh(sym)
    if w[0] >= 0.0:
        return sym
    out = (vecs * np.clip(w, 0.0, None)) @ vecs.T
    out[1, 0] = out[0, 1]
    return out


unit_entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
magnitude = st.floats(min_value=-200.0, max_value=200.0).map(lambda e: 2.0**e)


@st.composite
def symmetric_2x2(draw):
    """Symmetric 2x2 matrices at scales 2^-200 to 2^200: general, PD, rank 1,
    rank 1 moved by a few eps either way (rounding-level negative
    eigenvalues), nearly singular and zero."""
    kind = draw(st.sampled_from(["general", "pd", "rank1", "rank1_eps", "near_singular", "zero"]))
    scale = draw(magnitude)
    u, v = draw(unit_entry), draw(unit_entry)
    if kind == "general":
        a, b, d = u, v, draw(unit_entry)
    elif kind == "pd":
        a, b, d = u * u + 1e-3, u * v, v * v + draw(st.floats(1e-6, 1.0))
    elif kind == "zero":
        a = b = d = 0.0
    else:
        a, b, d = u * u, u * v, v * v
        if kind == "rank1_eps":
            a += draw(st.integers(-8, 8)) * 2.0**-53 * max(a, d)
        elif kind == "near_singular":
            d += draw(st.floats(-1e-9, 1e-9)) * max(a, d)
    return np.array([[a, b], [b, d]]) * scale


class TestProjectPsd:
    @given(symmetric_2x2())
    @example(np.zeros((2, 2)))
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_eigh_path(self, m):
        out = project_psd(m)
        assert out.tobytes() == eigh_projection(m).tobytes()
        assert out[0, 1] == out[1, 0]

    @given(st.tuples(unit_entry, unit_entry, unit_entry, unit_entry), st.floats(1e-6, 1.0), magnitude)
    @settings(max_examples=200, deadline=None)
    def test_exactly_symmetric_pd_input_comes_back_bit_for_bit(self, g, shift, scale):
        g = np.array(g).reshape(2, 2)
        m = (g @ g.T + shift * np.eye(2)) * scale
        m[1, 0] = m[0, 1]
        assert project_psd(m).tobytes() == m.tobytes()

    def test_clips_negative_eigenvalue(self):
        out = project_psd(np.diag([2.0, -1.0]))
        np.testing.assert_array_equal(out, np.diag([2.0, 0.0]))


class TestSolveLyapunov2:
    def test_isotropic(self):
        np.testing.assert_allclose(solve_lyapunov2(-np.eye(2), np.eye(2)), np.eye(2), atol=1e-15)

    def test_symmetric_coupled_drift(self):
        q = np.array([[-2.0, 1.0], [1.0, -2.0]])
        sigma = solve_lyapunov2(q, np.eye(2))
        np.testing.assert_allclose(
            sigma, np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]]), atol=1e-14
        )

    def test_decoupled_scalar_pair(self):
        sigma = solve_lyapunov2(np.diag([-2.0, -5.0]), np.diag([3.0, 10.0]))
        np.testing.assert_allclose(sigma, np.diag([1.5, 2.0]), atol=1e-15)

    def test_residual_and_symmetry_random(self):
        rng = np.random.default_rng(6)
        done = 0
        while done < 200:
            c = rng.uniform(-3.0, 3.0, size=(2, 2))
            if not is_hurwitz(c):
                continue
            g = rng.uniform(-2.0, 2.0, size=(2, 2))
            d = g @ g.T
            sigma = solve_lyapunov2(c, d)
            assert sigma[0, 1] == sigma[1, 0]
            residual = np.max(np.abs(2.0 * d + c @ sigma + sigma @ c.T))
            scale = np.max(np.abs(c)) * np.max(np.abs(sigma)) + np.max(np.abs(d))
            assert residual <= 1e-12 * scale
            done += 1

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov2(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_indefinite_diffusion(self):
        with pytest.raises(NotSPD):
            solve_lyapunov2(-np.eye(2), np.diag([1.0, -1.0]))

    def test_overflowing_solution_reports_singular(self):
        # Hurwitz drift, finite diffusion, but the stationary covariance
        # (~1e309) exceeds the float range
        with pytest.raises(Singular):
            solve_lyapunov2(np.diag([-1e-4, -1e-4]), 1e305 * np.eye(2))

    def test_rounded_nonpositive_determinant_reports_singular(self):
        # real eigenvalues about -2.2e-16 and -2.5: is_hurwitz accepts the
        # drift, but c11 c22 - c12 c21 rounds to 0
        c = np.array([[-1.4230776672218808, 1.9958149036838164],
                      [0.7668763616869004, -1.075516331392825]])
        assert is_hurwitz(c) and c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0] == 0.0
        with pytest.raises(Singular):
            solve_lyapunov2(c, np.eye(2))

    @pytest.mark.parametrize("d", [np.eye(2), np.zeros((2, 2))])
    def test_underflowing_trace_times_determinant_reports_singular(self, d):
        # det = 2.5e-233 is normal, -tr det = 2.5e-349 underflows to 0
        c = np.array([[-5e-117, -1.0], [0.0, -5e-117]])
        with pytest.raises(Singular):
            solve_lyapunov2(c, d)

    @pytest.mark.parametrize("kc, kd", [(-700, 0), (600, -300), (0, -1000), (0, 900), (-300, -900)])
    def test_power_of_two_scaling_is_exact(self, kc, kd):
        # S(2^kc C, 2^kd D) = 2^(kd - kc) S(C, D), and every factor is exact,
        # also where the unscaled products would under- or overflow
        c = np.array([[-0.2, 3.0], [0.01, -200.0]])
        d = np.array([[0.3, 0.1], [0.1, 1.0]])
        expected = np.ldexp(solve_lyapunov2(c, d), kd - kc)
        got = solve_lyapunov2(np.ldexp(c, kc), np.ldexp(d, kd))
        assert got.tobytes() == expected.tobytes()


def lyapunov_oracle(c, d):
    """S with C S + S C^T + 2 D = 0, as 50-digit mpmath values (11, 12, 22)."""
    with mpmath.workdps(50):
        c11, c12, c21, c22 = (mpmath.mpf(x) for x in c.ravel().tolist())
        d11, d12, d22 = (mpmath.mpf(x) for x in (d[0, 0], d[0, 1], d[1, 1]))
        system = mpmath.matrix([[2 * c11, 2 * c12, 0], [c21, c11 + c22, c12], [0, 2 * c21, 2 * c22]])
        return list(mpmath.lu_solve(system, mpmath.matrix([-2 * d11, -2 * d12, -2 * d22])))


def lyapunov_error_bound(c, d, s_max):
    """First-order rounding bound of the closed form, 8 u times

        |S|_abs + max|S| (P / det + (|c11| + |c22|) / |tr C|),

    where |S|_abs is the closed form evaluated on |C|, |D| and |det|,
    P = |c11 c22| + |c12 c21| is what det C cancels from, and the last term
    is the same for the trace: the componentwise condition numbers of the
    three quantities the formula reads.  A few units of the smallest
    subnormal number are added for results that round to subnormals."""
    (c11, c12), (c21, c22) = np.abs(c).tolist()
    d11, d12, d22 = abs(d[0, 0]), abs(d[0, 1]), abs(d[1, 1])
    det = abs(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
    tr = abs(c[0, 0] + c[1, 1])
    m11 = c22 * c22 * d11 + 2 * c22 * c12 * d12 + c12 * c12 * d22
    m12 = c22 * c21 * d11 + (c22 * c11 + c12 * c21) * d12 + c12 * c11 * d22
    m22 = c21 * c21 * d11 + 2 * c21 * c11 * d12 + c11 * c11 * d22
    s_abs = max(det * d11 + m11, det * d12 + m12, det * d22 + m22) / (tr * det)
    cond = (c11 * c22 + c12 * c21) / det + (c11 + c22) / tr
    return 8.0 * 2.0**-53 * (s_abs + s_max * cond) + 4.0 * 2.0**-1074


@st.composite
def hurwitz_drift(draw):
    """V L V^-1 at scales 2^-60 to 2^60, L real with stiffness ratio up to 1e6,
    a complex pair, or nearly repeated eigenvalues; or four entries of
    magnitudes e^-14 to e^14."""
    kind = draw(st.sampled_from(["stiff", "complex", "near_repeated", "spread"]))
    if kind == "spread":
        mags = [draw(st.floats(-14.0, 14.0)) for _ in range(4)]
        signs = [draw(st.sampled_from([-1.0, 1.0])) for _ in range(4)]
        c = (np.exp(mags) * signs).reshape(2, 2)
    else:
        (v11, v12), (v21, v22) = v = np.array([[draw(unit_entry), draw(unit_entry)],
                                               [draw(unit_entry), draw(unit_entry)]])
        det_v = v11 * v22 - v12 * v21
        assume(abs(det_v) > 1e-3)
        lam = -math.exp(draw(st.floats(-3.0, 3.0)))
        if kind == "stiff":
            low = np.diag([lam, lam * draw(st.floats(1.0, 1e6))])
        elif kind == "complex":
            imag = math.exp(draw(st.floats(-6.0, 6.0)))
            low = np.array([[lam, imag], [-imag, lam]])
        else:
            low = np.diag([lam, lam * (1.0 + draw(st.floats(1e-12, 1e-6)))])
        v_inv = np.array([[v22, -v12], [-v21, v11]]) / det_v
        c = v @ low @ v_inv * 2.0 ** draw(st.integers(-60, 60))
    assume(is_hurwitz(c))
    return c


@st.composite
def psd_diffusion(draw):
    """G G^T with G 2x2 or 2x1 (rank 1), at scales 2^-60 to 2^60."""
    rank = draw(st.sampled_from([1, 2]))
    g = np.array([draw(unit_entry) for _ in range(2 * rank)]).reshape(2, rank)
    return g @ g.T * 2.0 ** draw(st.integers(-60, 60))


class TestLyapunovOracle:
    @given(hurwitz_drift(), psd_diffusion())
    @example(np.array([[-0.2, 3.0], [0.01, -200.0]]), np.diag([0.3, 1.0]))
    @settings(max_examples=400, deadline=None)
    def test_matches_50_digit_solve(self, c, d):
        try:
            sigma = solve_lyapunov2(c, d)
        except Singular:
            # only where the float determinant, or its product with the
            # trace, is not positive
            assert not -(c[0, 0] + c[1, 1]) * (c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) > 0.0
            return
        assert sigma[0, 1] == sigma[1, 0]
        exact = lyapunov_oracle(c, d)
        s_max = float(max(abs(x) for x in exact))
        err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(sigma[np.triu_indices(2)], exact))
        assert float(err) <= lyapunov_error_bound(c, d, s_max)
