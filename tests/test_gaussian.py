import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modred import Gaussian, InvalidParams, NotSPD, marginal, w2_1d, w2_2d

mean_value = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
var_value = st.floats(min_value=0.0, max_value=9.0, allow_nan=False)


def gaussian_1d():
    return st.builds(lambda m, v: Gaussian(m, v), mean_value, var_value)


@st.composite
def gaussian_2d(draw):
    # jittered away from singular: the Bures square root is not Lipschitz at
    # a zero eigenvalue, so exact-degenerate draws defeat fixed slack
    m = np.array([draw(mean_value), draw(mean_value)])
    g = np.array([[draw(mean_value), draw(mean_value)], [draw(mean_value), draw(mean_value)]])
    return Gaussian(m, 0.25 * (g @ g.T) + 0.01 * np.eye(2))


class TestGaussianType:
    def test_scalar_construction(self):
        g = Gaussian(1.5, 2.0)
        assert g.dim == 1 and g.mean[0] == 1.5 and g.variance == 2.0

    def test_degenerate_point_mass_allowed(self):
        g = Gaussian([1.0, 2.0], np.zeros((2, 2)))
        assert g.dim == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParams):
            Gaussian([0.0, 0.0], [[1.0]])

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(NotSPD):
            Gaussian([0.0, 0.0], [[1.0, 0.3], [0.1, 1.0]])

    def test_accepts_rounding_level_asymmetry(self):
        # the unsymmetrized matrix has a complex eigenvalue pair
        g = Gaussian(np.zeros(2), [[1.0, 1e-14], [-1e-14, 1.0]])
        assert g.dim == 2

    def test_rejects_negative_variance(self):
        with pytest.raises(NotSPD):
            Gaussian(0.0, -1e-6)

    @pytest.mark.parametrize("cov", [
        [[0.0, 0.0], [0.0, 4.55734025e-157]],  # squares underflow
        [[1e160, 0.0], [0.0, 1.0]],  # squares overflow
        [[1e-300, 1e-301], [1e-301, 1e-300]],
    ])
    def test_accepts_psd_cov_at_extreme_scales(self, cov):
        assert Gaussian([0.0, 0.0], cov).dim == 2

    @pytest.mark.parametrize("cov", [
        [[1e160, 0.0], [0.0, -1e160]],
        [[1e-300, 0.0], [0.0, -1e-300]],
    ])
    def test_rejects_indefinite_cov_at_extreme_scales(self, cov):
        with pytest.raises(NotSPD):
            Gaussian([0.0, 0.0], cov)

    def test_rejects_dim3(self):
        with pytest.raises(InvalidParams):
            Gaussian([0.0, 0.0, 0.0], np.eye(3))


class TestW2OneD:
    def test_identical_measures(self):
        assert w2_1d(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)) == 0.0

    def test_hand_value(self):
        # N(0,1) vs N(3,4): sqrt(9 + (1-2)^2)
        assert math.isclose(w2_1d(Gaussian(0.0, 1.0), Gaussian(3.0, 4.0)), math.sqrt(10.0), rel_tol=1e-15)

    def test_point_masses(self):
        assert w2_1d(Gaussian(1.0, 0.0), Gaussian(-2.5, 0.0)) == 3.5

    def test_rejects_dim2(self):
        with pytest.raises(InvalidParams):
            w2_1d(Gaussian([0, 0], np.eye(2)), Gaussian([0, 0], np.eye(2)))


class TestW2TwoD:
    def test_identical(self):
        g = Gaussian([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        assert w2_2d(g, g) < 1e-12

    def test_mean_shift_only(self):
        a = Gaussian([0.0, 0.0], np.eye(2))
        b = Gaussian([3.0, 4.0], np.eye(2))
        assert math.isclose(w2_2d(a, b), 5.0, rel_tol=1e-14)

    def test_diagonal_reduces_to_per_coordinate(self):
        a = Gaussian([0.0, 0.0], np.diag([1.0, 1.0]))
        b = Gaussian([0.0, 0.0], np.diag([4.0, 9.0]))
        assert math.isclose(w2_2d(a, b), math.sqrt(5.0), rel_tol=1e-14)

    def test_diagonal_is_root_sum_of_squares_of_marginals(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = rng.uniform(-3, 3, 4)
            v = rng.uniform(0, 4, 4)
            a = Gaussian([m[0], m[1]], np.diag([v[0], v[1]]))
            b = Gaussian([m[2], m[3]], np.diag([v[2], v[3]]))
            per_coord = math.hypot(
                w2_1d(Gaussian(m[0], v[0]), Gaussian(m[2], v[2])),
                w2_1d(Gaussian(m[1], v[1]), Gaussian(m[3], v[3])),
            )
            assert abs(w2_2d(a, b) - per_coord) < 1e-12 * max(1.0, per_coord)

    def test_product_measure_matches_1d(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m1, m2 = rng.uniform(-3, 3, 2)
            v1, v2 = rng.uniform(0, 4, 2)
            shared = rng.uniform(0, 4)
            a = Gaussian([m1, 0.0], np.diag([v1, shared]))
            b = Gaussian([m2, 0.0], np.diag([v2, shared]))
            d1 = w2_1d(Gaussian(m1, v1), Gaussian(m2, v2))
            assert abs(w2_2d(a, b) - d1) < 1e-12 * max(1.0, d1)

    def test_nearly_equal_covariances_keep_relative_accuracy(self):
        # W2 = |sqrt(0.01) - sqrt(0.01000025)| = 2.5e-7 / (0.1 + sqrt(0.01000025));
        # tr U + tr V - 2 tr sqrt(...) cancels here and lost 4 digits, asymmetrically
        a = Gaussian([0.0, 0.0], np.diag([1.01, 0.01]))
        b = Gaussian([0.0, 0.0], np.diag([1.01, 0.01000025]))
        exact = 2.5e-7 / (0.1 + math.sqrt(0.01000025))
        assert math.isclose(w2_2d(a, b), exact, rel_tol=1e-9)
        assert math.isclose(w2_2d(b, a), exact, rel_tol=1e-9)
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        ra = Gaussian([0.0, 0.0], rot @ a.cov @ rot.T)
        rb = Gaussian([0.0, 0.0], rot @ b.cov @ rot.T)
        assert math.isclose(w2_2d(ra, rb), exact, rel_tol=1e-8)


class TestMetricProperties:
    @given(gaussian_1d(), gaussian_1d())
    @settings(max_examples=150, deadline=None)
    def test_symmetry_1d(self, g1, g2):
        assert w2_1d(g1, g2) == w2_1d(g2, g1)

    @given(gaussian_1d(), gaussian_1d(), gaussian_1d())
    @settings(max_examples=150, deadline=None)
    def test_triangle_1d(self, g1, g2, g3):
        assert w2_1d(g1, g3) <= w2_1d(g1, g2) + w2_1d(g2, g3) + 1e-10

    @given(gaussian_2d(), gaussian_2d())
    @settings(max_examples=100, deadline=None)
    def test_symmetry_2d(self, g1, g2):
        assert abs(w2_2d(g1, g2) - w2_2d(g2, g1)) < 1e-10

    @given(gaussian_2d(), gaussian_2d(), gaussian_2d())
    @settings(max_examples=100, deadline=None)
    def test_triangle_2d(self, g1, g2, g3):
        assert w2_2d(g1, g3) <= w2_2d(g1, g2) + w2_2d(g2, g3) + 1e-10

    @given(gaussian_2d(), gaussian_2d(), mean_value, mean_value)
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, g1, g2, dx, dy):
        shift = np.array([dx, dy])
        s1 = Gaussian(g1.mean + shift, g1.cov)
        s2 = Gaussian(g2.mean + shift, g2.cov)
        assert abs(w2_2d(s1, s2) - w2_2d(g1, g2)) < 1e-12 * max(1.0, w2_2d(g1, g2))


class TestMarginal:
    def test_first_coordinate(self):
        g = marginal(Gaussian([1.0, 2.0], np.eye(2)), 1)
        assert g.mean[0] == 1.0 and g.variance == 1.0

    def test_second_coordinate_reads_diagonal(self):
        g = marginal(Gaussian([0.0, 0.0], [[2.0, 1.0], [1.0, 3.0]]), 2)
        assert g.mean[0] == 0.0 and g.variance == 3.0

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidParams):
            marginal(Gaussian([0.0, 0.0], np.eye(2)), 3)
