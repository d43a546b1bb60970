"""Gaussian measures and exact Wasserstein-2 distances in dimensions 1 and 2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .linalg2 import _sqrtm2_entries, check_symmetric_psd


@dataclass(frozen=True, eq=False)
class Gaussian:
    """A Gaussian measure N(mean, cov) on R^d, d in {1, 2}.

    The covariance is stored as a matrix of variances/covariances (never
    standard deviations); degenerate (zero-variance) measures are allowed.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1 or mean.size not in (1, 2):
            raise InvalidParams("mean must be a vector of length 1 or 2")
        if cov.shape != (mean.size, mean.size):
            raise InvalidParams(
                f"cov shape {cov.shape} does not match dim {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidParams("mean and cov must be finite")
        check_symmetric_psd(cov, "covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray) -> "Gaussian":
        """Wrap a float mean vector and covariance that the package has already
        made finite, exactly symmetric and PSD, without the checks above."""
        g = object.__new__(cls)
        object.__setattr__(g, "mean", mean)
        object.__setattr__(g, "cov", cov)
        return g

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def variance(self) -> float:
        """Scalar variance of a one-dimensional Gaussian."""
        if self.dim != 1:
            raise InvalidParams("variance is only defined for dim 1")
        return float(self.cov[0, 0])


def _require_dim(g: Gaussian, dim: int, name: str):
    if g.dim != dim:
        raise InvalidParams(f"{name} must have dim {dim}, got {g.dim}")


def w2_1d(g1: Gaussian, g2: Gaussian) -> float:
    """W2 distance between univariate Gaussians.

    W2^2 = (u1 - u2)^2 + (s1 - s2)^2 with s the standard deviations.
    """
    _require_dim(g1, 1, "g1")
    _require_dim(g2, 1, "g2")
    du = g1.mean[0] - g2.mean[0]
    ds = math.sqrt(max(g1.variance, 0.0)) - math.sqrt(max(g2.variance, 0.0))
    return math.hypot(du, ds)


def w2_2d(g1: Gaussian, g2: Gaussian) -> float:
    """W2 distance between bivariate Gaussians.

    W2^2 = |u - v|^2 + tr U + tr V - 2 tr sqrt(V^{1/2} U V^{1/2}).

    The covariance term is evaluated as min_Q ||U^{1/2} - V^{1/2} Q||_F^2
    over rotations Q, whose minimiser is the polar factor of
    V^{1/2} U^{1/2}: a sum of squares, so it keeps its relative accuracy
    when U and V nearly agree, where the trace form above cancels.
    """
    _require_dim(g1, 2, "g1")
    _require_dim(g2, 2, "g2")
    (u11, u12, u22), (v11, v12, v22) = (
        _sqrtm2_entries(a, 0.5 * b + 0.5 * c, d)
        for (a, b), (c, d) in (g1.cov.tolist(), g2.cov.tolist())
    )
    # m = V^{1/2} U^{1/2} has det m >= 0, so the maximiser of tr(Q^T m) is
    # the rotation Q = [[cos, -sin], [sin, cos]] along (m11 + m22, m21 - m12)
    cos_part = (v11 * u11 + v12 * u12) + (v12 * u12 + v22 * u22)
    sin_part = (v12 * u11 + v22 * u12) - (v11 * u12 + v12 * u22)
    norm = math.hypot(cos_part, sin_part)
    cos, sin = (cos_part / norm, sin_part / norm) if norm else (1.0, 0.0)
    # U^{1/2} - V^{1/2} Q
    r11, r12 = u11 - (v11 * cos + v12 * sin), u12 - (v12 * cos - v11 * sin)
    r21, r22 = u12 - (v12 * cos + v22 * sin), u22 - (v22 * cos - v12 * sin)
    dm1, dm2 = (g1.mean - g2.mean).tolist()
    return math.sqrt(dm1 * dm1 + dm2 * dm2 + (r11 * r11 + r12 * r12 + r21 * r21 + r22 * r22))


def marginal(g: Gaussian, coord: int) -> Gaussian:
    """Coordinate marginal of a bivariate Gaussian (coord is 1 or 2)."""
    _require_dim(g, 2, "g")
    if coord not in (1, 2):
        raise InvalidParams("coord must be 1 or 2")
    i = coord - 1
    return Gaussian(mean=g.mean[i], cov=g.cov[i, i])
