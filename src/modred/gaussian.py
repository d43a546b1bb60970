"""Gaussian measures and exact Wasserstein-2 distances in dimensions 1 and 2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotSPD
from .linalg2 import SYM_TOL, eig2, sqrtm_spd2


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
        scale = float(np.max(np.abs(cov)))
        if mean.size == 2:
            if abs(cov[0, 1] - cov[1, 0]) > SYM_TOL * scale:
                raise NotSPD("covariance is not symmetric within tolerance")
            low = eig2(cov)[1]
        else:
            low = cov[0, 0]
        if low < -SYM_TOL * scale:
            raise NotSPD("covariance has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

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
    root_u = sqrtm_spd2(g1.cov)
    root_v = sqrtm_spd2(g2.cov)
    m = root_v @ root_u
    # det m >= 0, so the maximiser of tr(Q^T m) is a rotation
    cos_part = m[0, 0] + m[1, 1]
    sin_part = m[1, 0] - m[0, 1]
    norm = math.hypot(cos_part, sin_part)
    if norm == 0.0:
        q = np.eye(2)
    else:
        q = np.array([[cos_part, -sin_part], [sin_part, cos_part]]) / norm
    resid = root_u - root_v @ q
    diff = g1.mean - g2.mean
    return math.sqrt(float(diff @ diff) + float(np.sum(resid * resid)))


def marginal(g: Gaussian, coord: int) -> Gaussian:
    """Coordinate marginal of a bivariate Gaussian (coord is 1 or 2)."""
    _require_dim(g, 2, "g")
    if coord not in (1, 2):
        raise InvalidParams("coord must be 1 or 2")
    i = coord - 1
    return Gaussian(mean=g.mean[i], cov=g.cov[i, i])
