"""Invariant-manifold closure with fluctuation-dissipation noise calibration.

Two model families are reduced to a scalar Ornstein-Uhlenbeck process:

* an underdamped Brownian oscillator (position x, velocity v) with friction
  gamma, frequency omega and inverse temperature beta, reduced onto x;
* two linearly coupled overdamped oscillators (x1, x2) with self-relaxation
  rates a, d < 0 and coupling k > 0, reduced onto x1.

The closure seeks a slaving relation x2 = alpha * x1 whose microscopic and
macroscopic time derivatives coincide, which pins alpha to a root of

    k alpha^2 + (a - d) alpha - k = 0.

The retained root is the one with k*alpha -> 0 as k -> 0, making the reduced
drift a - k + k*alpha an eigenvalue of the full drift matrix.  The reduced
noise is calibrated so the reduced process reproduces the stationary variance
of the retained coordinate.

Both parameter types expose the slow and fast relaxation rates
(``rate_slow``, ``rate_fast``), the deterministic initial point
(``initial_state``) and the reduced model (``reduce()``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotOverdamped
from .linalg2 import _lyapunov2_entries, _psd_entries
from .linear_sde import LinearModel


class _LinearFamily:
    """The linear model of a two-dimensional parameter type, from its
    ``_entries()``: the drift's and then the diffusion's entries, row by
    row, as floats."""

    def drift_matrix(self) -> np.ndarray:
        return np.reshape(self._entries()[:4], (2, 2))

    def diffusion_matrix(self) -> np.ndarray:
        return np.reshape(self._entries()[4:], (2, 2))

    def to_linear_model(self) -> LinearModel:
        return LinearModel(self.drift_matrix(), self.diffusion_matrix())

    def _full_stationary_variance(self) -> float:
        """Stationary variance of the retained (first) coordinate, as
        ``stationary_law(self.to_linear_model())`` gives it, without the model."""
        return _psd_entries(*_lyapunov2_entries(*self._entries()))[0]


@dataclass(frozen=True)
class OscillatorParams(_LinearFamily):
    """Underdamped Brownian oscillator parameters.

    gamma: friction (1/time), omega: frequency (1/time), beta: inverse
    temperature; (x0, v0) deterministic initial position and velocity.
    Requires the strictly overdamped spectrum gamma > 2*omega.
    """

    gamma: float
    omega: float
    beta: float
    x0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0.0 and self.omega > 0.0 and self.beta > 0.0):
            raise InvalidParams("gamma, omega and beta must be positive")
        if not (
            math.isfinite(self.gamma)
            and math.isfinite(self.omega)
            and math.isfinite(self.beta)
            and math.isfinite(self.x0)
            and math.isfinite(self.v0)
        ):
            raise InvalidParams("oscillator parameters must be finite")
        if self.gamma <= 2.0 * self.omega:
            raise NotOverdamped(
                f"need gamma > 2*omega, got gamma={self.gamma}, omega={self.omega}"
            )

    @property
    def rate_gap(self) -> float:
        """sqrt(gamma^2 - 4 omega^2), the relaxation-rate gap."""
        return math.sqrt((self.gamma - 2.0 * self.omega) * (self.gamma + 2.0 * self.omega))

    @property
    def rate_fast(self) -> float:
        return 0.5 * (self.gamma + self.rate_gap)

    @property
    def rate_slow(self) -> float:
        # 2 omega^2 / (gamma + gap) avoids cancellation at large gamma/omega
        return 2.0 * self.omega**2 / (self.gamma + self.rate_gap)

    @property
    def initial_state(self) -> tuple[float, float]:
        return (self.x0, self.v0)

    def reduce(self) -> ReducedModel:
        return reduce_oscillator(self)

    def _entries(self) -> tuple[float, ...]:
        return tuple(map(float, (
            0.0, 1.0, -self.omega**2, -self.gamma, 0.0, 0.0, 0.0, self.gamma / self.beta
        )))


@dataclass(frozen=True)
class CoupledParams(_LinearFamily):
    """Coupled overdamped oscillator parameters.

    a, d < 0 (with a >= d) are the self-relaxation rates, k > 0 the
    coupling, sigma1/sigma2 > 0 the noise strengths entering the diffusion
    matrix diag(sigma1, sigma2); (x1, x2) deterministic initial positions.
    """

    a: float
    d: float
    k: float
    sigma1: float = 1.0
    sigma2: float = 1.0
    x1: float = 0.0
    x2: float = 0.0

    def __post_init__(self):
        values = (self.a, self.d, self.k, self.sigma1, self.sigma2, self.x1, self.x2)
        if not all(math.isfinite(v) for v in values):
            raise InvalidParams("coupled parameters must be finite")
        if not (self.a < 0.0 and self.d < 0.0):
            raise InvalidParams("a and d must be negative")
        if self.a < self.d:
            raise InvalidParams("need a >= d")
        if self.k <= 0.0:
            raise InvalidParams("coupling k must be positive")
        if not (self.sigma1 > 0.0 and self.sigma2 > 0.0):
            raise InvalidParams("noise strengths must be positive")

    @property
    def is_normalized(self) -> bool:
        """Identical oscillators with unit noise (closed-form regime)."""
        return self.a == self.d and self.sigma1 == 1.0 and self.sigma2 == 1.0

    @property
    def rate_split(self) -> float:
        """Eigenvalue gap sqrt((a-d)^2 + 4k^2) of the drift matrix."""
        return math.hypot(self.a - self.d, 2.0 * self.k)

    def drift_eigenvalues(self) -> tuple[float, float]:
        """Both drift eigenvalues, descending (slow first).

        The slow one is det C / lambda_fast, a ratio of sums of like-signed
        terms; 0.5 * (tr + rate_split) would cancel when the coupling or the
        fast rate dwarfs the slow one.
        """
        fast = 0.5 * (self.a + self.d - 2.0 * self.k - self.rate_split)
        det = self.a * self.d - self.k * (self.a + self.d)
        return (det / fast, fast)

    @property
    def rate_slow(self) -> float:
        return abs(self.drift_eigenvalues()[0])

    @property
    def rate_fast(self) -> float:
        return abs(self.drift_eigenvalues()[1])

    @property
    def initial_state(self) -> tuple[float, float]:
        return (self.x1, self.x2)

    def reduce(self) -> ReducedModel:
        return reduce_coupled(self)

    def _entries(self) -> tuple[float, ...]:
        return tuple(map(float, (
            self.a - self.k, self.k, self.k, self.d - self.k, self.sigma1, 0.0, 0.0, self.sigma2
        )))


@dataclass(frozen=True)
class ReducedModel:
    """Scalar OU model dx = drift * x dt + sqrt(2 * diffusion) dW.

    stationary_variance must equal diffusion / |drift| (fluctuation-
    dissipation consistency, checked to 1e-13 relative).
    """

    drift: float
    diffusion: float
    stationary_variance: float

    def __post_init__(self):
        if not (self.drift < 0.0 and self.diffusion >= 0.0):
            raise InvalidParams("need drift < 0 and diffusion >= 0")
        implied = self.diffusion / abs(self.drift)
        if abs(self.stationary_variance - implied) > 1e-13 * max(implied, 1.0):
            raise InvalidParams(
                "stationary_variance must equal diffusion/|drift| "
                f"({self.stationary_variance} vs {implied})"
            )

    def to_linear_model(self) -> LinearModel:
        return LinearModel(self.drift, self.diffusion)


def invariance_roots(a: float, d: float, k: float) -> tuple[float, float]:
    """Both roots of the invariance equation k a^2 + (a-d) a - k = 0.

    Returned as (alpha_plus, alpha_minus) with alpha_plus > 0 > alpha_minus
    and alpha_plus * alpha_minus = -1.  The well-conditioned root is computed
    directly and the other from the product, so the residual stays at
    rounding level even for k << |a - d|.
    """
    if not (k > 0.0 and math.isfinite(k) and math.isfinite(a) and math.isfinite(d)):
        raise InvalidParams("need finite a, d and k > 0")
    gap = a - d
    split = math.hypot(gap, 2.0 * k)
    if gap >= 0.0:
        alpha_plus = 2.0 * k / (gap + split)
        alpha_minus = -1.0 / alpha_plus
    else:
        alpha_minus = -2.0 * k / (split - gap)
        alpha_plus = -1.0 / alpha_minus
    return (alpha_plus, alpha_minus)


def select_closure(a: float, d: float, k: float) -> float:
    """Slaving coefficient: the root with k*alpha -> 0 as k -> 0 (a >= d)."""
    if a < d:
        raise InvalidParams("need a >= d")
    return invariance_roots(a, d, k)[0]


def reduce_coupled(p: CoupledParams) -> ReducedModel:
    """Reduce the coupled pair onto x1.

    Drift is a - k + k*alpha_hat (the slow drift eigenvalue); the stationary
    variance of x1 comes from the closed form -(1/2)(1/(a-2k) + 1/a) in the
    normalized symmetric case and from the stationary covariance of the full
    model otherwise; the noise is calibrated as diffusion = -drift * variance.
    """
    alpha_hat = select_closure(p.a, p.d, p.k)
    drift = p.a - p.k + p.k * alpha_hat
    if p.is_normalized:
        variance = -0.5 * (1.0 / (p.a - 2.0 * p.k) + 1.0 / p.a)
    else:
        variance = p._full_stationary_variance()
    diffusion = -drift * variance
    return ReducedModel(
        drift=drift,
        diffusion=diffusion,
        stationary_variance=diffusion / abs(drift),
    )


def reduce_oscillator(p: OscillatorParams) -> ReducedModel:
    """Reduce the oscillator onto x: drift -rate_slow, variance 1/(beta omega^2)."""
    rate = p.rate_slow
    diffusion = rate / (p.omega**2 * p.beta)
    return ReducedModel(
        drift=-rate,
        diffusion=diffusion,
        stationary_variance=diffusion / rate,
    )
