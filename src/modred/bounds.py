"""Error bounds for the reduced dynamics, checked against exact W2 distances.

Each evaluator returns the explicit dominating value for the squared
Wasserstein-2 distance between the original (retained-coordinate) law and
either the reduced law or the shared equilibrium.  ``verify_bounds`` compares
every bound with the exact distance over a time grid and reports margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyGrid, InvalidParams
from .models import (
    GridLaw,
    _check_time,
    _require_normalized,
    equilibrium_laws,
    grid_laws,
)
from .reduction import CoupledParams, OscillatorParams

# Bound satisfaction tolerance, absorbing roundoff at t=0 where both sides vanish.
SATISFY_RTOL = 1e-12
SATISFY_ATOL = 1e-15

# Largest coupling for which the small-coupling bound is stated.
SMALL_COUPLING_K_MAX = 10.0


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one (bound, time) comparison."""

    name: str
    t: float
    exact_sq: float
    bound: float
    satisfied: bool
    margin: float


def bound_satisfied(exact_sq, bound):
    """Whether exact_sq <= bound up to the rounding allowance; scalars or arrays."""
    return exact_sq <= bound * (1.0 + SATISFY_RTOL) + SATISFY_ATOL


class EquilibriumRate(NamedTuple):
    """Admissible constants for W2(law(t), equilibrium) <= C e^{-rate t}."""

    c_original: float
    c_reduced: float
    rate: float


def _w2_sq(mean1, var1, mean2, var2):
    """Squared W2 (m1-m2)^2 + (s1-s2)^2 between univariate Gaussians, elementwise."""
    dm = mean1 - mean2
    ds = np.sqrt(var1) - np.sqrt(var2)
    return dm * dm + ds * ds


def _at(t, values: np.ndarray):
    """values, computed on _check_time(t), as a float for a single time t."""
    return values if np.ndim(t) else float(values[0])


def _exact_w2_sq(p, t):
    full, reduced = grid_laws(p, _check_time(t))
    return _at(t, _w2_sq(*full, *reduced))


def osc_w2_exact(p: OscillatorParams, t):
    """Exact squared W2 between the oscillator marginal and reduced laws, at a
    time t or on a 1-D array of times t."""
    return _exact_w2_sq(p, t)


def osc_highfriction_bound(p: OscillatorParams) -> float:
    """Uniform-in-time bound 4/(gamma^2-4omega^2) [(omega|x0|+|v0|)^2 + 4/beta]."""
    gap_sq = p.rate_gap**2
    return 4.0 / gap_sq * ((p.omega * abs(p.x0) + abs(p.v0)) ** 2 + 4.0 / p.beta)


def osc_longtime_bound(p: OscillatorParams, t):
    """Exponential closeness bound with prefactor
    (omega|x0|+|v0|)/gap + 10/(beta gap^2), at a time t or on a 1-D array of
    times t."""
    gap = p.rate_gap
    prefactor = (p.omega * abs(p.x0) + abs(p.v0)) / gap + 10.0 / (p.beta * gap**2)
    return _at(t, prefactor * np.exp(-p.rate_slow * _check_time(t)))


def osc_equilibrium_rate(p: OscillatorParams) -> EquilibriumRate:
    """Explicit constants for the common convergence rate to equilibrium.

    c_reduced^2 = x0^2 + 1/(beta omega^2);
    c_original^2 = (|x0| + (lam2 |x0| + |v0|)/gap)^2
                   + (gamma/beta)/gap^2 (4/gamma + 1/lam1 + 1/lam2).
    """
    lam1, lam2 = p.rate_fast, p.rate_slow
    gap = p.rate_gap
    c_red_sq = p.x0**2 + 1.0 / (p.beta * p.omega**2)
    mean_part = (abs(p.x0) + (lam2 * abs(p.x0) + abs(p.v0)) / gap) ** 2
    var_part = (p.gamma / p.beta) / gap**2 * (4.0 / p.gamma + 1.0 / lam1 + 1.0 / lam2)
    return EquilibriumRate(
        c_original=math.sqrt(mean_part + var_part),
        c_reduced=math.sqrt(c_red_sq),
        rate=lam2,
    )


def coupled_w2_exact(p: CoupledParams, t):
    """Exact squared W2 between the x1 marginal and the reduced law, at a time
    t or on a 1-D array of times t."""
    return _exact_w2_sq(p, t)


def _small_k_bound(p: CoupledParams, k_max: float) -> float | None:
    """The small-coupling bound, or None for k > k_max, where it is not stated."""
    _require_normalized(p)
    if p.k > k_max:
        return None
    a_sq = p.a**2
    return (
        p.k**2 * (p.x2 - p.x1) ** 2 / (a_sq * math.e**2)
        + p.k / (a_sq * math.e)
    )


def coupled_small_k_bound(p: CoupledParams, k_max: float = SMALL_COUPLING_K_MAX) -> float:
    """Uniform-in-time bound k^2 (x2-x1)^2/(a^2 e^2) + k/(a^2 e), linear in k."""
    bound = _small_k_bound(p, k_max)
    if bound is None:
        raise InvalidParams(f"small-coupling bound assumes k <= {k_max}")
    return bound


def coupled_longtime_bound(p: CoupledParams, t):
    """Pointwise dominating function, at a time t or on a 1-D array of times t,

    (1/4)(x2-x1)^2 (1-e^{-2kt})^2 e^{2at} + (1/2)(1/(2k-a)) e^{2at} (1-e^{-4kt}).
    """
    _require_normalized(p)
    times = _check_time(t)
    a, k = p.a, p.k
    decay = np.exp(2.0 * a * times)
    mean_part = 0.25 * (p.x2 - p.x1) ** 2 * np.expm1(-2.0 * k * times) ** 2 * decay
    var_part = 0.5 / (2.0 * k - a) * decay * -np.expm1(-4.0 * k * times)
    return _at(t, mean_part + var_part)


def coupled_equilibrium_rate(p: CoupledParams) -> EquilibriumRate:
    """Explicit constants for convergence to the shared equilibrium at rate |a|.

    c_reduced^2 = x1^2 + S11; c_original^2 = (|x1|+|x2|)^2
    + (1/2)(1/|a| + 1/(2k-a)).
    """
    _require_normalized(p)
    var_inf = -0.5 * (1.0 / (p.a - 2.0 * p.k) + 1.0 / p.a)
    c_red_sq = p.x1**2 + var_inf
    c_orig_sq = (abs(p.x1) + abs(p.x2)) ** 2 + 0.5 * (
        1.0 / abs(p.a) + 1.0 / (2.0 * p.k - p.a)
    )
    return EquilibriumRate(
        c_original=math.sqrt(c_orig_sq),
        c_reduced=math.sqrt(c_red_sq),
        rate=abs(p.a),
    )


def default_time_grid(rate: float, n_points: int = 60) -> np.ndarray:
    """Verification grid: linear on [0, 2/rate], geometric out to 20/rate."""
    if not (rate > 0.0 and math.isfinite(rate)):
        raise InvalidParams("rate must be positive and finite")
    if n_points < 4:
        raise InvalidParams("need at least 4 grid points")
    n_lin = n_points // 2
    linear = np.linspace(0.0, 2.0 / rate, n_lin)
    geometric = np.geomspace(2.0 / rate, 20.0 / rate, n_points - n_lin + 1)[1:]
    return np.concatenate([linear, geometric])


def _rates(p) -> tuple[float, float]:
    """Slow and fast relaxation rates of either model family."""
    if isinstance(p, OscillatorParams):
        return p.rate_slow, p.rate_fast
    if isinstance(p, CoupledParams):
        lam_slow, lam_fast = p.drift_eigenvalues()
        return abs(lam_slow), abs(lam_fast)
    raise InvalidParams(f"unsupported parameter type {type(p).__name__}")


def model_time_grid(p, n_points: int = 60) -> np.ndarray:
    """Two-scale grid resolving both the slow relaxation and the fast transient."""
    slow, fast = _rates(p)
    return np.union1d(default_time_grid(slow, n_points), default_time_grid(fast, n_points))


def _validate_grid(grid) -> np.ndarray:
    if np.size(grid) == 0:
        raise EmptyGrid("time grid is empty")
    if np.ndim(grid) != 1:
        raise InvalidParams("time grid must be a 1-D array")
    grid = _check_time(grid)
    if np.any(np.diff(grid) < 0.0):
        raise InvalidParams("time grid must be sorted")
    return grid


def _w2_exact(p):
    """osc_w2_exact or coupled_w2_exact, by the family of p."""
    return osc_w2_exact if isinstance(p, OscillatorParams) else coupled_w2_exact


def law_table(p, grid) -> tuple[np.ndarray, GridLaw, GridLaw, np.ndarray]:
    """The validated grid, the retained-coordinate and reduced laws on it and
    their exact squared W2."""
    grid = _validate_grid(grid)
    full, reduced = grid_laws(p, grid)
    return grid, full, reduced, _w2_exact(p)(p, grid)


def sup_exact_w2_sq(p, grid) -> float:
    """Largest exact squared W2 (original vs reduced) over the grid."""
    grid = _validate_grid(grid)
    return float(np.max(_w2_exact(p)(p, grid)))


def _bound_families(p, grid: np.ndarray, full: GridLaw, reduced: GridLaw, exact: np.ndarray):
    """(name, exact W2^2, bound) arrays of every bound that applies to p.

    The small-coupling bound is stated for k <= SMALL_COUPLING_K_MAX only, so
    for stronger coupling its family is left out and the others still apply.
    """
    if isinstance(p, OscillatorParams):
        uniform = [("high_friction", osc_highfriction_bound(p))]
        long_time = osc_longtime_bound(p, grid)
        rates = osc_equilibrium_rate(p)
    else:
        small = _small_k_bound(p, SMALL_COUPLING_K_MAX)
        uniform = [] if small is None else [("small_coupling", small)]
        long_time = coupled_longtime_bound(p, grid)
        rates = coupled_equilibrium_rate(p)
    eq_original, eq_reduced = equilibrium_laws(p)
    decay = np.exp(-rates.rate * grid)
    return [
        *((name, exact, np.full(grid.shape, value)) for name, value in uniform),
        ("long_time", exact, long_time),
        (
            "equilibrium_rate_original",
            _w2_sq(*full, eq_original.mean[0], eq_original.variance),
            (rates.c_original * decay) ** 2,
        ),
        (
            "equilibrium_rate_reduced",
            _w2_sq(*reduced, eq_reduced.mean[0], eq_reduced.variance),
            (rates.c_reduced * decay) ** 2,
        ),
    ]


def verify_bounds(p, grid=None) -> list[BoundReport]:
    """Evaluate every applicable bound on the grid and report margins.

    Defaults to the 60-point grid at the slow relaxation rate.  Reports are
    ordered by bound family and then by time.  A coupled pair with
    k > SMALL_COUPLING_K_MAX has no small_coupling rows.
    """
    grid, full, reduced, exact = law_table(
        p, default_time_grid(_rates(p)[0]) if grid is None else grid
    )
    times = grid.tolist()
    reports = []
    for name, exact_sq, bound in _bound_families(p, grid, full, reduced, exact):
        rows = zip(
            times,
            exact_sq.tolist(),
            bound.tolist(),
            bound_satisfied(exact_sq, bound).tolist(),
            (bound - exact_sq).tolist(),
        )
        reports += [BoundReport(name, *row) for row in rows]
    return reports
