"""Error bounds for the reduced dynamics, checked against exact W2 distances.

Each evaluator returns the explicit dominating value for the squared
Wasserstein-2 distance between the original (retained-coordinate) law and
either the reduced law or the shared equilibrium.  ``verify_bounds`` compares
every bound with the exact distance over a time grid and reports margins.

``FAMILIES`` is the one table of model families, keyed by the CLI's
``--model`` name: each entry says how to build a family's parameters from
the CLI flags, which laws it compares and which bounds it states, each a
``Bound`` entry with the domain where it is stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptyGrid, InvalidParams
from .models import (
    GridLaw,
    _check_time,
    _require_normalized,
    coupled_full_law,
    coupled_reduced_law,
    equilibrium_laws,
    oscillator_marginal_law,
    oscillator_reduced_law,
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


def exact_w2_sq(p, t):
    """Exact squared W2 between the retained-coordinate law and the reduced law
    of either family, at a time t or on a 1-D array of times t."""
    full, reduced = _family_of(p).laws(p, _check_time(t))
    return _at(t, _w2_sq(*full, *reduced))


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


def _small_coupling(p: CoupledParams) -> bool:
    return p.k <= SMALL_COUPLING_K_MAX


def coupled_small_k_bound(p: CoupledParams) -> float:
    """Uniform-in-time bound k^2 (x2-x1)^2/(a^2 e^2) + k/(a^2 e), linear in k."""
    _require_normalized(p)
    if not _small_coupling(p):
        raise InvalidParams(f"small-coupling bound assumes k <= {SMALL_COUPLING_K_MAX}")
    a_sq = p.a**2
    return p.k**2 * (p.x2 - p.x1) ** 2 / (a_sq * math.e**2) + p.k / (a_sq * math.e)


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
    return composite_grid(0.0, 2.0 / rate, 20.0 / rate, n_points)


def composite_grid(start: float, mid: float, end: float, n_points: int) -> np.ndarray:
    """n_points // 2 times linear on [start, mid], the rest geometric on (mid, end]."""
    n_lin = n_points // 2
    linear = np.linspace(start, mid, n_lin)
    geometric = np.geomspace(mid, end, n_points - n_lin + 1)[1:]
    return np.concatenate([linear, geometric])


def model_time_grid(p, n_points: int = 60) -> np.ndarray:
    """Two-scale grid resolving both the slow relaxation and the fast transient."""
    return np.union1d(
        default_time_grid(p.rate_slow, n_points), default_time_grid(p.rate_fast, n_points)
    )


def _validate_grid(grid) -> np.ndarray:
    if np.size(grid) == 0:
        raise EmptyGrid("time grid is empty")
    if np.ndim(grid) != 1:
        raise InvalidParams("time grid must be a 1-D array")
    grid = _check_time(grid)
    if np.any(np.diff(grid) < 0.0):
        raise InvalidParams("time grid must be sorted")
    return grid


def law_table(p, grid) -> tuple[np.ndarray, GridLaw, GridLaw, np.ndarray]:
    """The validated grid, the retained-coordinate and reduced laws on it and
    their exact squared W2."""
    grid = _validate_grid(grid)
    full, reduced = _family_of(p).laws(p, grid)
    return grid, full, reduced, _w2_sq(*full, *reduced)


def sup_exact_w2_sq(p, grid) -> float:
    """Largest exact squared W2 (original vs reduced) over the grid."""
    return float(np.max(law_table(p, grid)[3]))


def verify_bounds(p, grid=None) -> list[BoundReport]:
    """Evaluate every bound stated for p on the grid and report margins.

    Defaults to the 60-point grid at the slow relaxation rate.  Reports are
    ordered by the family's bounds, then by time; a bound whose domain does
    not hold for p (small-coupling for k > SMALL_COUPLING_K_MAX) has none.
    """
    grid, full, reduced, exact = law_table(
        p, default_time_grid(p.rate_slow) if grid is None else grid
    )
    times = grid.tolist()
    reports = []
    for entry in (bound for bound in _family_of(p).bounds if bound.holds(p)):
        exact_sq = entry.exact(p, (full, reduced), exact)
        bound = np.full(grid.shape, entry.value(p, grid))
        rows = zip(
            times,
            exact_sq.tolist(),
            bound.tolist(),
            bound_satisfied(exact_sq, bound).tolist(),
            (bound - exact_sq).tolist(),
        )
        reports += [BoundReport(entry.name, *row) for row in rows]
    return reports


class Bound(NamedTuple):
    """One bound a family states: ``holds(p)`` says whether it is stated for p,
    ``domain`` in words.  On the grid and laws ``(full, reduced)`` of
    ``law_table``, ``exact(p, laws, w2_sq)`` is the squared W2 it dominates
    (by default the reduction's, ``w2_sq``) and ``value(p, grid)`` the bound:
    an array on the grid, or one number for a uniform-in-time bound.
    """

    name: str
    value: Callable
    exact: Callable = lambda p, laws, w2_sq: w2_sq
    holds: Callable = lambda p: True
    domain: str = "every parameter set"


def _equilibrium_bound(side: int, rate_of: Callable) -> Bound:
    """W2(law(t), equilibrium) <= C e^{-rate t} for the retained-coordinate
    (side 0) or the reduced law (side 1), with constants rate_of(p)."""

    def exact(p, laws, w2_sq):
        eq = equilibrium_laws(p)[side]
        return _w2_sq(*laws[side], eq.mean[0], eq.variance)

    def value(p, grid):
        rates = rate_of(p)
        return (rates[side] * np.exp(-rates.rate * grid)) ** 2

    return Bound(f"equilibrium_rate_{('original', 'reduced')[side]}", value, exact)


class Family(NamedTuple):
    """One model family: its parameters, CLI flags, laws and bounds.

    ``build(**flags)`` makes the parameters from the CLI flags, the
    ``required`` ones and those ``optional`` ones that are given; every flag
    can be swept.
    ``laws(p, times)`` gives the retained-coordinate and reduced GridLaw;
    ``bounds`` are its ``Bound`` entries in report order, the uniform-in-time
    one, which ``modred sweep`` reports, first.
    """

    params: type
    build: Callable
    required: tuple[str, ...]
    optional: tuple[str, ...]
    laws: Callable
    bounds: tuple[Bound, ...]


def _coupled_laws(p: CoupledParams, times: np.ndarray) -> tuple[GridLaw, GridLaw]:
    joint = coupled_full_law(p, times)
    return GridLaw(joint.mean1, np.maximum(joint.var, 0.0)), coupled_reduced_law(p, times)


# The law functions are called by their module names (in a lambda or a
# function body), not stored, so that a wrapper installed under such a name
# (benchmarks/tracing.py) also sees the calls made through the table.
FAMILIES = {
    "oscillator": Family(
        params=OscillatorParams,
        build=OscillatorParams,
        required=("gamma", "omega", "beta"),
        optional=("x0", "v0"),
        laws=lambda p, t: (oscillator_marginal_law(p, t), oscillator_reduced_law(p, t)),
        bounds=(
            Bound("high_friction", lambda p, grid: osc_highfriction_bound(p)),
            Bound("long_time", osc_longtime_bound),
            _equilibrium_bound(0, osc_equilibrium_rate),
            _equilibrium_bound(1, osc_equilibrium_rate),
        ),
    ),
    "coupled": Family(
        params=CoupledParams,
        # the CLI's pair is the normalised one: identical oscillators, unit noise
        build=lambda a, **flags: CoupledParams(a=a, d=a, **flags),
        required=("a", "k"),
        optional=("x1", "x2"),
        laws=_coupled_laws,
        bounds=(
            Bound("small_coupling", lambda p, grid: coupled_small_k_bound(p),
                  holds=_small_coupling, domain=f"k <= {SMALL_COUPLING_K_MAX}"),
            Bound("long_time", coupled_longtime_bound),
            _equilibrium_bound(0, coupled_equilibrium_rate),
            _equilibrium_bound(1, coupled_equilibrium_rate),
        ),
    ),
}


def _family_of(p) -> Family:
    """The FAMILIES entry of the parameters p."""
    for family in FAMILIES.values():
        if type(p) is family.params:
            return family
    raise InvalidParams(f"unsupported parameter type {type(p).__name__}")
