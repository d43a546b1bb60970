"""Closed-form time-dependent Gaussian laws for both model families.

These are independent of the generic propagator in :mod:`modred.linear_sde`
and serve as analytic references.  All exponential differences are grouped
as expm1 terms so deterministic initial data give exact point masses at t=0.

The law functions take a single time or a whole 1-D time grid: on a grid
they return the moments as numpy arrays (GridLaw, GridJointLaw), and a
single time is the one-point grid [t], so a law at t is the same float
either way.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, Unsupported
from .gaussian import Gaussian, marginal
from .linear_sde import stationary_law
from .reduction import (
    CoupledParams,
    OscillatorParams,
    reduce_coupled,
    reduce_oscillator,
)


def _check_time(t) -> np.ndarray:
    """The time t, or the 1-D array of times t, as a checked 1-D float array.

    A single time becomes the one-point grid [t], on which the kernels run, so
    a law at t is the same float whether it comes from a grid or a one-point
    call.
    """
    if np.ndim(t) == 0:
        if not (isinstance(t, (int, float)) and math.isfinite(t)) or t < 0.0:
            raise InvalidParams("t must be finite and non-negative")
        return np.array([float(t)])
    times = np.asarray(t, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0.0):
        raise InvalidParams("times must be a finite, non-negative 1-D array")
    return times


def _require_normalized(p: CoupledParams):
    if not p.is_normalized:
        raise Unsupported(
            "closed form needs identical oscillators (a == d) with unit noise; "
            "use propagate_law for the general case"
        )


class GridLaw(NamedTuple):
    """Means and variances of a univariate Gaussian law on a time grid."""

    mean: np.ndarray
    var: np.ndarray


class GridJointLaw(NamedTuple):
    """Moments of (x1(t), x2(t)) on a time grid; both coordinates share var."""

    mean1: np.ndarray
    mean2: np.ndarray
    var: np.ndarray
    cov: np.ndarray


def _univariate(t, law: GridLaw):
    """The Gaussian at the single time t, or the GridLaw on an array of times t."""
    return law if np.ndim(t) else Gaussian(mean=law.mean, cov=law.var)


def oscillator_full_law(p: OscillatorParams, t: float) -> Gaussian:
    """Joint law of (x(t), v(t)) for the underdamped oscillator.

    Mean and covariance are explicit in the relaxation rates
    lam1 = rate_fast, lam2 = rate_slow:

        m_x = [lam1 e^{-lam2 t} - lam2 e^{-lam1 t}] x0 / (lam1-lam2)
              + [e^{-lam2 t} - e^{-lam1 t}] v0 / (lam1-lam2)
        m_v = omega^2 [e^{-lam1 t} - e^{-lam2 t}] x0 / (lam1-lam2)
              + [lam1 e^{-lam1 t} - lam2 e^{-lam2 t}] v0 / (lam1-lam2)

    with covariance entries (gamma/beta)/(lam1-lam2)^2 times

        s_xx: (1-e^{-2 lam1 t})/lam1 + (1-e^{-2 lam2 t})/lam2
              - (4/gamma)(1-e^{-gamma t})
        s_xv: (e^{-lam1 t} - e^{-lam2 t})^2
        s_vv: lam1 (1-e^{-2 lam1 t}) + lam2 (1-e^{-2 lam2 t})
              - (4 omega^2/gamma)(1-e^{-gamma t}).

    Unlike the other law functions it takes a single time only.
    """
    if np.ndim(t):
        raise InvalidParams("oscillator_full_law takes a single time t")
    _check_time(t)
    lam1, lam2 = p.rate_fast, p.rate_slow
    gap = p.rate_gap
    e_fast = math.exp(-lam1 * t)
    e_slow = math.exp(-lam2 * t)
    m_x = ((lam1 * e_slow - lam2 * e_fast) * p.x0 + (e_slow - e_fast) * p.v0) / gap
    m_v = (
        p.omega**2 * (e_fast - e_slow) * p.x0
        + (lam1 * e_fast - lam2 * e_slow) * p.v0
    ) / gap
    pref = p.gamma / (p.beta * gap**2)
    s_xx = pref * (
        -math.expm1(-2.0 * lam1 * t) / lam1
        - math.expm1(-2.0 * lam2 * t) / lam2
        + 4.0 * math.expm1(-p.gamma * t) / p.gamma
    )
    s_xv = pref * (e_fast - e_slow) ** 2
    s_vv = pref * (
        -lam1 * math.expm1(-2.0 * lam1 * t)
        - lam2 * math.expm1(-2.0 * lam2 * t)
        + 4.0 * p.omega**2 * math.expm1(-p.gamma * t) / p.gamma
    )
    cov = np.array([[max(s_xx, 0.0), s_xv], [s_xv, max(s_vv, 0.0)]])
    return Gaussian(mean=np.array([m_x, m_v]), cov=cov)


def oscillator_marginal_law(p: OscillatorParams, t):
    """Law of x(t): a Gaussian at a time t, a GridLaw on a 1-D array of times t.

    Written in the slow-relaxation form
    m(t) = e^{-lam2 t} x0 + [(e^{-lam2 t} - e^{-lam1 t})/(lam1-lam2)]
    (lam2 x0 + v0), with the variance as the stationary value scaled by
    gamma^2/(gamma^2 - 4 omega^2) minus fast corrections; this is a different
    evaluation route from oscillator_full_law on purpose.
    """
    times = _check_time(t)
    lam1, lam2 = p.rate_fast, p.rate_slow
    gap = p.rate_gap
    e_fast = np.exp(-lam1 * times)
    e_slow = np.exp(-lam2 * times)
    em_slow = np.expm1(-2.0 * lam2 * times)
    mean = e_slow * p.x0 + (e_slow - e_fast) / gap * (lam2 * p.x0 + p.v0)
    var = -(p.gamma**2 / (p.beta * p.omega**2 * gap**2)) * em_slow + (
        p.gamma / (p.beta * gap**2)
    ) * (
        4.0 * np.expm1(-p.gamma * times) / p.gamma
        - (np.expm1(-2.0 * lam1 * times) - em_slow) / lam1
    )
    return _univariate(t, GridLaw(mean, np.maximum(var, 0.0)))


def oscillator_reduced_law(p: OscillatorParams, t):
    """Law of the reduced OU process, N(e^{-lam2 t} x0, (1-e^{-2 lam2 t})/(beta omega^2)):
    a Gaussian at a time t, a GridLaw on a 1-D array of times t."""
    times = _check_time(t)
    lam2 = p.rate_slow
    mean = np.exp(-lam2 * times) * p.x0
    var = -np.expm1(-2.0 * lam2 * times) / (p.omega**2 * p.beta)
    return _univariate(t, GridLaw(mean, var))


def coupled_full_law(p: CoupledParams, t):
    """Joint law of (x1(t), x2(t)) for identical unit-noise oscillators: a
    Gaussian at a time t, a GridJointLaw on a 1-D array of times t.

    The drift matrix has eigenvalues a (symmetric mode) and a - 2k
    (difference mode), so the transfer matrix is
    (1/2) [[f+g, g-f], [g-f, f+g]] with f = e^{(a-2k)t}, g = e^{at}, and the
    covariance integrates the mode exponentials entrywise.
    """
    _require_normalized(p)
    times = _check_time(t)
    a, k = p.a, p.k
    e_diff = np.exp((a - 2.0 * k) * times)
    e_sym = np.exp(a * times)
    int_diff = np.expm1(2.0 * (a - 2.0 * k) * times) / (a - 2.0 * k)
    int_sym = np.expm1(2.0 * a * times) / a
    law = GridJointLaw(
        mean1=0.5 * ((e_diff + e_sym) * p.x1 + (e_sym - e_diff) * p.x2),
        mean2=0.5 * ((e_sym - e_diff) * p.x1 + (e_diff + e_sym) * p.x2),
        var=0.5 * (int_diff + int_sym),
        cov=0.5 * (int_sym - int_diff),
    )
    if np.ndim(t):
        return law
    mean1, mean2, var, cov = (m[0] for m in law)
    return Gaussian(mean=np.array([mean1, mean2]), cov=np.array([[var, cov], [cov, var]]))


def coupled_reduced_law(p: CoupledParams, t):
    """Reduced law N(e^{at} x1, S11 (1 - e^{2at})), S11 = -(1/(a-2k) + 1/a)/2:
    a Gaussian at a time t, a GridLaw on a 1-D array of times t."""
    _require_normalized(p)
    times = _check_time(t)
    a = p.a
    var_inf = -0.5 * (1.0 / (a - 2.0 * p.k) + 1.0 / a)
    mean = np.exp(a * times) * p.x1
    var = var_inf * -np.expm1(2.0 * a * times)
    return _univariate(t, GridLaw(mean, var))


def grid_laws(p, t: np.ndarray) -> tuple[GridLaw, GridLaw]:
    """Retained-coordinate and reduced laws of either model family on the grid t."""
    if isinstance(p, OscillatorParams):
        return oscillator_marginal_law(p, t), oscillator_reduced_law(p, t)
    if isinstance(p, CoupledParams):
        joint = coupled_full_law(p, t)
        return GridLaw(joint.mean1, np.maximum(joint.var, 0.0)), coupled_reduced_law(p, t)
    raise InvalidParams(f"unsupported parameter type {type(p).__name__}")


def equilibrium_laws(p) -> tuple[Gaussian, Gaussian]:
    """Equilibria of the original (retained coordinate) and reduced dynamics.

    The original equilibrium is computed through the stationary covariance of
    the full linear model, the reduced one from the calibrated OU model; the
    two must coincide.
    """
    if isinstance(p, OscillatorParams):
        full = stationary_law(p.to_linear_model())
        reduced = reduce_oscillator(p)
    elif isinstance(p, CoupledParams):
        full = stationary_law(p.to_linear_model())
        reduced = reduce_coupled(p)
    else:
        raise InvalidParams(f"unsupported parameter type {type(p).__name__}")
    original_eq = marginal(full, 1)
    reduced_eq = Gaussian(mean=0.0, cov=reduced.stationary_variance)
    return (original_eq, reduced_eq)
