"""Gaussian laws of linear SDEs computed apart from modred.

The process is dX = C X dt + B dW with B B^T = 2 D, started from a point.
Its law at time t is N(Phi(t) m0, Q(t)) with Phi(t) = e^{tC} and
Q(t) = int_0^t e^{sC} 2D e^{sC^T} ds.  Following Van Loan, "Computing
integrals involving the matrix exponential" (IEEE TAC 1978), the
exponential of the block matrix [[-C, 2D], [0, C^T]] h gives Phi(h) and Q(h)
for a short step h = t / 2^n; n doublings

    Q(2h) = Q(h) + Phi(h) Q(h) Phi(h)^T,   Phi(2h) = Phi(h)^2

then reach t.  The block exponential alone would overflow at long horizons
of stiff drifts, because its -C block grows like e^{|lambda_fast| t}; the
short step keeps ||C h|| <= 2, where a Taylor series of TAYLOR_TERMS terms
is exact to rounding and can be evaluated for a whole time grid at once
(``scipy.linalg.expm`` gives the same to rounding, as the tests check, but
loops over the matrices in Python).  Stationary covariances come from
``scipy.linalg.solve_continuous_lyapunov``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# Largest ||C h|| (1- and inf-norm) of the short step before doubling.  Each
# doubling adds rounding error, so the step is as long as the series allows.
STEP_NORM = 2.0
# 2^31 / 31! < 1e-24: the series is exact to rounding on the short step.
TAYLOR_TERMS = 30


def block_expm(m: np.ndarray) -> np.ndarray:
    """exp of a batch of block upper-triangular matrices [[-Ch, 2Dh], [0, C^T h]].

    The diagonal blocks have norm <= STEP_NORM; the off-diagonal block only
    scales the result, so the same terms suffice whatever its size.
    """
    result = np.eye(m.shape[-1]) + m
    term = m
    for k in range(2, TAYLOR_TERMS + 1):
        term = term @ m / k
        result = result + term
    return result


def gaussian_laws(drift, diffusion, m0, times, extra_doublings: int = 0):
    """Means (len(times), n) and covariances (len(times), n, n) at ``times``.

    Each time gets the fewest doublings that bring ||C h|| to STEP_NORM:
    a shorter step would leave Q(h) far below the unit-size blocks of the
    exponential and so lose its relative accuracy.  ``extra_doublings``
    halves every step further; the result must not depend on it.
    """
    c = np.atleast_2d(np.asarray(drift, dtype=float))
    d = np.atleast_2d(np.asarray(diffusion, dtype=float))
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = c.shape[0]
    reach = max(np.linalg.norm(c, 1), np.linalg.norm(c, np.inf)) * times / STEP_NORM
    doublings = np.ceil(np.log2(np.maximum(reach, 1.0))).astype(int) + extra_doublings
    h = times / 2.0**doublings
    block = np.zeros((times.size, 2 * n, 2 * n))
    block[:, :n, :n] = -c
    block[:, :n, n:] = 2.0 * d
    block[:, n:, n:] = c.T
    block *= h[:, None, None]
    expo = block_expm(block)
    phi = np.swapaxes(expo[:, n:, n:], 1, 2)
    q = phi @ expo[:, :n, n:]
    for k in range(int(doublings.max(initial=0))):
        more = doublings > k
        p = phi[more]
        q[more] = q[more] + p @ q[more] @ np.swapaxes(p, 1, 2)
        phi[more] = p @ p
    q = 0.5 * (q + np.swapaxes(q, 1, 2))
    return phi @ m0, q


def stationary_cov(drift, diffusion) -> np.ndarray:
    """S with C S + S C^T + 2 D = 0."""
    c = np.atleast_2d(np.asarray(drift, dtype=float))
    d = np.atleast_2d(np.asarray(diffusion, dtype=float))
    return scipy.linalg.solve_continuous_lyapunov(c, -2.0 * d)


def drift_rates(drift) -> tuple[float, float]:
    """Slow and fast relaxation rates -lambda of a drift with real spectrum.

    ``numpy.linalg.eigvals`` gives the fast eigenvalue to full relative
    precision but the slow one only to eps * |fast|; the slow one is
    therefore taken from the product of the eigenvalues, det C.
    """
    c = np.atleast_2d(np.asarray(drift, dtype=float))
    if c.shape == (1, 1):
        return (-c[0, 0], -c[0, 0])
    fast = float(np.min(np.linalg.eigvals(c).real))
    return (-float(np.linalg.det(c)) / fast, -fast)


def w2_sq_1d(mean1, var1, mean2, var2):
    """Squared W2 between univariate Gaussians, elementwise."""
    ds = np.sqrt(np.maximum(var1, 0.0)) - np.sqrt(np.maximum(var2, 0.0))
    dm = np.asarray(mean1) - np.asarray(mean2)
    return dm * dm + ds * ds


def retained_and_reduced(drift, diffusion, m0, times) -> dict:
    """Reference laws of the retained coordinate and of its reduced OU model.

    The reduced model has the slow drift eigenvalue as its drift and the
    noise that reproduces the retained stationary variance (the
    fluctuation-dissipation calibration); its law is the scalar OU closed
    form, which ``gaussian_laws`` reproduces (see the tests).  Returns arrays
    over ``times`` and the retained stationary variance ``var_inf``.
    """
    times = np.asarray(times, dtype=float)
    mean, cov = gaussian_laws(drift, diffusion, m0, times)
    var_inf = float(stationary_cov(drift, diffusion)[0, 0])
    slow = -drift_rates(drift)[0]
    return {
        "mean_full": mean[:, 0],
        "var_full": cov[:, 0, 0],
        "mean_reduced": np.exp(slow * times) * m0[0],
        "var_reduced": -var_inf * np.expm1(2.0 * slow * times),
        "var_inf": var_inf,
    }


def default_grid(rate: float, n_points: int = 60) -> np.ndarray:
    """Linear on [0, 2/rate], then geometric out to 20/rate."""
    n_lin = n_points // 2
    linear = np.linspace(0.0, 2.0 / rate, n_lin)
    geometric = np.geomspace(2.0 / rate, 20.0 / rate, n_points - n_lin + 1)[1:]
    return np.concatenate([linear, geometric])


def two_scale_grid(drift) -> np.ndarray:
    """The CLI's default grid: union of the slow-rate and fast-rate grids."""
    slow, fast = drift_rates(drift)
    return np.union1d(default_grid(slow), default_grid(fast))
