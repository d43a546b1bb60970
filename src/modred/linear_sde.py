"""Exact Gaussian law propagation for linear drift-diffusion models.

The model is the Fokker-Planck equation d/dt rho = -div(C x rho) + div(D grad rho),
equivalently the SDE dX = C X dt + B dW with B B^T = 2 D.  A Gaussian initial
law stays Gaussian, with

    mean(t) = e^{tC} mean(0)
    cov(t)  = e^{tC} cov(0) e^{tC^T} + 2 int_0^t e^{sC} D e^{sC^T} ds.

The covariance integral has one closed form for every drift (Van Loan,
*Computing integrals involving the matrix exponential*, IEEE TAC 1978;
Higham, *Functions of Matrices*, ch. 10).  Write C = tau I + N with N
traceless, so that N^2 = delta^2 I (delta^2 < 0 for a complex eigenvalue
pair, 0 for a repeated one; N = 0 in dimension 1) and
e^{sC} = e^{tau s} (cosh(delta s) I + sinh(delta s)/delta N).  Then

    2 int_0^t e^{sC} D e^{sC^T} ds = 2 [J1 D + J2 (N D + D N^T) + J3 N D N^T]

with the scalar weights J1, J2, J3 the integrals over [0, t] of e^{2 tau s}
times cosh^2(delta s), cosh(delta s) sinh(delta s)/delta and
sinh^2(delta s)/delta^2.  They are entire functions of 2 tau t and
(2 delta t)^2, evaluated by ``_weights`` without cancellation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotHurwitz
from .gaussian import Gaussian
from .linalg2 import check_symmetric_psd, expm2, project_psd, solve_lyapunov2

# Below this ratio |2 delta t| / (1 + |2 tau t|) the divided differences in
# ``_weights`` would cancel (see there).
_DIRECT_MIN = 0.25

# Double Taylor series of the weights p and q of ``_weights`` in x and w,
# p = sum x^j w^m / (j! (2m+1)! (2m+j+2)) and
# q = sum 2 x^j w^m / (j! (2m+2)! (2m+j+3)); 20 x 10 terms reach rounding
# level for |x|, |w| <= 1.
_TAYLOR_X = np.arange(20.0)
_TAYLOR_W = np.arange(10.0)


def _taylor_table() -> np.ndarray:
    fact = np.array([math.factorial(k) for k in range(22)], dtype=float)
    j, m = np.ix_(range(_TAYLOR_X.size), range(_TAYLOR_W.size))
    return np.stack([
        1.0 / (fact[j] * fact[2 * m + 1] * (2 * m + j + 2)),
        2.0 / (fact[j] * fact[2 * m + 2] * (2 * m + j + 3)),
    ])


_TAYLOR = _taylor_table()


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Constant-coefficient linear drift-diffusion model.

    drift (C) has units 1/time, diffusion (D) units state^2/time; D must be
    symmetric PSD.  dim is 1 or 2; scalars are accepted for dim 1.
    """

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.drift, dtype=float))
        d = np.atleast_2d(np.asarray(self.diffusion, dtype=float))
        if c.shape not in ((1, 1), (2, 2)) or d.shape != c.shape:
            raise InvalidParams(
                f"drift/diffusion must both be 1x1 or 2x2, got {c.shape}, {d.shape}"
            )
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d))):
            raise InvalidParams("drift and diffusion must be finite")
        check_symmetric_psd(d, "diffusion matrix")
        object.__setattr__(self, "drift", c)
        object.__setattr__(self, "diffusion", d)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


def _expm(c: np.ndarray) -> np.ndarray:
    if c.shape == (1, 1):
        return np.array([[math.exp(c[0, 0])]])
    return expm2(c)


def _phi1(z: float) -> float:
    """(e^z - 1)/z = int_0^1 e^{zs} ds, exact 1 at z = 0."""
    return math.expm1(z) / z if z != 0.0 else 1.0


def _sinhc(w: float) -> float:
    """sinh(y)/y with y^2 = w, continued to sin(|y|)/|y| for w < 0."""
    if w > 0.0:
        y = math.sqrt(w)
        return math.sinh(y) / y
    if w < 0.0:
        y = math.sqrt(-w)
        return math.sin(y) / y
    return 1.0


def _weights(x: float, w: float, v: float) -> tuple[float, float, float]:
    """phi1(x), p and q, where with y^2 = w (y imaginary for w < 0)

        p = int_0^1 e^{xs} sinh(ys)/y ds,  q = int_0^1 e^{xs} 2 (cosh(ys) - 1)/y^2 ds.

    Both are entire in x and w.  ``v`` = x^2 - w = (x + y)(x - y) is passed
    in, computed by the caller without the cancellation of x^2 - w when
    x + y is small next to x.  Each weight is evaluated by the one of three
    exact forms that does not cancel at (x, w):

    * |x|, |w| <= 1: the double Taylor series ``_TAYLOR``;
    * |y| >= ``_DIRECT_MIN`` (1 + |x|): divided differences of phi1 at
      x - y, x, x + y (complex for w < 0), which cancel as y -> 0;
    * otherwise (|x| > 1, nearly equal eigenvalues): integration by parts,
      whose denominators x and x^2 - w are then bounded away from 0.

    Against 100-digit arithmetic, for |x| from 1e-10 to 700 and |w| from
    1e-20 to 1e6, the error is below 2e-15 of each integral taken with
    |sinh|, |cosh - 1| in place of sinh, cosh - 1 (beyond the eps |x| that
    rounding x itself costs).
    """
    f0 = _phi1(x)
    if abs(x) <= 1.0 and abs(w) <= 1.0:
        p, q = (_TAYLOR @ w**_TAYLOR_W) @ x**_TAYLOR_X
        return f0, float(p), float(q)
    if abs(w) >= (_DIRECT_MIN * (1.0 + abs(x))) ** 2:
        if w > 0.0:
            y = math.sqrt(w)
            far = x + math.copysign(y, x)
            f_far, f_near = _phi1(far), _phi1(v / far)
            f_hi, f_lo = (f_far, f_near) if far > 0.0 else (f_near, f_far)
            return f0, (f_hi - f_lo) / (2.0 * y), (f_hi + f_lo - 2.0 * f0) / w
        y = math.sqrt(-w)
        z = complex(x, y)
        fz = (cmath.exp(z) - 1.0) / z
        return f0, fz.imag / y, 2.0 * (fz.real - f0) / w
    shc = _sinhc(w)
    half = 0.5 * _sinhc(0.25 * w) ** 2  # (cosh(y) - 1)/y^2
    ex = math.exp(x)
    p = (1.0 - ex * (1.0 + w * half - x * shc)) / v
    q = 2.0 * (ex * (x * x * half - x * shc + 1.0) - 1.0) / (x * v)
    return f0, p, q


def _cov_integral(c: np.ndarray, d: np.ndarray, t: float) -> np.ndarray:
    """2 int_0^t e^{sC} D e^{sC^T} ds by the split C = tau I + N."""
    dim = c.shape[0]
    tau = float(np.trace(c)) / dim
    n = c - tau * np.eye(dim)
    delta_sq = float((n @ n)[0, 0])  # N^2 = delta^2 I
    # the eigenvalue product tau^2 - delta^2, from the entries so that it
    # does not cancel when one eigenvalue is much smaller than the other
    eig_prod = tau * tau if dim == 1 else float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
    x, w, v = 2.0 * tau * t, 4.0 * delta_sq * t * t, 4.0 * eig_prod * t * t
    f0, p, q = _weights(x, w, v)
    # J1 = t (f0 + w q / 4), J2 = t^2 p, J3 = t^3 q
    nd = n @ d
    return (2.0 * t) * (
        (f0 + 0.25 * w * q) * d + (t * p) * (nd + nd.T) + (t * t * q) * (nd @ n.T)
    )


def propagate_law(model: LinearModel, init: Gaussian, t: float) -> Gaussian:
    """Law of the model at time t >= 0 started from the Gaussian ``init``.

    Exact up to rounding for every drift, by the closed form of the module
    docstring; the covariance is projected onto the PSD cone.
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t < 0.0:
        raise InvalidParams("t must be finite and non-negative")
    if init.dim != model.dim:
        raise InvalidParams("initial law dimension does not match the model")
    c, d = model.drift, model.diffusion
    t = float(t)
    transfer = _expm(t * c)
    mean = transfer @ init.mean
    cov = transfer @ init.cov @ transfer.T
    if t > 0.0:
        cov = project_psd(cov + _cov_integral(c, d, t))
    return Gaussian(mean=mean, cov=cov)


def stationary_law(model: LinearModel) -> Gaussian:
    """Stationary Gaussian law N(0, S) with C S + S C^T + 2 D = 0."""
    if model.dim == 1:
        c = model.drift[0, 0]
        if c >= 0.0:
            raise NotHurwitz("drift must be negative for a stationary law")
        cov = -model.diffusion[0, 0] / c
        return Gaussian(mean=0.0, cov=cov)
    cov = solve_lyapunov2(model.drift, model.diffusion)
    return Gaussian(mean=np.zeros(2), cov=project_psd(cov))
