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

``propagate_law`` reads the entries of C, D and the initial law once and
evaluates e^{tC} (``linalg2._expm2_entries``), e^{tC} cov(0) e^{tC^T}, N D,
N D N^T and the weighted sum above in float arithmetic; only the returned
mean and covariance are arrays.  A law that overflows raises NonFinite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonFinite, NotHurwitz
from .gaussian import Gaussian
from .linalg2 import _expm2_entries, _lyapunov2_entries, _psd_entries, check_symmetric_psd

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


def propagate_law(model: LinearModel, init: Gaussian, t: float) -> Gaussian:
    """Law of the model at time t >= 0 started from the Gaussian ``init``.

    Exact up to rounding for every drift, by the closed form of the module
    docstring, evaluated in float arithmetic on the matrix entries; for
    t > 0 a 2x2 covariance is projected onto the PSD cone (a variance is a
    sum of non-negative terms).  Raises NonFinite when the law overflows
    (an unstable drift at a long time).
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t < 0.0:
        raise InvalidParams("t must be finite and non-negative")
    dim = model.drift.shape[0]
    if init.mean.size != dim:
        raise InvalidParams("initial law dimension does not match the model")
    t = float(t)
    try:
        mean, cov = (_propagate1 if dim == 1 else _propagate2)(model, init, t)
        finite = all(map(math.isfinite, mean)) and all(map(math.isfinite, cov))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFinite(f"the propagated law overflows at t = {t!r}")
    if dim == 1:
        return Gaussian._trusted(np.array(mean), np.array([cov]))
    c11, c12, c22 = _psd_entries(*cov) if t > 0.0 else cov
    return Gaussian._trusted(np.array(mean), np.array([[c11, c12], [c12, c22]]))


def _propagate1(model: LinearModel, init: Gaussian, t: float) -> tuple[list, list]:
    """Mean and variance of a 1x1 model at t, where N = 0 leaves J1 = t phi1(2ct)."""
    ((c,),), ((d,),) = model.drift.tolist(), model.diffusion.tolist()
    (m,), ((s,),) = init.mean.tolist(), init.cov.tolist()
    e = math.exp(t * c)
    var = e * s * e
    if t > 0.0:
        var += (2.0 * t) * (_phi1(2.0 * c * t) * d)
    return [e * m], [var]


def _propagate2(model: LinearModel, init: Gaussian, t: float) -> tuple[list, list]:
    """Mean and the entries (11, 12, 22) of the covariance of a 2x2 model at t."""
    (c11, c12), (c21, c22) = model.drift.tolist()
    (d11, d12), (d21, d22) = model.diffusion.tolist()
    m1, m2 = init.mean.tolist()
    (s11, s12), (s21, s22) = init.cov.tolist()
    d12, s12 = 0.5 * (d12 + d21), 0.5 * (s12 + s21)
    e11, e12, e21, e22 = _expm2_entries(t * c11, t * c12, t * c21, t * c22)
    mean = [e11 * m1 + e12 * m2, e21 * m1 + e22 * m2]
    # E S0 E^T
    a11, a12 = e11 * s11 + e12 * s12, e11 * s12 + e12 * s22
    a21, a22 = e21 * s11 + e22 * s12, e21 * s12 + e22 * s22
    v11, v12, v22 = a11 * e11 + a12 * e12, a11 * e21 + a12 * e22, a21 * e21 + a22 * e22
    if t == 0.0:
        return mean, [v11, v12, v22]
    # the covariance integral by the split C = tau I + N
    tau = 0.5 * (c11 + c22)
    n11, n22 = c11 - tau, c22 - tau
    delta_sq = n11 * n11 + c12 * c21  # N^2 = delta^2 I
    # the eigenvalue product tau^2 - delta^2, from the entries so that it
    # does not cancel when one eigenvalue is much smaller than the other
    eig_prod = c11 * c22 - c12 * c21
    x, w, v = 2.0 * tau * t, 4.0 * delta_sq * t * t, 4.0 * eig_prod * t * t
    f0, p, q = _weights(x, w, v)
    # J1, J2 and J3 over t; the factor 2t is applied last
    j1, j2, j3 = f0 + 0.25 * w * q, t * p, t * t * q
    # N D and N D N^T
    nd11, nd12 = n11 * d11 + c12 * d12, n11 * d12 + c12 * d22
    nd21, nd22 = c21 * d11 + n22 * d12, c21 * d12 + n22 * d22
    q11, q12, q22 = nd11 * n11 + nd12 * c12, nd11 * c21 + nd12 * n22, nd21 * c21 + nd22 * n22
    h = 2.0 * t
    return mean, [
        v11 + h * (j1 * d11 + j2 * (2.0 * nd11) + j3 * q11),
        v12 + h * (j1 * d12 + j2 * (nd12 + nd21) + j3 * q12),
        v22 + h * (j1 * d22 + j2 * (2.0 * nd22) + j3 * q22),
    ]


def stationary_law(model: LinearModel) -> Gaussian:
    """Stationary Gaussian law N(0, S) with C S + S C^T + 2 D = 0.

    A 2x2 S comes from the closed form of ``linalg2._lyapunov2_entries`` in
    float arithmetic, with its errors (NotHurwitz, Singular), projected onto
    the PSD cone (``linalg2._psd_entries``).
    """
    if model.dim == 1:
        ((c,),), ((d,),) = model.drift.tolist(), model.diffusion.tolist()
        if c >= 0.0:
            raise NotHurwitz("drift must be negative for a stationary law")
        cov = -d / c
        if not math.isfinite(cov):
            raise NonFinite("the stationary variance overflows")
        return Gaussian._trusted(np.zeros(1), np.array([[cov]]))
    (c11, c12), (c21, c22) = model.drift.tolist()
    (d11, d12), (d21, d22) = model.diffusion.tolist()
    s11, s12, s22 = _psd_entries(*_lyapunov2_entries(c11, c12, c21, c22, d11, d12, d21, d22))
    return Gaussian._trusted(np.zeros(2), np.array([[s11, s12], [s12, s22]]))
