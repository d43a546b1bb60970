"""Closed-form linear algebra for real 2x2 matrices.

Everything here is exact up to rounding: matrix exponential, SPD square
root, eigenvalues and the stationary covariance (the solution of the
Lyapunov equation C S + S C^T + 2 D = 0), all via 2x2 closed forms, and the
projection onto the PSD cone.

There is one numeric layer.  Each formula lives once, in a private
``_*_entries`` kernel that takes and returns the entries as Python floats
and scales them by powers of 2 where a product could under- or overflow.
The public functions take plain (2, 2) float arrays (``project_psd`` also
(1, 1) ones); they validate, call the kernel and wrap its result.  Callers
that already hold the entries as floats call the kernels directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotHurwitz, NotSPD, Singular

# Relative tolerance for symmetry / positivity checks on covariance-like input.
SYM_TOL = 1e-12

# Relative margin above which ``_psd_entries`` trusts the closed-form smallest
# eigenvalue of a symmetric matrix to be positive, far above its rounding.
_PSD_MARGIN = 1e-12


@dataclass(frozen=True)
class ComplexPair:
    """Conjugate eigenvalue pair ``real +/- imag*i`` with ``imag > 0``."""

    real: float
    imag: float


def _as_mat2(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.shape != (2, 2):
        raise InvalidParams(f"{name} must have shape (2, 2), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParams(f"{name} must have finite entries")
    return a


def expm2(m) -> np.ndarray:
    """Matrix exponential of a real 2x2 matrix.

    Let s = (a-d)^2 + 4bc be the discriminant of [[a, b], [c, d]].  For
    s > 0 the entries are hyperbolic combinations of e^{(a+d)/2 +- sqrt(s)/2}
    (the two eigenvalue exponentials, which keeps large negative spectra
    overflow-free); for s < 0 the same formula continued with cos/sin; for
    s = 0 the repeated-eigenvalue form e^{(a+d)/2} (I + M - ((a+d)/2) I).
    """
    (a, b), (c, d) = _as_mat2(m).tolist()
    e11, e12, e21, e22 = _expm2_entries(a, b, c, d)
    return np.array([[e11, e12], [e21, e22]])


def _expm2_entries(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """The entries of ``expm2([[a, b], [c, d]])``, row by row, in float arithmetic.

    Raises OverflowError where an exponential overflows.
    """
    half_tr = 0.5 * (a + d)
    s = (a - d) ** 2 + 4.0 * b * c
    if s > 0.0:
        delta = math.sqrt(s)
        if delta < 1.0:
            # cancellation-free for nearly-degenerate spectra; ch and sh are
            # even in delta, so the rounding of s, which moves a tiny delta
            # by up to sqrt(eps), does not reach them
            e_minus = math.exp(half_tr - 0.5 * delta)
            growth = math.expm1(delta)
            ch = e_minus * (1.0 + 0.5 * growth)
            sh = 0.5 * e_minus * growth / delta
        else:
            # the eigenvalues half_tr +- delta/2: the one nearer 0 as det C
            # over the other, which does not cancel when it is much the smaller
            lam_far = half_tr + math.copysign(0.5 * delta, half_tr)
            e_far = math.exp(lam_far)
            e_near = math.exp((a * d - b * c) / lam_far)
            e_plus, e_minus = (e_near, e_far) if lam_far < 0.0 else (e_far, e_near)
            ch = 0.5 * (e_plus + e_minus)
            sh = 0.5 * (e_plus - e_minus) / delta
    elif s < 0.0:
        theta = math.sqrt(-s)
        scale = math.exp(half_tr)
        ch = scale * math.cos(0.5 * theta)
        sh = scale * math.sin(0.5 * theta) / theta
    else:
        scale = math.exp(half_tr)
        ch = scale
        sh = 0.5 * scale
    return ch + (a - d) * sh, 2.0 * b * sh, 2.0 * c * sh, ch + (d - a) * sh


def eig2(m) -> "tuple[float, float] | ComplexPair":
    """Eigenvalues of a real 2x2 matrix.

    Returns the pair ordered descending when both are real, otherwise a
    :class:`ComplexPair` describing the conjugate pair.
    """
    hi, lo, imag = _eig2_entries(*_as_mat2(m).ravel().tolist())
    return ComplexPair(real=hi, imag=imag) if imag > 0.0 else (hi, lo)


def _eig2_entries(a: float, b: float, c: float, d: float) -> tuple[float, float, float]:
    """Eigenvalues of [[a, b], [c, d]] as (hi, lo, imag), in float arithmetic.

    Real eigenvalues are hi >= lo with imag = 0, a conjugate pair is
    hi +- imag i with hi = lo and imag > 0:
    (a + d)/2 +- sqrt((a - d)^2 + 4bc)/2.  Outside 2^-400 to 2^400, where
    the squares could under- or overflow, the entries are first scaled by a
    power of 2 to a largest magnitude in [1/2, 1) and the results scaled
    back.  nan for a non-finite entry.
    """
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if not 2.0**-400 < scale < 2.0**400:
        if not 0.0 < scale < math.inf:
            return (0.0, 0.0, 0.0) if scale == 0.0 else (math.nan, math.nan, math.nan)
        k = math.frexp(scale)[1]
        scaled = _eig2_entries(*(math.ldexp(x, -k) for x in (a, b, c, d)))
        return tuple(_ldexp(x, k) for x in scaled)
    half_tr = 0.5 * (a + d)
    s = (a - d) ** 2 + 4.0 * b * c
    if s < 0.0:
        return half_tr, half_tr, 0.5 * math.sqrt(-s)
    half_gap = 0.5 * math.sqrt(s)
    return half_tr + half_gap, half_tr - half_gap, 0.0


def _ldexp(x: float, k: int) -> float:
    """x 2^k, and +-inf where that exceeds the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def spectral_abscissa(m) -> float:
    """Largest real part of the spectrum."""
    return _eig2_entries(*_as_mat2(m).ravel().tolist())[0]


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus."""
    hi, lo, imag = _eig2_entries(*_as_mat2(m).ravel().tolist())
    return max(math.hypot(hi, imag), abs(lo))


def is_hurwitz(m) -> bool:
    return spectral_abscissa(m) < 0.0


def check_symmetric_psd(m: np.ndarray, name: str) -> float:
    """Smallest eigenvalue of the symmetrized 1x1 or 2x2 matrix m.

    Raises NotSPD unless m is symmetric and PSD within SYM_TOL of its largest
    entry.  The eigenvalue is that of the symmetrized matrix, which is real
    even where a rounding-level asymmetry gives m itself a complex pair.
    """
    scale = float(np.max(np.abs(m)))
    if m.shape == (1, 1):
        low = float(m[0, 0])
    else:
        (a, b), (c, d) = m.tolist()
        if abs(b - c) > SYM_TOL * scale:
            raise NotSPD(f"{name} is not symmetric within tolerance")
        off = 0.5 * b + 0.5 * c
        low = _eig2_entries(a, off, off, d)[1]
    if low < -SYM_TOL * scale:
        raise NotSPD(f"{name} has a negative eigenvalue beyond tolerance")
    return low


def _psd_entries(a: float, off: float, d: float) -> tuple[float, float, float]:
    """Entries (11, 12, 22) of the symmetric [[a, off], [off, d]] with its
    negative eigenvalues clipped to zero.

    The entries come back as they are when no eigenvalue is negative.
    LAPACK's ``eigh`` is skipped when the closed-form smallest eigenvalue
    exceeds ``_PSD_MARGIN`` of the largest entry: both evaluations err by a
    few eps of the largest entry, so ``eigh`` would find no negative
    eigenvalue either.
    """
    if _eig2_entries(a, off, off, d)[1] > _PSD_MARGIN * max(abs(a), abs(off), abs(d)):
        return a, off, d
    w, vecs = np.linalg.eigh(np.array([[a, off], [off, d]]))
    if w[0] >= 0.0:
        return a, off, d
    # the product is symmetric only up to rounding: its upper entry is kept
    (p11, p12), (_, p22) = ((vecs * np.clip(w, 0.0, None)) @ vecs.T).tolist()
    return p11, p12, p22


def project_psd(m: np.ndarray) -> np.ndarray:
    """Symmetrize a 1x1 or 2x2 matrix and clip negative eigenvalues to zero,
    by ``_psd_entries``.

    The result is exactly symmetric, and an exactly symmetric PSD input comes
    back bit for bit.
    """
    sym = 0.5 * (m + m.T)
    if sym.shape == (1, 1):
        return np.maximum(sym, 0.0)
    (a, b), (_, d) = sym.tolist()
    p11, p12, p22 = _psd_entries(a, b, d)
    return np.array([[p11, p12], [p12, p22]])


def sqrtm_spd2(m) -> np.ndarray:
    """Unique SPD square root of a symmetric PSD 2x2 matrix, by ``_sqrtm2_entries``.

    Raises NotSPD unless m is symmetric and PSD within SYM_TOL of its largest
    entry.
    """
    m = _as_mat2(m)
    check_symmetric_psd(m, "matrix")
    (a, b), (c, d) = m.tolist()
    r11, r12, r22 = _sqrtm2_entries(a, 0.5 * b + 0.5 * c, d)
    return np.array([[r11, r12], [r12, r22]])


def _sqrtm2_entries(a: float, off: float, d: float) -> tuple[float, float, float]:
    """Entries (11, 12, 22) of the PSD square root of the symmetric PSD
    M = [[a, off], [off, d]], in float arithmetic.

    Closed form (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)); the zero
    matrix maps to zero.  Outside 2^-400 to 2^400, where det M could under-
    or overflow, the entries are first scaled by an even power of 2, whose
    root is exact.  A rounding-level negative eigenvalue is clipped to zero
    by ``_psd_entries``.
    """
    scale = max(abs(a), abs(off), abs(d))
    if 0.0 < scale < 2.0**-400 or 2.0**400 < scale < math.inf:
        half = math.frexp(scale)[1] // 2
        root = _sqrtm2_entries(*(math.ldexp(x, -2 * half) for x in (a, off, d)))
        return tuple(math.ldexp(x, half) for x in root)
    if _eig2_entries(a, off, off, d)[1] < 0.0:
        a, off, d = _psd_entries(a, off, d)
    root_det = math.sqrt(max(a * d - off * off, 0.0))
    denom = math.sqrt(a + d + 2.0 * root_det)
    if denom == 0.0:
        return 0.0, 0.0, 0.0
    return (a + root_det) / denom, off / denom, (d + root_det) / denom


def solve_lyapunov2(c, d) -> np.ndarray:
    """Stationary covariance of a linear diffusion with drift C, diffusion D.

    The solution S of C S + S C^T + 2 D = 0, by the closed form of
    ``_lyapunov2_entries``; it is exactly symmetric.  C must be Hurwitz
    (else NotHurwitz) and D symmetric PSD (else NotSPD).  Raises Singular
    when S overflows, or when C passes ``is_hurwitz`` but its determinant
    (or its product with the trace) rounds to 0 or below.
    """
    c = _as_mat2(c, "drift")
    d = _as_mat2(d, "diffusion")
    check_symmetric_psd(d, "diffusion matrix")
    (c11, c12), (c21, c22) = c.tolist()
    (d11, d12), (d21, d22) = d.tolist()
    s11, s12, s22 = _lyapunov2_entries(c11, c12, c21, c22, d11, d12, d21, d22)
    return np.array([[s11, s12], [s12, s22]])


def _lyapunov2_entries(
    c11: float, c12: float, c21: float, c22: float,
    d11: float, d12: float, d21: float, d22: float,
) -> tuple[float, float, float]:
    """Entries (11, 12, 22) of the S with C S + S C^T + 2 D = 0, in float arithmetic.

    Takes the entries of C and D row by row; D is symmetrized.  For a 2x2 C
    with trace T and determinant det, and adj(C) = [[c22, -c12], [-c21, c11]]
    = T I - C,

        S = (det D + adj(C) D adj(C)^T) / (-T det).

    For a Hurwitz C, T < 0 and det > 0, and for a PSD D both terms of the
    numerator are PSD, so each variance is a sum of non-negative terms.
    Raises NotHurwitz unless C is Hurwitz by ``_eig2_entries``, as
    ``is_hurwitz`` decides.  Entries outside 2^-200 to 2^200 (C) or 2^-300
    to 2^300 (D) are then scaled by powers of 2, exactly, so that no product
    under- or overflows before the result does, and halving a subnormal
    entry of D loses nothing.  Raises Singular when det or T det rounds to
    0 or below (T det underflows only for a drift so close to singular that
    S overflows unless D = 0) or S overflows.
    """
    if _eig2_entries(c11, c12, c21, c22)[0] >= 0.0:
        raise NotHurwitz("drift matrix has an eigenvalue with Re >= 0")
    sc = max(abs(c11), abs(c12), abs(c21), abs(c22))
    sd = max(abs(d11), abs(d12), abs(d21), abs(d22))
    k = 0
    if not (2.0**-200 < sc < 2.0**200 and (sd == 0.0 or 2.0**-300 < sd < 2.0**300)):
        kc, kd = math.frexp(sc)[1], math.frexp(sd)[1]
        c11, c12, c21, c22 = (math.ldexp(x, -kc) for x in (c11, c12, c21, c22))
        d11, d12, d21, d22 = (math.ldexp(x, -kd) for x in (d11, d12, d21, d22))
        k = kd - kc
    d12 = 0.5 * d12 + 0.5 * d21
    det = c11 * c22 - c12 * c21
    denom = -(c11 + c22) * det
    if not denom > 0.0:
        raise Singular("the drift determinant, or its product with the trace, rounds to 0 or below")
    # adj(C) D, then its product with adj(C)^T
    a11, a12 = c22 * d11 - c12 * d12, c22 * d12 - c12 * d22
    a21, a22 = c11 * d12 - c21 * d11, c11 * d22 - c21 * d12
    s11 = _ldexp((det * d11 + (a11 * c22 - a12 * c12)) / denom, k)
    s12 = _ldexp((det * d12 + (a12 * c11 - a11 * c21)) / denom, k)
    s22 = _ldexp((det * d22 + (a22 * c11 - a21 * c21)) / denom, k)
    if not (math.isfinite(s11) and math.isfinite(s12) and math.isfinite(s22)):
        raise Singular("the stationary covariance overflows")
    return s11, s12, s22
