"""Closed-form linear algebra for real 2x2 matrices.

Everything here is exact up to rounding: matrix exponential, SPD square
root, eigenvalues and the stationary covariance (the solution of the
Lyapunov equation C S + S C^T + 2 D = 0), all via 2x2 closed forms, and the
projection onto the PSD cone.  Matrices are plain (2, 2) float arrays
(``project_psd`` also takes (1, 1) ones).  The private ``_*_entries``
kernels take and return the entries as Python floats, for callers that
evaluate a whole law in float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotHurwitz, NotSPD, Singular

# Relative tolerance for symmetry / positivity checks on covariance-like input.
SYM_TOL = 1e-12

# Relative margin above which ``project_psd`` trusts the closed-form smallest
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
    m = _as_mat2(m)
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    half_tr = 0.5 * (a + d)
    s = (a - d) ** 2 + 4.0 * b * c
    if s < 0.0:
        return ComplexPair(real=half_tr, imag=0.5 * math.sqrt(-s))
    half_gap = 0.5 * math.sqrt(s)
    return (half_tr + half_gap, half_tr - half_gap)


def spectral_abscissa(m) -> float:
    """Largest real part of the spectrum."""
    ev = eig2(m)
    if isinstance(ev, ComplexPair):
        return ev.real
    return ev[0]


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus."""
    ev = eig2(m)
    if isinstance(ev, ComplexPair):
        return math.hypot(ev.real, ev.imag)
    return max(abs(ev[0]), abs(ev[1]))


def is_hurwitz(m) -> bool:
    return spectral_abscissa(m) < 0.0


def _low_eig(a: float, off: float, d: float) -> float:
    """Smallest eigenvalue of the symmetric [[a, off], [off, d]] (eig2's formula).

    Outside 2^-400 to 2^400, where the squares could underflow or overflow,
    the entries are first scaled by a power of 2 to a largest magnitude in
    [1/2, 1) and the result scaled back.  nan for a non-finite entry.
    """
    scale = max(abs(a), abs(off), abs(d))
    if not 2.0**-400 < scale < 2.0**400:
        if not 0.0 < scale < math.inf:
            return 0.0 if scale == 0.0 else math.nan
        k = math.frexp(scale)[1]
        return math.ldexp(_low_eig(math.ldexp(a, -k), math.ldexp(off, -k), math.ldexp(d, -k)), k)
    return 0.5 * (a + d) - 0.5 * math.sqrt((a - d) ** 2 + 4.0 * off * off)


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
        low = _low_eig(a, 0.5 * b + 0.5 * c, d)
    if low < -SYM_TOL * scale:
        raise NotSPD(f"{name} has a negative eigenvalue beyond tolerance")
    return low


def _clearly_pd(a: float, off: float, d: float) -> bool:
    """Whether [[a, off], [off, d]] is PSD by a margin: its closed-form smallest
    eigenvalue exceeds ``_PSD_MARGIN`` of its largest entry.

    Then ``project_psd`` returns the matrix as it is.  False for a
    non-finite entry.
    """
    return _low_eig(a, off, d) > _PSD_MARGIN * max(abs(a), abs(off), abs(d))


def project_psd(m: np.ndarray) -> np.ndarray:
    """Symmetrize a 1x1 or 2x2 matrix and clip negative eigenvalues to zero.

    The result is exactly symmetric.  The symmetrized matrix is returned as
    it is when no eigenvalue is negative, so an exactly symmetric PSD input
    comes back bit for bit.  LAPACK's ``eigh`` is skipped when the
    closed-form smallest eigenvalue over the largest entry exceeds
    ``_PSD_MARGIN``: both evaluations err by a few eps of the largest entry,
    so ``eigh`` would find no negative eigenvalue either.
    """
    sym = 0.5 * (m + m.T)
    if sym.shape == (1, 1):
        return np.maximum(sym, 0.0)
    (a, b), (_, d) = sym.tolist()
    if _clearly_pd(a, b, d):
        return sym
    w, vecs = np.linalg.eigh(sym)
    if w[0] >= 0.0:
        return sym
    out = (vecs * np.clip(w, 0.0, None)) @ vecs.T
    out[1, 0] = out[0, 1]  # the product is symmetric only up to rounding
    return out


def sqrtm_spd2(m) -> np.ndarray:
    """Unique SPD square root of a symmetric PSD 2x2 matrix.

    Closed form S = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)); the
    zero matrix maps to zero.  Eigenvalues in [-SYM_TOL*||M||, 0) are
    clipped to zero before rooting.
    """
    m = _as_mat2(m)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return np.zeros((2, 2))
    lo = check_symmetric_psd(m, "matrix")
    sym = 0.5 * m + 0.5 * m.T
    if lo < 0.0:
        # roundoff-level negative eigenvalue
        sym = project_psd(sym)
    det = max(sym[0, 0] * sym[1, 1] - sym[0, 1] * sym[1, 0], 0.0)
    root_det = math.sqrt(det)
    denom = math.sqrt(sym[0, 0] + sym[1, 1] + 2.0 * root_det)
    if denom == 0.0:
        return np.zeros((2, 2))
    return (sym + root_det * np.eye(2)) / denom


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
    Entries outside 2^-200 to 2^200 (C) or 2^-300 to 2^300 (D) are first
    scaled by powers of 2, exactly, so that no product under- or overflows
    before the result does, and halving a subnormal entry of D loses
    nothing.  Raises NotHurwitz unless C is Hurwitz by
    ``is_hurwitz``'s formula, evaluated on the scaled entries, and Singular
    when det or T det rounds to 0 or below (T det underflows only for a
    drift so close to singular that S overflows unless D = 0) or S
    overflows.
    """
    sc = max(abs(c11), abs(c12), abs(c21), abs(c22))
    sd = max(abs(d11), abs(d12), abs(d21), abs(d22))
    if not (2.0**-200 < sc < 2.0**200 and (sd == 0.0 or 2.0**-300 < sd < 2.0**300)):
        if sc == 0.0:
            raise NotHurwitz("drift matrix has an eigenvalue with Re >= 0")
        kc, kd = math.frexp(sc)[1], math.frexp(sd)[1]
        scaled = _lyapunov2_entries(
            *(math.ldexp(x, -kc) for x in (c11, c12, c21, c22)),
            *(math.ldexp(x, -kd) for x in (d11, d12, d21, d22)),
        )
        try:
            return tuple(math.ldexp(x, kd - kc) for x in scaled)
        except OverflowError as exc:
            raise Singular("the stationary covariance overflows") from exc
    d12 = 0.5 * d12 + 0.5 * d21
    tr = c11 + c22
    s = (c11 - c22) ** 2 + 4.0 * c12 * c21
    if 0.5 * tr + (0.5 * math.sqrt(s) if s > 0.0 else 0.0) >= 0.0:
        raise NotHurwitz("drift matrix has an eigenvalue with Re >= 0")
    det = c11 * c22 - c12 * c21
    denom = -tr * det
    if not denom > 0.0:
        raise Singular("the drift determinant, or its product with the trace, rounds to 0 or below")
    # adj(C) D, then its product with adj(C)^T
    a11, a12 = c22 * d11 - c12 * d12, c22 * d12 - c12 * d22
    a21, a22 = c11 * d12 - c21 * d11, c11 * d22 - c21 * d12
    s11 = (det * d11 + (a11 * c22 - a12 * c12)) / denom
    s12 = (det * d12 + (a12 * c11 - a11 * c21)) / denom
    s22 = (det * d22 + (a22 * c11 - a21 * c21)) / denom
    if not (math.isfinite(s11) and math.isfinite(s12) and math.isfinite(s22)):
        raise Singular("the stationary covariance overflows")
    return s11, s12, s22
