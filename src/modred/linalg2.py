"""Closed-form linear algebra for real 2x2 matrices.

Everything here is exact up to rounding: matrix exponential, SPD square
root, eigenvalues and the stationary-covariance (Lyapunov) solve, all via
2x2 closed forms, and the projection onto the PSD cone.  Matrices are
plain (2, 2) float arrays (``project_psd`` also takes (1, 1) ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotHurwitz, NotSPD, Singular

# Relative tolerance for symmetry / positivity checks on covariance-like input.
SYM_TOL = 1e-12


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
    m = _as_mat2(m)
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    half_tr = 0.5 * (a + d)
    s = (a - d) ** 2 + 4.0 * b * c
    if s > 0.0:
        delta = math.sqrt(s)
        if delta < 1.0:
            # cancellation-free for nearly-degenerate spectra
            lam_minus = half_tr - 0.5 * delta
            e_minus = math.exp(lam_minus)
            growth = math.expm1(delta)
            ch = e_minus * (1.0 + 0.5 * growth)
            sh = 0.5 * e_minus * growth / delta
        else:
            e_plus = math.exp(half_tr + 0.5 * delta)
            e_minus = math.exp(half_tr - 0.5 * delta)
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
    return np.array(
        [
            [ch + (a - d) * sh, 2.0 * b * sh],
            [2.0 * c * sh, ch + (d - a) * sh],
        ]
    )


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


def _check_symmetric(m: np.ndarray, scale: float, name: str) -> np.ndarray:
    if abs(m[0, 1] - m[1, 0]) > SYM_TOL * scale:
        raise NotSPD(f"{name} is not symmetric within tolerance")
    return 0.5 * m + 0.5 * m.T


def project_psd(m: np.ndarray) -> np.ndarray:
    """Symmetrize a 1x1 or 2x2 matrix and clip negative eigenvalues to zero.

    The symmetrized matrix is returned as it is when no eigenvalue is
    negative, so an exactly symmetric PSD input comes back bit for bit.
    """
    sym = 0.5 * (m + m.T)
    if sym.shape == (1, 1):
        return np.maximum(sym, 0.0)
    w, vecs = np.linalg.eigh(sym)
    if w[0] >= 0.0:
        return sym
    return (vecs * np.clip(w, 0.0, None)) @ vecs.T


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
    sym = _check_symmetric(m, scale, "matrix")
    lo = eig2(sym)[1]
    if lo < -SYM_TOL * scale:
        raise NotSPD("matrix has a negative eigenvalue beyond tolerance")
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

    Solves C S + S C^T + 2 D = 0 as a 3x3 linear system in (S11, S12, S22),
    with one iterative-refinement step so stiff systems stay at machine
    precision.  C must be Hurwitz and D symmetric PSD.
    """
    c = _as_mat2(c, "drift")
    d = _as_mat2(d, "diffusion")
    d_scale = float(np.max(np.abs(d)))
    if d_scale > 0.0:
        d = _check_symmetric(d, d_scale, "diffusion")
        if eig2(d)[1] < -SYM_TOL * d_scale:
            raise NotSPD("diffusion matrix has a negative eigenvalue")
    if not is_hurwitz(c):
        raise NotHurwitz("drift matrix has an eigenvalue with Re >= 0")
    c11, c12 = c[0, 0], c[0, 1]
    c21, c22 = c[1, 0], c[1, 1]
    system = np.array(
        [
            [2.0 * c11, 2.0 * c12, 0.0],
            [c21, c11 + c22, c12],
            [0.0, 2.0 * c21, 2.0 * c22],
        ]
    )
    rhs = -2.0 * np.array([d[0, 0], d[0, 1], d[1, 1]])
    try:
        x = np.linalg.solve(system, rhs)
        x = x + np.linalg.solve(system, rhs - system @ x)
    except np.linalg.LinAlgError as exc:
        raise Singular("Lyapunov system is numerically singular") from exc
    if not np.all(np.isfinite(x)):
        raise Singular("Lyapunov solve produced non-finite entries")
    return np.array([[x[0], x[1]], [x[1], x[2]]])
