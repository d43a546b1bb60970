"""Correctness checks, made after the timed part of a run.

Each check compares what modred returned with ``reference.py`` (laws computed
apart from the program) or with a property the method must have, and returns
a list of failure messages; an empty list means the output is correct.

Tolerances, with their reasons:

* ``LAW_TOL`` (relative to the stationary variance and to the largest mean):
  the reference's step doubling loses digits on stiff non-normal drifts; at
  gamma/omega near 1e3 (about 20 doublings) it was off by up to 2.3e-10
  over 200 drawn oscillators, where the program's closed forms agree with
  50-digit values.
* ``W2SQ_TOL`` (relative to mean scale^2 + stationary variance): a W2^2 with
  a mean near the mean scale inherits twice the law error.  The same
  allowance decides where ``satisfied`` is checked: only where the
  reference W2^2 and the bound differ by more than it.
* ``ROUND_TOL``: the non-stiff models of ``mc_crosscheck`` need few
  doublings, so there the reference is good to rounding.
* ``PROP_TOL`` (relative to the initial data and the stationary
  covariance): the program's quadrature aims at 1e-12 per entry; the
  reference agrees with it to about 1e-13 at fast/slow rate ratios up to 300.
* ``GRID_RTOL``: the program's grid comes from its closed-form rates, the
  benchmark's from ``numpy.linalg.eigvals``; they differ by rounding.
* ``LYAP_TOL``: the program's Lyapunov solve refines once, so its residual
  is at rounding level (acceptance criterion 8 allows 1e-12).
* ``MEAN_SE`` / ``W2_SE``: 4 and 3 standard errors, the tolerances of
  acceptance criterion 7 for the Monte-Carlo estimates.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref

LAW_TOL = 2e-9
W2SQ_TOL = 5e-9
ROUND_TOL = 1e-12
PROP_TOL = 1e-11
GRID_RTOL = 1e-12
LYAP_TOL = 1e-13
MEAN_SE = 4.0
W2_SE = 3.0
# gamma sweep: successive sup W2^2 ratios times (gamma ratio)^2 must lie in
# this band once gamma/omega >= DECAY_FROM (the 1/gamma^2 high-friction decay)
DECAY_BAND = (0.8, 1.25)
DECAY_FROM = 80.0


def read_table(path) -> dict[str, np.ndarray]:
    """Columns of a CSV table written by the CLI, numeric ones as floats."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    columns = list(zip(*(line.split(",") for line in lines[1:])))
    if not columns:
        columns = [()] * len(header)
    return {name: (np.array(col) if name in ("bound_name", "param") else np.array(col, dtype=float))
            for name, col in zip(header, columns)}


def system(model: str, params: dict):
    """Drift C, diffusion D (noise B B^T = 2D) and initial point of a model.

    Oscillator: dx = v dt, dv = -(omega^2 x + gamma v) dt + sqrt(2 gamma/beta) dW.
    Coupled: dx1 = (a x1 + k (x2 - x1)) dt + sqrt(2 sigma1) dW1, and likewise x2.
    """
    if model == "oscillator":
        g, w = params["gamma"], params["omega"]
        c = np.array([[0.0, 1.0], [-w * w, -g]])
        d = np.diag([0.0, g / params["beta"]])
        m0 = [params.get("x0", 0.0), params.get("v0", 0.0)]
    else:
        a, k = params["a"], params["k"]
        dd = params.get("d", a)
        c = np.array([[a - k, k], [k, dd - k]])
        d = np.diag([params.get("sigma1", 1.0), params.get("sigma2", 1.0)])
        m0 = [params.get("x1", 0.0), params.get("x2", 0.0)]
    return c, d, np.array(m0, dtype=float)


def law_reference(model: str, params: dict, times) -> dict:
    """Reference laws at ``times`` plus the scales the tolerances refer to."""
    c, d, m0 = system(model, params)
    out = ref.retained_and_reduced(c, d, m0, times)
    out["mean_scale"] = max(float(np.max(np.abs(m0))), float(np.max(np.abs(out["mean_full"]))))
    out["w2_scale"] = out["mean_scale"] ** 2 + out["var_inf"]
    out["w2_sq"] = ref.w2_sq_1d(out["mean_full"], out["var_full"],
                                out["mean_reduced"], out["var_reduced"])
    return out


def _bad(values, expected, tol) -> np.ndarray:
    return np.abs(np.asarray(values) - np.asarray(expected)) > tol


def check_simulate(model: str, params: dict, table: dict, paths: int, times) -> list[str]:
    where = f"simulate {model}"
    got_times = table["t"]
    if got_times.shape != (len(times),) or _bad(got_times, times, GRID_RTOL * max(times)).any():
        return [f"{where}: record times {got_times.tolist()}, expected {list(times)}"]
    r = law_reference(model, params, got_times)
    se_mean = np.sqrt(r["var_full"] / paths)
    se_var = math.sqrt(2.0 / (paths - 1)) * r["var_full"]
    w2 = np.sqrt(r["w2_sq"])
    fails = []
    for col, expected, tol in (
        ("emp_mean", r["mean_full"], MEAN_SE * se_mean),
        ("emp_var", r["var_full"], MEAN_SE * se_var),
        ("emp_w2_vs_reduced", w2, W2_SE * table["se_w2"]),
    ):
        for i in np.flatnonzero(_bad(table[col], expected, tol)):
            fails.append(f"{where} t={got_times[i]}: {col} {table[col][i]}, reference {expected[i]}")
    for i in np.flatnonzero(_bad(table["analytic_w2"] ** 2, r["w2_sq"], ROUND_TOL * r["w2_scale"])):
        fails.append(f"{where} t={got_times[i]}: analytic_w2 {table['analytic_w2'][i]}, reference {w2[i]}")
    return fails


def check_law(model: str, params: dict, table: dict) -> tuple[list[str], dict]:
    """Check a ``law`` table; also return the reference on its time grid."""
    where = f"law {model} {params}"
    c, _, _ = system(model, params)
    times = table["t"]
    grid = ref.two_scale_grid(c)
    if times.shape != grid.shape or _bad(times, grid, GRID_RTOL * grid[-1]).any():
        return [f"{where}: time grid differs from the two-scale default grid"], {}
    r = law_reference(model, params, times)
    r["times"] = times
    fails = []
    for col, tol in (("mean_full", LAW_TOL * r["mean_scale"]),
                     ("mean_reduced", LAW_TOL * r["mean_scale"]),
                     ("var_full", LAW_TOL * r["var_inf"]),
                     ("var_reduced", LAW_TOL * r["var_inf"]),
                     ("w2_sq", W2SQ_TOL * r["w2_scale"])):
        for i in np.flatnonzero(_bad(table[col], r[col], tol))[:1]:
            fails.append(f"{where}: {col} at t={times[i]} is {table[col][i]}, reference {r[col][i]}")
    return fails, r


def check_bounds(model: str, params: dict, table: dict, r: dict) -> list[str]:
    """Check a ``bounds`` table against the reference ``r`` of its law table."""
    where = f"bounds {model} {params}"
    allow = W2SQ_TOL * r["w2_scale"]
    fails = []
    for name in dict.fromkeys(table["bound_name"].tolist()):
        rows = table["bound_name"] == name
        times, exact_sq = table["t"][rows], table["exact_sq"][rows]
        bound, satisfied = table["bound"][rows], table["satisfied"][rows] != 0.0
        if times.shape != r["times"].shape or (times != r["times"]).any():
            fails.append(f"{where}: {name} is not tabulated on the law grid")
            continue
        if name.startswith("equilibrium_rate_original"):
            expected = ref.w2_sq_1d(r["mean_full"], r["var_full"], 0.0, r["var_inf"])
        elif name.startswith("equilibrium_rate_reduced"):
            expected = ref.w2_sq_1d(r["mean_reduced"], r["var_reduced"], 0.0, r["var_inf"])
        else:
            expected = r["w2_sq"]
            at_zero = np.abs(exact_sq[times == 0.0])
            if (at_zero > 4.0 * np.finfo(float).eps * r["w2_scale"]).any():
                fails.append(f"{where}: {name} exact_sq at t=0 is {at_zero.max()}, not 0")
        for i in np.flatnonzero(_bad(exact_sq, expected, allow))[:1]:
            fails.append(f"{where}: {name} exact_sq at t={times[i]} is {exact_sq[i]}, "
                         f"reference {expected[i]}")
        decided = np.abs(bound - expected) > allow
        for i in np.flatnonzero(decided & (satisfied != (expected <= bound)))[:1]:
            fails.append(f"{where}: {name} at t={times[i]} says satisfied={satisfied[i]}, "
                         f"reference W2^2 {expected[i]} vs bound {bound[i]}")
    return fails


def check_sweep(model: str, fixed: dict, name: str, values, table: dict) -> list[str]:
    where = f"sweep {model} {name} {fixed}"
    got = table["value"]
    if got.shape != (len(values),) or _bad(got, values, 1e-15 * np.abs(values)).any():
        return [f"{where}: swept values {got.tolist()}, expected {list(values)}"]
    sup_w2_sq, bound, ratio = table["sup_w2_sq"], table["bound"], table["ratio"]
    fails = []
    for i, value in enumerate(got):
        params = dict(fixed, **{name: value})
        c, _, _ = system(model, params)
        r = law_reference(model, params, ref.two_scale_grid(c))
        sup = float(np.max(r["w2_sq"]))
        if abs(sup_w2_sq[i] - sup) > W2SQ_TOL * r["w2_scale"]:
            fails.append(f"{where} {value}: sup_w2_sq {sup_w2_sq[i]}, reference {sup}")
        if not (sup < bound[i] and ratio[i] < 1.0):
            fails.append(f"{where} {value}: reference sup {sup} vs bound {bound[i]}")
        if abs(ratio[i] - sup_w2_sq[i] / bound[i]) > 1e-12 * ratio[i]:
            fails.append(f"{where} {value}: ratio {ratio[i]} is not sup/bound")
    if name == "gamma":
        high = got / fixed["omega"] >= DECAY_FROM
        for lo, hi in zip(np.flatnonzero(high), np.flatnonzero(high)[1:]):
            q = sup_w2_sq[hi] / sup_w2_sq[lo] * (got[hi] / got[lo]) ** 2
            if not DECAY_BAND[0] <= q <= DECAY_BAND[1]:
                fails.append(f"{where}: sup W2^2 from gamma={got[lo]} to {got[hi]} "
                             f"decays as gamma^-2 times {q}")
    return fails


def check_propagation(kind: str, params: dict, times, laws, stationary, reduced) -> list[str]:
    """Check the laws, stationary law and reduction of one model.

    ``laws`` holds one (mean, cov) per time, ``stationary`` is (mean, cov)
    and ``reduced`` is (drift, stationary variance); None marks a call that
    failed.
    """
    where = f"propagate {kind} {params}"
    model = "oscillator" if kind == "oscillator" else "coupled"
    c, d, m0 = system(model, params)
    s = ref.stationary_cov(c, d)
    slow, fast = ref.drift_rates(c)
    ref_mean, ref_cov = ref.gaussian_laws(c, d, m0, times)
    mean_scale = max(float(np.max(np.abs(m0))), float(np.max(np.abs(ref_mean))))
    cov_scale = float(np.max(np.abs(s)))
    mean_tol, cov_tol = PROP_TOL * mean_scale, PROP_TOL * cov_scale
    fails = []
    ok = [i for i, law in enumerate(laws) if law is not None]
    t = np.asarray(times)[ok]
    got_mean = np.array([laws[i][0] for i in ok]).reshape(-1, 2)
    got_cov = np.array([laws[i][1] for i in ok]).reshape(-1, 2, 2)
    ref_mean, ref_cov = ref_mean[ok], ref_cov[ok]
    wrong = _bad(got_mean, ref_mean, mean_tol).any(axis=1) | _bad(got_cov, ref_cov, cov_tol).any(axis=(1, 2))
    for i in np.flatnonzero(wrong)[:1]:
        fails.append(f"{where} t={t[i]}: law N({got_mean[i]}, {got_cov[i].tolist()}), "
                     f"reference N({ref_mean[i]}, {ref_cov[i].tolist()})")
    not_psd = (got_cov[:, 0, 1] != got_cov[:, 1, 0]) | (np.linalg.eigvalsh(got_cov)[:, 0] < -PROP_TOL * cov_scale)
    for i in np.flatnonzero(not_psd)[:1]:
        fails.append(f"{where} t={t[i]}: covariance {got_cov[i].tolist()} is not symmetric PSD")
    late = t * slow >= 40.0 * (1.0 - 1e-9)  # the benchmark's 40/slow, up to rounding
    not_stationary = _bad(got_mean, 0.0, mean_tol).any(axis=1) | _bad(got_cov, s, cov_tol).any(axis=(1, 2))
    for i in np.flatnonzero(late & not_stationary)[:1]:
        fails.append(f"{where} t={t[i]}: law is not the stationary law {s.tolist()}")
    if stationary is not None:
        got_mean, p = stationary
        residual = float(np.max(np.abs(c @ p + p @ c.T + 2.0 * d)))
        scale = 2.0 * float(np.max(np.abs(c))) * float(np.max(np.abs(p))) + 2.0 * float(np.max(np.abs(d)))
        if residual > LYAP_TOL * scale:
            fails.append(f"{where}: stationary Lyapunov residual {residual} of scale {scale}")
        if _bad(p, s, cov_tol).any() or _bad(got_mean, 0.0, 0.0).any():
            fails.append(f"{where}: stationary law N({got_mean}, {p.tolist()}), reference cov {s.tolist()}")
    if reduced is not None:
        drift, variance = reduced
        if abs(drift + slow) > PROP_TOL * fast:
            fails.append(f"{where}: reduced drift {drift}, slow eigenvalue {-slow}")
        if abs(variance - s[0, 0]) > PROP_TOL * cov_scale:
            fails.append(f"{where}: reduced stationary variance {variance}, reference {s[0, 0]}")
    return fails
