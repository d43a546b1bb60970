"""Euler-Maruyama simulation oracle with reproducible per-path noise streams.

Paths are advanced by X_{n+1} = X_n + C X_n dt + B sqrt(dt) xi_n with
B B^T = 2 D, so the simulator discretizes the same Fokker-Planck convention
used everywhere else.  Each path owns a counter-based random stream keyed by
(seed, path index), which makes results bitwise reproducible regardless of
batching or worker count.

Stream contract: path i of every ensemble reads the standard normals of the
stream (seed, i) from its start.  A :class:`Gaussian` initial law takes the
first dim draws, then each step takes the next dim draws.  Ensembles that
share a seed therefore share noise prefixes: a 1-D ensemble's path i reads
the first normals that a 2-D ensemble's path i reads.
:func:`simulate_ensembles` draws each path's stream once for all ensembles
and gives exactly the samples that separate :func:`simulate` calls give.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidParams,
    LengthMismatch,
    NonFinite,
    TooFewSamples,
    UnstableStep,
)
from .gaussian import Gaussian
from .linalg2 import spectral_radius, sqrtm_spd2
from .linear_sde import LinearModel

# Fixed batching constants; values never affect results, only memory/speed.
# Each path's stream is drawn in chunks of 2 * _CHUNK_STEPS normals (2048
# steps of a 2-D ensemble, 33.5 MB per block of paths).  That width is a
# multiple of every ensemble's dim (1 or 2), and so is the number of draws
# an initial law takes, so no step's draws straddle two chunks.
_BLOCK_PATHS = 1024
_CHUNK_STEPS = 2048


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls: step size, horizon, ensemble size and seed."""

    dt: float
    n_steps: int
    n_paths: int
    seed: int

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParams("dt must be positive and finite")
        if self.n_steps < 1 or self.n_paths < 1:
            raise InvalidParams("n_steps and n_paths must be positive")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise InvalidParams("seed must fit in 64 unsigned bits")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Terminal states of all paths at one record time."""

    t: float
    values: np.ndarray


class MomentEstimates(NamedTuple):
    mean: "float | np.ndarray"
    variance: "float | np.ndarray"
    se_mean: "float | np.ndarray"
    se_variance: "float | np.ndarray"


def _resolve_workers(workers: "int | None") -> int:
    if workers is None:
        env = os.environ.get("MODRED_THREADS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError as exc:
            raise InvalidParams(f"MODRED_THREADS must be an integer, got {env!r}") from exc
    if workers < 0:
        raise InvalidParams("worker count must be >= 0")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _path_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, seed: int, index: int) -> None:
    """Reset a Philox generator to the start of the stream (seed, index).

    Gives the state of a fresh ``_path_rng(seed, index)`` without building
    a generator, whose constructor also runs a SeedSequence.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed, index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _record_steps(record_times, cfg: SimConfig) -> list[int]:
    steps = []
    previous = -math.inf
    for t in record_times:
        t = float(t)
        if not (math.isfinite(t) and t >= 0.0):
            raise InvalidParams("record times must be finite and non-negative")
        if t < previous:
            raise InvalidParams("record times must be sorted")
        previous = t
        j = round(t / cfg.dt)
        if abs(t - j * cfg.dt) > 1e-9 * max(cfg.dt, t):
            raise InvalidParams(f"record time {t} is not a multiple of dt={cfg.dt}")
        if j > cfg.n_steps:
            raise InvalidParams(f"record time {t} exceeds the horizon n_steps*dt")
        steps.append(int(j))
    if not steps:
        raise InvalidParams("need at least one record time")
    return steps


def _check_step(model: LinearModel, dt: float) -> None:
    drift = model.drift
    radius = abs(drift[0, 0]) if model.dim == 1 else spectral_radius(drift)
    if dt * radius >= 0.5:
        raise UnstableStep(
            f"dt*|stiffest eigenvalue| = {dt * radius:.3g} >= 0.5; reduce dt"
        )


class _Ensemble:
    """One ensemble's initial state, step coefficients and sample arrays."""

    def __init__(self, model: LinearModel, init, cfg: SimConfig, steps: list[int]):
        dim = model.dim
        if isinstance(init, Gaussian):
            if init.dim != dim:
                raise InvalidParams("initial law dimension does not match the model")
            self.init_mean = init.mean
            self.init_root = (
                np.array([[math.sqrt(max(init.variance, 0.0))]])
                if dim == 1
                else sqrtm_spd2(init.cov)
            )
        else:
            point = np.atleast_1d(np.asarray(init, dtype=float))
            if point.shape != (dim,):
                raise InvalidParams(f"initial state must have shape ({dim},)")
            if not np.all(np.isfinite(point)):
                raise InvalidParams("initial state must be finite")
            self.init_mean, self.init_root = point, None
        if dim == 1:
            noise_root = np.array([[math.sqrt(max(2.0 * model.diffusion[0, 0], 0.0))]])
        else:
            noise_root = sqrtm_spd2(2.0 * model.diffusion)
        self.dim = dim
        # stream positions of the first step's draws and one past the last's
        self.first = 0 if self.init_root is None else dim
        self.end = self.first + max(steps) * dim
        self.step_mat = model.drift.T * cfg.dt
        self.noise_mat = noise_root.T * math.sqrt(cfg.dt)
        self.samples = np.empty(
            (len(steps), cfg.n_paths) if dim == 1 else (len(steps), cfg.n_paths, dim)
        )


def simulate_ensembles(
    ensembles,
    cfg: SimConfig,
    record_times,
    workers: "int | None" = None,
) -> list[list[SampleSet]]:
    """Euler-Maruyama ensembles of several models on shared noise streams.

    ``ensembles`` is a sequence of ``(model, init)`` pairs; the result holds
    one list of :class:`SampleSet` per pair, in the same order.  Path i of
    every ensemble reads the stream (seed, i) from its start: a
    :class:`Gaussian` init takes the first dim draws, then each step takes
    the next dim draws.  Each path's stream is drawn once, and every
    ensemble's samples are bitwise equal to those of a separate
    :func:`simulate` call with the same arguments.  Every ensemble is
    validated, in order, before anything is drawn.
    """
    ensembles = list(ensembles)
    if not ensembles:
        raise InvalidParams("need at least one ensemble")
    plans = []
    for e, (model, init) in enumerate(ensembles):
        _check_step(model, cfg.dt)
        if e == 0:
            # after the first step check, as a lone simulate call orders them
            steps = _record_steps(record_times, cfg)
        plans.append(_Ensemble(model, init, cfg, steps))
    step_map: dict[int, list[int]] = {}
    for r, j in enumerate(steps):
        step_map.setdefault(j, []).append(r)
    n_values = max(plan.end for plan in plans)
    # n_values is 0 only for point inits recorded at t = 0 alone: no draws
    width = max(1, min(2 * _CHUNK_STEPS, n_values))

    def run_block(i0: int, i1: int, rngs: list):
        n_block = i1 - i0
        rngs = rngs[:n_block]
        for i, rng in enumerate(rngs, i0):
            _rekey(rng, cfg.seed, i)
        buf = np.empty((n_block, width))

        def draw(c0: int) -> np.ndarray:
            m = min(width, n_values - c0)
            for idx, rng in enumerate(rngs):
                rng.standard_normal(m, out=buf[idx, :m])
            return buf[:, :m]

        def record(plan: _Ensemble, j: int, x: np.ndarray):
            for r in step_map.get(j, ()):
                plan.samples[r, i0:i1] = x

        chunk = draw(0) if n_values else buf
        states = []
        for plan in plans:
            if plan.init_root is not None:
                x = plan.init_mean + chunk[:, : plan.dim] @ plan.init_root.T
            else:
                x = np.tile(plan.init_mean, (n_block, 1))
            x = x[:, 0] if plan.dim == 1 else x
            record(plan, 0, x)
            states.append(x)
        # overflow to inf is tolerated here and reported as NonFinite below
        with np.errstate(over="ignore", invalid="ignore"):
            for c0 in range(0, n_values, width):
                if c0:
                    chunk = draw(c0)
                for k, plan in enumerate(plans):
                    lo = max(c0, plan.first)
                    hi = min(c0 + chunk.shape[1], plan.end)
                    if lo >= hi:
                        continue
                    x = states[k]
                    done = (lo - plan.first) // plan.dim
                    noise = chunk[:, lo - c0 : hi - c0]
                    if plan.dim == 1:
                        # elementwise: bitwise equal to the (n,1)@(1,1) products
                        a = float(plan.step_mat[0, 0])
                        b = float(plan.noise_mat[0, 0])
                        for j in range(hi - lo):
                            x = x + x * a + noise[:, j] * b
                            record(plan, done + j + 1, x)
                    else:
                        noise = noise.reshape(n_block, -1, plan.dim)
                        for j in range(noise.shape[1]):
                            x = x + x @ plan.step_mat + noise[:, j] @ plan.noise_mat
                            record(plan, done + j + 1, x)
                    states[k] = x

    blocks = [
        (i0, min(i0 + _BLOCK_PATHS, cfg.n_paths))
        for i0 in range(0, cfg.n_paths, _BLOCK_PATHS)
    ]

    def run_blocks(mine: list):
        # one pool of generators per worker, re-keyed for each block
        rngs = [_path_rng(cfg.seed, i) for i in range(mine[0][1] - mine[0][0])]
        for i0, i1 in mine:
            run_block(i0, i1, rngs)

    n_workers = min(_resolve_workers(workers), len(blocks))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run_blocks, [blocks[w::n_workers] for w in range(n_workers)]))
    else:
        run_blocks(blocks)

    for plan in plans:
        if not np.all(np.isfinite(plan.samples)):
            raise NonFinite("a simulated state overflowed; reduce dt or the horizon")
    return [
        [SampleSet(t=j * cfg.dt, values=plan.samples[r]) for r, j in enumerate(steps)]
        for plan in plans
    ]


def simulate(
    model: LinearModel,
    init,
    cfg: SimConfig,
    record_times,
    workers: "int | None" = None,
) -> list[SampleSet]:
    """Euler-Maruyama ensemble of the model, sampled at the record times.

    ``init`` is either a deterministic state (scalar / length-dim vector) or
    a :class:`Gaussian` law to draw initial states from.  Record times must
    be sorted multiples of dt within [0, n_steps*dt].  Identical
    (model, init, cfg, record_times) inputs reproduce identical output
    bitwise, for any worker count.  Path i reads the stream (seed, i) from
    its start, as in :func:`simulate_ensembles`, so ensembles of different
    models with one seed share their noise prefixes.
    """
    return simulate_ensembles([(model, init)], cfg, record_times, workers)[0]


def _values_1d(s) -> np.ndarray:
    values = s.values if isinstance(s, SampleSet) else np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise InvalidParams("expected a one-dimensional sample set")
    return values


def empirical_w2_1d(a, b) -> float:
    """Exact W2 between two equal-size empirical measures on the line.

    Sorting both samples realizes the monotone (optimal) coupling, so this
    is sqrt(mean((a_(i) - b_(i))^2)).
    """
    av = _values_1d(a)
    bv = _values_1d(b)
    if av.size != bv.size:
        raise LengthMismatch(f"sample sizes differ: {av.size} vs {bv.size}")
    diff = np.sort(av) - np.sort(bv)
    return float(np.sqrt(np.mean(diff * diff)))


def moment_estimates(s) -> MomentEstimates:
    """Unbiased mean/variance with normal-theory standard errors.

    se_mean = sqrt(var/n); se_variance = sqrt(2/(n-1)) * var (adequate here,
    every simulated law is Gaussian).  Works per coordinate for 2-D samples.
    """
    values = s.values if isinstance(s, SampleSet) else np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise TooFewSamples("need at least two samples")
    mean = values.mean(axis=0)
    variance = values.var(axis=0, ddof=1)
    se_mean = np.sqrt(variance / n)
    se_variance = math.sqrt(2.0 / (n - 1)) * variance
    if values.ndim == 1:
        return MomentEstimates(
            float(mean), float(variance), float(se_mean), float(se_variance)
        )
    return MomentEstimates(mean, variance, se_mean, se_variance)


def bootstrap_w2_se(a, b, n_resamples: int = 200, seed: int = 0) -> float:
    """Bootstrap standard error of the empirical W2 between two sample sets."""
    av = _values_1d(a)
    bv = _values_1d(b)
    if av.size != bv.size:
        raise LengthMismatch(f"sample sizes differ: {av.size} vs {bv.size}")
    if n_resamples < 2:
        raise InvalidParams("need at least two bootstrap resamples")
    rng = _path_rng(seed, 2**32 - 1)
    n = av.size
    stats = np.empty(n_resamples)
    for r in range(n_resamples):
        ra = av[rng.integers(0, n, n)]
        rb = bv[rng.integers(0, n, n)]
        stats[r] = empirical_w2_1d(ra, rb)
    return float(stats.std(ddof=1))
