"""The three workloads: how each drives modred, and what one operation is.

* ``mc_crosscheck``: ``modred simulate`` on two fixed models (the Monte-Carlo
  oracle).  One operation is one (model, record time) row.
* ``bound_certification``: ``modred law`` + ``modred bounds`` on drawn
  parameter sets, plus ``modred sweep`` over gamma and over k (the closed
  forms and bound checks).  One operation is one parameter set or one swept
  value.
* ``general_propagation``: the library's ``propagate_law``,
  ``stationary_law`` and ``reduce_coupled`` on drawn models, most of them
  off the symmetric closed route (generic law propagation).  One operation is
  one law or one of the other two calls.

A run repeats whole rounds of operations.  Round ``r`` draws its inputs from
``numpy.random.default_rng([seed, r])``, so a seed fixes every input of a run.
Each workload keeps what the program returned for the checks made after the
timed part (see ``checks.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import pickle
import time
from pathlib import Path

import click
import numpy as np

import modred
import modred.cli

# mc_crosscheck: fixed models and simulation settings.  The CLI's default
# record times are 0.5, 1 and 2, so each ensemble takes 2000 steps of 1e-3.
MC_MODELS = {
    "oscillator": {"gamma": 5.0, "omega": 2.0, "beta": 1.0, "x0": 1.0},
    "coupled": {"a": -1.0, "k": 1.0, "x1": 1.0},
}
MC_SEED = 20260808
MC_PATHS = 8192
MC_DT = 1e-3
MC_TIMES = (0.5, 1.0, 2.0)
MC_STEPS = 2000

# bound_certification: per round, this many drawn sets of each model, and the
# swept values (gamma as multiples of omega; k absolute, at most 10).
BC_SETS = 4
BC_GAMMA_RATIOS = tuple(np.geomspace(2.5, 1e3, 6))
BC_K_VALUES = tuple(np.geomspace(1e-3, 10.0, 6))

# general_propagation: per round, models off the symmetric route (an
# oscillator and a coupled pair with a != d and unequal noise at each
# fast/slow rate ratio in GP_RATIOS) and normalised coupled pairs on it.
# Times are 0, 14 geometric points from 0.01 to 10 slow relaxation times, and
# 40 slow relaxation times (where the law is stationary).  The ratios stop at
# 300: at 40 slow relaxation times, coupled pairs with ratio 500 already need
# up to 2436 quadrature panels (89 at 300), and at 1e3 some exceed the
# 16384-panel budget and raise QuadratureFailure.
GP_RATIOS = tuple(np.geomspace(2.0, 300.0, 3))
GP_SYMMETRIC = 64
GP_TIME_FACTORS = (0.0, *np.geomspace(0.01, 10.0, 14), 40.0)


def invoke_cli(argv: list[str]) -> int:
    """Run one ``modred`` command in this process; return its exit status."""
    try:
        modred.cli.main.main(args=argv, prog_name="modred", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException:
        return 2
    return 0


def flags(params: dict) -> list[str]:
    out = []
    for name, value in params.items():
        out += [f"--{name}", repr(float(value))]
    return out


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_oscillator(rng) -> dict:
    """Oscillator in the accepted domain: gamma/omega in [2.05, 1e3], |x0|, |v0| <= 2."""
    omega = rng.uniform(0.5, 4.0)
    return {
        "gamma": omega * _log_uniform(rng, 2.05, 1e3),
        "omega": omega,
        "beta": _log_uniform(rng, 0.1, 10.0),
        "x0": rng.uniform(-2.0, 2.0),
        "v0": rng.uniform(-2.0, 2.0),
    }


def draw_coupled(rng) -> dict:
    """Normalised coupled pair: a in [-5, -0.1], k in [1e-3, 10], |x1|, |x2| <= 2."""
    return {
        "a": -_log_uniform(rng, 0.1, 5.0),
        "k": min(_log_uniform(rng, 1e-3, 10.0), 10.0),
        "x1": rng.uniform(-2.0, 2.0),
        "x2": rng.uniform(-2.0, 2.0),
    }


class Workload:
    """Common bookkeeping: operation counts, throughput samples, outputs."""

    def __init__(self, seed: int, tmpdir: Path, tracer=None):
        self.seed = seed
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples = []  # (work done, wall seconds) per timed unit
        self.files = []

    def cli(self, argv: list[str]) -> tuple[int, float]:
        """Invoke the CLI; return its exit status and wall time."""
        with self.tracer.span("cli") if self.tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            code = invoke_cli(argv)
            return code, time.perf_counter() - t0

    def out(self, name: str) -> Path:
        path = self.tmpdir / name
        self.files.append(path)
        return path

    def ops_per_s(self) -> float:
        return float(np.median([work / secs for work, secs in self.samples]))


class McCrosscheck(Workload):
    """Two ``modred simulate`` commands per round; work is path-steps."""

    def __init__(self, seed, tmpdir, tracer=None):
        super().__init__(seed, tmpdir, tracer)
        self.outputs = {name: [] for name in MC_MODELS}

    def run_round(self, r: int):
        for name, params in MC_MODELS.items():
            out = self.out(f"simulate-{name}-r{r}.csv")
            code, secs = self.cli(
                ["simulate", "--model", name, *flags(params), "--seed", str(MC_SEED),
                 "--paths", str(MC_PATHS), "--dt", repr(MC_DT), "--out", str(out)]
            )
            self.attempted += len(MC_TIMES)
            if code != 0:
                self.failed += len(MC_TIMES)
                continue
            self.outputs[name].append(out)
            # full and reduced ensembles both advance every path every step
            self.samples.append((2 * MC_PATHS * MC_STEPS, secs))

    def check(self, checks) -> list[str]:
        """Round 0 against the reference, later rounds byte for byte against
        round 0, and a small ensemble run with one and with two workers."""
        fails = []
        for name, params in MC_MODELS.items():
            files = self.outputs[name]
            if files:
                first = files[0].read_bytes()
                fails += checks.check_simulate(name, params, checks.read_table(files[0]),
                                               MC_PATHS, MC_TIMES)
                fails += [f"simulate {name}: {path.name} differs from {files[0].name}"
                          for path in files[1:] if path.read_bytes() != first]
            one = simulate_bytes(name, self.seed, self.tmpdir, None)
            two = simulate_bytes(name, self.seed, self.tmpdir, "2")
            if not one or one != two:
                fails.append(f"simulate {name}: output with MODRED_THREADS=2 differs "
                             "from the output with one worker")
        return fails


class BoundCertification(Workload):
    """``law`` + ``bounds`` per drawn set and two sweeps per round; work is operations."""

    def __init__(self, seed, tmpdir, tracer=None):
        super().__init__(seed, tmpdir, tracer)
        self.sets = []  # (model, params, law csv, bounds csv)
        self.sweeps = []  # (model, base params, param, values, sweep csv)

    def run_round(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        sets = [("oscillator", draw_oscillator(rng)) for _ in range(BC_SETS)]
        sets += [("coupled", draw_coupled(rng)) for _ in range(BC_SETS)]
        gamma_base = draw_oscillator(rng)
        k_base = draw_coupled(rng)
        ops = failed = 0
        busy = 0.0
        for i, (model, params) in enumerate(sets):
            law_csv = self.out(f"law-r{r}-{i}.csv")
            bounds_csv = self.out(f"bounds-r{r}-{i}.csv")
            base = ["--model", model, *flags(params)]
            law_code, law_s = self.cli(["law", *base, "--out", str(law_csv)])
            bounds_code, bounds_s = self.cli(["bounds", *base, "--out", str(bounds_csv)])
            busy += law_s + bounds_s
            ops += 1
            if law_code or bounds_code:
                failed += 1
            else:
                self.sets.append((model, params, law_csv, bounds_csv))
        gamma_values = [gamma_base["omega"] * ratio for ratio in BC_GAMMA_RATIOS]
        for j, (model, base, name, values) in enumerate([
            ("oscillator", gamma_base, "gamma", gamma_values),
            ("coupled", k_base, "k", list(BC_K_VALUES)),
        ]):
            sweep_csv = self.out(f"sweep-r{r}-{j}.csv")
            fixed = {key: value for key, value in base.items() if key != name}
            spec = f"{name}=" + ",".join(repr(float(v)) for v in values)
            code, secs = self.cli(["sweep", "--model", model, *flags(fixed),
                                   "--sweep", spec, "--out", str(sweep_csv)])
            busy += secs
            ops += len(values)
            if code:
                failed += len(values)
            else:
                self.sweeps.append((model, fixed, name, values, sweep_csv))
        self.attempted += ops
        self.failed += failed
        self.samples.append((ops, busy))

    def check(self, checks) -> list[str]:
        fails = []
        for model, params, law_csv, bounds_csv in self.sets:
            law_fails, r = checks.check_law(model, params, checks.read_table(law_csv))
            fails += law_fails
            if r:
                fails += checks.check_bounds(model, params, checks.read_table(bounds_csv), r)
        for model, fixed, name, values, sweep_csv in self.sweeps:
            fails += checks.check_sweep(model, fixed, name, values, checks.read_table(sweep_csv))
        return fails


def _attempt(fn, *args):
    """``fn(*args)``, or None if the program refuses or fails the call."""
    try:
        return fn(*args)
    except modred.ModredError:
        return None


def _stiff_oscillator(rng, ratio: float) -> dict:
    """Oscillator whose fast/slow rate ratio is ``ratio``: gamma/omega = (r+1)/sqrt(r)."""
    omega = rng.uniform(0.5, 4.0)
    return {
        "gamma": omega * (ratio + 1.0) / math.sqrt(ratio),
        "omega": omega,
        "beta": _log_uniform(rng, 0.1, 10.0),
        "x0": rng.uniform(-2.0, 2.0),
        "v0": rng.uniform(-2.0, 2.0),
    }


def _stiff_coupled(rng, ratio: float) -> dict:
    """Coupled pair with a != d, unequal noise and |d|/|a| = ``ratio``."""
    a = -_log_uniform(rng, 0.1, 2.0)
    return {
        "a": a,
        "d": a * ratio,
        "k": -a * _log_uniform(rng, 0.01, 1.0),
        "sigma1": _log_uniform(rng, 0.2, 5.0),
        "sigma2": _log_uniform(rng, 0.2, 5.0),
        "x1": rng.uniform(-2.0, 2.0),
        "x2": rng.uniform(-2.0, 2.0),
    }


class GeneralPropagation(Workload):
    """Library law propagation per drawn model; work is operations.

    The stiffness ratios of the general models are the same in every round,
    because the cost of the quadrature route depends mostly on them; every
    round then costs about the same.
    """

    def __init__(self, seed, tmpdir, tracer=None):
        super().__init__(seed, tmpdir, tracer)
        self.result_files = []

    def _models(self, rng):
        models = []
        for ratio in GP_RATIOS:
            p = modred.OscillatorParams(**_stiff_oscillator(rng, ratio))
            models.append(("oscillator", p, p.rate_slow, [p.x0, p.v0]))
        for ratio in GP_RATIOS:
            p = modred.CoupledParams(**_stiff_coupled(rng, ratio))
            models.append(("coupled", p, -p.drift_eigenvalues()[0], [p.x1, p.x2]))
        for _ in range(GP_SYMMETRIC):
            q = draw_coupled(rng)
            p = modred.CoupledParams(a=q["a"], d=q["a"], k=q["k"], x1=q["x1"], x2=q["x2"])
            models.append(("symmetric", p, -p.drift_eigenvalues()[0], [p.x1, p.x2]))
        prepared = []
        for kind, p, slow, m0 in models:
            init = modred.Gaussian(mean=np.array(m0), cov=np.zeros((2, 2)))
            times = [f / slow for f in GP_TIME_FACTORS]
            prepared.append((kind, p, p.to_linear_model(), init, times))
        return prepared

    def run_round(self, r: int):
        prepared = self._models(np.random.default_rng([self.seed, r]))
        results = []
        t0 = time.perf_counter()
        for kind, p, model, init, times in prepared:
            laws = [_attempt(modred.propagate_law, model, init, t) for t in times]
            stationary = _attempt(modred.stationary_law, model)
            reduced = _attempt(modred.reduce_coupled, p) if kind != "oscillator" else None
            results.append((kind, p, times, laws, stationary, reduced))
        busy = time.perf_counter() - t0
        ops = failed = 0
        for kind, _, _, laws, stationary, reduced in results:
            calls = [*laws, stationary] + ([reduced] if kind != "oscillator" else [])
            ops += len(calls)
            failed += calls.count(None)
        self.samples.append((ops, busy))
        self.attempted += ops
        self.failed += failed
        # kept on disk, so that peak memory does not grow with the number of rounds
        path = self.tmpdir / f"laws-r{r}.pkl"
        with open(path, "wb") as fh:
            pickle.dump([
                (kind, dataclasses.asdict(p), times,
                 [None if g is None else (g.mean, g.cov) for g in laws],
                 None if stationary is None else (stationary.mean, stationary.cov),
                 None if reduced is None else (reduced.drift, reduced.stationary_variance))
                for kind, p, times, laws, stationary, reduced in results
            ], fh)
        self.result_files.append(path)

    def check(self, checks) -> list[str]:
        fails = []
        for path in self.result_files:
            with open(path, "rb") as fh:
                for result in pickle.load(fh):
                    fails += checks.check_propagation(*result)
        return fails


WORKLOADS = {
    "mc_crosscheck": McCrosscheck,
    "bound_certification": BoundCertification,
    "general_propagation": GeneralPropagation,
}


def simulate_bytes(model: str, seed: int, tmpdir: Path, threads: str | None) -> bytes:
    """CSV bytes of a small ``modred simulate`` run at the given MODRED_THREADS.

    ``run.py`` starts the process with MODRED_THREADS unset.
    """
    out = tmpdir / f"repro-{model}-{threads or 'unset'}.csv"
    try:
        if threads is not None:
            os.environ["MODRED_THREADS"] = threads
        code = invoke_cli(["simulate", "--model", model, *flags(MC_MODELS[model]),
                           "--seed", str(seed), "--paths", "2500", "--dt", repr(MC_DT),
                           "--t-start", "0.05", "--t-end", "0.1", "--t-count", "2",
                           "--t-spacing", "linear", "--out", str(out)])
    finally:
        os.environ.pop("MODRED_THREADS", None)
    return out.read_bytes() if code == 0 else b""
