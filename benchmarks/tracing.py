"""Per-layer timers and counters, installed from outside the program.

``Tracer.install`` replaces the public functions listed in ``TRACED`` with
timing wrappers, in every ``modred`` module namespace that holds them (the
package re-exports names and its modules import each other's functions by
name, so patching only the defining module would miss most calls).  Each
wrapper records one span; a layer's self time is its spans' durations minus
the time of the traced spans nested directly inside them.  Spans are kept as
per-layer sums in memory; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _path_steps(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"montecarlo.path_steps": cfg.n_paths * cfg.n_steps}


def _resamples(args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs.get("n_resamples", 200)
    return {"montecarlo.bootstrap_resamples": n}


def _reports(args, kwargs, result):
    return {"bounds.reports": len(result)}


def _propagate_route(args, kwargs):
    """``symmetric`` for a drift that is symmetric and commutes exactly with
    the diffusion (the inputs the benchmark builds that way), else ``general``."""
    model = args[0] if args else kwargs["model"]
    c, d = model.drift, model.diffusion
    closed = c.shape == (1, 1) or ((c == c.T).all() and (c @ d == d @ c).all())
    return "linear_sde.propagate_law." + ("symmetric" if closed else "general")


# (module, function, layer or layer-of-arguments, counter, opaque)
# An opaque layer absorbs everything called beneath it into its self time.
TRACED = [
    ("modred.montecarlo", "simulate", "montecarlo.simulate", _path_steps, False),
    ("modred.montecarlo", "bootstrap_w2_se", "montecarlo.bootstrap_w2_se", _resamples, True),
    ("modred.montecarlo", "empirical_w2_1d", "montecarlo.estimators", None, False),
    ("modred.montecarlo", "moment_estimates", "montecarlo.estimators", None, False),
    ("modred.bounds", "verify_bounds", "bounds.verify_bounds", _reports, False),
    ("modred.bounds", "sup_exact_w2_sq", "bounds.sup_exact_w2_sq", None, False),
    ("modred.bounds", "default_time_grid", "bounds.time_grid", None, False),
    ("modred.bounds", "model_time_grid", "bounds.time_grid", None, False),
    ("modred.bounds", "osc_w2_exact", "bounds.w2_exact", None, False),
    ("modred.bounds", "coupled_w2_exact", "bounds.w2_exact", None, False),
    ("modred.models", "oscillator_full_law", "models.law", None, False),
    ("modred.models", "oscillator_marginal_law", "models.law", None, False),
    ("modred.models", "oscillator_reduced_law", "models.law", None, False),
    ("modred.models", "coupled_full_law", "models.law", None, False),
    ("modred.models", "coupled_reduced_law", "models.law", None, False),
    ("modred.models", "equilibrium_laws", "models.equilibrium_laws", None, False),
    ("modred.linear_sde", "propagate_law", _propagate_route, None, False),
    ("modred.linear_sde", "stationary_law", "linear_sde.stationary_law", None, False),
    ("modred.linalg2", "expm2", "linalg2.expm2", None, False),
    ("modred.linalg2", "solve_lyapunov2", "linalg2.solve_lyapunov2", None, False),
    ("modred.reduction", "reduce_coupled", "reduction.reduce", None, False),
    ("modred.reduction", "reduce_oscillator", "reduction.reduce", None, False),
]


class Tracer:
    """Span stack with per-layer call counts, self times and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = 0
        self._children = []  # traced time of the direct children of each open span
        self._opaque = 0
        self._restore = []

    @contextmanager
    def span(self, layer: str):
        """Record the enclosed block as one span of ``layer``."""
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, time.perf_counter() - t0)

    def _close(self, layer: str, elapsed: float):
        children = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        self.calls[layer] += 1
        self.self_s[layer] += elapsed - children
        self.spans += 1

    def wrap(self, fn, layer, counter=None, opaque=False):
        """``fn`` with a span around each call that is not inside an opaque span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            self._children.append(0.0)
            self._opaque += opaque
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._opaque -= opaque
                self._close(name, elapsed)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[key] += n
            return result

        return traced

    def install(self):
        """Wrap every function in ``TRACED`` wherever a modred module holds it.

        A function the program no longer defines is skipped; its layer then
        reads 0.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "modred" or name.startswith("modred."))]
        for module_name, fn_name, layer, counter, opaque in TRACED:
            original = getattr(sys.modules.get(module_name), fn_name, None)
            if original is None:
                continue
            traced = self.wrap(original, layer, counter, opaque)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def span_cost(n: int = 20000) -> float:
    """Measured wall-clock cost of one traced call over an untraced one."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    raw = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max((time.perf_counter() - t0 - raw) / n, 0.0)
