"""Command-line front end: law tables, bound verification, sweeps, simulation.

Every command accepts flags or a JSON config file (flags win), writes CSV or
JSON tables with full-precision numbers, and echoes the effective
configuration into a ``<out>.config.json`` sidecar when writing to a file.
Exit codes: 0 success / all bounds satisfied, 1 bound violation, 2
configuration error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from .bounds import (
    FAMILIES,
    Family,
    bound_satisfied,
    composite_grid,
    law_table,
    model_time_grid,
    sup_exact_w2_sq,
    verify_bounds,
)
from .errors import ModredError
from .montecarlo import (
    SimConfig,
    bootstrap_w2_se,
    empirical_w2_1d,
    moment_estimates,
    simulate_ensembles,
)


class ConfigError(Exception):
    """Raised for any invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Effective run configuration; mirrors the JSON config file keys."""

    model: str | None = None
    gamma: float | None = None
    omega: float | None = None
    beta: float | None = None
    x0: float | None = None
    v0: float | None = None
    a: float | None = None
    k: float | None = None
    x1: float | None = None
    x2: float | None = None
    t_start: float | None = None
    t_end: float | None = None
    t_count: int | None = None
    t_spacing: str | None = None
    sweep: str | None = None
    seed: int | None = None
    dt: float | None = None
    paths: int | None = None
    steps: int | None = None
    out: str | None = None
    format: str | None = None


# Each field's type, from its annotation string, and the config values it takes.
_FIELDS = {f.name: f.type.split(" ")[0] for f in dataclasses.fields(RunConfig)}
_TAKES = {"float": (int, float), "int": (int,), "str": (str,)}
# The fields of a custom time grid; a command's default grid needs all unset.
_GRID_FIELDS = ("t_start", "t_end", "t_count", "t_spacing")


def _load_config(path: str | None, flags: dict) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        data.pop("command", None)  # sidecar files are valid configs
        unknown = data.keys() - _FIELDS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("sweep"), dict):
            spec = data["sweep"]
            try:
                values = ",".join(repr(float(v)) for v in spec["values"])
                data["sweep"] = f"{spec['param']}={values}"
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError("sweep object needs 'param' and numeric 'values'") from exc
    merged = {**data, **{key: value for key, value in flags.items() if value is not None}}
    for key, value in merged.items():
        kind = _FIELDS[key]
        if value is not None and (isinstance(value, bool) or not isinstance(value, _TAKES[kind])):
            raise ConfigError(f"config value {key} must be {kind}, not {value!r}")
    return RunConfig(**merged)


def _family(cfg: RunConfig) -> Family:
    if cfg.model not in FAMILIES:
        raise ConfigError("--model must be " + " or ".join(map(repr, FAMILIES)))
    return FAMILIES[cfg.model]


def _make_params(cfg: RunConfig, swept: str | None = None, value: float | None = None):
    """The model parameters of cfg, with the flag ``swept`` set to ``value``."""
    family = _family(cfg)
    flags = {name: getattr(cfg, name) for name in family.required + family.optional}
    if swept is not None:
        if swept not in flags:
            raise ConfigError(f"cannot sweep {swept!r} for the {cfg.model} model")
        flags[swept] = value
    if any(flags[name] is None for name in family.required):
        *first, last = (f"--{name}" for name in family.required)
        needs = f"{', '.join(first)} and {last}" if first else last
        raise ConfigError(f"{cfg.model} model needs {needs}")
    return family.build(**{name: v for name, v in flags.items() if v is not None})


def _parse_sweep(cfg: RunConfig) -> tuple[str, list[float]]:
    if cfg.sweep is None:
        raise ConfigError("--sweep name=v1,v2,... is required")
    try:
        name, _, raw = cfg.sweep.partition("=")
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep spec {cfg.sweep!r}") from exc
    if not name or not values:
        raise ConfigError(f"cannot parse sweep spec {cfg.sweep!r}")
    return name, values


def _make_grid(cfg: RunConfig, params) -> np.ndarray:
    if all(getattr(cfg, name) is None for name in _GRID_FIELDS):
        return model_time_grid(params)
    start = cfg.t_start if cfg.t_start is not None else 0.0
    if cfg.t_end is None or cfg.t_count is None:
        raise ConfigError("a custom grid needs --t-end and --t-count")
    end, count = cfg.t_end, cfg.t_count
    spacing = cfg.t_spacing or "linear"
    if count < 1 or end < start or start < 0.0:
        raise ConfigError("need 0 <= t-start <= t-end and t-count >= 1")
    if count == 1:
        return np.array([end])
    if spacing == "linear":
        return np.linspace(start, end, count)
    if spacing == "geometric":
        if start <= 0.0:
            raise ConfigError("geometric spacing needs t-start > 0")
        return np.geomspace(start, end, count)
    if spacing == "composite":
        mid = start + (end - start) / 10.0
        if mid <= 0.0:
            raise ConfigError("composite spacing needs t-end > 0")
        return composite_grid(start, mid, end, count)
    raise ConfigError("t-spacing must be linear, geometric or composite")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _emit(rows: list[dict], header: list[str], cfg: RunConfig, command: str):
    fmt = cfg.format or "csv"
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(row[col]) for col in header) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        plain = [
            {col: (row[col] if isinstance(row[col], (str, bool)) else float(row[col]))
             for col in header}
            for row in rows
        ]
        text = json.dumps(plain, indent=2) + "\n"
    else:
        raise ConfigError("format must be csv or json")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        sidecar = dict(dataclasses.asdict(cfg), command=command, format=fmt)
        with open(f"{cfg.out}.config.json", "w", encoding="utf-8", newline="") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        click.echo(text, nl=False)


def _common_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON config file; flags override its values."),
        click.option("--model", type=click.Choice(list(FAMILIES)), default=None),
        click.option("--gamma", type=float, default=None, help="Oscillator friction."),
        click.option("--omega", type=float, default=None, help="Oscillator frequency."),
        click.option("--beta", type=float, default=None, help="Inverse temperature."),
        click.option("--x0", type=float, default=None, help="Initial position."),
        click.option("--v0", type=float, default=None, help="Initial velocity."),
        click.option("--a", type=float, default=None, help="Coupled self-relaxation rate."),
        click.option("--k", type=float, default=None, help="Coupling strength."),
        click.option("--x1", type=float, default=None, help="Initial position of x1."),
        click.option("--x2", type=float, default=None, help="Initial position of x2."),
        click.option("--t-start", type=float, default=None),
        click.option("--t-end", type=float, default=None),
        click.option("--t-count", type=int, default=None),
        click.option("--t-spacing", type=click.Choice(["linear", "geometric", "composite"]),
                     default=None),
        click.option("--sweep", type=str, default=None, help="Sweep spec name=v1,v2,..."),
        click.option("--seed", type=int, default=None),
        click.option("--dt", type=float, default=None),
        click.option("--paths", type=int, default=None),
        click.option("--steps", type=int, default=None),
        click.option("--out", type=click.Path(), default=None),
        click.option("--format", "format", type=click.Choice(["csv", "json"]), default=None),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _run(command: str, body, config_path: str | None, flags: dict) -> None:
    try:
        cfg = _load_config(config_path, flags)
        code = body(cfg)
    except (ConfigError, ModredError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(code)


@click.group()
def main():
    """Invariant-manifold model reduction with Wasserstein error certificates."""


@main.command(name="law")
@_common_options
def cmd_law(config_path, **flags):
    """Tabulate the exact original and reduced laws over a time grid."""

    def body(cfg: RunConfig) -> int:
        if cfg.sweep is not None:
            raise ConfigError("law does not support --sweep (use the sweep command)")
        params = _make_params(cfg)
        grid, full, reduced, w2_sq = law_table(params, _make_grid(cfg, params))
        header = ["t", "mean_full", "var_full", "mean_reduced", "var_reduced", "w2", "w2_sq"]
        columns = (grid, *full, *reduced, np.sqrt(np.maximum(w2_sq, 0.0)), w2_sq)
        rows = [dict(zip(header, values)) for values in zip(*(c.tolist() for c in columns))]
        _emit(rows, header, cfg, "law")
        return 0

    _run("law", body, config_path, flags)


@main.command(name="bounds")
@_common_options
def cmd_bounds(config_path, **flags):
    """Verify every error bound on a time grid; exit 1 on any violation."""

    def body(cfg: RunConfig) -> int:
        if cfg.sweep is not None:
            name, values = _parse_sweep(cfg)
            param_sets = [_make_params(cfg, name, v) for v in values]
        else:
            param_sets = [_make_params(cfg)]
        header = ["bound_name", "t", "exact_sq", "bound", "margin", "satisfied"]
        rows = []
        all_ok = True
        for params in param_sets:
            for r in verify_bounds(params, _make_grid(cfg, params)):
                all_ok &= r.satisfied
                values = (r.name, r.t, r.exact_sq, r.bound, r.margin, r.satisfied)
                rows.append(dict(zip(header, values)))
        _emit(rows, header, cfg, "bounds")
        return 0 if all_ok else 1

    _run("bounds", body, config_path, flags)


@main.command(name="sweep")
@_common_options
def cmd_sweep(config_path, **flags):
    """Sweep one parameter; report sup-over-grid exact W2^2 vs its bound."""

    def body(cfg: RunConfig) -> int:
        name, values = _parse_sweep(cfg)
        uniform = _family(cfg).bounds[0]
        unstated = f"{uniform.name.replace('_', '-')} bound assumes {uniform.domain}"
        header = ["param", "value", "sup_w2_sq", "bound", "ratio"]
        rows = []
        all_ok = True
        for value in values:
            params = _make_params(cfg, name, value)
            grid = _make_grid(cfg, params)
            sup = sup_exact_w2_sq(params, grid)
            if not uniform.holds(params):
                raise ConfigError(unstated)
            bound = uniform.value(params, grid)
            all_ok &= bound_satisfied(sup, bound)
            rows.append(dict(zip(header, (name, value, sup, bound, sup / bound))))
        _emit(rows, header, cfg, "sweep")
        return 0 if all_ok else 1

    _run("sweep", body, config_path, flags)


@main.command(name="simulate")
@_common_options
def cmd_simulate(config_path, **flags):
    """Monte-Carlo cross-check of the reduction against closed-form laws."""

    def body(cfg: RunConfig) -> int:
        if cfg.sweep is not None:
            raise ConfigError("simulate does not support --sweep")
        params = _make_params(cfg)
        if all(getattr(cfg, name) is None for name in _GRID_FIELDS):
            cfg = dataclasses.replace(
                cfg, t_start=0.5, t_end=2.0, t_count=3, t_spacing="geometric"
            )
        grid = _make_grid(cfg, params)
        dt = cfg.dt if cfg.dt is not None else 1e-3
        seed = cfg.seed if cfg.seed is not None else 0
        paths = cfg.paths if cfg.paths is not None else 10_000
        record = sorted({round(float(t) / dt) * dt for t in grid})
        steps = cfg.steps if cfg.steps is not None else max(
            1, max(round(t / dt) for t in record)
        )
        cfg = dataclasses.replace(cfg, dt=dt, seed=seed, paths=paths, steps=steps)
        sim_cfg = SimConfig(dt=dt, n_steps=steps, n_paths=paths, seed=seed)
        init = params.initial_state
        full_sets, reduced_sets = simulate_ensembles(
            [(params.to_linear_model(), init), (params.reduce().to_linear_model(), init[:1])],
            sim_cfg,
            record,
        )
        analytic_sq = law_table(params, [s.t for s in full_sets])[3].tolist()
        header = ["t", "emp_mean", "emp_var", "emp_w2_vs_reduced", "se_mean", "se_var",
                  "se_w2", "analytic_w2", "z_score"]
        rows = []
        for full_set, reduced_set, exact_sq in zip(full_sets, reduced_sets, analytic_sq):
            retained = full_set.values[:, 0]
            moments = moment_estimates(retained)
            emp_w2 = empirical_w2_1d(retained, reduced_set.values)
            se_w2 = bootstrap_w2_se(retained, reduced_set.values, seed=seed)
            analytic = math.sqrt(max(exact_sq, 0.0))
            diff = emp_w2 - analytic
            if se_w2 > 0.0:
                z_score = diff / se_w2
            else:
                z_score = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
            values = (full_set.t, moments.mean, moments.variance, emp_w2, moments.se_mean,
                      moments.se_variance, se_w2, analytic, z_score)
            rows.append(dict(zip(header, values)))
        _emit(rows, header, cfg, "simulate")
        return 0

    _run("simulate", body, config_path, flags)


if __name__ == "__main__":
    main()
