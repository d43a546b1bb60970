import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import modred
from modred import (
    CoupledParams,
    OscillatorParams,
    SimConfig,
    bootstrap_w2_se,
    coupled_full_law,
    coupled_reduced_law,
    coupled_small_k_bound,
    empirical_w2_1d,
    exact_w2_sq,
    model_time_grid,
    moment_estimates,
    osc_highfriction_bound,
    oscillator_marginal_law,
    oscillator_reduced_law,
    simulate,
    sup_exact_w2_sq,
    verify_bounds,
)
from modred.bounds import FAMILIES
from modred.cli import main

OSC_ARGS = ["--model", "oscillator", "--gamma", "5", "--omega", "2", "--beta", "1", "--x0", "1", "--v0", "0"]
COUPLED_ARGS = ["--model", "coupled", "--a", "-1", "--k", "0.5", "--x1", "1", "--x2", "-0.4"]


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestLawCommand:
    def test_header_and_zero_row(self, runner):
        result = invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "1", "--t-count", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "t,mean_full,var_full,mean_reduced,var_reduced,w2,w2_sq"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[5] == "0" and first[6] == "0"

    def test_rows_match_library_bit_for_bit(self, runner):
        result = invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "2", "--t-count", "4"])
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
        for line, t in zip(result.output.strip().split("\n")[1:], np.linspace(0.0, 2.0, 4)):
            cells = line.split(",")
            law = oscillator_marginal_law(p, float(t))
            reduced = oscillator_reduced_law(p, float(t))
            w2_sq = exact_w2_sq(p, float(t))
            expected = [
                float(t), law.mean[0], law.variance, reduced.mean[0], reduced.variance,
                math.sqrt(max(w2_sq, 0.0)), w2_sq,
            ]
            assert cells == [f"{v:.17g}" for v in expected]

    def test_csv_round_trips_exactly(self, runner, tmp_path):
        out = tmp_path / "law.csv"
        invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "2", "--t-count", "5", "--out", str(out)])
        lines = out.read_text().split("\n")
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
        row = lines[2].split(",")
        t = float(row[0])
        assert float(row[1]) == oscillator_marginal_law(p, t).mean[0]
        assert float(row[2]) == oscillator_marginal_law(p, t).variance

    def test_coupled_model(self, runner):
        result = invoke(runner, ["law", "--model", "coupled", "--a", "-1", "--k", "1", "--x1", "1", "--x2", "0",
                                 "--t-start", "0", "--t-end", "1", "--t-count", "2"])
        assert result.exit_code == 0
        assert result.output.startswith("t,mean_full")

    def test_law_rejects_sweep(self, runner):
        result = invoke(runner, ["law", *OSC_ARGS, "--sweep", "gamma=5,10"])
        assert result.exit_code == 2

    def test_json_format(self, runner):
        result = invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "1", "--t-count", "2",
                                 "--format", "json"])
        rows = json.loads(result.output)
        assert isinstance(rows, list) and set(rows[0]) == {
            "t", "mean_full", "var_full", "mean_reduced", "var_reduced", "w2", "w2_sq"
        }


class TestBoundsCommand:
    def test_valid_oscillator_exits_zero(self, runner):
        result = invoke(runner, ["bounds", *OSC_ARGS])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "bound_name,t,exact_sq,bound,margin,satisfied"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_not_overdamped_exits_two(self, runner):
        result = invoke(runner, ["bounds", "--model", "oscillator", "--gamma", "4", "--omega", "2", "--beta", "1"])
        assert result.exit_code == 2
        assert "gamma > 2*omega" in result.output

    def test_coupled_k_sweep_blocks(self, runner):
        result = invoke(runner, ["bounds", "--model", "coupled", "--a", "-1", "--k", "1",
                                 "--x1", "1", "--x2", "0", "--sweep", "k=0.1,1,10"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")[1:]
        expected_total = 0
        for k in [0.1, 1.0, 10.0]:
            p = CoupledParams(a=-1.0, d=-1.0, k=k, x1=1.0, x2=0.0)
            expected_total += len(verify_bounds(p, model_time_grid(p)))
        assert len(lines) == expected_total
        assert all(line.endswith(",1") for line in lines)

    def test_strong_coupling_certifies_remaining_families(self, runner):
        result = invoke(runner, ["bounds", "--model", "coupled", "--a", "-1", "--k", "20", "--x1", "1"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")[1:]
        names = [line.split(",")[0] for line in lines]
        assert list(dict.fromkeys(names)) == [
            "long_time", "equilibrium_rate_original", "equilibrium_rate_reduced"
        ]
        assert all(line.endswith(",1") for line in lines)


class TestSweepCommand:
    def test_gamma_sweep_decreasing(self, runner):
        result = invoke(runner, ["sweep", *OSC_ARGS, "--sweep", "gamma=5,10,20,40"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "param,value,sup_w2_sq,bound,ratio"
        sups = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_k_sweep_bounded_and_vanishing(self, runner):
        result = invoke(runner, ["sweep", "--model", "coupled", "--a", "-1", "--k", "1",
                                 "--x1", "1", "--x2", "0", "--sweep", "k=0.2,0.1,0.05,0.01"])
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        sups = [float(r[2]) for r in rows]
        ratios = [float(r[4]) for r in rows]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert all(r <= 1.0 for r in ratios)

    def test_single_value_sweep_matches_bounds_summary(self, runner):
        result = invoke(runner, ["sweep", *OSC_ARGS, "--sweep", "gamma=5"])
        sup = float(result.output.strip().split("\n")[1].split(",")[2])
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)
        assert sup == sup_exact_w2_sq(p, model_time_grid(p))
        bound = float(result.output.strip().split("\n")[1].split(",")[3])
        from modred import osc_highfriction_bound

        assert bound == osc_highfriction_bound(p)

    def test_coupled_sweep_refuses_strong_coupling(self, runner):
        result = invoke(runner, ["sweep", "--model", "coupled", "--a", "-1", "--k", "1",
                                 "--x1", "1", "--sweep", "k=1,20"])
        assert result.exit_code == 2
        assert "small-coupling bound assumes k <= 10.0" in result.output

    def test_sweep_requires_spec(self, runner):
        result = invoke(runner, ["sweep", *OSC_ARGS])
        assert result.exit_code == 2

    @pytest.mark.parametrize("k, stated",
                             [("10", True), (repr(math.nextafter(10.0, math.inf)), False)])
    def test_bounds_and_sweep_share_the_small_coupling_domain(self, runner, k, stated):
        base = ["--model", "coupled", "--a", "-1", "--x1", "1"]
        bounds = invoke(runner, ["bounds", *base, "--k", k])
        assert bounds.exit_code == 0
        names = [line.split(",")[0] for line in bounds.stdout.strip().split("\n")[1:]]
        assert ("small_coupling" in names) == stated
        sweep = invoke(runner, ["sweep", *base, "--sweep", f"k={k}"])
        if stated:
            assert sweep.exit_code == 0
            p = CoupledParams(a=-1.0, d=-1.0, k=10.0, x1=1.0)
            assert float(sweep.stdout.split("\n")[1].split(",")[3]) == coupled_small_k_bound(p)
        else:
            assert sweep.exit_code == 2
            assert sweep.stderr == "error: small-coupling bound assumes k <= 10.0\n"


class TestSimulateCommand:
    SIM_ARGS = ["simulate", *OSC_ARGS, "--paths", "1500", "--seed", "21", "--dt", "0.001"]

    def test_deterministic_output_bytes(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(runner, [*self.SIM_ARGS, "--out", str(out1)])
        invoke(runner, [*self.SIM_ARGS, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_columns_and_z_scores(self, runner):
        result = invoke(runner, self.SIM_ARGS)
        lines = result.output.strip().split("\n")
        assert lines[0] == "t,emp_mean,emp_var,emp_w2_vs_reduced,se_mean,se_var,se_w2,analytic_w2,z_score"
        for line in lines[1:]:
            assert abs(float(line.split(",")[-1])) <= 4.0

    def test_zero_noise_model_gives_zero_variance(self, runner, tmp_path):
        cfg = {"model": "coupled", "a": -1.0, "k": 1.0, "x1": 1.0, "x2": 1.0,
               "t_start": 0.1, "t_end": 0.2, "t_count": 2, "paths": 64, "seed": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = invoke(runner, ["simulate", "--config", str(path)])
        assert result.exit_code == 0

    def test_unstable_step_reports_config_error(self, runner):
        result = invoke(runner, ["simulate", *OSC_ARGS, "--dt", "0.2", "--paths", "10"])
        assert result.exit_code == 2
        assert "dt" in result.output


class TestConfigHandling:
    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = {"model": "oscillator", "gamma": 5.0, "omega": 2.0, "beta": 1.0,
               "x0": 1.0, "v0": 0.0, "t_start": 0.0, "t_end": 1.0, "t_count": 3}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        base = invoke(runner, ["law", "--config", str(path)])
        overridden = invoke(runner, ["law", "--config", str(path), "--t-count", "5"])
        assert len(base.output.strip().split("\n")) == 4
        assert len(overridden.output.strip().split("\n")) == 6

    def test_sidecar_written_with_effective_config(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "1", "--t-count", "2",
                        "--out", str(out)])
        sidecar = json.loads((tmp_path / "table.csv.config.json").read_text())
        assert sidecar["command"] == "law"
        assert sidecar["gamma"] == 5.0
        assert sidecar["format"] == "csv"

    def test_sidecar_is_reusable_as_config(self, runner, tmp_path):
        out = tmp_path / "first.csv"
        invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "1", "--t-count", "3",
                        "--out", str(out)])
        rerun = tmp_path / "second.csv"
        result = invoke(runner, ["law", "--config", str(out) + ".config.json", "--out", str(rerun)])
        assert result.exit_code == 0
        assert rerun.read_bytes() == out.read_bytes()

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "oscillator", "gamm": 5.0}))
        result = invoke(runner, ["law", "--config", str(path)])
        assert result.exit_code == 2
        assert "unknown config keys" in result.output

    def test_missing_required_params_exit_two(self, runner):
        result = invoke(runner, ["law", "--model", "oscillator", "--gamma", "5"])
        assert result.exit_code == 2

    def test_sweep_object_form_in_config(self, runner, tmp_path):
        cfg = {"model": "oscillator", "gamma": 5.0, "omega": 2.0, "beta": 1.0, "x0": 1.0,
               "sweep": {"param": "gamma", "values": [5.0, 10.0]}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        result = invoke(runner, ["sweep", "--config", str(path)])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 3

    @pytest.mark.parametrize("change", [
        {"gamma": "5"},
        {"t_count": 5.5, "t_end": 1.0},
        {"t_count": 5.0, "t_end": 1.0},
        {"gamma": True},
        {"t_count": True, "t_end": 1.0},
        {"model": 3},
        {"format": ["csv"]},
        {"sweep": 5},
        {"sweep": {"param": "gamma", "values": [True, "7"]}},
        {"sweep": {"param": "gamma", "values": [5, "7"]}},
        {"sweep": {"param": "gamma", "values": [5, False]}},
        {"sweep": {"param": "gamma", "values": [5, None]}},
    ], ids=lambda change: json.dumps(change))
    def test_config_value_of_wrong_type_exits_two(self, runner, tmp_path, change):
        key = next(iter(change))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "oscillator", "gamma": 5, "omega": 2, "beta": 1,
                                    **change}))
        result = invoke(runner, ["law", "--config", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: config value {key} must be ")
        assert result.stderr.count("\n") == 1

    def test_integer_config_values_are_numbers(self, runner, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"model": "oscillator", "gamma": 5, "omega": 2, "beta": 1,
                                    "x0": 1, "t_end": 2, "t_count": 5}))
        from_config = invoke(runner, ["law", "--config", str(path)])
        from_flags = invoke(runner, ["law", *OSC_ARGS, "--t-end", "2", "--t-count", "5"])
        assert from_config.exit_code == 0
        assert from_config.stdout == from_flags.stdout

    @pytest.mark.parametrize("command", ["law", "bounds", "sweep", "simulate"])
    def test_lone_t_spacing_is_refused(self, runner, command):
        sweep = ["--sweep", "gamma=5"] if command == "sweep" else []
        result = invoke(runner, [command, *OSC_ARGS, "--t-spacing", "geometric", *sweep])
        assert result.exit_code == 2
        assert result.stderr == "error: a custom grid needs --t-end and --t-count\n"

    def test_geometric_grid_requires_positive_start(self, runner):
        result = invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "1",
                                 "--t-count", "3", "--t-spacing", "geometric"])
        assert result.exit_code == 2

    def test_composite_grid_spacing(self, runner):
        result = invoke(runner, ["law", *OSC_ARGS, "--t-start", "0", "--t-end", "10",
                                 "--t-count", "8", "--t-spacing", "composite"])
        assert result.exit_code == 0
        ts = [float(line.split(",")[0]) for line in result.output.strip().split("\n")[1:]]
        assert ts == sorted(ts) and len(ts) == 8
        assert math.isclose(ts[-1], 10.0, rel_tol=1e-12)


def _osc(**change):
    return OscillatorParams(**{"gamma": 5.0, "omega": 2.0, "beta": 1.0, "x0": 1.0, "v0": 0.0, **change})


def _coupled(**change):
    q = {"a": -1.0, "k": 0.5, "x1": 1.0, "x2": -0.4, **change}
    return CoupledParams(d=q["a"], **q)


def _single_time_laws(p, t):
    """Retained and reduced law at one time t, by the single-time library calls."""
    if type(p) is OscillatorParams:
        full, reduced = oscillator_marginal_law(p, t), oscillator_reduced_law(p, t)
        return full.mean[0], full.variance, reduced.mean[0], reduced.variance, exact_w2_sq(p, t)
    joint, reduced = coupled_full_law(p, t), coupled_reduced_law(p, t)
    return (joint.mean[0], max(joint.cov[0, 0], 0.0), reduced.mean[0], reduced.variance,
            exact_w2_sq(p, t))


def _cells(values):
    return [("1" if v else "0") if isinstance(v, bool) else f"{float(v):.17g}" for v in values]


# --model name, flags, library parameters of a flag change, swept parameter and values
FAMILY_CASES = [
    ("oscillator", OSC_ARGS, _osc, "gamma", [5.0, 10.0, 40.0]),
    ("coupled", COUPLED_ARGS, _coupled, "k", [0.1, 0.5, 2.0]),
]


@pytest.mark.parametrize("model, args, params, name, values", FAMILY_CASES,
                         ids=[case[0] for case in FAMILY_CASES])
class TestFamilyWiring:
    """Each command's rows equal the library values bit for bit, for both families."""

    def test_law_rows(self, runner, model, args, params, name, values):
        p = params()
        lines = invoke(runner, ["law", *args]).output.strip().split("\n")[1:]
        grid = model_time_grid(p)
        assert len(lines) == grid.size
        for line, t in zip(lines, grid.tolist()):
            mean_full, var_full, mean_red, var_red, w2_sq = _single_time_laws(p, t)
            expected = [t, mean_full, var_full, mean_red, var_red, math.sqrt(max(w2_sq, 0.0)), w2_sq]
            assert line.split(",") == _cells(expected)

    def test_bounds_rows(self, runner, model, args, params, name, values):
        p = params()
        result = invoke(runner, ["bounds", *args])
        assert result.exit_code == 0
        expected = [
            ",".join([r.name, *_cells([r.t, r.exact_sq, r.bound, r.margin, r.satisfied])])
            for r in verify_bounds(p, model_time_grid(p))
        ]
        assert result.output.strip().split("\n")[1:] == expected

    def test_sweep_rows(self, runner, model, args, params, name, values):
        spec = f"{name}=" + ",".join(repr(v) for v in values)
        result = invoke(runner, ["sweep", *args, "--sweep", spec])
        assert result.exit_code == 0
        uniform = osc_highfriction_bound if model == "oscillator" else coupled_small_k_bound
        expected = []
        for value in values:
            p = params(**{name: value})
            sup, bound = sup_exact_w2_sq(p, model_time_grid(p)), uniform(p)
            expected.append(",".join([name, *_cells([value, sup, bound, sup / bound])]))
        assert result.output.strip().split("\n")[1:] == expected

    def test_simulate_analytic_w2(self, runner, model, args, params, name, values):
        p = params()
        result = invoke(runner, ["simulate", *args, "--paths", "200", "--seed", "3"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        assert len(rows) == 3
        for row in rows:
            t = float(row[0])
            w2_sq = _single_time_laws(p, t)[4]
            assert row[7] == _cells([math.sqrt(max(w2_sq, 0.0))])[0]

    def test_simulate_sample_columns(self, runner, model, args, params, name, values):
        """The paired simulation gives the columns of two separate simulate calls."""
        p = params()
        result = invoke(runner, ["simulate", *args, "--paths", "200", "--seed", "3"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        times = [float(row[0]) for row in rows]
        cfg = SimConfig(dt=1e-3, n_steps=round(times[-1] / 1e-3), n_paths=200, seed=3)
        init = list(p.initial_state)
        full = simulate(p.to_linear_model(), init, cfg, times)
        reduced = simulate(p.reduce().to_linear_model(), init[:1], cfg, times)
        for row, full_set, reduced_set in zip(rows, full, reduced):
            retained = full_set.values[:, 0]
            est = moment_estimates(retained)
            expected = [est.mean, est.variance, empirical_w2_1d(retained, reduced_set.values),
                        est.se_mean, est.se_variance,
                        bootstrap_w2_se(retained, reduced_set.values, seed=3)]
            assert row[1:7] == _cells(expected)


def test_model_choices_are_the_family_table():
    for command in main.commands.values():
        (option,) = [param for param in command.params if param.name == "model"]
        assert list(option.type.choices) == list(FAMILIES)


def test_import_leaves_thread_pools_out():
    """Only a multi-worker simulation imports concurrent.futures."""
    src = str(pathlib.Path(modred.__file__).parents[1])
    code = "import sys, modred, modred.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"
