"""Tests of the benchmark itself: its reference, its checks and its tracer.

Run with ``python -m pytest benchmarks -q`` from the repository root.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import checks
import reference as ref
import tracing
import workloads

import modred


def test_reference_reproduces_scalar_ou():
    c, d, m0 = -0.7, 0.3, 1.5
    times = np.array([0.0, 1e-6, 0.1, 1.0, 5.0, 60.0])
    mean, cov = ref.gaussian_laws([[c]], [[d]], [m0], times)
    np.testing.assert_allclose(mean[:, 0], np.exp(c * times) * m0, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(cov[:, 0, 0], d / c * np.expm1(2.0 * c * times),
                               rtol=1e-13, atol=0.0)


def test_block_exponential_matches_scipy():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(50, 2, 2))
    c *= ref.STEP_NORM / np.abs(c).sum(axis=1, keepdims=True).max(axis=2, keepdims=True)
    block = np.zeros((50, 4, 4))
    block[:, :2, :2] = -c
    block[:, :2, 2:] = rng.normal(size=(50, 2, 2)) * 30.0
    block[:, 2:, 2:] = np.swapaxes(c, 1, 2)
    expected = scipy.linalg.expm(block)
    np.testing.assert_allclose(ref.block_expm(block), expected, rtol=0.0,
                               atol=1e-14 * np.abs(expected).max())


def test_reference_does_not_depend_on_doubling_count():
    c, d, m0 = checks.system("oscillator", {"gamma": 30.0, "omega": 2.0, "beta": 0.5,
                                            "x0": 1.0, "v0": -1.0})
    times = np.linspace(0.0, 40.0, 9)
    mean0, cov0 = ref.gaussian_laws(c, d, m0, times)
    mean3, cov3 = ref.gaussian_laws(c, d, m0, times, extra_doublings=3)
    scale = np.max(np.abs(ref.stationary_cov(c, d)))
    np.testing.assert_allclose(mean3, mean0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(cov3, cov0, rtol=0.0, atol=1e-12 * scale)


def test_mc_check_rejects_shifted_mean(tmp_path):
    params = workloads.MC_MODELS["oscillator"]
    out = tmp_path / "sim.csv"
    code = workloads.invoke_cli(["simulate", "--model", "oscillator",
                                 *workloads.flags(params), "--seed", "7",
                                 "--paths", "2048", "--out", str(out)])
    assert code == 0
    table = checks.read_table(out)
    assert checks.check_simulate("oscillator", params, table, 2048, workloads.MC_TIMES) == []
    r = checks.law_reference("oscillator", params, table["t"])
    table["emp_mean"][1] += 10.0 * math.sqrt(r["var_full"][1] / 2048)
    assert checks.check_simulate("oscillator", params, table, 2048, workloads.MC_TIMES)


def test_bounds_check_rejects_a_row_whose_reference_exceeds_its_bound(tmp_path):
    params = {"gamma": 12.0, "omega": 1.5, "beta": 2.0, "x0": 1.2, "v0": -0.4}
    base = ["--model", "oscillator", *workloads.flags(params)]
    assert workloads.invoke_cli(["law", *base, "--out", str(tmp_path / "law.csv")]) == 0
    assert workloads.invoke_cli(["bounds", *base, "--out", str(tmp_path / "b.csv")]) == 0
    fails, r = checks.check_law("oscillator", params, checks.read_table(tmp_path / "law.csv"))
    assert fails == []
    table = checks.read_table(tmp_path / "b.csv")
    assert checks.check_bounds("oscillator", params, table, r) == []
    i = int(np.argmax(r["w2_sq"]))
    row = np.flatnonzero((table["bound_name"] == "high_friction") & (table["t"] == r["times"][i]))[0]
    table["bound"][row] = 0.5 * r["w2_sq"][i]
    assert table["satisfied"][row] == 1.0
    fails = checks.check_bounds("oscillator", params, table, r)
    assert any("satisfied" in f for f in fails)


def test_propagation_check_rejects_a_perturbed_covariance_entry():
    p = modred.CoupledParams(a=-0.3, d=-40.0, k=0.1, sigma1=0.5, sigma2=3.0, x1=1.0, x2=-2.0)
    model = p.to_linear_model()
    init = modred.Gaussian(mean=np.array([p.x1, p.x2]), cov=np.zeros((2, 2)))
    slow = -p.drift_eigenvalues()[0]
    times = [f / slow for f in workloads.GP_TIME_FACTORS]
    laws = [modred.propagate_law(model, init, t) for t in times]
    laws = [(g.mean, g.cov) for g in laws]
    g = modred.stationary_law(model)
    stationary = (g.mean, g.cov)
    red = modred.reduce_coupled(p)
    reduced = (red.drift, red.stationary_variance)
    params = {"a": p.a, "d": p.d, "k": p.k, "sigma1": p.sigma1, "sigma2": p.sigma2,
              "x1": p.x1, "x2": p.x2}
    assert checks.check_propagation("coupled", params, times, laws, stationary, reduced) == []
    cov = laws[3][1].copy()
    cov[1, 1] *= 1.0 + 1e-6
    laws[3] = (laws[3][0], cov)
    assert checks.check_propagation("coupled", params, times, laws, stationary, reduced)


def test_tracer_counts_calls_and_restores_the_program():
    original = modred.bounds.verify_bounds
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert modred.cli.verify_bounds is not original
        p = modred.OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0)
        with tracer.span("outer"):
            reports = modred.verify_bounds(p)
    finally:
        tracer.uninstall()
    assert modred.cli.verify_bounds is original and modred.verify_bounds is original
    assert tracer.calls["bounds.verify_bounds"] == 1
    assert tracer.counts["bounds.reports"] == len(reports)
    assert tracer.calls["models.law"] > 0
    assert all(v >= 0.0 for v in tracer.self_s.values())


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    import worker

    class Run:
        attempted, files = 1, []

    layer = worker.per_layer(tracing.Tracer(), Run(), 1.0, 0.0)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(worker.END_TO_END) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


@pytest.mark.parametrize("ratio", [2.0, 30.0, 1e3])
def test_stiff_oscillator_has_the_requested_rate_ratio(ratio):
    p = modred.OscillatorParams(**workloads._stiff_oscillator(np.random.default_rng(0), ratio))
    assert math.isclose(p.rate_fast / p.rate_slow, ratio, rel_tol=1e-9)
