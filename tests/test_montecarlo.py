import math
import warnings

import numpy as np
import pytest

from modred import montecarlo
from modred import (
    Gaussian,
    InvalidParams,
    LengthMismatch,
    LinearModel,
    NonFinite,
    OscillatorParams,
    SimConfig,
    TooFewSamples,
    UnstableStep,
    empirical_w2_1d,
    moment_estimates,
    oscillator_marginal_law,
    reduce_oscillator,
    simulate,
    simulate_ensembles,
)

BASE_OSC = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=1.0, v0=0.0)


class TestSimConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(InvalidParams):
            SimConfig(dt=0.0, n_steps=10, n_paths=10, seed=0)

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidParams):
            SimConfig(dt=0.1, n_steps=0, n_paths=10, seed=0)


class TestSimulate:
    def test_zero_diffusion_matches_euler_recursion(self):
        dt = 2.0**-10  # exact binary step so x - x*dt rounds like x*(1-dt)
        n = 700
        cfg = SimConfig(dt=dt, n_steps=n, n_paths=3, seed=1)
        out = simulate(LinearModel(-1.0, 0.0), [1.0], cfg, [n * dt])
        expected = 1.0
        for _ in range(n):
            expected *= 1.0 - dt
        np.testing.assert_array_equal(out[0].values, np.full(3, expected))
        assert math.isclose(expected, (1.0 - dt) ** n, rel_tol=1e-12)
        assert moment_estimates(out[0].values).variance == 0.0

    def test_same_seed_bitwise_identical(self):
        cfg = SimConfig(dt=1e-3, n_steps=200, n_paths=400, seed=9)
        model = BASE_OSC.to_linear_model()
        one = simulate(model, [1.0, 0.0], cfg, [0.1, 0.2])
        two = simulate(model, [1.0, 0.0], cfg, [0.1, 0.2])
        for a, b in zip(one, two):
            assert np.array_equal(a.values, b.values)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = SimConfig(dt=1e-3, n_steps=100, n_paths=2500, seed=5)
        model = BASE_OSC.to_linear_model()
        sequential = simulate(model, [1.0, 0.0], cfg, [0.1], workers=1)
        threaded = simulate(model, [1.0, 0.0], cfg, [0.1], workers=4)
        assert np.array_equal(sequential[0].values, threaded[0].values)
        monkeypatch.setenv("MODRED_THREADS", "3")
        via_env = simulate(model, [1.0, 0.0], cfg, [0.1])
        assert np.array_equal(sequential[0].values, via_env[0].values)

    def test_seed_changes_results(self):
        model = LinearModel(-1.0, 1.0)
        cfg1 = SimConfig(dt=1e-2, n_steps=10, n_paths=50, seed=1)
        cfg2 = SimConfig(dt=1e-2, n_steps=10, n_paths=50, seed=2)
        a = simulate(model, [0.0], cfg1, [0.1])[0].values
        b = simulate(model, [0.0], cfg2, [0.1])[0].values
        assert not np.array_equal(a, b)

    def test_record_time_zero_returns_init(self):
        cfg = SimConfig(dt=1e-2, n_steps=10, n_paths=7, seed=0)
        out = simulate(LinearModel(-1.0, 1.0), [2.5], cfg, [0.0])
        np.testing.assert_array_equal(out[0].values, np.full(7, 2.5))

    def test_moments_match_closed_form(self):
        p = BASE_OSC
        cfg = SimConfig(dt=1e-3, n_steps=1000, n_paths=20_000, seed=11)
        out = simulate(p.to_linear_model(), [p.x0, p.v0], cfg, [1.0])[0]
        law = oscillator_marginal_law(p, 1.0)
        est = moment_estimates(out.values[:, 0])
        assert abs(est.mean - law.mean[0]) <= 4.0 * est.se_mean
        assert abs(est.variance - law.variance) <= 4.0 * est.se_variance

    def test_gaussian_initial_law_preserves_stationarity(self):
        model = LinearModel(-1.0, 1.0)
        cfg = SimConfig(dt=1e-3, n_steps=500, n_paths=20_000, seed=12)
        out = simulate(model, Gaussian(0.0, 1.0), cfg, [0.5])[0]
        est = moment_estimates(out.values)
        assert abs(est.mean) <= 4.0 * est.se_mean
        assert abs(est.variance - 1.0) <= 4.0 * est.se_variance

    def test_weak_error_scales_linearly_in_dt(self):
        # amplified initial condition so the Euler mean bias dwarfs MC noise
        p = OscillatorParams(gamma=5.0, omega=2.0, beta=1.0, x0=100.0, v0=0.0)
        reduced = reduce_oscillator(p).to_linear_model()
        biases = []
        for dt in [4e-3, 2e-3, 1e-3]:
            cfg = SimConfig(dt=dt, n_steps=round(1.0 / dt), n_paths=50_000, seed=99)
            out = simulate(reduced, [p.x0], cfg, [1.0])[0]
            target = p.x0 * math.exp(-p.rate_slow)
            biases.append(abs(moment_estimates(out.values).mean - target))
        for coarse, fine in zip(biases, biases[1:]):
            assert 1.0 <= coarse / fine <= 3.0

    def test_unstable_step_rejected(self):
        cfg = SimConfig(dt=0.2, n_steps=10, n_paths=10, seed=0)
        with pytest.raises(UnstableStep):
            simulate(BASE_OSC.to_linear_model(), [1.0, 0.0], cfg, [0.2])

    def test_unstable_step_on_large_entries_reports_the_finite_radius(self):
        # eigenvalues -1e200 and -2e200: an unscaled discriminant overflows
        model = LinearModel([[-1e200, 1e200], [0.0, -2e200]], np.eye(2))
        cfg = SimConfig(dt=1e-3, n_steps=10, n_paths=10, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableStep, match=r"= 2e\+197 >= 0.5"):
                simulate(model, [1.0, 0.0], cfg, [1e-3])

    def test_nonfinite_state_detected(self):
        # stable per the dt guard but exponentially growing until overflow
        cfg = SimConfig(dt=0.01, n_steps=200_000, n_paths=2, seed=0)
        with pytest.raises(NonFinite):
            simulate(LinearModel(1.0, 0.0), [1e300], cfg, [2000.0])

    def test_record_times_must_align_with_dt(self):
        cfg = SimConfig(dt=1e-2, n_steps=100, n_paths=5, seed=0)
        with pytest.raises(InvalidParams):
            simulate(LinearModel(-1.0, 1.0), [0.0], cfg, [0.505])

    def test_record_times_must_fit_horizon(self):
        cfg = SimConfig(dt=1e-2, n_steps=100, n_paths=5, seed=0)
        with pytest.raises(InvalidParams):
            simulate(LinearModel(-1.0, 1.0), [0.0], cfg, [1.5])


def _bitwise_equal(got, expected):
    assert [s.t for s in got] == [s.t for s in expected]
    for a, b in zip(got, expected):
        assert a.values.shape == b.values.shape
        assert a.values.tobytes() == b.values.tobytes()


# (2-D init, 1-D init) per case: point masses, then laws with non-zero covariance
ENSEMBLE_INITS = {
    "point": ([1.0, -0.5], [1.0]),
    "gaussian": (Gaussian([1.0, -0.5], [[0.3, 0.1], [0.1, 0.2]]), Gaussian(0.5, 0.7)),
}


def _osc_pairs(init, order):
    full_init, reduced_init = ENSEMBLE_INITS[init]
    pairs = [
        (BASE_OSC.to_linear_model(), full_init),
        (reduce_oscillator(BASE_OSC).to_linear_model(), reduced_init),
    ]
    return pairs if order == "2d-1d" else pairs[::-1]


class TestSimulateEnsembles:
    """Shared noise streams give exactly the samples of separate simulate calls."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("init", list(ENSEMBLE_INITS))
    @pytest.mark.parametrize("order", ["2d-1d", "1d-2d"])
    @pytest.mark.parametrize("record", [[0.0, 0.3, 0.63], [0.0]], ids=["steps", "t0-only"])
    def test_equals_separate_calls(self, monkeypatch, workers, init, order, record):
        cfg = SimConfig(dt=1e-2, n_steps=63, n_paths=40, seed=5)
        pairs = _osc_pairs(init, order)
        expected = [simulate(model, start, cfg, record, workers=workers) for model, start in pairs]
        # chunks of 5 2-D steps and blocks of 16 paths: the paired call crosses
        # many chunk edges in every block, and batching must not change a bit
        monkeypatch.setattr(montecarlo, "_CHUNK_STEPS", 5)
        monkeypatch.setattr(montecarlo, "_BLOCK_PATHS", 16)
        got = simulate_ensembles(pairs, cfg, record, workers=workers)
        assert len(got) == 2
        for sets, reference in zip(got, expected):
            _bitwise_equal(sets, reference)

    @pytest.mark.parametrize("order", ["2d-1d", "1d-2d"])
    def test_equals_separate_calls_past_one_chunk(self, order):
        # 2100 2-D steps cross the 2048-step chunk; 1100 paths make two blocks
        cfg = SimConfig(dt=1e-3, n_steps=2100, n_paths=1100, seed=5)
        pairs = _osc_pairs("gaussian", order)
        got = simulate_ensembles(pairs, cfg, [0.0, 2.1], workers=2)
        for sets, (model, start) in zip(got, pairs):
            _bitwise_equal(sets, simulate(model, start, cfg, [0.0, 2.1], workers=1))

    def test_unstable_second_ensemble_rejected(self):
        cfg = SimConfig(dt=0.2, n_steps=10, n_paths=10, seed=0)
        pairs = [(LinearModel(-1.0, 1.0), [1.0]), (BASE_OSC.to_linear_model(), [1.0, 0.0])]
        with pytest.raises(UnstableStep):
            simulate_ensembles(pairs, cfg, [0.2])


class TestPathStreams:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 1, 1023, 2**32 - 1, 2**64 - 1])
    def test_rekeyed_used_generator_equals_fresh_one(self, seed, index):
        rng = montecarlo._path_rng(7, 3)
        # leave a partly used output buffer and a cached 32-bit half behind
        rng.standard_normal(5)
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        montecarlo._rekey(rng, seed, index)
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        assert rng.standard_normal(1001).tobytes() == fresh.standard_normal(1001).tobytes()
        assert rng.integers(0, 2**32, size=5, dtype=np.uint32).tobytes() == (
            fresh.integers(0, 2**32, size=5, dtype=np.uint32).tobytes()
        )
        assert rng.bit_generator.random_raw(9).tobytes() == fresh.bit_generator.random_raw(9).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_path_reads_its_stream_from_the_start(self, monkeypatch, workers):
        # blocks of 16 paths: every worker's generators are re-keyed for
        # blocks after its first, including the short last one
        monkeypatch.setattr(montecarlo, "_BLOCK_PATHS", 16)
        seed, dt = 2**64 - 1, 0.25
        cfg = SimConfig(dt=dt, n_steps=2, n_paths=70, seed=seed)
        first, second = simulate(LinearModel(0.0, 0.5), [0.0], cfg, [dt, 2 * dt], workers=workers)
        for i in range(cfg.n_paths):
            z = montecarlo._path_rng(seed, i).standard_normal(2) * math.sqrt(dt)
            assert first.values[i] == z[0]
            assert second.values[i] == z[0] + z[1]


class TestEmpiricalW2:
    def test_identical_sets_give_zero(self):
        values = np.random.default_rng(0).normal(size=1000)
        assert empirical_w2_1d(values, values.copy()) == 0.0

    def test_constant_shift(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=5000)
        assert math.isclose(empirical_w2_1d(values, values + 1.75), 1.75, rel_tol=1e-12)

    def test_gaussian_pair_matches_closed_form(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, size=100_000)
        b = rng.normal(1.0, 2.0, size=100_000)
        assert abs(empirical_w2_1d(a, b) - math.sqrt(2.0)) < 0.03

    def test_sorting_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=4000)
        b = rng.normal(size=4000)
        baseline = empirical_w2_1d(a, b)
        assert empirical_w2_1d(rng.permutation(a), rng.permutation(b)) == baseline

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            empirical_w2_1d(np.zeros(5), np.zeros(6))


class TestMomentEstimates:
    def test_constant_samples(self):
        est = moment_estimates(np.full(100, 3.0))
        assert est.mean == 3.0 and est.variance == 0.0
        assert est.se_mean == 0.0 and est.se_variance == 0.0

    def test_gaussian_draws_within_clt_band(self):
        rng = np.random.default_rng(4)
        values = rng.normal(2.0, 3.0, size=100_000)
        est = moment_estimates(values)
        assert abs(est.mean - 2.0) <= 4.0 * 3.0 / math.sqrt(values.size)

    def test_merging_equal_halves_keeps_mean(self):
        rng = np.random.default_rng(5)
        half = rng.normal(size=1000)
        merged = np.concatenate([half, half])
        assert math.isclose(moment_estimates(merged).mean, moment_estimates(half).mean, rel_tol=1e-15)

    def test_two_dimensional_samples(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(5000, 2))
        est = moment_estimates(values)
        assert est.mean.shape == (2,) and est.variance.shape == (2,)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            moment_estimates(np.array([1.0]))
