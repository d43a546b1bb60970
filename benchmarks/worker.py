"""One benchmark run in a fresh process, started by ``run.py``.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1 --spawned-at T

``T`` is the ``time.monotonic()`` reading of the parent just before it
started this process; ``setup_s`` runs from there to the end of the import
of ``modred`` and ``modred.cli``, the set-up every CLI command pays.
Prints one JSON object as its last line of output.
"""

import sys
import time

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import modred  # noqa: E402
import modred.cli  # noqa: E402,F401

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "ops/s"}
PER_LAYER_TIMES = [
    "montecarlo.simulate", "montecarlo.bootstrap_w2_se", "montecarlo.estimators",
    "bounds.verify_bounds", "bounds.sup_exact_w2_sq", "bounds.time_grid",
    "bounds.w2_exact", "models.law", "models.equilibrium_laws",
    "linear_sde.propagate_law.general", "linear_sde.propagate_law.symmetric",
    "linear_sde.stationary_law", "linalg2.expm2", "reduction.reduce",
]
PER_LAYER_CALLS = [
    "montecarlo.simulate", "bounds.verify_bounds", "bounds.w2_exact", "models.law",
    "linear_sde.propagate_law.general", "linear_sde.propagate_law.symmetric",
    "linalg2.expm2", "linalg2.solve_lyapunov2", "reduction.reduce",
]
PER_LAYER_COUNTS = ["montecarlo.path_steps", "montecarlo.bootstrap_resamples", "bounds.reports"]


def per_layer(tracer, run, cpu_s: float, span_cost: float) -> dict:
    """Per-layer metrics of a traced run, each per attempted operation."""
    n = run.attempted
    metrics = {}
    for layer in PER_LAYER_TIMES:
        metrics[f"{layer}.s"] = (tracer.self_s.get(layer, 0.0) / n, "s/op")
    for layer in PER_LAYER_CALLS:
        metrics[f"{layer}.calls"] = (tracer.calls.get(layer, 0) / n, "count/op")
    for key in PER_LAYER_COUNTS:
        metrics[key] = (tracer.counts.get(key, 0) / n, "count/op")
    written = [path for path in run.files if path.exists()]
    metrics["cli.self_s"] = (tracer.self_s.get("cli", 0.0) / n, "s/op")
    metrics["cli.rows_emitted"] = (
        sum(path.read_bytes().count(b"\n") - 1 for path in written) / n, "count/op")
    metrics["cli.bytes_emitted"] = (sum(path.stat().st_size for path in written) / n, "count/op")
    metrics["process.cpu_s"] = (cpu_s / n, "s/op")
    metrics["trace.overhead_s"] = (tracer.spans * span_cost / n, "s/op")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    setup_s = READY - args.spawned_at

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        tracer = tracing.Tracer() if args.trace else None
        run = workloads.WORKLOADS[args.workload](args.seed, tmp, tracer)
        if tracer is not None:
            tracer.install()
        cpu0 = time.process_time()
        start = time.monotonic()
        rounds = 0
        while rounds == 0 or time.monotonic() - start < args.seconds:
            run.run_round(rounds)
            rounds += 1
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        import checks  # noqa: E402  (imports scipy, kept out of the timed part)

        fails = run.check(checks)
        if args.trace:
            metrics = per_layer(tracer, run, cpu_s, tracing.span_cost())
        else:
            values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops_per_s": run.ops_per_s()}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        result = {
            "correct": not fails,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        for line in fails[:20]:
            print(f"check failed: {line}", file=sys.stderr)
        if len(fails) > 20:
            print(f"... {len(fails) - 20} more failed checks", file=sys.stderr)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                      samples=run.samples, failures=fails)
        if tracer is not None:
            detail["layers"] = {layer: {"calls": tracer.calls[layer], "self_s": tracer.self_s[layer]}
                                for layer in sorted(tracer.calls)}
            detail["counts"] = dict(tracer.counts)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
