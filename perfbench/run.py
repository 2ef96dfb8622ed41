"""Benchmark of the safebandit simulator.

    python3 perfbench/run.py --workload intro-trace --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout of the repository and measures the package
under ``src/`` there; nothing is installed. Each measurement runs in a fresh
interpreter (``perfbench/worker.py``) with one thread.

With ``--trace 0`` it prints the end-to-end metrics, measured untraced:

- rounds_per_s: simulated rounds of one workload call (runs x T, summed over
  algorithms) over its wall time, including summaries and file writes; the
  median over same-seed repetitions.
- setup_s: seconds to import safebandit and build the config, environment
  and oracle before the first round; the median over several fresh
  processes.

Every time is scaled to reference machine speed by a reference loop timed
beside it (see ``speed.py``), because the machine's own speed drifts far more
than the changes the benchmark must resolve. The raw wall-clock medians are
printed as well.
- peak_rss_mb: peak resident memory of the process that ran the workload.
- output_mb: bytes the workload call wrote to disk.

With ``--trace 1`` it prints the per-layer metrics of a traced run: self time
and call counts of each package layer, exact counters, and the tracing
overhead. Both modes check every replication's output (see ``check.py``) and
that same-seed repetitions write byte-identical files. The share of failed
replications is printed as failed_share and carried by the result's
``attempted`` and ``failed`` fields.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
WORKLOADS = ("intro-trace", "compare-long", "shift-fallback")
SETUP_PROBES = 5
# every run, whatever its --seconds, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END = {
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
PER_LAYER = {
    "environments.sample.calls": "count",
    "environments.sample.self_s": "s",
    "core.values.calls": "count",
    "core.values.self_s": "s",
    "core.run_trace_bytes": "bytes",
    "algorithms.action_probs.calls": "count",
    "algorithms.action_probs.self_s": "s",
    "algorithms.loop.self_s": "s",
    "algorithms.checks": "count",
    "algorithms.fallback_rounds": "count",
    "oracle.fit.calls": "count",
    "oracle.fit.rows": "count",
    "oracle.fit.self_s": "s",
    "analysis.epoch_summaries.self_s": "s",
    "analysis.aggregate_runs.self_s": "s",
    "harness.write_trace_csv.self_s": "s",
    "harness.write_trace_csv.bytes": "bytes",
    "harness.write_epochs_csv.self_s": "s",
    "harness.render_regret_svg.self_s": "s",
    "harness.compare_experiments.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.run_replications.self_s": "s",
    "cli.main.self_s": "s",
    "tracing.overhead_share": "share",
}


class BenchError(RuntimeError):
    pass


def _worker(mode: str, args, deadline: float, spans: Path | None = None) -> dict:
    """Run one measurement in a fresh interpreter and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the measurement could start")
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{mode}-", dir=WORK))
    try:
        result = work / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size,
            "--work-dir", str(work), "--result", str(result),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{mode} measurement did not finish in time") from e
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{mode} measurement failed with exit code {proc.returncode}")
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(args, deadline: float):
    setups = [_worker("setup", args, deadline) for _ in range(SETUP_PROBES)]
    measured = _worker("measure", args, deadline)
    reps = measured["reps"]
    setups.append(measured)
    metrics = {
        "rounds_per_s": statistics.median(r["rounds"] / (r["wall_s"] * r["scale"]) for r in reps),
        "setup_s": statistics.median(s["setup_s"] * s["setup_scale"] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "output_mb": statistics.median(
            sum(size for size, _ in r["outputs"].values()) for r in reps) / 1e6,
    }
    notes = [
        f"{len(reps)} repetitions, {len(setups)} set-ups",
        "raw wall-clock medians: "
        f"{statistics.median(r['rounds'] / r['wall_s'] for r in reps):.1f} rounds/s, "
        f"set-up {statistics.median(s['setup_s'] for s in setups):.4f} s, "
        f"machine at {statistics.median(1 / r['scale'] for r in reps):.2f}x reference time",
    ]
    return metrics, reps, notes


def per_layer(args, deadline: float):
    traced = _worker("traced", args, deadline, spans=WORK / f"spans-{args.workload}.npz")
    reps = traced["reps"]
    notes = [f"{len(reps) // 2} untraced and {len(reps) // 2} traced repetitions; "
             f"spans of the last traced one in {WORK.name}/spans-{args.workload}.npz"]
    return traced["metrics"], reps, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="safebandit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "safebandit" / "__init__.py").is_file():
        print(f"no safebandit package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, reps, notes = per_layer(args, deadline)
            units = PER_LAYER
        else:
            metrics, reps, notes = end_to_end(args, deadline)
            units = END_TO_END
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} missing or unexpected",
              file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    detections = sorted({str(d) for r in reps for d in r["detections"]})
    indeterminate = sum(r["indeterminate"] for r in reps)

    print(f"workload {args.workload}, seed {args.seed}, {args.size} size, "
          f"{'traced' if args.trace else 'untraced'}; " + "; ".join(notes))
    print(f"detection rounds seen: {', '.join(detections)}; "
          f"indeterminate comparisons: {indeterminate}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"failed_share = {failed / attempted!r} ({failed} of {attempted} replications)")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
