"""One benchmark measurement in a fresh interpreter.

``run.py`` starts this script for each measurement, so that every workload
runs in a process of its own:

  --mode setup     time importing safebandit and building the run's inputs
  --mode measure   repeat the workload untraced for --seconds
  --mode traced    alternate untraced and traced repetitions for --seconds

Every repetition uses the same seed, so their outputs must be byte-identical.
Each time is returned together with the scale that converts it to reference
machine speed (see ``speed.py``). The result is written to --result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from run import PER_LAYER

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_REPS = 3
MIN_TRACED_PAIRS = 2


def import_package() -> float:
    """Import safebandit from the checkout's ``src``; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import safebandit.cli  # noqa: F401  (imports every package module)

    elapsed = perf_counter() - t0
    import safebandit

    if not Path(safebandit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"safebandit imported from {safebandit.__file__}, not {SRC}")
    return elapsed


class Gauge:
    """Times the reference loop between measurements. A measurement's scale
    is the nominal reference time over the mean of the reference times just
    before and just after it."""

    def __init__(self):
        import speed  # not before import_package: numpy's import counts as set-up

        self.speed = speed
        speed.reference()  # warm up
        self.last = speed.time_reference()

    def scale_since_last(self) -> float:
        before, self.last = self.last, self.speed.time_reference()
        return self.speed.REFERENCE_S / ((before + self.last) / 2)


class Session:
    """State of one workload call: output checks, and the tracer if traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.excluded_s = 0.0
        self.results = []

    def wrap_env(self, env):
        return self.tracer.env(env) if self.tracer else env

    def wrap_oracle(self, oracle):
        return self.tracer.oracle(oracle) if self.tracer else oracle

    def check(self, traces, config, run_checks, expect_detection):
        """Check each replication; the time this takes is excluded from the
        workload's and, when traced, recorded as a span of its own."""
        from check import check_trace

        t0 = perf_counter()
        span = self.tracer.open(self.tracer.ids["bench.check"]) if self.tracer else None
        try:
            for trace in traces:
                result = check_trace(trace, config, run_checks)
                detected = result.detection_round is not None
                if expect_detection is not None and detected != expect_detection:
                    result.errors.append(
                        f"detection {result.detection_round}, expected "
                        f"{'one' if expect_detection else 'none'}"
                    )
                self.results.append(result)
        finally:
            if span is not None:
                self.tracer.close(span)
            self.excluded_s += perf_counter() - t0


def _outputs(out_dir: Path) -> dict[str, list]:
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            files[str(path.relative_to(out_dir))] = [len(data), hashlib.sha256(data).hexdigest()]
    return files


def one_rep(workloads, args, size, out_dir: Path, tracer=None) -> dict:
    """Run the workload once; returns its wall time (check time excluded),
    outputs and per-replication check results."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    session = Session(tracer)
    errors = []
    t0 = perf_counter()
    root = tracer.open(tracer.ids["bench.workload"]) if tracer else None
    try:
        workloads.run(args.workload, size, args.seed, str(out_dir), session)
    except Exception:
        # the repetition fails as a whole; the run goes on and reports it
        errors.append(traceback.format_exc())
    finally:
        if root is not None:
            tracer.close(root)
    wall = perf_counter() - t0 - session.excluded_s
    attempted = workloads.replications(args.workload, size)
    failed = attempted if errors else attempted - sum(r.ok for r in session.results)
    errors += [e for r in session.results for e in r.errors]
    return {
        "wall_s": wall,
        "rounds": workloads.rounds(args.workload, size),
        "outputs": _outputs(out_dir),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "checks": sum(r.checks for r in session.results),
        "fallback_rounds": sum(r.fallback_rounds for r in session.results),
        "indeterminate": sum(r.indeterminate for r in session.results),
        "detections": [r.detection_round for r in session.results],
    }


def _compare_outputs(reps: list[dict]) -> None:
    """Same-seed repetitions must write byte-identical outputs; a repetition
    that does not fails all its replications."""
    first = reps[0]["outputs"]
    for rep in reps[1:]:
        if rep["outputs"] != first:
            rep["errors"].append("outputs differ from the first same-seed repetition")
            rep["failed"] = rep["attempted"]


def measure(workloads, args, size, out_dir: Path, gauge: Gauge) -> dict:
    reps = []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start < args.seconds:
        reps.append(one_rep(workloads, args, size, out_dir))
        reps[-1]["scale"] = gauge.scale_since_last()
    _compare_outputs(reps)
    return {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


# relative tolerance of the check that self times add up to the wall time
SUM_TOL = 1e-9


def traced(workloads, args, size, out_dir: Path, gauge: Gauge, spans_path: str | None) -> dict:
    import tracing

    plain, layered = [], []
    start = perf_counter()
    while len(layered) < MIN_TRACED_PAIRS or perf_counter() - start < args.seconds:
        plain.append(one_rep(workloads, args, size, out_dir))
        plain[-1]["scale"] = gauge.scale_since_last()
        tracer = tracing.Tracer()
        with tracer.installed():
            rep = one_rep(workloads, args, size, out_dir, tracer)
        rep["scale"] = gauge.scale_since_last()
        self_s = tracer.self_times()
        calls = tracer.calls()
        span_sum = sum(self_s.values())
        if abs(span_sum - tracer.root_seconds()) > SUM_TOL * span_sum:
            rep["errors"].append(
                f"self times sum to {span_sum!r} s, traced wall time is {tracer.root_seconds()!r} s"
            )
        rep["self_s"] = self_s
        rep["counters"] = {
            "environments.sample.calls": calls["environments.sample"],
            "core.values.calls": calls["core.values"],
            "core.run_trace_bytes": tracer.run_trace_bytes_peak,
            "algorithms.action_probs.calls": calls["algorithms.action_probs"],
            "algorithms.checks": rep["checks"],
            "algorithms.fallback_rounds": rep["fallback_rounds"],
            "oracle.fit.calls": calls["oracle.fit"],
            "oracle.fit.rows": tracer.fit_rows,
            "harness.write_trace_csv.bytes": tracer.trace_csv_bytes,
        }
        layered.append(rep)
        if spans_path:
            tracer.save(spans_path)
        del tracer
    reps = [r for pair in zip(plain, layered) for r in pair]
    _compare_outputs(reps)
    for rep in layered[1:]:
        if rep["counters"] != layered[0]["counters"]:
            rep["errors"].append("exact counters differ between same-seed traced repetitions")
            rep["failed"] = rep["attempted"]

    metrics = dict(layered[0]["counters"])
    for metric in PER_LAYER:
        if metric.endswith(".self_s"):
            metrics[metric] = statistics.median(
                r["self_s"][metric.removesuffix(".self_s")] * r["scale"] for r in layered
            )
    metrics["tracing.overhead_share"] = (
        statistics.median(r["wall_s"] * r["scale"] for r in layered)
        / statistics.median(r["wall_s"] * r["scale"] for r in plain)
        - 1.0
    )
    for rep in reps:
        rep.pop("outputs")
    return {"reps": reps, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import_s = import_package()
    import workloads

    size = workloads.SIZES[args.size][args.workload]
    out_dir = Path(args.work_dir) / "out"
    t0 = perf_counter()
    workloads.setup(args.workload, size, args.seed, str(out_dir))
    result = {"setup_s": import_s + perf_counter() - t0}
    gauge = Gauge()
    result["setup_scale"] = gauge.speed.REFERENCE_S / gauge.last
    if args.mode == "measure":
        result.update(measure(workloads, args, size, out_dir, gauge))
    elif args.mode == "traced":
        result.update(traced(workloads, args, size, out_dir, gauge, args.spans))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
