"""Golden outputs: sha256 fingerprints of known runs against ``golden.json``.

The file holds the fingerprints of every file the four determinism
configs of ``CONFIGS`` write, and of one detecting library run, with the
numpy and BLAS that made them. ``CONFIGS`` is the one list of those
configs: CI runs this test under two hash seeds, so two processes must
write the recorded bytes. A second test computes the same fingerprints in
a child process with every numpy dispatch target above the baseline that
this CPU has disabled (``NPY_DISABLE_CPU_FEATURES``), so the recorded
bytes must also come from numpy's baseline loops. A deliberate change to a random stream or to an
output's bits rewrites the file in the same commit, so its diff shows which
outputs moved; ``PYTHONPATH=src python tests/test_golden.py`` rewrites it
from the current tree.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import safebandit
from safebandit import AlgorithmConfig, LinearPerArmOracle, RunTrace, run_safe_falcon
from safebandit.cli import main
from support import shifted_realizable_k5

GOLDEN = Path(__file__).with_name("golden.json")

# the determinism configs, each without its --out
CONFIGS = {
    # 10000 rounds per run span several of the trace writer's row blocks
    "determinism": ["run", "--T", "10000", "--runs", "2", "--seed", "3", "--avg-epoch-test", "true"],
    # five arms drawn from the linear model's arm-major values
    "realizable": ["run", "--env", "realizable-linear", "--env-k", "5", "--T", "10000", "--runs", "2",
                   "--seed", "3", "--avg-epoch-test", "true"],
    # at 40000 rounds the last epochs hold more than 16384 rows each
    "compare-determinism": ["compare", "--a-algorithm", "safe-falcon", "--a-avg-epoch-test", "true",
                            "--a-T", "40000", "--a-runs", "2", "--b-algorithm", "falcon-plus",
                            "--b-T", "40000", "--b-runs", "2"],
    # 200 arms: the trace's arm columns are int16, not int8
    "wide-arms": ["run", "--env", "lower-bound", "--env-k", "200", "--env-b", "0.001", "--T", "3000",
                  "--runs", "2"],
}


def _sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _numpy_build() -> dict:
    """numpy's version and BLAS, from its build config."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def fingerprints(out: Path) -> dict:
    """Each output's name mapped to the sha256 of its bytes, the configs
    writing under ``out``; the library run's detection round and final
    m_hat are kept as they are."""
    prints = {}
    for name, argv in CONFIGS.items():
        assert main([*argv, "--out", str(out / name)]) == 0
        for path in sorted((out / name).iterdir()):
            prints[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    # the shift case of test_algorithms.REFERENCE_CASES
    env = shifted_realizable_k5()
    cfg = AlgorithmConfig(tau1=64, delta=0.05, horizon=4400, enable_avg_epoch_test=True)
    trace = run_safe_falcon(env, LinearPerArmOracle(5, 1), cfg, seed=0)
    columns = [getattr(trace, f.name) for f in fields(RunTrace)]
    prints["shifted-realizable-k5/columns"] = _sha256(*(c.tobytes() for c in columns if isinstance(c, np.ndarray)))
    prints["shifted-realizable-k5/detection_round"] = trace.detection_round
    prints["shifted-realizable-k5/m_hat_final"] = trace.m_hat_final
    return prints


def _record(outputs: dict) -> str:
    """The golden file's text for ``outputs`` and this numpy build."""
    return json.dumps({**_numpy_build(), "outputs": outputs}, indent=2) + "\n"


def _assert_golden(got: dict, how: str = ""):
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(name for name in golden["outputs"].keys() | got.keys()
                   if golden["outputs"].get(name) != got.get(name))
    recorded = {key: golden[key] for key in ("numpy", "blas")}
    # the whole record, so a failing log settles whether another build
    # needs a golden file of its own
    assert not moved, (f"outputs moved{how}: {', '.join(moved)}; recorded with {recorded}; "
                       f"this run's record:\n{_record(got)}")


def test_outputs_match_golden_fingerprints(tmp_path):
    _assert_golden(fingerprints(tmp_path))


# run in the child: each target named on the command line must read off
# before the fingerprints are taken
_BASELINE_CHILD = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
targets = sys.argv[2:]
still_on = [t for t in targets if __cpu_features__.get(t)]
if still_on:
    sys.exit(f"NPY_DISABLE_CPU_FEATURES={' '.join(targets)!r} left {' '.join(still_on)} on")
import test_golden
print(json.dumps(test_golden.fingerprints(Path(sys.argv[1]))))
"""


def test_outputs_match_golden_fingerprints_on_baseline_loops(tmp_path):
    # the target list is read here, since numpy versions name the targets
    # differently; only the ones this CPU has can be disabled
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    path = [str(Path(safebandit.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", _BASELINE_CHILD, str(tmp_path), *targets],
                           env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    # the fingerprints are the last line, after what the CLI prints
    got = json.loads(child.stdout.splitlines()[-1])
    _assert_golden(got, f" with {' '.join(targets) or 'no target'} disabled")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        text = _record(fingerprints(Path(out)))
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN}", file=sys.stderr)
