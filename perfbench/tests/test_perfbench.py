"""Tests of the benchmark itself: deterministic inputs, the gluing cap,
the oracles, layer coverage under tracing and the result format that
BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

LAYER_TABLE = json.loads((HERE / "layers.json").read_text())["layers"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload: str, seed: int, tmp_path: Path, n: int):
    jobs = [workloads.make_job(workload, seed, i, tmp_path) for i in range(n)]
    return [(job.argv, job.files) for job in jobs]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(workload, tmp_path):
    n = 2 * workloads.cycle_length(workload)
    assert _inputs(workload, 7, tmp_path, n) == _inputs(workload, 7, tmp_path, n)
    assert _inputs(workload, 7, tmp_path, n) != _inputs(workload, 8, tmp_path, n)


def _fingerprint(workload: str, seed: int, workdir: Path) -> str:
    from stratabench import cli

    phase = run.Phase(cli, workload, seed, workdir)
    for index in range(run.FINGERPRINT_JOBS):
        phase.run_job(index)
    assert phase.failed == 0
    return phase.evidence.hexdigest()


def test_seed_determines_fingerprint(tmp_path):
    first = _fingerprint("surface-models", 3, tmp_path)
    assert _fingerprint("surface-models", 3, tmp_path) == first
    assert _fingerprint("surface-models", 4, tmp_path) != first


def test_gluing_shapes_stay_under_the_candidate_cap():
    assert oracles.candidate_count((8, 8), (0, 0)) == 40320 + 105 * 105
    assert oracles.candidate_count((8, 8), (0, 0)) > workloads.CANDIDATE_CAP
    with pytest.raises(ValueError):
        workloads._random_glue_job((8, 8), (0, 0))


@pytest.mark.parametrize("sizes,genera", [((4, 4), (1, 1)), ((3, 3, 2), (1, 1, 1)),
                                          ((2, 2, 2, 2), (0, 1, 0, 1))])
def test_candidate_count_matches_the_enumerator(sizes, genera, tmp_path):
    from stratabench import cli

    job = workloads._random_glue_job(sizes, genera)(random.Random(1), tmp_path)
    job.write_files(tmp_path)
    tr = Tracer()
    tr.instrument()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.dispatch(job.argv) == 0
    finally:
        tr.restore()
    assert tr.summary()["gluing.make_involution"]["calls"] == \
        oracles.candidate_count(sizes, genera)


def test_oracle_helpers():
    assert oracles.hilbert_series((1, 2, 2, 3, 3), (6, 6), 5) == [1, 1, 3, 5, 8, 12]
    F = Fraction
    assert oracles.distinct_roots([F(1), F(0), F(2), F(0), F(1)]) == 2   # (z^2 + 1)^2
    assert oracles.binary_resultant([F(1), F(-1)], [F(1), F(-2)]) != 0
    assert oracles.binary_resultant([F(1), F(-1)], [F(2), F(-2)]) == 0
    golden = [F(21), F(40), F(-25), F(-4), F(5), F(6)]    # the (a, b) = (2, 3) quartic
    assert oracles.proportional(oracles.closed_form_coefficients(F(2), F(3)), golden)
    assert not oracles.is_conic_square(golden)
    assert oracles.is_conic_square(oracles.closed_form_coefficients(F(3, 4), F(3, 2)))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_coverage(workload, tmp_path):
    """Active layers record calls on their workloads and idle ones none."""
    from stratabench import cli

    tr = Tracer()
    tr.instrument()
    try:
        phase = run.Phase(cli, workload, 1, tmp_path, tr)
        for index in range(workloads.cycle_length(workload)):
            phase.run_job(index)
    finally:
        tr.restore()
    assert phase.failed == 0
    calls = {layer: 0 for layer in LAYERS}
    for name, span in tr.summary().items():
        calls[name.split(".")[0]] += span["calls"]
    for layer, row in LAYER_TABLE.items():
        if workload in row["active"]:
            assert calls[layer] > 0, (layer, workload)
        else:
            assert calls[layer] == 0, (layer, workload)


def _result(args, cwd=ROOT):
    out = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                         text=True, timeout=170)
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, key):
    rc, lines = _result(BENCHMARK["command"][1:] + [
        "--workload", "surface-models", "--seed", "2", "--seconds", "1", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert lines[-2].startswith("fingerprint surface-models seed=2 ")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = _result(BENCHMARK["command"][1:] + [
        "--workload", "surface-models", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path)
    assert rc != 0 and not lines
