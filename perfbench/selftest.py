"""Self-test of the benchmark, at toy sizes.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection: each
benchmark run starts several interpreters.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_bench(workload, seed=3, trace=0, hashseed="0", cwd=ROOT, script=HERE / "run.py"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def toy_runs(request):
    """One untraced and three traced toy runs of a workload: two under
    PYTHONHASHSEED=0, one under PYTHONHASHSEED=1."""
    w = request.param
    return {
        "plain": result_of(run_bench(w)),
        "traced": [result_of(run_bench(w, trace=1, hashseed=h)) for h in ("0", "0", "1")],
    }


def test_every_metric_appears_with_its_unit(toy_runs):
    for result, listed in ((toy_runs["plain"], BENCH["end_to_end"]),
                           (toy_runs["traced"][0], BENCH["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}


def test_end_to_end_metrics_are_nonzero(toy_runs):
    assert all(v["value"] > 0 for v in toy_runs["plain"]["metrics"].values())


def test_counts_repeat_exactly(toy_runs):
    counts = [{k: v["value"] for k, v in r["metrics"].items() if spans.is_count(k)}
              for r in toy_runs["traced"]]
    assert counts[0], "no counts reported"
    assert counts[0] == counts[1], "counts differ between two traced runs"
    assert counts[0] == counts[2], "counts differ between PYTHONHASHSEED=0 and 1"


def _generate(tmp_path, name, workload, seed) -> dict:
    workdir = tmp_path / name
    subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--workdir", str(workdir), "--toy"],
                   check=True, capture_output=True, timeout=120)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_input_bytes(tmp_path, workload):
    first = _generate(tmp_path, "a", workload, 5)
    assert first and first == _generate(tmp_path, "b", workload, 5)
    assert first != _generate(tmp_path, "c", workload, 6)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("hardy-verify", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.name = ["cli", "fredholm.validate_module", "algebra.validate_algebra"]
    tracer.start = [0.0, 1.0, 2.0]
    tracer.end = [10.0, 5.0, 4.0]
    tracer.parent = [-1, 0, 1]
    summary = tracer.summary()
    assert summary["cli.self_s"] == 6.0
    assert summary["fredholm.validate_module.self_s"] == 2.0
    assert summary["algebra.validate_algebra.self_s"] == 2.0
    assert summary["fredholm.validate_module.s"] == 4.0
    assert summary["dga.differential.calls"] == 0


def _op(tmp_path, cmd, report):
    path = tmp_path / f"{cmd}.json"
    path.write_text(json.dumps(report))
    return {"cmd": cmd, "instance": "x", "report": path}


def _verify_report(**overrides):
    report = {
        "pass": True,
        "module": {"pass": True}, "perturbed_module": {"pass": True},
        "complex_identities": {"max_residual": 1e-15},
        "involution_identity": {"residual": 1e-15},
        "index_cocycle": {"max_residual": 1e-15},
        "boundary_character": {"max_residual": 1e-15},
        "top_component": {"max_abs": 0.0},
        "witness": {"max_residual": 1e-15, "reduced": True},
    }
    for block, (key, value) in overrides.items():
        report[block] = dict(report[block], **{key: value})
    return report


@pytest.mark.parametrize("overrides", [
    {},
    {"complex_identities": ("max_residual", 2e-10)},
    {"boundary_character": ("max_residual", 2e-9)},
    {"witness": ("max_residual", 2e-8)},
    {"witness": ("reduced", False)},
    {"top_component": ("max_abs", 1e-300)},
])
def test_verify_check_uses_the_fixed_tolerances(tmp_path, overrides):
    op = _op(tmp_path, "verify-invariance", _verify_report(**overrides))
    problems = workloads.check(op, 0, "overall: PASS\n", {})
    assert bool(problems) == bool(overrides)


def test_pair_and_witness_checks(tmp_path):
    pair = _op(tmp_path, "pair", {"representative": [0.0, -0.5]})
    assert workloads.check(pair, 0, "", {"x": [0.0, -0.5]}) == []
    assert workloads.check(pair, 0, "", {"x": [0.0, -0.5 + 1e-6]})
    assert workloads.check(pair, 1, "", {"x": [0.0, -0.5]}) == ["exit code 1"]
    witness = {"pass": True, "max_residual": 1e-12, "reduced": True,
               "witness_degrees": [1], "components": [[]]}
    assert workloads.check(_op(tmp_path, "witness", witness), 0, "", {}) == []
    witness["max_residual"] = 1e-7
    assert workloads.check(_op(tmp_path, "witness", witness), 0, "", {})
