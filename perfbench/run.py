"""Benchmark of the cycfred command line: one workload, one closed loop.

    python3 perfbench/run.py --workload hardy-pair --seed 0 --seconds 15 --trace 0

Set-up generates the workload's inputs from the seed in a fresh interpreter,
several times, and reports the median (import of cycfred, model and
perturbation construction, writing the JSON input files).  The measuring
process then calls ``cycfred.cli.main(argv)`` once per operation, each call
starting after the previous one has finished, and checks every output
against the package's fixed tolerances.  Passes over the workload's
operations repeat until ``--seconds`` have elapsed; times are medians over
passes.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics listed in BENCHMARK.json; with ``--trace 1`` every untraced pass is
followed by a traced one and the last line carries the per-layer metrics.
Provenance, per-pass records and spans go to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS_SCRIPT = Path(__file__).resolve().parent / "workloads.py"

# Before each pass, set-up repeats for at least SETUP_ROUND_S, so that cheap
# set-ups get enough samples for a steady median; at least SETUP_REPEATS in all.
SETUP_REPEATS = 3
SETUP_ROUND_S = 1.0
SETUP_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def limit_threads(nproc: int) -> dict:
    """Pin BLAS/OpenMP to one thread unless the caller chose at most nproc.

    Set before numpy is imported in this process or the set-up processes.
    On a small shared machine a second BLAS thread mostly adds contention
    noise; a caller who wants threaded runs sets these variables.
    """
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def run_setup(workload: str, seed: int, workdir: Path, toy: bool) -> dict:
    argv = [sys.executable, str(WORKLOADS_SCRIPT), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir)] + (["--toy"] if toy else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_op(cli, op: dict, tracer=None) -> dict:
    """One operation through the public entry point, stdout captured."""
    op["report"].unlink(missing_ok=True)  # a stale report must not pass the checks
    gc.collect()
    out = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = cli.main(op["argv"])
            else:
                code = tracer.operation(op["id"], cli.main, op["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an operation that raises is a failed operation
        code, error = None, traceback.format_exc()
    elapsed = perf_counter() - t0
    return {"s": elapsed, "exit": code, "error": error, "stdout": out.getvalue()}


def run_pass(cli, ops, expected, tracer=None) -> dict:
    """Every operation once, then every output checked; ``ok_s`` holds the
    time of each operation that passed its checks."""
    if tracer is not None:
        tracer.install()
    try:
        results = [run_op(cli, op, tracer) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, ok_s = [], {}
    for op, res in zip(ops, results):
        problems = workloads.check(op, res["exit"], res["stdout"], expected)
        if res["error"]:
            problems.insert(0, res["error"])
        if problems:
            failures.append({"id": op["id"], "problems": problems})
        else:
            ok_s[op["id"]] = res["s"]
    return {"traced": tracer is not None, "attempted": len(ops), "failures": failures,
            "ok_s": ok_s}


def summed_medians(passes, ops, cmd=None) -> float:
    """Sum over operations of each one's median time over the passes.

    Per-operation medians keep a slow stretch of a shared machine that hits
    some passes but not most of them out of the figure."""
    total = 0.0
    for op in ops:
        times = [p["ok_s"][op["id"]] for p in passes if op["id"] in p["ok_s"]]
        if times and cmd in (None, op["cmd"]):
            total += statistics.median(times)
    return total


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def tree_sha256(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, nproc: int, threads: dict, setups: list) -> dict:
    import cycfred
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cycfred": cycfred.__version__,
        "nproc": nproc,
        "threads": threads,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": tree_sha256(SRC / "cycfred"),
        "inputs_sha256": setups[-1]["inputs"],
    }


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def all_values(setups, passes, summaries, ops) -> dict:
    """Every metric the run can report, end-to-end and per-layer."""
    plain = [p for p in passes if not p["traced"]]
    values = {
        "pass_s": summed_medians(plain, ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median_of(setups, "setup_s"),
        "setup.import_s": median_of(setups, "import_s"),
        "setup.models_s": median_of(setups, "models_s"),
        "setup.write_s": median_of(setups, "write_s"),
        "ops.verify_s": summed_medians(plain, ops, "verify-invariance"),
        "ops.witness_s": summed_medians(plain, ops, "witness"),
        "ops.pair_s": summed_medians(plain, ops, "pair"),
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        values["trace.overhead_s"] = summed_medians(traced, ops) - values["pass_s"]
        for key in summaries[0]:
            # counts repeat exactly between passes (a difference is reported)
            values[key] = summaries[0][key] if spans.is_count(key) else median_of(summaries, key)
    return values


def select_metrics(values: dict, specs: list) -> dict:
    """The metrics BENCHMARK.json lists, with its units."""
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def measure(cli, ops, setup_args, seconds, trace):
    """Alternate set-ups and passes until the passes have taken ``seconds``,
    so that both sample the whole run."""
    setups, passes, summaries, tracer = [], [], [], None
    measured = 0.0
    while not passes or measured < seconds:
        round_start = perf_counter()
        setups.append(run_setup(*setup_args))
        while perf_counter() - round_start < SETUP_ROUND_S:
            setups.append(run_setup(*setup_args))
        pass_start = perf_counter()
        passes.append(run_pass(cli, ops, setups[0]["expected"]))
        if trace:
            tracer = spans.Tracer()
            passes.append(run_pass(cli, ops, setups[0]["expected"], tracer))
            summaries.append(tracer.summary())
        measured += perf_counter() - pass_start
    while len(setups) < SETUP_REPEATS:
        setups.append(run_setup(*setup_args))
    return setups, passes, summaries, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cycfred benchmark: one workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "cycfred" / "__init__.py").is_file():
        print(f"cannot benchmark: no cycfred sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    nproc = len(os.sched_getaffinity(0))
    threads = limit_threads(nproc)
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(SRC))
    import cycfred
    from cycfred import cli

    if SRC.resolve() not in Path(cycfred.__file__).resolve().parents:
        print(f"cycfred was imported from {cycfred.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ops = workloads.operations(args.workload, args.seed, workdir, args.toy)
    setups, passes, summaries, tracer = measure(
        cli, ops, (args.workload, args.seed, workdir, args.toy), args.seconds, args.trace)

    setup_problems = []
    if any(s["inputs"] != setups[0]["inputs"] for s in setups):
        setup_problems.append("input files differ between set-ups with the same seed")

    values = all_values(setups, passes, summaries, ops)
    metrics = select_metrics(values, spec["per_layer" if args.trace else "end_to_end"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    prov = provenance(args.seed, nproc, threads, setups)
    unsteady = sorted(k for k in values if spans.is_count(k)
                      and len({s[k] for s in summaries}) > 1)

    record = {"workload": args.workload, "trace": args.trace, "toy": args.toy,
              "seconds": args.seconds, "provenance": prov, "setups": setups,
              "setup_problems": setup_problems, "counts_differing_between_passes": unsteady,
              "passes": passes, "values": values}
    with open(workdir / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(workdir / "spans.json")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure['id']}: {'; '.join(failure['problems'])}")
    for problem in setup_problems + [f"count {k} differs between passes" for k in unsteady]:
        print(f"PROBLEM {problem}")
    print(f"workload {args.workload}: {len(passes)} passes, {attempted} operations, "
          f"fail_frac {failed / attempted:.4g}")
    for key in ("ops.verify_s", "ops.witness_s", "ops.pair_s"):
        if key not in metrics:
            print(f"  {key:<44} {values[key]:.6g} s")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not setup_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
