"""The benchmark's workloads: instances, input generation and output checks.

Each workload is a list of instances built from ``cycfred.models`` and
written with ``cycfred.serialize``; every instance carries the command-line
operations run on it and the values its outputs are checked against.

Run as a script, this module generates one workload's input files in a fresh
interpreter and prints one JSON line with the set-up timings (import of
cycfred, model construction, file writing), the SHA-256 of every file and the
expected values for the output checks:

    python3 perfbench/workloads.py --workload hardy-pair --seed 0 --workdir .perfbench_work/x
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The fixed acceptance tolerances of the package (README, "Install and test").
STRUCTURAL_TOL = 1e-10
DERIVED_TOL = 1e-9
WITNESS_TOL = 1e-8

# c(1) of cycfred.pairing: the degree-0 pairing constant, (-1)^(0+1) 0!/0!.
C_ONE = -1.0

PERTURBATION_EPS = 0.1

WORKLOADS = ("witness-nc", "hardy-verify", "hardy-pair")

CERTIFY = ("verify-invariance", "witness")


def instances(workload: str, seed: int, toy: bool = False) -> list[dict]:
    """The instances of one workload: model, perturbation, logs and operations.

    Seeds of models, perturbations and logs all derive from ``seed``.
    """
    if workload == "witness-nc":
        # Coefficient algebras of dim 3-4: chern and dga do almost all the work.
        # At m = 5 only the witness runs: verify-invariance there takes about
        # 10 s, which a run could sample once, not steadily.
        grid = [("reflection", "ut2", 2, CERTIFY)] if toy else [
            ("reflection", "ut2", 2, CERTIFY), ("reflection", "ut2", 4, CERTIFY),
            ("even", "ut2", 3, CERTIFY), ("even", "ut2", 5, ("witness",)),
            ("reflection", "matrix:2", 2, CERTIFY), ("even", "matrix:2", 3, CERTIFY),
        ]
        out = []
        for i, (kind, algebra, m, ops) in enumerate(grid):
            size = {"n": 4 if toy or kind == "even" else 8}
            out.append({
                "name": f"{algebra.replace(':', '')}-{kind}-m{m}",
                "model": {"kind": kind, "algebra": algebra, "m": m, "seed": 100 * seed + i, **size},
                "perturbation_seed": 100 * seed + 50 + i,
                "ops": ops,
            })
        return out
    if workload == "hardy-verify":
        # Large commutative algebra at low degree: cyclic and algebra get the work.
        return [{
            "name": f"hardy-N{N}",
            "model": {"kind": "hardy", "N": N},
            "perturbation_seed": 100 * seed + i,
            "ops": CERTIFY,
        } for i, N in enumerate((4,) if toy else (8, 16))]
    if workload == "hardy-pair":
        # Module validation and JSON I/O near the budget edge, no chern or dga.
        # N = 48, not 64: one N = 64 pair takes about 20 s, too long to sample
        # several times in a run; validation still dominates at N = 48.
        out = [{
            "name": f"hardy-N{N}",
            "model": {"kind": "hardy", "N": N},
            "logs_seed": 100 * seed + i,
            "ops": ("pair",),
        } for i, N in enumerate((4,) if toy else (32, 48))]
        N = 4 if toy else 32
        out.append({
            "name": f"hardy-graded-N{N}",
            "model": {"kind": "hardy-graded", "N": N, "seed": 100 * seed + 10},
            "logs_seed": 100 * seed + 11,
            "ops": ("pair",),
        })
        return out
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


def operations(workload: str, seed: int, workdir: Path, toy: bool = False) -> list[dict]:
    """The workload's operations in closed-loop order, with their command lines."""
    ops = []
    for inst in instances(workload, seed, toy):
        base = workdir / inst["name"]
        for cmd in inst["ops"]:
            argv = [cmd, "--module", f"{base}.module.json"]
            if cmd == "pair":
                argv += ["--logs", f"{base}.logs.json"]
            else:
                argv += ["--perturbation", f"{base}.T.json", "--tol", str(WITNESS_TOL)]
            if cmd == "verify-invariance":
                argv += ["--seed", str(seed)]
            report = workdir / "out" / f"{inst['name']}.{cmd}.json"
            ops.append({"id": f"{inst['name']}:{cmd}", "cmd": cmd, "instance": inst["name"],
                        "argv": argv + ["--report", str(report)], "report": report})
    return ops


# ---------------------------------------------------------------------------
# Input generation (runs in the set-up interpreter)
# ---------------------------------------------------------------------------

def _build_module(spec: dict):
    from cycfred import models
    from cycfred.algebra import matrix_units_algebra, upper_triangular_algebra

    kind = spec["kind"]
    if kind == "hardy":
        return models.discrete_hardy(spec["N"])[1]
    if kind == "hardy-graded":
        return models.discrete_hardy_graded(spec["N"], seed=spec["seed"])[1]
    algebra = upper_triangular_algebra() if spec["algebra"] == "ut2" else matrix_units_algebra(2)
    if kind == "reflection":
        return models.random_reflection_module(spec["n"], algebra, seed=spec["seed"], m=spec["m"])
    return models.toy_even_module(spec["n"], seed=spec["seed"], m=spec["m"], algebra=algebra)[1]


def _winding_logs(N: int, count: int, seed: int):
    """Exponents (principal logs) and continuous logs of seeded winding symbols.

    The two branches differ by multiples of 2 pi i on the grid, so the pair
    command's exp(rep(a)) = exp(rep(b)) check sees two distinct arrays.
    """
    import numpy as np
    from cycfred import models

    rng = np.random.default_rng(seed)
    x = models.grid_points(N)
    exponents, logs = [], []
    for _ in range(count):
        w = int(rng.integers(-3, 4))
        amplitude = float(rng.uniform(-0.5, 0.5))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        symbol = models.winding_symbol(N, w, amplitude, phase)
        exponents.append(np.log(symbol))
        logs.append(1j * w * x + np.log1p(amplitude * np.cos(x + phase)))
    return exponents, logs


def build_inputs(workload: str, seed: int, toy: bool = False) -> list[dict]:
    """Construct every model, perturbation and log set of the workload."""
    from cycfred import models

    built = []
    for inst in instances(workload, seed, toy):
        module = _build_module(inst["model"])
        item = {"inst": inst, "module": module}
        if "perturbation_seed" in inst:
            item["T"] = models.conjugation_perturbation(
                module, seed=inst["perturbation_seed"], strength=PERTURBATION_EPS)
        if "logs_seed" in inst:
            item["exponents"], item["logs"] = _winding_logs(
                inst["model"]["N"], module.m, inst["logs_seed"])
        built.append(item)
    return built


def write_inputs(built: list[dict], workdir: Path) -> list[Path]:
    from cycfred.serialize import array_to_json, dump_json, module_to_json

    paths = []
    for item in built:
        base = workdir / item["inst"]["name"]
        files = {f"{base}.module.json": module_to_json(item["module"])}
        if "T" in item:
            files[f"{base}.T.json"] = {"T": array_to_json(item["T"])}
        if "logs" in item:
            files[f"{base}.logs.json"] = {
                "exponents": [array_to_json(a) for a in item["exponents"]],
                "logs": [array_to_json(b) for b in item["logs"]],
            }
        for path, data in files.items():
            dump_json(data, path)
            paths.append(Path(path))
    return paths


def expected_values(built: list[dict]) -> dict:
    """Closed forms for the pair operations, by instance name.

    Over a commutative algebra at m = 2 the index cocycle is identically zero
    (tau(x0, x1) = Tr(F [rep x1, rep x0])), so the pairing is 0.  At m = 1
    tau(x0) = Tr(gamma rep x0), so the graded pairing is c(1) Tr(gamma rep(b)).
    """
    import numpy as np

    out = {}
    for item in built:
        if "logs" not in item:
            continue
        module = item["module"]
        if module.m == 1:
            rep_b = np.tensordot(item["logs"][0], module.rep, axes=(0, 0))
            value = C_ONE * np.trace(module.gamma @ rep_b)
        elif module.m == 2:
            value = 0.0
        else:
            raise ValueError(f"no closed form for the pairing at m = {module.m}")
        out[item["inst"]["name"]] = [float(np.real(value)), float(np.imag(value))]
    return out


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def setup(workload: str, seed: int, workdir: Path, toy: bool = False) -> dict:
    """Import cycfred, build the inputs and write them; time the three stages."""
    t0 = time.perf_counter()
    import cycfred  # noqa: F401

    t1 = time.perf_counter()
    built = build_inputs(workload, seed, toy)
    t2 = time.perf_counter()
    paths = write_inputs(built, workdir)
    t3 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "models_s": t2 - t1,
        "write_s": t3 - t2,
        "setup_s": t3 - t0,
        "inputs": {p.name: sha256(p) for p in paths},
        "expected": expected_values(built),
    }


# ---------------------------------------------------------------------------
# Output checks (run in the measuring process, outside the timed region)
# ---------------------------------------------------------------------------

def _read_report(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _verify_problems(r: dict) -> list[str]:
    bounds = [
        ("complex_identities", "max_residual", STRUCTURAL_TOL),
        ("involution_identity", "residual", STRUCTURAL_TOL),
        ("index_cocycle", "max_residual", DERIVED_TOL),
        ("boundary_character", "max_residual", DERIVED_TOL),
        ("witness", "max_residual", WITNESS_TOL),
    ]
    problems = [f"{block}.{key} = {r[block][key]!r} > {tol}"
                for block, key, tol in bounds if not r[block][key] <= tol]
    if r["top_component"]["max_abs"] != 0.0:
        problems.append(f"top component {r['top_component']['max_abs']!r} is not exactly 0")
    if r["witness"]["reduced"] is not True:
        problems.append("witness is not reduced")
    problems += [f"{block} does not pass" for block in ("module", "perturbed_module")
                 if r[block]["pass"] is not True]
    return problems


def _witness_problems(r: dict) -> list[str]:
    problems = []
    if not r["max_residual"] <= WITNESS_TOL:
        problems.append(f"witness residual {r['max_residual']!r} > {WITNESS_TOL}")
    if r["reduced"] is not True:
        problems.append("witness is not reduced")
    if len(r["components"]) != len(r["witness_degrees"]):
        problems.append("witness components do not match the reported degrees")
    return problems


def _pair_problems(r: dict, expected) -> list[str]:
    got = complex(*r["representative"])
    want = complex(*expected)
    if abs(got - want) <= DERIVED_TOL * max(1.0, abs(want)):
        return []
    return [f"pairing {got!r} differs from the closed form {want!r}"]


def check(op: dict, exit_code, stdout: str, expected: dict) -> list[str]:
    """Every reason the operation's output fails its acceptance checks."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = _read_report(op["report"])
        if op["cmd"] == "pair":
            problems = _pair_problems(report, expected[op["instance"]])
        elif report.get("pass") is not True:
            problems = ["report does not pass"]
        elif op["cmd"] == "verify-invariance":
            problems = _verify_problems(report)
        else:
            problems = _witness_problems(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
    if op["cmd"] == "verify-invariance" and "overall: PASS" not in stdout:
        problems.append("stdout lacks 'overall: PASS'")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "cycfred" / "__init__.py").is_file():
        print(f"no cycfred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(setup(args.workload, args.seed, workdir, args.toy)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
