"""The verdict policy: every acceptance bound is a row of the table in
cycfred.cyclic (or algebra.ASSOC_TOL), and a tolerance keyword exists only
where a caller sets it to more than one value.  The import policy: only
`pair` loads scipy, the command line names nothing of the symbolic oracle,
and importing the command line still loads every function the benchmark's
tracer wraps."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycfred
from cycfred import algebra, chern, cyclic, fredholm, pairing

# (module, qualified name) of every public callable allowed a tol* parameter,
# each with the reason it keeps one
KEEP = {
    ("chern", "verify_perturbation_invariance"): "the witness --tol",
    ("chern", "run_verification_suite"): "the verify-invariance --tol",
    ("pairing", "mult_char_exponentials"): "the pair --tol",
    ("cyclic", "is_reduced"): "exact at the witness, 1e-10 on index cocycles",
    ("chern", "ChainElement.is_zero"): "exact and 1e-12 in the symbolic layer",
}

MODULES = (algebra, cyclic, fredholm, chern, pairing)


def _public_callables(module):
    """(qualified name, callable) of the public functions and classes defined
    in module, and the classes' public methods; a class's signature is its
    constructor's."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_tolerance_parameters_only_on_the_keep_list():
    found = {
        (module.__name__.rsplit(".", 1)[1], qualname): [p for p in inspect.signature(obj).parameters
                                                         if p.startswith("tol")]
        for module in MODULES for qualname, obj in _public_callables(module)
    }
    assert {key: found.get(key) for key in KEEP} == {key: ["tol"] for key in KEEP}
    extra = {key: params for key, params in found.items() if params and key not in KEEP}
    assert extra == {}


def test_the_table_holds_the_fixed_bounds():
    assert (cyclic.IDENTITY_SAMPLES, cyclic.STRUCTURAL_TOL, cyclic.DERIVED_TOL,
            cyclic.WITNESS_TOL, cyclic.ANALYTIC_TOL, algebra.ASSOC_TOL) == (
        5, 1e-10, 1e-9, 1e-8, 1e-6, 1e-12)
    assert fredholm.STRUCTURAL_TOL is cyclic.STRUCTURAL_TOL


@pytest.mark.parametrize("module,name,row", [
    (chern, "verify_perturbation_invariance", "WITNESS_TOL"),
    (chern, "run_verification_suite", "WITNESS_TOL"),
    (pairing, "mult_char_exponentials", "DERIVED_TOL"),
])
def test_the_settable_bounds_default_to_the_table(module, name, row):
    tol = inspect.signature(getattr(module, name)).parameters["tol"]
    assert tol.default == getattr(cyclic, row)


# Runs in a fresh interpreter: argv[1] is a scratch directory.  Prints, after
# the imports and after each command, whether any scipy module is loaded.
SCIPY_PROBE = """
import json, sys
def scipy_loaded():
    return any(k == "scipy" or k.startswith("scipy.") for k in sys.modules)
import cycfred, cycfred.cli
seen = {"import": scipy_loaded()}
d = sys.argv[1]
commands = {
    "make-model": ["make-model", "reflection", "--n", "6", "--m", "4", "-o", d + "/m.json"],
    "make-perturbation": ["make-perturbation", "--module", d + "/m.json", "-o", d + "/T.json"],
    "witness": ["witness", "--module", d + "/m.json", "--perturbation", d + "/T.json"],
    "verify-invariance": ["verify-invariance", "--module", d + "/m.json",
                          "--perturbation", d + "/T.json"],
    "pair": ["pair", "--module", d + "/m.json", "--logs", d + "/logs.json"],
}
with open(d + "/logs.json", "w") as fh:
    json.dump({"logs": [[[0.0, 0.0]] * 3] * 4}, fh)
for name, argv in commands.items():
    seen[name] = [cycfred.cli.main(argv), scipy_loaded()]
print(json.dumps(seen))
"""


def test_only_pair_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cycfred.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", SCIPY_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": False, "make-model": [0, False], "make-perturbation": [0, False],
                    "witness": [0, False], "verify-invariance": [0, False], "pair": [0, True]}


# The symbolic route of cycfred.chern: the test oracle, which no command reaches
SYMBOLIC_CHERN = {
    "IntervalForm", "ChainElement", "chain_element", "chain_unit", "from_dga", "chain_mul",
    "interval_form_of", "PerturbationChain", "connection_apply", "curvature",
    "curvature_power", "graded_trace", "boundary_restrict", "boundary_connection",
    "chern_component", "chern_component_tensor", "chern_character", "boundary_cycle_chern",
    "verify_cobordism_identity",
}
SRC = Path(cycfred.__file__).resolve().parents[1]
SPANS = SRC.parent / "perfbench" / "spans.py"

TRACER_PROBE = """
import json, sys
import cycfred, cycfred.cli
missing = [f"{m}.{f}" for m, f in json.loads(sys.argv[1])
           if not callable(getattr(sys.modules.get(f"cycfred.{m}"), f, None))]
if not isinstance(getattr(sys.modules["cycfred.chern"], "PerturbationChain", None), type):
    missing.append("chern.PerturbationChain")
print(json.dumps(missing))
"""


def test_the_command_line_loads_every_traced_function():
    """perfbench/spans.py wraps its TRACED functions by name in sys.modules
    once perfbench/run.py has imported cycfred and cycfred.cli; a name that no
    longer resolves there would break --trace 1."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE, json.dumps(spans.TRACED)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_cli_names_nothing_of_the_symbolic_oracle():
    tree = ast.parse((SRC / "cycfred" / "cli.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
    assert not names & ({"dga"} | SYMBOLIC_CHERN)
