"""The verdict policy: every acceptance bound is a row of the table in
cycfred.cyclic (or algebra.ASSOC_TOL), and a tolerance keyword exists only
where a caller sets it to more than one value.  The import policy: only
`pair` loads scipy, the command line names nothing of the symbolic oracle,
and importing the command line still loads every function the benchmark's
tracer wraps.  The code policy: a top-level name of the package that no
other package code names and the tracer does not wrap is on the TEST_ONLY
table, with the reason it stays."""

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
    "ChainElement", "chain_element", "chain_unit", "from_dga", "chain_mul",
    "PerturbationChain", "connection_apply", "curvature", "curvature_power",
    "graded_trace", "boundary_restrict", "boundary_connection",
    "chern_component_tensor", "chern_character", "boundary_cycle_chern",
    "verify_cobordism_identity",
}
SRC = Path(cycfred.__file__).resolve().parents[1]
SPANS = SRC.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans

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
    spans = _spans()
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


def test_the_symbolic_names_exist():
    assert SYMBOLIC_CHERN <= set(vars(chern))


# (module, name) of every top-level function or class that no other package
# code names and the tracer does not wrap, with the reason it stays: an
# oracle for a production route, a construct of the paper, or a test input
TEST_ONLY = {
    ("algebra", "random_element"): "test input: random coefficient vectors",
    ("algebra", "scalar_part"): "paper construct: the scalar part of the unitalization",
    ("algebra", "zero_product_algebra"): "test input: a non-unital algebra",
    ("algebra", "truncated_polynomial_algebra"): "test input: a nilpotent graded algebra",
    ("chern", "graded_trace"): "paper construct: the graded trace on the chain",
    ("chern", "boundary_restrict"): "paper construct: the chain at the endpoints t = 0, 1",
    ("chern", "verify_cobordism_identity"): "oracle: (b + B) Ch(chain) = S Ch(boundary)",
    ("cyclic", "evaluate_cochain"): "oracle: a cochain on coefficient vectors",
    ("cyclic", "random_total"): "test input: random total cochains",
    ("cyclic", "periodicity_S"): "paper construct: the periodicity operator S",
    ("cyclic", "chain_boundary"): "oracle: the chain-side b, dual to hochschild_b",
    ("dga", "induced_hom"): "paper construct: the universal DGA is functorial",
    ("dga", "random_dga_element"): "test input: random DGA elements",
    ("fredholm", "relax_summability"): "paper construct: m-summable is (m + 2)-summable",
    ("fredholm", "check_stable_perturbation_certificate"):
        "paper construct: a stable-perturbation certificate",
    ("fredholm", "universal_embed"): "paper construct: the universal picture of a module",
    ("models", "degenerate_module"): "test input: modules whose commutators vanish",
    ("models", "winding_symbol"): "test input: band-limited winding symbols",
    ("models", "sawtooth_log"): "test input: a logarithm of the pure winding phase",
    ("models", "winding_by_phase"): "oracle: the winding number from phase increments",
    ("models", "toeplitz_index_oracle"): "oracle: the symbol-side Toeplitz index",
    ("pairing", "lattice_eq"): "oracle: equality of pairings modulo the period lattice",
}


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached(traced) -> set:
    """(module, name) of each top-level function or class of the package,
    __init__.py aside, that no code outside its own definition names (a
    comment or a docstring does not count) and that traced does not hold."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "cycfred").glob("*.py")) if path.name != "__init__.py"}
    statements = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    return {(mod, node.name) for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (mod, node.name) not in traced
            and not any(node.name in names for other, names in statements if other is not node)}


def test_every_unreached_name_is_kept_for_a_reason():
    # equality both ways: a new orphan fails, and so does a key whose name is
    # gone or has become reached
    assert _unreached(set(_spans().TRACED)) == set(TEST_ONLY)
    assert {reason.split(":")[0] for reason in TEST_ONLY.values()} <= {
        "oracle", "paper construct", "test input"}
