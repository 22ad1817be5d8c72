"""The verdict policy: every acceptance bound is a row of the table in
cycfred.cyclic (or algebra.ASSOC_TOL), and a tolerance keyword exists only
where a caller sets it to more than one value."""

import inspect

import pytest

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
