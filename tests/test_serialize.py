"""Property tests of the checked input boundary in cycfred.serialize, and
the JSON form of reports."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycfred.algebra import scalar_algebra, upper_triangular_algebra
from cycfred.cyclic import TotalCochain
from cycfred.errors import BudgetError, InputError
from cycfred.fredholm import SchattenReport
from cycfred.models import random_reflection_module
from cycfred.serialize import (
    dump_json,
    load_json,
    logs_from_json,
    module_from_json,
    module_to_json,
    perturbation_from_json,
    to_json,
)
from cycfred import serialize

# the exceptions cli.main turns into exit code 2
REJECTED = (InputError, BudgetError)

MODULE_KEYS = ("algebra", "n", "m", "rep", "F", "gamma")
ALGEBRA_KEYS = ("dim", "labels", "structure", "unit", "grading")
KEYS = MODULE_KEYS + ALGEBRA_KEYS + ("T", "logs", "exponents")
FIELDS = [(key,) for key in MODULE_KEYS] + [("algebra", key) for key in ALGEBRA_KEYS]

numbers = (st.integers(-2, 4) | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
           | st.floats(allow_nan=True, allow_infinity=True))
scalars = st.none() | st.booleans() | numbers | st.text(max_size=4)
# nested lists of [re, im] pairs: the arrays of the format, of any shape
arrays = st.recursive(st.lists(numbers, min_size=2, max_size=2),
                      lambda inner: st.lists(inner, max_size=3), max_leaves=8)
json_values = st.recursive(
    scalars | arrays,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=4),
    max_leaves=8,
)

N = 4
VALID = module_to_json(random_reflection_module(N, upper_triangular_algebra(), seed=1, m=2))


def _replaced(replacements):
    """The valid module file with one or two of its fields replaced."""
    data = {**VALID, "algebra": dict(VALID["algebra"])}
    for path, value in replacements:
        (data if len(path) == 1 else data["algebra"])[path[-1]] = value
    return data


module_files = json_values | st.lists(st.tuples(st.sampled_from(FIELDS), arrays | json_values),
                                      min_size=1, max_size=2).map(_replaced)


def _returns_or_rejects(load, data):
    try:
        load(data)
    except REJECTED:
        pass


@given(module_files)
def test_module_from_json_returns_or_rejects(data):
    _returns_or_rejects(module_from_json, data)


@given(json_values | st.builds(lambda T: {"T": T}, arrays | json_values))
def test_perturbation_from_json_returns_or_rejects(data):
    _returns_or_rejects(lambda d: perturbation_from_json(d, N), data)


array_lists = st.lists(arrays | json_values, max_size=3) | json_values


@given(json_values | st.fixed_dictionaries({"logs": array_lists},
                                           optional={"exponents": array_lists}))
def test_logs_from_json_returns_or_rejects(data):
    _returns_or_rejects(logs_from_json, data)


def test_fuzzed_module_files_start_from_a_valid_one():
    assert module_from_json(VALID).n == N


def test_reports_are_written_as_compact_json(tmp_path):
    report = {
        "array": np.array([[1 + 2j, 0.5], [0, -1j]]),
        "complex": 3 - 4j,
        "np_complex": np.complex128(0.25 + 1j),
        "float": np.float64(0.1),
        "int": np.int64(7),
        "fraction": Fraction(-3, 8),
        "schatten": SchattenReport(2, (np.float64(1.5), 0.25), (1.0, 2.0), (2.5, 2.25)),
        "cochain": TotalCochain(scalar_algebra(), (np.array([2 + 1j]),)),
        "nested": (1, (2.5, (np.int64(3), "x")), [None, True]),
        3: "int key",
    }
    path = tmp_path / "report.json"
    dump_json(report, str(path))
    assert load_json(str(path)) == {
        "array": [[[1.0, 2.0], [0.5, 0.0]], [[0.0, 0.0], [-0.0, -1.0]]],
        "complex": [3.0, -4.0],
        "np_complex": [0.25, 1.0],
        "float": 0.1,
        "int": 7,
        "fraction": "-3/8",
        "schatten": {"m": 2, "commutator_norms": [1.5, 0.25], "operator_norms": [1.0, 2.0],
                     "combined_norms": [2.5, 2.25]},
        "cochain": {"algebra": {"dim": 1, "labels": ["1"], "structure": [[[[1.0, 0.0]]]],
                                "unit": [[1.0, 0.0]], "grading": None},
                    "components": [[[2.0, 1.0]]]},
        "nested": [1, [2.5, [3, "x"]], [None, True]],
        "3": "int key",
    }
    assert len(path.read_text().splitlines()) == 1


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_non_finite_floats_are_written_as_strings():
    report = {"inf": float("inf"), "list": [-np.inf, float("nan"), 1.5],
              "np": np.float64(np.inf), "array": np.array([np.inf - 1j]), "ok": 0.1}
    text = to_json(report)
    assert json.loads(text, parse_constant=_reject_constant) == {
        "inf": "Infinity", "list": ["-Infinity", "NaN", 1.5],
        "np": "Infinity", "array": [["Infinity", -1.0]], "ok": 0.1,
    }


@pytest.mark.parametrize("report", [
    {"float": 0.1, "nested": [1, (2.5, -0.0)], 3: None},
    {"array": np.array([[1 + 2j, 0.5]]), "np": np.float64(1e300)},
])
def test_finite_reports_keep_the_default_encoding(report):
    assert to_json(report) == json.dumps(report, default=serialize._encode)
