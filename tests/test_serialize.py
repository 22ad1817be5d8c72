"""Property tests of the checked input boundary in cycfred.serialize."""

from hypothesis import given, strategies as st

from cycfred.algebra import upper_triangular_algebra
from cycfred.errors import BudgetError, InputError
from cycfred.models import random_reflection_module
from cycfred.serialize import (
    logs_from_json,
    module_from_json,
    module_to_json,
    perturbation_from_json,
)

# the exceptions cli.main turns into exit code 2
REJECTED = (InputError, BudgetError, KeyError)

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
