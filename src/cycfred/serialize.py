"""JSON formats for algebras, modules, matrices and reports.

Matrices are row-major nested lists of [re, im] pairs; tensors likewise.
Module files embed their algebra so they are self-contained.  This module is
the checked input boundary of the command line: every defect of a module,
perturbation or logs file raises InputError (or BudgetError for a module over
the budgets), never a bare TypeError or a silently broadcast array.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np

from .algebra import Algebra
from .cyclic import MAX_M, MAX_N, _check_budget
from .errors import BudgetError, InputError
from .fredholm import FredholmModule


def array_to_json(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def array_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"complex arrays must be nested [re, im] number pairs: {exc}") from None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InputError("complex arrays must be nested [re, im] pairs")
    if not np.isfinite(arr).all():
        raise InputError("complex arrays must have finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _typed(value, kind: type, what: str):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _arrays(data, what: str) -> list:
    return [array_from_json(a) for a in _typed(data, list, what)]


def _square(data, n: int, what: str) -> np.ndarray:
    try:
        a = array_from_json(data)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None
    if a.shape != (n, n):
        raise InputError(f"{what} has shape {a.shape}, expected ({n}, {n})")
    return a


def algebra_to_json(algebra: Algebra) -> dict:
    return {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "structure": array_to_json(algebra.structure),
        "unit": None if algebra.unit is None else array_to_json(algebra.unit),
        "grading": None if algebra.grading is None else list(algebra.grading),
    }


def algebra_from_json(data: dict) -> Algebra:
    _typed(data, dict, "an algebra")
    grading = data.get("grading")
    if grading is not None:
        grading = tuple(_typed(g, int, "a grading degree")
                        for g in _typed(grading, list, "'grading'"))
    labels = tuple(_typed(x, str, "a label") for x in _typed(data["labels"], list, "'labels'"))
    return Algebra(
        dim=_typed(data["dim"], int, "'dim'"),
        labels=labels,
        structure=array_from_json(data["structure"]),
        unit=None if data.get("unit") is None else array_from_json(data["unit"]),
        grading=grading,
    )


def module_to_json(module: FredholmModule) -> dict:
    return {
        "algebra": algebra_to_json(module.algebra),
        "n": module.n,
        "rep": [array_to_json(module.rep[i]) for i in range(module.algebra.dim)],
        "F": array_to_json(module.F),
        "gamma": None if module.gamma is None else array_to_json(module.gamma),
        "m": module.m,
    }


def _module_header(data) -> tuple:
    """The integers n, m and the algebra's dim of a module file, read before
    any matrix or structure tensor."""
    _typed(data, dict, "a module file")
    dim = _typed(_typed(data["algebra"], dict, "an algebra")["dim"], int, "'dim'")
    return _typed(data["n"], int, "'n'"), _typed(data["m"], int, "'m'"), dim


def module_from_json(data: dict) -> FredholmModule:
    """The checked input boundary: every defect of a module file raises InputError.

    Each matrix is parsed on its own and checked against (n, n) before the
    representation is stacked, so no array is sized by an unchecked field.
    """
    n, m, _ = _module_header(data)
    algebra = algebra_from_json(data["algebra"])
    F = _square(data["F"], n, "F")
    mats = _typed(data["rep"], list, "'rep'")
    if len(mats) != algebra.dim:
        raise InputError(f"'rep' lists {len(mats)} matrices for an algebra of dim {algebra.dim}")
    rep = np.array([_square(a, n, f"rep[{i}]") for i, a in enumerate(mats)], dtype=complex)
    gamma = None if data.get("gamma") is None else _square(data["gamma"], n, "gamma")
    return FredholmModule(algebra, rep.reshape(algebra.dim, n, n), F, m, gamma)


def load_module(path: str, m: int = 0, budget_n: int = 0) -> FredholmModule:
    """The module file of a command-line run.

    The algebra's dim is checked against the dense-tensor budget, n against
    budget_n (MAX_N when 0) and m against MAX_M, and m against the expected m
    when one is given, before any matrix is parsed.
    """
    data = load_json(path)
    n, file_m, dim = _module_header(data)
    _check_budget(dim, 2)   # the structure tensor, dim^3 entries
    cap = budget_n or MAX_N
    if n > cap:
        raise BudgetError(f"Hilbert dimension {n} exceeds the budget {cap}")
    if file_m > MAX_M:
        raise BudgetError(f"summability degree {file_m} exceeds the budget {MAX_M}")
    if m and m != file_m:
        raise InputError(f"--m {m} disagrees with the module file (m={file_m})")
    return module_from_json(data)


def perturbation_to_json(T: np.ndarray) -> dict:
    return {"T": array_to_json(T)}


def perturbation_from_json(data: dict, n: int) -> np.ndarray:
    """The T of a perturbation file {"T": (n, n) matrix}."""
    return _square(_typed(data, dict, "a perturbation file")["T"], n, "T")


def logs_from_json(data: dict) -> tuple:
    """(exponents, logs) of a logs file {"logs": [array, ...], "exponents": [...]}.

    The exponents default to the logs.
    """
    logs = _arrays(_typed(data, dict, "a logs file")["logs"], "'logs'")
    if "exponents" not in data:
        return logs, logs
    return _arrays(data["exponents"], "'exponents'"), logs


def _encode(obj):
    """JSON form of what the encoder cannot hold: ndarrays as [re, im] arrays,
    complexes as [re, im], numpy scalars as Python numbers, Fractions as
    strings and dataclasses (reports, cochains) as dicts of their fields."""
    if isinstance(obj, np.ndarray):
        return array_to_json(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def to_json(data) -> str:
    """Compact strict JSON text of a report or file, written by the C encoder;
    a non-finite float is written as the string "Infinity", "-Infinity" or "NaN"."""
    try:
        return json.dumps(data, default=_encode, allow_nan=False)
    except ValueError:
        spelled = json.loads(json.dumps(data, default=_encode), parse_constant=str)
        return json.dumps(spelled, allow_nan=False)


def load_json(path: str) -> dict:
    """Parse a JSON file; text that is not JSON raises InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, bad UTF-8 and over-long integers
            raise InputError(f"{path} cannot be parsed as JSON: {exc}") from None


def dump_json(data, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(data))
        fh.write("\n")
