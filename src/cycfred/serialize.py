"""JSON formats for algebras, modules, matrices and reports.

Matrices are row-major nested lists of [re, im] pairs; tensors likewise.
Module files embed their algebra so they are self-contained.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from .algebra import Algebra
from .errors import InputError
from .fredholm import FredholmModule


def array_to_json(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def array_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
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
    return Algebra(
        dim=_typed(data["dim"], int, "'dim'"),
        labels=tuple(_typed(data["labels"], list, "'labels'")),
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


def module_from_json(data: dict) -> FredholmModule:
    """The checked input boundary: every defect of a module file raises InputError.

    Each matrix is parsed on its own and checked against (n, n) before the
    representation is stacked, so no array is sized by an unchecked field.
    """
    _typed(data, dict, "a module file")
    algebra = algebra_from_json(data["algebra"])
    n = _typed(data["n"], int, "'n'")
    F = _square(data["F"], n, "F")
    mats = _typed(data["rep"], list, "'rep'")
    if len(mats) != algebra.dim:
        raise InputError(f"'rep' lists {len(mats)} matrices for an algebra of dim {algebra.dim}")
    rep = np.array([_square(a, n, f"rep[{i}]") for i, a in enumerate(mats)], dtype=complex)
    gamma = None if data.get("gamma") is None else _square(data["gamma"], n, "gamma")
    return FredholmModule(algebra, rep.reshape(algebra.dim, n, n), F, _typed(data["m"], int, "'m'"),
                          gamma)


def jsonable(obj):
    """Recursively convert reports (ndarrays, complexes, dataclasses) to JSON."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return array_to_json(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if hasattr(obj, "components"):  # TotalCochain
        return [array_to_json(c) for c in obj.components]
    return obj


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(data, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(data), fh, indent=2)
        fh.write("\n")
