"""Finite-dimensional complex algebras given by structure constants.

An algebra is a dense rank-3 tensor ``structure`` with

    e_i * e_j = sum_k structure[i, j, k] e_k

over a chosen basis, together with an optional unit vector and an optional
integer grading of the basis.  Elements are plain complex coefficient
vectors; there is no element wrapper class.

Every cochain-level construction in this package works over a unitalization
built by :func:`unitalize`, which adjoins a fresh unit as the last basis
vector regardless of whether the input algebra already has a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InputError

ASSOC_TOL = 1e-12   # algebra axioms and commutativity; the other verdict bounds are in cyclic


@dataclass(frozen=True, eq=False)
class Algebra:
    """Structure-constant presentation of a finite-dimensional algebra.

    Attributes:
        dim: number of basis elements.
        labels: basis labels, used in reports and debug dumps.
        structure: complex array of shape (dim, dim, dim).
        unit: coefficient vector of the multiplicative unit, or None.
        grading: per-basis non-negative integer degrees, or None.
    """

    dim: int
    labels: tuple
    structure: np.ndarray
    unit: Optional[np.ndarray] = None
    grading: Optional[tuple] = None

    def __post_init__(self):
        if self.structure.shape != (self.dim, self.dim, self.dim):
            raise InputError(
                f"structure tensor shape {self.structure.shape} does not match dim {self.dim}"
            )
        if len(self.labels) != self.dim:
            raise InputError("label count does not match dim")
        if self.unit is not None and np.shape(self.unit) != (self.dim,):
            raise InputError("unit vector length does not match dim")
        if self.grading is not None and len(self.grading) != self.dim:
            raise InputError("grading length does not match dim")

    @property
    def is_graded(self) -> bool:
        return self.grading is not None

    @cached_property
    def unit_index(self) -> Optional[int]:
        """Index i with unit == e_i, or None; scanned once per algebra."""
        if self.unit is None:
            return None
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            if np.allclose(self.unit, e, atol=1e-12):
                return i
        return None


def same_algebra(a: Algebra, b: Algebra) -> bool:
    if a is b:
        return True
    return a.dim == b.dim and np.array_equal(a.structure, b.structure)


def as_element(algebra: Algebra, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (algebra.dim,):
        raise InputError(f"element length {x.shape} does not match algebra dim {algebra.dim}")
    return x


def multiply(algebra: Algebra, x, y) -> np.ndarray:
    """Product of two coefficient vectors, expanded in the basis."""
    x = as_element(algebra, x)
    y = as_element(algebra, y)
    return np.einsum("i,j,ijk->k", x, y, algebra.structure)


def random_element(algebra: Algebra, rng) -> np.ndarray:
    return rng.normal(size=algebra.dim) + 1j * rng.normal(size=algebra.dim)


def unitalize(algebra: Algebra) -> Algebra:
    """Adjoin a fresh unit: (a, l)(b, m) = (ab + am + bl, lm).

    The new unit is the last basis vector.  The original algebra embeds as
    an ideal via :func:`embed_element`, and the quotient by that ideal is
    read off by :func:`scalar_part`.
    """
    d = algebra.dim
    structure = np.zeros((d + 1, d + 1, d + 1), dtype=complex)
    structure[:d, :d, :d] = algebra.structure
    for i in range(d + 1):
        structure[i, d, i] = 1.0
        structure[d, i, i] = 1.0
    unit = np.zeros(d + 1, dtype=complex)
    unit[d] = 1.0
    grading = tuple(algebra.grading) + (0,) if algebra.is_graded else None
    return Algebra(
        dim=d + 1,
        labels=tuple(algebra.labels) + ("1~",),
        structure=structure,
        unit=unit,
        grading=grading,
    )


def embed_element(algebra: Algebra, x) -> np.ndarray:
    """Embed an element of A into the unitalization of A."""
    x = as_element(algebra, x)
    return np.concatenate([x, [0.0]])


def scalar_part(unitalized: Algebra, y) -> complex:
    """Projection (a, l) -> l onto the adjoined-unit coefficient."""
    y = as_element(unitalized, y)
    return complex(y[-1])


def unit_basis_index(algebra: Algebra) -> Optional[int]:
    """Index i with unit == e_i, or None if the unit is not a basis vector."""
    return algebra.unit_index


def _associativity(s: np.ndarray) -> tuple:
    """Largest |(e_i e_j) e_k - e_i (e_j e_k)| and the first (i, j, k) in C order
    where it occurs, one left factor e_a at a time.

    Only the nonzero rows J and columns M of s[a] enter the two products, so
    each side is one small matrix product and nothing of size dim^4 is built.
    """
    d = s.shape[0]
    if d == 0:
        return 0.0, None
    flat = s.reshape(d * d, d)
    nonzero = s != 0
    worst, worst_triple = -1.0, None
    for a in range(d):
        J = np.flatnonzero(nonzero[a].any(axis=1))
        M = np.flatnonzero(nonzero[a].any(axis=0))
        sub = s[a][np.ix_(J, M)]
        diff = np.zeros((d, d * d), dtype=s.dtype)
        diff[J] = sub @ s[M].reshape(len(M), d * d)          # (e_a e_j) e_k, rows j
        diff.reshape(d * d, d)[:, M] -= flat[:, J] @ sub      # e_a (e_j e_k), columns l
        diff = np.abs(diff)
        pos = int(diff.argmax())
        value = float(diff.flat[pos])
        if not value <= worst:    # an earlier a keeps a tie; a NaN ends the scan
            worst, worst_triple = value, (a, pos // (d * d), pos // d % d)
            if np.isnan(value):
                break
    return worst, worst_triple


def validate_algebra(algebra: Algebra) -> dict:
    """Report-only check of associativity, unit laws and grading.

    Returns a dict with per-invariant pass flags, the largest violation
    magnitude and the basis triple where it occurs.
    """
    s = algebra.structure
    worst, worst_triple = _associativity(s)
    report = {
        "associative": worst <= ASSOC_TOL,
        "associativity_violation": worst,
        "worst_triple": worst_triple,
    }

    if algebra.unit is not None:
        u = algebra.unit
        eye = np.eye(algebra.dim)
        lu = np.einsum("i,ijk->jk", u, s)
        ru = np.einsum("j,ijk->ik", u, s)
        unit_violation = float(max(np.abs(lu - eye).max(), np.abs(ru - eye).max()))
        report["unit_ok"] = unit_violation <= ASSOC_TOL
        report["unit_violation"] = unit_violation
    else:
        report["unit_ok"] = True
        report["unit_violation"] = 0.0

    if algebra.is_graded:
        g = np.asarray(algebra.grading)
        i, j, k = np.nonzero(s)
        off = np.abs(s[i, j, k][g[k] != g[i] + g[j]])
        bad = float(off.max()) if off.size else 0.0
        report["graded_ok"] = bad <= ASSOC_TOL
        report["grading_violation"] = bad
    else:
        report["graded_ok"] = True
        report["grading_violation"] = 0.0

    report["pass"] = bool(report["associative"] and report["unit_ok"] and report["graded_ok"])
    return report


# ---------------------------------------------------------------------------
# Built-in model algebras.  Structure constants are integers so products of
# basis elements are exact in floating point.
# ---------------------------------------------------------------------------

def pointwise_algebra(n: int) -> Algebra:
    """Functions on n points with pointwise product; basis = delta functions."""
    structure = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        structure[i, i, i] = 1.0
    return Algebra(
        dim=n,
        labels=tuple(f"d{i}" for i in range(n)),
        structure=structure,
        unit=np.ones(n, dtype=complex),
    )


def matrix_units_algebra(k: int) -> Algebra:
    """Full matrix algebra M_k(C) in the matrix-unit basis E_ij.

    Basis order is row-major: index(i, j) = k*i + j, so for example
    E_11 * E_12 = E_12 in M_2.
    """
    d = k * k
    structure = np.zeros((d, d, d), dtype=complex)
    for i in range(k):
        for j in range(k):
            for a in range(k):
                for b in range(k):
                    if j == a:
                        structure[k * i + j, k * a + b, k * i + b] = 1.0
    unit = np.zeros(d, dtype=complex)
    for i in range(k):
        unit[k * i + i] = 1.0
    return Algebra(
        dim=d,
        labels=tuple(f"E{i}{j}" for i in range(k) for j in range(k)),
        structure=structure,
        unit=unit,
    )


def upper_triangular_algebra() -> Algebra:
    """Upper-triangular 2x2 matrices: the smallest noncommutative unital algebra.

    Basis (E00, E01, E11); dim 3, so its unitalization stays within tight
    dense-tensor budgets.
    """
    d = 3
    # indices: 0 -> E00, 1 -> E01, 2 -> E11
    structure = np.zeros((d, d, d), dtype=complex)
    structure[0, 0, 0] = 1.0
    structure[0, 1, 1] = 1.0
    structure[1, 2, 1] = 1.0
    structure[2, 2, 2] = 1.0
    unit = np.array([1.0, 0.0, 1.0], dtype=complex)
    return Algebra(dim=d, labels=("E00", "E01", "E11"), structure=structure, unit=unit)


def zero_product_algebra(n: int = 1) -> Algebra:
    """Non-unital algebra with all products zero; unitalize() is the classic test."""
    return Algebra(
        dim=n,
        labels=tuple(f"z{i}" for i in range(n)),
        structure=np.zeros((n, n, n), dtype=complex),
        unit=None,
    )


def truncated_polynomial_algebra(nilpotency: int) -> Algebra:
    """C[x] / (x^nilpotency) with basis 1, x, ..., x^(nilpotency-1), graded by degree."""
    n = nilpotency
    structure = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                structure[i, j, i + j] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    return Algebra(
        dim=n,
        labels=tuple(f"x^{i}" for i in range(n)),
        structure=structure,
        unit=unit,
        grading=tuple(range(n)),
    )


def scalar_algebra() -> Algebra:
    """The one-dimensional algebra C; target of restriction to scalars."""
    return Algebra(
        dim=1,
        labels=("1",),
        structure=np.ones((1, 1, 1), dtype=complex),
        unit=np.ones(1, dtype=complex),
    )
