"""Pairings of index cocycles with cyclic chains, and the lattice-valued
character on exponential data.

The character of a module with summability degree m takes values in
C / (2 pi i)^ceil(m/2) Z.  On products of exponentials it is computed by
contracting the index cocycle against the signed permutation chain built
from a choice of logarithms, scaled by the rational constant c(m); the
choice of logarithm branch only moves the value inside the lattice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.linalg import expm

from .algebra import ASSOC_TOL, Algebra, embed_element, unitalize, as_element
from .cyclic import ANALYTIC_TOL, DERIVED_TOL, Chain, pair_cochain_chain
from .errors import InputError
from .fredholm import FredholmModule, index_cocycle, operator_norm

SEARCH_RADIUS = 10 ** 6


def modulus_exponent(m: int) -> int:
    return (m + 1) // 2


def lattice_generator(m: int) -> complex:
    return (2j * np.pi) ** modulus_exponent(m)


@dataclass(frozen=True)
class LatticeValue:
    """A complex number considered modulo (2 pi i)^modulus_exponent Z."""

    representative: complex
    modulus_exponent: int

    def reduced(self) -> "LatticeValue":
        g = (2j * np.pi) ** self.modulus_exponent
        k = _nearest_multiple(self.representative, g)
        return LatticeValue(self.representative - k * g, self.modulus_exponent)

    def __str__(self):
        return f"{self.representative} mod (2*pi*i)^{self.modulus_exponent} Z"


def _nearest_multiple(z: complex, g: complex) -> int:
    k = int(round((z * np.conj(g)).real / abs(g) ** 2))
    if abs(k) > SEARCH_RADIUS:
        raise InputError(f"lattice multiple {k} outside the search radius {SEARCH_RADIUS}")
    return k


def c_constant(m: int) -> Fraction:
    """The rational normalization constant in dimension m - 1."""
    if m < 1:
        raise InputError("m must be a positive integer")
    if (m - 1) % 2 == 0:
        k = (m - 1) // 2
        return Fraction((-1) ** (k + 1) * math.factorial(k), math.factorial(2 * k))
    k = m // 2
    return Fraction(-1, 2 ** (2 * k - 1) * math.factorial(k - 1))


def lattice_reduce(z: complex, m: int) -> LatticeValue:
    """Canonical representative of z modulo (2 pi i)^ceil(m/2) Z."""
    return LatticeValue(complex(z), modulus_exponent(m)).reduced()


def lattice_eq(z: complex, w: complex, m: int) -> bool:
    g = lattice_generator(m)
    diff = complex(z) - complex(w)
    k = _nearest_multiple(diff, g)
    return abs(diff - k * g) <= ANALYTIC_TOL


def is_commutative(algebra: Algebra) -> bool:
    s = algebra.structure
    return float(np.abs(s - s.transpose(1, 0, 2)).max()) <= ASSOC_TOL


def antisym_cycle(algebra: Algebra, logs) -> Chain:
    """Signed permutation chain b0 (x) b_s(1) (x) ... over the unitalization,
    with the first slot fixed.  Alternating in the last m - 1 slots."""
    if not logs:
        raise InputError("need at least one element")
    if not is_commutative(algebra):
        warnings.warn("permutation cycles are only closed over commutative algebras",
                      stacklevel=2)
    at = unitalize(algebra)
    vecs = [embed_element(algebra, as_element(algebra, b)) for b in logs]
    m = len(vecs)
    values = np.zeros((at.dim,) * m, dtype=complex)
    for perm in permutations(range(1, m)):
        sign = _perm_sign(perm)
        tensor = vecs[0]
        for p in perm:
            tensor = np.multiply.outer(tensor, vecs[p])
        values = values + sign * tensor
    return Chain(at, values)


def _perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def chern_pairing(module: FredholmModule, x: Chain) -> complex:
    """Contract the index cocycle against a degree-(m-1) chain."""
    if x.degree != module.m - 1:
        raise InputError(f"chain degree {x.degree} does not match m - 1 = {module.m - 1}")
    return pair_cochain_chain(index_cocycle(module), x)


def _rep_plain(module: FredholmModule, x) -> np.ndarray:
    return np.tensordot(as_element(module.algebra, x), module.rep, axes=(0, 0))


def mult_char_exponentials(module: FredholmModule, exponents, logs,
                           tol: float = DERIVED_TOL) -> LatticeValue:
    """Character value on the exponential product data (e^{a_0}, ..., e^{a_{m-1}}).

    The logs may be any branches with exp(rep(b_i)) = exp(rep(a_i)); the
    returned representative is c(m) times the pairing of the index cocycle
    with the signed permutation chain of the logs.
    """
    m = module.m
    if len(exponents) != m or len(logs) != m:
        raise InputError(f"need exactly m = {m} exponents and logs")
    if not is_commutative(module.algebra):
        warnings.warn("the exponential formula is stated over commutative algebras",
                      stacklevel=2)
    for i, (a, b) in enumerate(zip(exponents, logs)):
        with np.errstate(over="ignore", invalid="ignore"):     # checked just below
            ea = expm(_rep_plain(module, a))
            eb = expm(_rep_plain(module, b))
        if not np.isfinite(ea).all():
            raise InputError(f"exp(rep(a)) at index {i} overflows: it has non-finite entries")
        if not operator_norm(ea - eb) <= tol * max(1.0, operator_norm(ea)):
            raise InputError(f"log mismatch at index {i}: exp(rep(b)) differs from exp(rep(a))")
    value = complex(c_constant(m)) * chern_pairing(module, antisym_cycle(module.algebra, logs))
    return LatticeValue(value, modulus_exponent(m))
