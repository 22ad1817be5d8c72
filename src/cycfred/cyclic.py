"""Hochschild cochains, the (b, B) operators and totalized cyclic cochains.

Cochains of degree m are dense complex tensors of rank m + 1 over a basis of
a (unitalized) algebra: values[i0, ..., im] = phi(e_i0, ..., e_im).

Fixed operator conventions (the identity suite in the tests checks, rather
than assumes, that these satisfy b^2 = 0, B^2 = 0 and bB + Bb = 0):

    (b phi)(a0, ..., a_{m+1}) =
        sum_{i=0}^{m} (-1)^i phi(a0, ..., a_i a_{i+1}, ..., a_{m+1})
        + (-1)^{m+1} phi(a_{m+1} a0, a1, ..., a_m)

    B = A . B0, where for phi of degree m
        (B0 phi)(a0, ..., a_{m-1}) = phi(1, a0, ..., a_{m-1})
                                     - (-1)^m phi(a0, ..., a_{m-1}, 1)
    and for psi of degree n (the signed cyclic symmetrizer)
        (A psi)(a0, ..., an) = sum_{j=0}^{n} (-1)^{n j} psi(a_j, ..., a_{j-1})

A totalized cochain of top degree m is the sequence (phi^m, phi^{m-2}, ...)
ending in degree 1 or 0, with coboundary

    (b + B)(phi^m, phi^{m-2}, ...) = (b phi^m, B phi^m + b phi^{m-2}, ...).

coboundary_residual, max |(b + B) psi - y| with its first index tuple, is the
one residual behind every (b + B) check; a NaN ends its scan and becomes the
result, so a NaN fails every check.

MAX_TENSOR_ENTRIES bounds every cochain tensor the package allocates, the rows
of the self-checks included, checked before the allocation.  b raises the
degree, so hochschild_b_rows computes b phi for a block of leading indices
a0, and coboundary_residual takes the top component one row at a time: a row
of b phi has as many entries as phi itself, so a self-check on a cochain the
budget admitted never exceeds it, and a check on admitted input never exits 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np

from .algebra import Algebra, same_algebra, scalar_algebra, as_element
from .errors import BudgetError, InputError

# The budget table of the package, checked before any allocation.
MAX_DEGREE = 6                   # cochain degree
MAX_TENSOR_ENTRIES = 20_000_000  # entries of one dense cochain tensor
MAX_IDENTITY_ENTRIES = 500_000   # dim^(degree + 3) of the sampled b/B identity checks
MAX_N = 64                       # Hilbert dimension of a command-line run (--budget-n overrides)
MAX_M = 6                        # summability degree of a command-line run
# The verdict policy: the fixed acceptance bound of every check (algebra.ASSOC_TOL
# is in algebra, which this module imports).  Only WITNESS_TOL and DERIVED_TOL
# are also defaults of a --tol: of the witness identity and of pair's log matching.
IDENTITY_SAMPLES = 5             # random cochains of the (b + B)^2 = 0 ladder
STRUCTURAL_TOL = 1e-10           # module axioms, G = F + T, the ladder, FT + TF + T^2 = 0
DERIVED_TOL = 1e-9               # index cocycle, boundary character, log matching of pair
WITNESS_TOL = 1e-8               # the witness and cobordism identities
ANALYTIC_TOL = 1e-6              # lattice_eq


def _check_budget(dim: int, degree: int, rows: int | None = None):
    # Degree cap plus a total-entry cap; large-dim algebras are fine at low
    # degree (the discrete Fourier models need dim ~ 65 at degree <= 3).
    # `rows` counts the leading indices held at once (all dim of them by default).
    if degree > MAX_DEGREE:
        raise BudgetError(f"cochain degree {degree} exceeds the budget (max {MAX_DEGREE})")
    if (dim if rows is None else rows) * dim ** degree > MAX_TENSOR_ENTRIES:
        held = "" if rows in (None, dim) else f"{rows} rows of a "
        raise BudgetError(
            f"{held}dense tensor with dim {dim} and degree {degree} exceeds "
            f"{MAX_TENSOR_ENTRIES} entries"
        )


@dataclass(frozen=True, eq=False)
class Cochain:
    algebra: Algebra
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim < 1:
            raise InputError("cochain tensor must have rank >= 1")
        if any(s != self.algebra.dim for s in self.values.shape):
            raise InputError("cochain tensor axes must all equal the algebra dimension")

    @property
    def degree(self) -> int:
        return self.values.ndim - 1


@dataclass(frozen=True, eq=False)
class Chain:
    """An element of A~ (x) A~^(x m), stored like a cochain."""

    algebra: Algebra
    values: np.ndarray

    @property
    def degree(self) -> int:
        return self.values.ndim - 1


def zero_cochain(algebra: Algebra, degree: int) -> Cochain:
    _check_budget(algebra.dim, degree)
    return Cochain(algebra, np.zeros((algebra.dim,) * (degree + 1), dtype=complex))


def random_cochain(algebra: Algebra, degree: int, rng) -> Cochain:
    _check_budget(algebra.dim, degree)
    shape = (algebra.dim,) * (degree + 1)
    return Cochain(algebra, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def evaluate_cochain(phi: Cochain, args) -> complex:
    """phi(x0, ..., xm) for coefficient vectors over the cochain's algebra."""
    if len(args) != phi.degree + 1:
        raise InputError(f"expected {phi.degree + 1} arguments, got {len(args)}")
    out = phi.values
    for x in args:
        out = np.tensordot(as_element(phi.algebra, x), out, axes=(0, 0))
    return complex(out)


def _b_rows_into(phi: Cochain, rows: slice, out: np.ndarray, term: np.ndarray):
    """Write the rows a0 in `rows` of b phi into out, using term as scratch.

    Every term is one einsum over the block of leading indices: each reads
    the block from the operand that carries a0 (s for i = 0 and the wrap-around
    term, phi otherwise).
    """
    m = phi.degree
    s = phi.algebra.structure
    n_out = m + 2
    out_letters = ascii_lowercase[:n_out]
    k = ascii_lowercase[n_out]
    for i in range(m + 2):
        if i <= m:
            # (-1)^i phi(a0, ..., a_i a_{i+1}, ..., a_{m+1})
            phi_letters = out_letters[:i] + k + out_letters[i + 2:]
            s_letters = out_letters[i:i + 2] + k
            s_i, phi_i = (s[rows], phi.values) if i == 0 else (s, phi.values[rows])
        else:
            # (-1)^{m+1} phi(a_{m+1} a0, a1, ..., am)
            phi_letters = k + out_letters[1:n_out - 1]
            s_letters = out_letters[-1] + out_letters[0] + k
            s_i, phi_i = s[:, rows], phi.values
        spec = f"{s_letters},{phi_letters}->{out_letters}"
        if i == 0:
            np.einsum(spec, s_i, phi_i, out=out)
        else:
            np.einsum(spec, s_i, phi_i, out=term)
            (np.subtract if i % 2 else np.add)(out, term, out=out)


def hochschild_b_rows(phi: Cochain, rows: slice) -> np.ndarray:
    """The rows a0 in `rows` of the Hochschild coboundary b phi, degree m -> m + 1."""
    d = phi.algebra.dim
    n_rows = len(range(d)[rows])
    _check_budget(d, phi.degree + 1, rows=n_rows)
    out = np.empty((n_rows,) + (d,) * (phi.degree + 1), dtype=complex)
    _b_rows_into(phi, rows, out, np.empty_like(out))
    return out


def hochschild_b(phi: Cochain) -> Cochain:
    """Hochschild coboundary, degree m -> m + 1."""
    return Cochain(phi.algebra, hochschild_b_rows(phi, slice(None)))


def _cyclic_symmetrize(values: np.ndarray) -> np.ndarray:
    n = values.ndim - 1
    out = np.zeros_like(values)
    for j in range(n + 1):
        axes = tuple(range(j, n + 1)) + tuple(range(j))
        out += (-1) ** (n * j) * np.transpose(values, axes)
    return out


def connes_B(phi: Cochain) -> Cochain:
    """Connes coboundary B = A . B0, degree m -> m - 1.

    Degree-0 input returns the zero cochain of degree 0 (convention: there is
    no degree -1 slot in the totalized complex).
    """
    m = phi.degree
    if m == 0:
        return zero_cochain(phi.algebra, 0)
    unit = phi.algebra.unit
    if unit is None:
        raise InputError("connes_B needs a unital algebra")
    first = np.tensordot(unit, phi.values, axes=(0, 0))
    last = np.tensordot(phi.values, unit, axes=(m, 0))
    b0 = first - (-1) ** m * last
    return Cochain(phi.algebra, _cyclic_symmetrize(b0))


@dataclass(frozen=True, eq=False)
class TotalCochain:
    """(phi^m, phi^{m-2}, ...), components listed from the top degree down.

    The component ladder is always materialized down to degree 1 or 0.
    """

    algebra: Algebra
    components: tuple

    def __post_init__(self):
        degs = [c.ndim - 1 for c in self.components]
        if degs != [degs[0] - 2 * i for i in range(len(degs))] or degs[-1] not in (0, 1):
            raise InputError(f"component degrees {degs} must step down by 2 and end at 0 or 1")

    @property
    def top_degree(self) -> int:
        return self.components[0].ndim - 1

    def component(self, degree: int) -> np.ndarray:
        for c in self.components:
            if c.ndim - 1 == degree:
                return c
        raise InputError(f"no component of degree {degree} in top-degree {self.top_degree} cochain")

    def max_abs(self) -> float:
        return float(np.max([np.abs(c).max() for c in self.components]))   # NaN propagates


def zero_total(algebra: Algebra, top_degree: int) -> TotalCochain:
    comps = []
    deg = top_degree
    while deg >= 0:
        comps.append(np.zeros((algebra.dim,) * (deg + 1), dtype=complex))
        deg -= 2
    return TotalCochain(algebra, tuple(comps))


def total_from_top(phi: Cochain) -> TotalCochain:
    """Place a single cochain in the top slot with zeros below."""
    total = zero_total(phi.algebra, phi.degree)
    comps = (phi.values,) + total.components[1:]
    return TotalCochain(phi.algebra, comps)


def random_total(algebra: Algebra, top_degree: int, rng) -> TotalCochain:
    comps = []
    deg = top_degree
    while deg >= 0:
        comps.append(random_cochain(algebra, deg, rng).values)
        deg -= 2
    return TotalCochain(algebra, tuple(comps))


def _coboundary_component(algebra: Algebra, components, deg: int) -> np.ndarray:
    """The degree-deg component B psi_(deg+1) + b psi_(deg-1) of (b + B) psi;
    a zero psi_k (the lower slots of total_from_top) contributes nothing."""
    out = None
    for c in components:
        if c.ndim in (deg, deg + 2) and c.any():
            term = (connes_B if c.ndim == deg + 2 else hochschild_b)(Cochain(algebra, c)).values
            out = term if out is None else np.add(out, term, out=out)
    return np.zeros((algebra.dim,) * (deg + 1), dtype=complex) if out is None else out


def total_coboundary(psi: TotalCochain) -> TotalCochain:
    """(b + B) on the totalized complex; raises the top degree by one."""
    return TotalCochain(psi.algebra, tuple(_coboundary_component(psi.algebra, psi.components, deg)
                                           for deg in range(psi.top_degree + 1, -1, -2)))


def coboundary_residual(psi: TotalCochain | None, target: Cochain | None = None) -> tuple:
    """max |(b + B) psi - target| over every entry, and the first index tuple
    where it occurs (component order, then C order); None when it is zero.

    target is one cochain, subtracted from the component of its own degree;
    psi None is the empty witness of m = 1.  The top component b psi_top is
    taken one row a0 at a time in buffers allocated once (rows allocated
    afresh are paged in again on every row).  A NaN ends the scan as the result.
    """
    alg = target.algebra if psi is None else psi.algebra
    components = () if psi is None else psi.components
    top = target.degree if psi is None else psi.top_degree + 1
    goal = {} if target is None else {target.degree: target.values}
    if any(deg > top or (top - deg) % 2 for deg in goal):
        raise InputError(f"target degree {target.degree} is not a degree of (b + B) psi")

    def blocks():
        """(first row a0, rows of (b + B) psi, a buffer for their magnitudes)."""
        if psi is not None:
            _check_budget(alg.dim, top, rows=1)
            out = np.empty((1,) + (alg.dim,) * top, dtype=complex)
            term, mag = np.empty_like(out), np.empty(out.shape)
            for a in range(alg.dim):
                _b_rows_into(Cochain(alg, components[0]), slice(a, a + 1), out, term)
                yield a, out, mag
        for deg in range(top if psi is None else top - 2, -1, -2):
            block = _coboundary_component(alg, components, deg)
            yield 0, block, np.empty(block.shape)

    worst, where = 0.0, None
    for row0, block, mag in blocks():
        if block.ndim - 1 in goal:
            block -= goal[block.ndim - 1][row0:row0 + len(block)]
        pos = int(np.abs(block, out=mag).argmax())
        value = float(mag.flat[pos])
        if not value <= worst:    # an earlier entry keeps a tie; a NaN ends the scan
            first, *rest = np.unravel_index(pos, mag.shape)
            worst, where = value, tuple(int(i) for i in (row0 + first, *rest))
            if np.isnan(value):
                break
    return worst, where


def periodicity_S(psi: TotalCochain) -> TotalCochain:
    """Degree-2 shift: prepend a zero top component."""
    alg = psi.algebra
    m = psi.top_degree
    _check_budget(alg.dim, m + 2)
    top = np.zeros((alg.dim,) * (m + 3), dtype=complex)
    return TotalCochain(alg, (top,) + psi.components)


def restrict_to_scalars(psi: TotalCochain) -> TotalCochain:
    """Restriction along C -> A~; the kernel of this map is the reduced complex."""
    unit = psi.algebra.unit
    if unit is None:
        raise InputError("restriction to scalars needs a unital algebra")
    target = scalar_algebra()
    comps = []
    for c in psi.components:
        val = c
        for _ in range(c.ndim):
            val = np.tensordot(unit, val, axes=(0, 0))
        comps.append(np.full((1,) * c.ndim, complex(val)))
    return TotalCochain(target, tuple(comps))


def is_reduced(psi: TotalCochain, tol: float = 0.0) -> bool:
    """True when every component vanishes on all-unit argument tuples."""
    return restrict_to_scalars(psi).max_abs() <= tol


def pair_cochain_chain(phi: Cochain, x: Chain) -> complex:
    """Full contraction sum phi(i0..im) * x(i0..im); bilinear, no conjugation."""
    if phi.degree != x.degree:
        raise InputError(f"degree mismatch: cochain {phi.degree} vs chain {x.degree}")
    if not same_algebra(phi.algebra, x.algebra):
        raise InputError("cochain and chain live over different algebras")
    return complex((phi.values * x.values).sum())


def chain_boundary(x: Chain) -> Chain:
    """Hochschild boundary on chains; test oracle dual to hochschild_b.

    Defined so that pair_cochain_chain(hochschild_b(phi), x)
    == pair_cochain_chain(phi, chain_boundary(x)).
    """
    m = x.degree            # chain has m + 1 slots
    if m == 0:
        raise InputError("chain boundary needs degree >= 1")
    d = x.algebra.dim
    s = x.algebra.structure
    n_in = m + 1
    in_letters = ascii_lowercase[:n_in]
    j = ascii_lowercase[n_in]
    k = ascii_lowercase[n_in + 1]
    out = np.zeros((d,) * m, dtype=complex)
    for i in range(m):
        x_letters = in_letters[:i] + j + k + in_letters[i + 1:n_in - 1]
        out_letters = in_letters[:n_in - 1]
        spec = f"{x_letters},{j}{k}{out_letters[i]}->{out_letters}"
        out += (-1) ** i * np.einsum(spec, x.values, s)
    x_letters = j + in_letters[1:n_in - 1] + k
    out_letters = in_letters[:n_in - 1]
    spec = f"{x_letters},{k}{j}{out_letters[0]}->{out_letters}"
    out += (-1) ** m * np.einsum(spec, x.values, s)
    return Chain(x.algebra, out)
