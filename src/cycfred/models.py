"""Constructors for the example modules and perturbations used in testing.

All constructors are seeded and deterministic.  Representations are built
from integer block patterns (direct sums of the built-in irreducible
representations, optionally conjugated by one seeded unitary), so they are
exact algebra homomorphisms; symmetries are built from exact projections or
unitary conjugation, so the module axioms hold to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    matrix_units_algebra,
    pointwise_algebra,
    upper_triangular_algebra,
)
from .errors import InputError
from .fredholm import FredholmModule

TWO_PI = 2.0 * np.pi


def haar_unitary(n: int, rng) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(n: int, rng) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Exact integer representations
# ---------------------------------------------------------------------------

def _irreps(algebra: Algebra):
    """Integer matrix irreps (plus the zero rep) for the built-in algebras."""
    d = algebra.dim
    if np.array_equal(algebra.structure, pointwise_algebra(d).structure):
        reps = []
        for c in range(d):
            mats = np.zeros((d, 1, 1), dtype=complex)
            mats[c, 0, 0] = 1.0
            reps.append(mats)
        reps.append(np.zeros((d, 1, 1), dtype=complex))
        return reps
    k = int(round(d ** 0.5))
    if k * k == d and np.array_equal(algebra.structure, matrix_units_algebra(k).structure):
        mats = np.zeros((d, k, k), dtype=complex)
        for i in range(k):
            for j in range(k):
                mats[k * i + j, i, j] = 1.0
        return [mats, np.zeros((d, 1, 1), dtype=complex)]
    if d == 3 and np.array_equal(algebra.structure, upper_triangular_algebra().structure):
        defining = np.zeros((3, 2, 2), dtype=complex)
        defining[0, 0, 0] = 1.0
        defining[1, 0, 1] = 1.0
        defining[2, 1, 1] = 1.0
        char0 = np.zeros((3, 1, 1), dtype=complex)
        char0[0, 0, 0] = 1.0
        char1 = np.zeros((3, 1, 1), dtype=complex)
        char1[2, 0, 0] = 1.0
        return [defining, char0, char1, np.zeros((3, 1, 1), dtype=complex)]
    raise InputError("no built-in exact representations for this algebra")


def random_exact_rep(algebra: Algebra, n: int, rng) -> np.ndarray:
    """Random direct sum of integer irreps filling dimension n."""
    irreps = _irreps(algebra)
    rep = np.zeros((algebra.dim, n, n), dtype=complex)
    s = 0
    while s < n:
        options = [r for r in irreps if r.shape[1] <= n - s]
        pick = options[int(rng.integers(0, len(options)))]
        k = pick.shape[1]
        rep[:, s:s + k, s:s + k] = pick
        s += k
    return rep


# ---------------------------------------------------------------------------
# The discrete Hardy-space model
# ---------------------------------------------------------------------------

def fourier_modes(N: int) -> np.ndarray:
    """Integer mode labels -N/2+1, ..., 0, ..., N/2 in fft ordering."""
    k = np.arange(N)
    k[k > N // 2] -= N
    return k


def discrete_hardy(N: int):
    """Grid functions on N points acting on C^N, with the symmetry 2P - 1
    for P the projection onto non-negative Fourier modes; m = 2.

    The algebra is commutative, so the degree-1 index cocycle tensor is
    identically zero in finite dimensions (see the package README); the model
    still exercises every structural identity, and its symbol-side index
    oracle is exact.
    """
    if N < 4 or N % 2:
        raise InputError("discrete_hardy needs an even N >= 4")
    algebra = pointwise_algebra(N)
    rep = np.zeros((N, N, N), dtype=complex)
    for j in range(N):
        rep[j, j, j] = 1.0
    x = TWO_PI * np.arange(N) / N
    modes = fourier_modes(N)
    vectors = np.exp(1j * np.outer(modes, x)) / np.sqrt(N)   # rows: mode waveforms
    plus = vectors[modes >= 0]
    P = plus.conj().T @ plus
    F = 2.0 * P - np.eye(N)
    F = (F + F.conj().T) / 2.0
    return algebra, FredholmModule(algebra, rep, F, m=2)


def discrete_hardy_graded(N: int, seed: int = 0):
    """Graded companion of the grid model (m = 1): the two grading blocks
    carry grid representations with different color multiplicities, so
    supertrace pairings take nonzero integer values on idempotents."""
    if N < 2:
        raise InputError("need N >= 2")
    rng = np.random.default_rng(seed)
    algebra = pointwise_algebra(N)
    rep_plus = np.zeros((N, N, N), dtype=complex)
    for j in range(N):
        rep_plus[j, j, j] = 1.0
    colors = rng.integers(0, N, size=N)
    rep_minus = np.zeros((N, N, N), dtype=complex)
    for slot in range(N):
        rep_minus[colors[slot], slot, slot] = 1.0
    rep = np.zeros((N, 2 * N, 2 * N), dtype=complex)
    rep[:, :N, :N] = rep_plus
    rep[:, N:, N:] = rep_minus
    x = TWO_PI * np.arange(N) / N
    phi = np.exp(1j * np.outer(fourier_modes(N), x)) / np.sqrt(N)
    F = np.zeros((2 * N, 2 * N), dtype=complex)
    F[:N, N:] = phi.conj().T
    F[N:, :N] = phi
    gamma = np.diag(np.concatenate([np.ones(N), -np.ones(N)])).astype(complex)
    return algebra, FredholmModule(algebra, rep, F, m=1, gamma=gamma)


# ---------------------------------------------------------------------------
# Seeded toy modules
# ---------------------------------------------------------------------------

def toy_even_module(n: int, seed: int = 0, m: int = 3, algebra: Algebra = None):
    """Graded module on C^(2n): grading diag(1, -1) blockwise, symmetry
    off-diagonal from a seeded unitary, block-diagonal representation with
    independent exact-irrep draws in the two blocks.

    The default coefficient algebra is the commutative base pointwise(2);
    pass upper_triangular_algebra() for modules whose index cocycles genuinely
    move under perturbation (over commutative algebras the cocycle difference
    collapses entrywise at finite dimension).
    """
    if n < 2:
        raise InputError("need n >= 2")
    if m % 2 == 0:
        raise InputError("graded toy modules need odd m")
    rng = np.random.default_rng(seed)
    if algebra is None:
        algebra = pointwise_algebra(2)
    rep = np.zeros((algebra.dim, 2 * n, 2 * n), dtype=complex)
    rep[:, :n, :n] = random_exact_rep(algebra, n, rng)
    rep[:, n:, n:] = random_exact_rep(algebra, n, rng)
    V = haar_unitary(n, rng)
    F = np.zeros((2 * n, 2 * n), dtype=complex)
    F[:n, n:] = V
    F[n:, :n] = V.conj().T
    gamma = np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)
    return algebra, FredholmModule(algebra, rep, F, m=m, gamma=gamma)


def random_reflection_module(n: int, algebra: Algebra, seed: int = 0, m: int = 2):
    """Ungraded module: symmetry 2P - 1 for a seeded random projection P,
    seeded exact block representation of the given algebra."""
    if m % 2:
        raise InputError("ungraded reflection modules need even m")
    rng = np.random.default_rng(seed)
    q = haar_unitary(n, rng)[:, : n // 2]
    P = q @ q.conj().T
    F = 2.0 * P - np.eye(n)
    F = (F + F.conj().T) / 2.0
    rep = random_exact_rep(algebra, n, rng)
    return FredholmModule(algebra, rep, F, m=m)


def degenerate_module(algebra: Algebra, n: int, m: int, seed: int = 0) -> FredholmModule:
    """Module with every generator commutator exactly zero: the representation
    acts identically on both halves of the splitting that diagonalizes the
    symmetry (and the grading, in the graded case)."""
    rng = np.random.default_rng(seed)
    r = random_exact_rep(algebra, n, rng)
    rep = np.zeros((algebra.dim, 2 * n, 2 * n), dtype=complex)
    rep[:, :n, :n] = r
    rep[:, n:, n:] = r
    if m % 2:
        F = np.zeros((2 * n, 2 * n), dtype=complex)
        F[:n, n:] = np.eye(n)
        F[n:, :n] = np.eye(n)
        gamma = np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)
        return FredholmModule(algebra, rep, F, m=m, gamma=gamma)
    F = np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)
    return FredholmModule(algebra, rep, F, m=m)


def conjugation_perturbation(module: FredholmModule, seed: int = 0, strength: float = 0.1) -> np.ndarray:
    """T = u F u* - F for u = exp(i strength K), K seeded self-adjoint.

    With K = V diag(w) V*, it is formed from D = u - 1 =
    V diag(expm1(i strength w)) V* as T = D F + F D* + D F D*, which has no
    cancellation: T is exactly 0 at strength 0, and u is unitary at every
    finite strength.  In the graded case K is averaged to commute with the
    grading, so the perturbed symmetry keeps the same grading relations.
    """
    rng = np.random.default_rng(seed)
    K = random_hermitian(module.n, rng)
    if module.graded:
        K = (K + module.gamma @ K @ module.gamma) / 2.0
    w, V = np.linalg.eigh(K)
    D = (V * np.expm1(1j * strength * w)) @ V.conj().T
    DF, Dh = D @ module.F, D.conj().T
    return DF + module.F @ Dh + DF @ Dh


# ---------------------------------------------------------------------------
# Band-limited winding symbols and the exact index oracle
# ---------------------------------------------------------------------------

def grid_points(N: int) -> np.ndarray:
    return TWO_PI * np.arange(N) / N


def winding_symbol(N: int, w: int, amplitude: float = 0.0, phase: float = 0.0) -> np.ndarray:
    """Samples of exp(i w x) (1 + amplitude cos(x + phase)); band |w| + 1."""
    if not -1.0 < amplitude < 1.0:
        raise InputError("amplitude must stay inside (-1, 1) to keep the symbol invertible")
    x = grid_points(N)
    return np.exp(1j * w * x) * (1.0 + amplitude * np.cos(x + phase))


def sawtooth_log(N: int, w: int) -> np.ndarray:
    """i w x on the grid: a branch of log of the pure winding-w phase."""
    return 1j * w * grid_points(N)


def winding_by_phase(samples: np.ndarray) -> int:
    """Independent cross-check: accumulated phase increments over the grid."""
    u = np.asarray(samples, dtype=complex)
    if np.abs(u).min() == 0.0:
        raise InputError("symbol vanishes on the grid")
    ratios = np.roll(u, -1) / u
    total = float(np.angle(ratios).sum() / TWO_PI)
    w = int(round(total))
    if abs(total - w) > 1e-6:
        raise InputError(f"phase increments do not close up to an integer winding: {total}")
    return w


@dataclass(frozen=True)
class IndexOracleResult:
    dim_ker: int
    dim_coker: int
    winding: int
    band: tuple

    @property
    def index(self) -> int:
        return self.dim_ker - self.dim_coker


def _laurent_coefficients(samples: np.ndarray, tol: float):
    N = len(samples)
    c = np.fft.fft(samples) / N
    modes = fourier_modes(N)
    keep = np.abs(c) > tol * max(1.0, float(np.abs(c).max()))
    if not keep.any():
        raise InputError("symbol is numerically zero")
    vs = modes[keep]
    return {int(v): complex(c[i]) for i, v in zip(np.nonzero(keep)[0], vs)}


def _kernel_dim_half_line(coeffs: dict, tol: float) -> int:
    """dim ker of compression-to-nonnegative-modes of a Laurent-polynomial
    multiplication operator, by explicit construction of the kernel space.

    A kernel element is q(z)/p(z) with q of degree < a (a = negative
    bandwidth) and p(z) = z^a u(z); membership in the Hardy half forces q to
    vanish at every root of p inside the unit disk.  The dimension is the
    corank of the resulting Hermite interpolation system.
    """
    a = max(0, -min(coeffs))
    if a == 0:
        return 0
    deg = a + max(0, max(coeffs))
    p = np.zeros(deg + 1, dtype=complex)
    for v, c in coeffs.items():
        p[v + a] = c
    roots = np.roots(p[::-1])
    on_circle = [r for r in roots if abs(abs(r) - 1.0) <= 1e-6]
    if on_circle:
        raise InputError(f"symbol has zeros on the unit circle (roots {on_circle})")
    inside = sorted((r for r in roots if abs(r) < 1.0), key=lambda z: (z.real, z.imag))
    # cluster near-identical roots to recover multiplicities
    clusters = []
    for r in inside:
        if clusters and abs(r - clusters[-1][0]) < 1e-6:
            clusters[-1][1] += 1
        else:
            clusters.append([r, 1])
    rows = []
    for zeta, mult in clusters:
        for order in range(mult):
            row = np.zeros(a, dtype=complex)
            for j in range(order, a):
                row[j] = (math.factorial(j) // math.factorial(j - order)) * zeta ** (j - order)
            rows.append(row)
    if not rows:
        return a
    M = np.array(rows)
    rank = int(np.linalg.matrix_rank(M, tol=tol * max(1.0, float(np.abs(M).max()))))
    return a - rank


def toeplitz_index_oracle(samples: np.ndarray, tol: float = 1e-9) -> IndexOracleResult:
    """Exact index of the compressed symbol on the half-line Hardy space.

    The grid samples determine the Laurent coefficients exactly when the
    symbol band fits inside the mode window.  Kernel and cokernel dimensions
    are computed by explicit linear algebra on the band structure: the
    cokernel is the kernel of the compressed conjugate symbol.
    """
    u = np.asarray(samples, dtype=complex)
    if np.abs(u).min() < tol:
        raise InputError("symbol must be invertible (nonvanishing on the grid)")
    coeffs = _laurent_coefficients(u, tol)
    coeffs_bar = {-v: np.conj(c) for v, c in coeffs.items()}
    dim_ker = _kernel_dim_half_line(coeffs, tol)
    dim_coker = _kernel_dim_half_line(coeffs_bar, tol)
    a = max(0, -min(coeffs))
    deg = a + max(0, max(coeffs))
    p = np.zeros(deg + 1, dtype=complex)
    for v, c in coeffs.items():
        p[v + a] = c
    n_inside = sum(1 for r in np.roots(p[::-1]) if abs(r) < 1.0)
    winding = n_inside - a
    return IndexOracleResult(dim_ker, dim_coker, winding, (min(coeffs), max(coeffs)))
