"""Finitely summable Fredholm modules on finite-dimensional Hilbert spaces.

A module over an algebra A is (rep, F, m, gamma): one representation matrix
per basis element of A, a self-adjoint involution F, the summability degree
m, and a grading gamma that is present exactly when m - 1 is even (m odd).
The representation extends to the unitalization A~ by sending the adjoined
unit to the identity matrix.

The central object is the index cocycle

    tau(x0, ..., x_{m-1}) = 1/2 Tr(gamma^m F [F, x0] ... [F, x_{m-1}])

a degree-(m-1) cochain over A~ whose class is the Chern-Connes character.
Every operator-level quantity (the index cocycle here, the characters in
cycfred.chern) is a trace of products over the stacked rep~ basis, computed
by the one kernel trace_stack of this module.
Schatten conditions are automatic in finite dimensions; the module records
the m-Schatten norms of the commutators anyway, as the continuity data of
the Banach-algebra picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, same_algebra, unitalize, validate_algebra
from .cyclic import STRUCTURAL_TOL, Cochain, _check_budget
from .errors import InputError


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm; inf for a matrix with a non-finite entry, which LAPACK cannot take."""
    if not np.isfinite(a).all():
        return np.inf
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def schatten_norm(a: np.ndarray, p: float) -> float:
    """p-Schatten norm (sum of p-th powers of singular values)^(1/p), or inf."""
    if p < 1:
        raise InputError("Schatten exponent must be >= 1")
    if not np.isfinite(a).all():
        return np.inf
    sv = np.linalg.svd(a, compute_uv=False)
    return float((sv ** p).sum() ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class FredholmModule:
    algebra: Algebra
    rep: np.ndarray          # shape (dim_A, n, n)
    F: np.ndarray            # shape (n, n)
    m: int
    gamma: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.m < 1:
            raise InputError("summability degree m must be a positive integer")
        n = self.F.shape[0]
        if self.F.shape != (n, n):
            raise InputError("F must be square")
        if self.rep.shape != (self.algebra.dim, n, n):
            raise InputError("rep must hold one n x n matrix per basis element")
        if self.graded and self.gamma is None:
            raise InputError(f"m = {self.m} (even dimension) requires a grading operator")
        if not self.graded and self.gamma is not None:
            raise InputError(f"m = {self.m} (odd dimension) must not carry a grading operator")

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def graded(self) -> bool:
        # dimension m - 1 even <=> m odd <=> graded
        return self.m % 2 == 1

    @property
    def gamma_eff(self) -> np.ndarray:
        """gamma^m: the grading for odd m, the identity otherwise."""
        return self.gamma if self.graded else np.eye(self.n, dtype=complex)


@dataclass(frozen=True)
class SchattenReport:
    """Norm data of the generators: the continuity record of the module."""

    m: int
    commutator_norms: tuple      # ||[F, rep(e_i)]||_m per generator
    operator_norms: tuple        # ||rep(e_i)|| per generator
    combined_norms: tuple        # ||rep(e_i)|| + ||[F, rep(e_i)]||_m


def rep_tilde_basis(module: FredholmModule) -> np.ndarray:
    """rep~ on the basis of the unitalization: rep(e_i), then the identity."""
    return np.concatenate([module.rep, np.eye(module.n, dtype=complex)[None]])


def rep_tilde(module: FredholmModule, x) -> np.ndarray:
    """Representation of an element of the unitalization A~."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (module.algebra.dim + 1,):
        raise InputError("rep_tilde expects a coefficient vector over the unitalization")
    return np.tensordot(x, rep_tilde_basis(module), axes=(0, 0))


def commutators_tilde(module: FredholmModule) -> np.ndarray:
    """[F, rep~(e_i)] over the basis of A~ (zero in the adjoined-unit slot)."""
    A = rep_tilde_basis(module)
    return module.F @ A - A @ module.F


def trace_stack(front: np.ndarray, factors) -> np.ndarray:
    """sum_p Tr(front[p, i0] factors[0][p, i1] ... factors[-1][p, iq]).

    The progressive-trace kernel of every operator-level quantity.  Each
    operand is a stack over a node axis p and one basis axis; the result is
    the tensor over (i0, ..., iq).  The last factor is folded into the trace,
    so the full rank-(q + 1) stack of matrices is never built.
    """
    stack = front
    for fac in factors[:-1]:
        stack = np.einsum("p...ab,pjbc->p...jac", stack, fac)
    if not factors:
        return np.einsum("p...aa->...", stack)
    return np.einsum("p...ab,pjba->...j", stack, factors[-1])


def schatten_report(module: FredholmModule) -> SchattenReport:
    comm = [schatten_norm(c, module.m) for c in commutators_tilde(module)[:-1]]
    op = [operator_norm(a) for a in module.rep]
    return SchattenReport(module.m, tuple(comm), tuple(op),
                          tuple(o + c for o, c in zip(op, comm)))


def _symmetry_checks(module: FredholmModule, S: np.ndarray, name: str) -> dict:
    """Residuals of S as the symmetry of the module: S = S*, S^2 = 1 and, in
    the graded case, gamma S = -S gamma.  Keys are named after S."""
    checks = {
        f"{name}_selfadjoint": operator_norm(S - S.conj().T),
        f"{name}_involutive": operator_norm(S @ S - np.eye(module.n)),
    }
    if module.graded:
        checks[f"gamma_{name}_anticommute"] = operator_norm(module.gamma @ S + S @ module.gamma)
    return checks


@np.errstate(over="ignore", invalid="ignore")    # an overflowing product reads inf and fails
def validate_module(module: FredholmModule) -> dict:
    """Report-only validation of the module axioms.

    Checks F = F*, F^2 = 1, that rep is an algebra homomorphism, the grading
    relations in the graded case, and that both eigenspaces of gamma (graded)
    or of F (ungraded) are nonzero.  The last condition stands in for the
    usual infinite-dimensionality assumption, which no finite-dimensional
    module can meet; the report carries a warning to that effect.
    """
    F = module.F
    checks = _symmetry_checks(module, F, "F")

    # max-abs entry residual, batched per left factor; spectral norms per
    # pair would cost dim^2 SVDs and add nothing at these tolerances.
    # rep(e_i e_j) = sum_k s[i, j, k] rep(e_k) is one matrix product over the
    # nonzero rows J and columns K of s[i]; the other rows are zero.
    s = module.algebra.structure
    n = module.n
    flat = module.rep.reshape(module.algebra.dim, n * n)
    hom = 0.0
    for i in range(module.algebra.dim):
        products = (module.rep[i] @ module.rep).astype(np.result_type(module.rep, s), copy=False)
        J = np.flatnonzero(s[i].any(axis=1))
        K = np.flatnonzero(s[i].any(axis=0))
        products[J] -= (s[i][np.ix_(J, K)] @ flat[K]).reshape(len(J), n, n)
        hom = np.maximum(hom, np.abs(products).max())       # NaN propagates
    checks["rep_homomorphism"] = float(hom)

    if module.graded:
        g = module.gamma
        checks["gamma_involutive"] = operator_norm(g @ g - np.eye(module.n))
        checks["gamma_rep_commute"] = max(
            operator_norm(g @ module.rep[i] - module.rep[i] @ g)
            for i in range(module.algebra.dim)
        ) if module.algebra.dim else 0.0
    eig = np.linalg.eigvalsh(module.gamma if module.graded else (F + F.conj().T) / 2)
    plus, minus = int((eig > 0).sum()), int((eig < 0).sum())

    max_violation = np.max(list(checks.values()))           # NaN propagates
    report = {
        "checks": checks,
        "max_violation": float(max_violation),
        "eigenspace_dims": (plus, minus),
        "eigenspaces_nonzero": plus >= 1 and minus >= 1,
        "warning": (
            "finite-dimensional stand-in: both eigenspaces are only required to be "
            "nonzero, not infinite-dimensional"
        ),
        "schatten": schatten_report(module),
        "algebra": validate_algebra(module.algebra),
    }
    report["pass"] = bool(max_violation <= STRUCTURAL_TOL and report["eigenspaces_nonzero"]
                          and report["algebra"]["pass"])
    return report


def require_valid(module: FredholmModule) -> dict:
    """validate_module, raising InputError when the module fails it."""
    report = validate_module(module)
    if not report["pass"]:
        raise InputError(f"invalid Fredholm module: {report['checks']}")
    return report


def index_cocycle(module: FredholmModule, validated: bool = False) -> Cochain:
    """Dense degree-(m-1) index cocycle tensor over the unitalization."""
    if not validated:
        require_valid(module)
    m = module.m
    _check_budget(module.algebra.dim + 1, m - 1)
    comm = commutators_tilde(module)
    front = module.gamma_eff @ module.F / 2.0 @ comm
    values = trace_stack(front[None], [comm[None]] * (m - 1))
    return Cochain(unitalize(module.algebra), values)


def direct_sum(m1: FredholmModule, m2: FredholmModule) -> FredholmModule:
    if not same_algebra(m1.algebra, m2.algebra):
        raise InputError("direct sum needs modules over the same algebra")
    if m1.m != m2.m:
        raise InputError(f"direct sum needs equal summability degrees, got {m1.m} and {m2.m}")
    n1, n2 = m1.n, m2.n
    rep = np.zeros((m1.algebra.dim, n1 + n2, n1 + n2), dtype=complex)
    rep[:, :n1, :n1] = m1.rep
    rep[:, n1:, n1:] = m2.rep
    F = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    F[:n1, :n1] = m1.F
    F[n1:, n1:] = m2.F
    gamma = None
    if m1.graded:
        gamma = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        gamma[:n1, :n1] = m1.gamma
        gamma[n1:, n1:] = m2.gamma
    return FredholmModule(m1.algebra, rep, F, m1.m, gamma)


def inverse(module: FredholmModule) -> FredholmModule:
    """(rep, H, -F), with the grading flipped in the graded case."""
    gamma = -module.gamma if module.graded else None
    return FredholmModule(module.algebra, module.rep, -module.F, module.m, gamma)


def involution_defect(F: np.ndarray, T: np.ndarray) -> float:
    """|| FT + TF + T^2 ||; zero exactly when (F + T)^2 = F^2."""
    return operator_norm(F @ T + T @ F + T @ T)


@np.errstate(over="ignore", invalid="ignore")    # an overflowing product reads inf and fails
def perturb(module: FredholmModule, T: np.ndarray) -> FredholmModule:
    """Replace F by G = F + T; T must keep G a self-adjoint involution.

    In the graded case the grading is kept, so G must anticommute with it.
    Raises with the residual norms when G fails to be an involutive symmetry.
    """
    T = np.asarray(T, dtype=complex)
    if T.shape != module.F.shape:
        raise InputError("perturbation shape does not match F")
    G = module.F + T
    residuals = _symmetry_checks(module, G, "G")
    residuals["FT+TF+T^2"] = involution_defect(module.F, T)
    bad = {k: v for k, v in residuals.items() if not v <= STRUCTURAL_TOL}    # a NaN is bad too
    if bad:
        raise InputError(f"G = F + T is not an involutive symmetry: residuals {bad}")
    return FredholmModule(module.algebra, module.rep, G, module.m, module.gamma)


def is_degenerate(module: FredholmModule) -> bool:
    """True when every generator commutator [F, rep(e_i)] vanishes."""
    comm = commutators_tilde(module)
    return float(np.abs(comm).max()) <= STRUCTURAL_TOL if comm.size else True


def unitary_conjugate(module: FredholmModule, u: np.ndarray) -> FredholmModule:
    u = np.asarray(u, dtype=complex)
    if u.shape != (module.n, module.n):
        raise InputError("conjugating unitary has the wrong shape")
    if operator_norm(u @ u.conj().T - np.eye(module.n)) > STRUCTURAL_TOL:
        raise InputError("conjugation requires a unitary matrix")
    rep = np.einsum("ab,ibc,cd->iad", u, module.rep, u.conj().T)
    F = u @ module.F @ u.conj().T
    gamma = u @ module.gamma @ u.conj().T if module.graded else None
    return FredholmModule(module.algebra, rep, F, module.m, gamma)


def relax_summability(module: FredholmModule) -> FredholmModule:
    """Record the module as (m+2)-summable; parity and grading are unchanged."""
    return FredholmModule(module.algebra, module.rep, module.F, module.m + 2, module.gamma)


def check_stable_perturbation_certificate(f1: FredholmModule, f2: FredholmModule,
                                          u: np.ndarray, T: np.ndarray,
                                          g1=None, g2=None, h=None, d1=None, d2=None) -> dict:
    """Verify a stable-perturbation certificate between two modules.

    The claim being certified is

        f1 (+) g1 (+) g1^-1 (+) d1 (+) h   ~   f2 (+) g2 (+) g2^-1 (+) d2 (+) h

    with d1, d2 degenerate, the relation being one unitary conjugation by u
    followed by the perturbation T.  This is a checker, not a decision
    procedure: the caller supplies all padding modules and the connecting
    data, and every clause is verified numerically.  Side reports include
    the padding cancellation of index cocycles (inverse pairs cancel,
    degenerates vanish), so a passing certificate pins the class equality
    of the characters of f1 and f2 down to the perturbation step, which is
    certified separately by the coboundary witness.
    """
    def assemble(core, g, d):
        total = core
        if g is not None:
            total = direct_sum(direct_sum(total, g), inverse(g))
        if d is not None:
            total = direct_sum(total, d)
        if h is not None:
            total = direct_sum(total, h)
        return total

    left = assemble(f1, g1, d1)
    right = assemble(f2, g2, d2)
    report = {"left_dim": left.n, "right_dim": right.n}
    if left.n != right.n:
        report.update({"pass": False, "reason": "total dimensions differ"})
        return report
    for name, d in (("d1", d1), ("d2", d2)):
        if d is not None:
            report[f"{name}_degenerate"] = is_degenerate(d)
    conjugated = unitary_conjugate(left, u)
    residuals = {
        "rep": float(np.abs(conjugated.rep - right.rep).max()),
        "symmetry": operator_norm(conjugated.F + np.asarray(T, dtype=complex) - right.F),
        "perturbation_involution": involution_defect(conjugated.F, np.asarray(T, dtype=complex)),
    }
    if left.graded:
        residuals["grading"] = operator_norm(conjugated.gamma - right.gamma)
    report["residuals"] = residuals
    report["perturbation_m_norm"] = schatten_norm(np.asarray(T, dtype=complex), left.m)
    padding_cancels = float(np.abs(
        index_cocycle(left).values - index_cocycle(f1).values
        - (index_cocycle(h).values if h is not None else 0.0)
    ).max())
    report["padding_cancellation"] = padding_cancels
    report["pass"] = bool(
        max(residuals.values()) <= STRUCTURAL_TOL
        and padding_cancels <= 10 * STRUCTURAL_TOL
        and all(report.get(f"{name}_degenerate", True) for name in ("d1", "d2"))
    )
    return report


@dataclass(frozen=True)
class EmbeddedModule:
    """A module rewritten in the split basis H+ (+) H- of the universal picture."""

    basis: np.ndarray            # columns: the chosen orthonormal eigenbasis
    rep: np.ndarray              # generators in the split basis
    F_model: np.ndarray          # diag(1, -1) blocks (F-split) or the swap (gamma-split)
    gamma_model: Optional[np.ndarray]
    plus_dim: int
    minus_dim: int
    warning: str = (
        "identification with the universal picture is fixed only up to diagonal "
        "unitary conjugation; downstream norms and cocycles are conjugation-invariant"
    )


def universal_embed(module: FredholmModule):
    """Rewrite the module in the eigenbasis splitting of the universal picture.

    Ungraded case (m even): split by the eigenspaces of F via P = (F + 1)/2;
    in that basis F itself becomes diag(1, -1) blocks.  Graded case (m odd):
    split by the eigenspaces of gamma, with the minus half identified through
    F so that F becomes the off-diagonal swap.  Returns the embedded module
    description and the norm report ||x|| = ||x|| + ||[F_model, x]||_m per
    generator, the norm of the universal Banach algebra.
    """
    n = module.n
    w, v = np.linalg.eigh(module.gamma if module.graded else (module.F + module.F.conj().T) / 2)
    plus = [i for i in range(n) if w[i] > 0]
    minus = [i for i in range(n) if w[i] <= 0]
    p, q = len(plus), len(minus)
    if p == 0 or q == 0:
        raise InputError(
            f"universal embedding needs both eigenspaces nonzero, got dims ({p}, {q})"
        )

    split = np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(complex)
    if module.graded:
        if p != q:
            raise InputError("graded splitting must be balanced: F maps H+ onto H-")
        basis_plus = v[:, plus]
        basis_minus = module.F @ basis_plus     # orthonormal image of H+ under F
        basis = np.hstack([basis_plus, basis_minus])
        F_model = np.zeros((n, n), dtype=complex)
        F_model[:p, p:] = np.eye(p)
        F_model[p:, :p] = np.eye(p)
        gamma_model = split
    else:
        # eigenvalue +1 block first, original column order inside each block
        basis = np.hstack([v[:, plus], v[:, minus]])
        F_model, gamma_model = split, None

    rep = np.einsum("ab,ibc,cd->iad", basis.conj().T, module.rep, basis)
    F_check = basis.conj().T @ module.F @ basis
    if operator_norm(F_check - F_model) > 1e3 * STRUCTURAL_TOL * max(1.0, operator_norm(module.F)):
        raise InputError("eigenbasis split failed to bring F to the model form")

    embedded = EmbeddedModule(basis, rep, F_model, gamma_model, p, q)
    return embedded, schatten_report(embedded_as_module(module, embedded))


def embedded_as_module(module: FredholmModule, embedded: EmbeddedModule) -> FredholmModule:
    """The embedded data as a Fredholm module (unitarily equivalent to the input)."""
    return FredholmModule(module.algebra, embedded.rep, embedded.F_model, module.m,
                          embedded.gamma_model)
