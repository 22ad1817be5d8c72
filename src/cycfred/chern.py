"""The perturbation chain, its Chern character, and the coboundary witness.

Given a module with symmetry F and a perturbation T with G = F + T again an
involutive symmetry, the machinery here builds the chain living over
forms-on-[0,1] tensor the tau-extended word algebra:

    connection      nabla = d (x) 1 + 1 (x) d + t (x) [tau, .]
    curvature       theta = dt (x) tau + (t^2 - t) (x) tau^2
    graded trace    alpha (x) w  ->  1/2 (int_0^1 alpha) Tr(gamma^m F pi(dw))
                    on one-form alpha, zero on zero-forms

with pi sending tau to T.  Its boundary consists of the two flat cycles
whose Chern characters are the index cocycles of (F) and (G = F + T) divided
by (m-1)!.  The lower Chern components of the chain assemble into a reduced
cochain whose totalized coboundary is (tau_G - tau_F)/(m-1)!: an explicit
certificate that the two index cocycles are cohomologous.

Two routes compute the characters.

The symbolic route (PerturbationChain, chern_component_tensor,
boundary_cycle_chern) multiplies chain elements word by word, carrying
polynomial-in-t coefficients exactly; floating point enters only through
matrix traces.  It is the independent oracle of the test suite.

The operator route (operator_component_tensor, operator_boundary_character,
and through them witness_cochain and the verifiers) evaluates the same
numbers in the representation.  Since FT + TF + T^2 = 0, pi(d tau) = FT + TF,
so pi o d is the graded commutator with F, and for a word w of degree m - 1

    1/2 Tr(gamma^m F pi(dw)) = Tr(gamma^m pi(w))

(F gamma F = -gamma for odd m, Tr(F X F) = Tr X for even m).  Under pi,
nabla rho(a) is C_a(t) = [F + tT, rep~(a)] and theta^c is
s^c T^(2c) + c s^(c-1) dt T^(2c-1) with s = t^2 - t.  A product keeps one dt,
taken from some curvature slot j; moving it to the front past j odd factors
nabla rho gives the sign (-1)^j.  With A_i = rep~(e_i), the degree-q = m - 2k
component at (i0, ..., iq) is

    (-1)^k/(m-k)!  sum_{c weak composition of k into q + 1}
                   sum_{j : c_j >= 1} (-1)^j c_j
                   int_0^1 s^(k-1) Tr(gamma^m A_i0 P_0 C_i1(t) P_1 ... C_iq(t) P_q) dt

with P_l = T^(2 c_l) except P_j = T^(2 c_j - 1).  The integrand is a
polynomial of degree 2k - 2 + q in t, so Gauss-Legendre with k + floor(q/2)
nodes integrates it exactly.  For k = 0 no slot supplies dt and the top
component is exactly zero.  The boundary character of the side with
symmetry G is Tr(gamma^m A_i0 [G, A_i1] ... [G, A_i(m-1)]) / (m-1)!.  Each
term is one call of fredholm.trace_stack over the stacked rep~ basis
(fredholm.rep_tilde_basis), the progressive-trace kernel that also computes
the index cocycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dga
from .algebra import Algebra, unitalize, unit_basis_index, as_element
from .cyclic import (
    DERIVED_TOL,
    IDENTITY_SAMPLES,
    MAX_IDENTITY_ENTRIES,
    STRUCTURAL_TOL,
    WITNESS_TOL,
    Cochain,
    TotalCochain,
    _check_budget,
    coboundary_residual,
    is_reduced,
    total_coboundary,
    total_from_top,
    random_cochain,
)
from .errors import BudgetError, InputError
from .fredholm import (
    FredholmModule,
    commutators_tilde,
    index_cocycle,
    involution_defect,
    perturb,
    rep_tilde_basis,
    require_valid,
    schatten_norm,
    trace_stack,
    validate_module,
)


@dataclass(frozen=True)
class IntervalForm:
    """p(t) + q(t) dt with exact rational coefficients (low degree first)."""

    p: tuple = ()
    q: tuple = ()

    @staticmethod
    def monomial(k: int, dt: bool, coeff=Fraction(1)) -> "IntervalForm":
        coeffs = (Fraction(0),) * k + (Fraction(coeff),)
        return IntervalForm(q=coeffs) if dt else IntervalForm(p=coeffs)

    def __add__(self, other):
        return IntervalForm(_poly_add(self.p, other.p), _poly_add(self.q, other.q))

    def __mul__(self, other):
        # dt . dt = 0 and dt commutes with functions on the interval
        return IntervalForm(
            _poly_mul(self.p, other.p),
            _poly_add(_poly_mul(self.p, other.q), _poly_mul(self.q, other.p)),
        )

    def d(self) -> "IntervalForm":
        return IntervalForm((), _poly_diff(self.p))

    def integrate(self) -> Fraction:
        """int_0^1 of the one-form part."""
        return sum((c / (i + 1) for i, c in enumerate(self.q)), Fraction(0))

    def at(self, t: int) -> Fraction:
        """Restriction of the zero-form part to an endpoint."""
        return sum((c * t ** i for i, c in enumerate(self.p)), Fraction(0))


def _poly_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_diff(a):
    return tuple(i * c for i, c in enumerate(a) if i >= 1)


# ---------------------------------------------------------------------------
# Chain elements: complex combinations of t^k (dt)^e (x) word
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChainElement:
    """Terms keyed by (t-power, has-dt, word); total degree = dt + |word|."""

    algebra: Algebra
    terms: dict

    def degrees(self):
        return sorted({e + dga.word_degree(w) for (_, e, w) in self.terms})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0.0) + c
        return ChainElement(self.algebra, {k: c for k, c in terms.items() if abs(c) > dga.CHOP})

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c) -> "ChainElement":
        return ChainElement(self.algebra, {k: c * v for k, v in self.terms.items()})


def _chain_normalize(algebra: Algebra, raw: dict, unit_idx: int) -> dict:
    buckets: dict = {}
    for (k, e, w), c in raw.items():
        buckets.setdefault((k, e), {})
        buckets[(k, e)][w] = buckets[(k, e)].get(w, 0.0) + c
    out = {}
    for (k, e), words in buckets.items():
        for w, c in dga._normalize(algebra, words, unit_idx).items():
            out[(k, e, w)] = c
    return out


def chain_element(algebra: Algebra, raw: dict) -> ChainElement:
    return ChainElement(algebra, _chain_normalize(algebra, raw, dga._unit_index(algebra)))


def chain_unit(algebra: Algebra) -> ChainElement:
    return chain_element(algebra, {(0, 0, ()): 1.0})


def from_dga(x: dga.DGAElement) -> ChainElement:
    return ChainElement(x.algebra, {(0, 0, w): c for w, c in x.terms.items()})


def chain_mul(x: ChainElement, y: ChainElement) -> ChainElement:
    """Graded tensor-product multiplication: the interval form of the right
    factor moves past the word of the left factor with a Koszul sign."""
    raw: dict = {}
    for (k1, e1, w1), c1 in x.terms.items():
        deg_w1 = dga.word_degree(w1)
        for (k2, e2, w2), c2 in y.terms.items():
            if e1 and e2:
                continue
            sign = -1.0 if (deg_w1 % 2 and e2) else 1.0
            key = (k1 + k2, e1 or e2, w1 + w2)
            raw[key] = raw.get(key, 0.0) + sign * c1 * c2
    return chain_element(x.algebra, raw)


def interval_form_of(x: ChainElement, word) -> IntervalForm:
    """Exact-coefficient form multiplying a given word, for real-coefficient
    inspection and dumps; raises if a coefficient is not (close to) rational."""
    form = IntervalForm()
    for (k, e, w), c in x.terms.items():
        if w != word:
            continue
        if abs(c.imag if isinstance(c, complex) else 0.0) > 1e-12:
            raise InputError("term has a non-real coefficient; inspect terms directly")
        frac = Fraction(float(np.real(c))).limit_denominator(10 ** 9)
        form = form + IntervalForm.monomial(k, bool(e), frac)
    return form


# ---------------------------------------------------------------------------
# The perturbation chain
# ---------------------------------------------------------------------------

class PerturbationChain:
    """Chain data attached to a module and a perturbation T of its symmetry."""

    def __init__(self, module: FredholmModule, T):
        T = np.asarray(T, dtype=complex)
        self.module = module
        self.perturbed = perturb(module, T)   # validates G = F + T
        self.T = T
        self.m = module.m
        self.at = unitalize(module.algebra)
        self.unit_idx = unit_basis_index(self.at)
        self._theta_pows = {0: chain_unit(self.at)}
        self._trace_cache = {}
        self._pi_cache = {}
        self._rho = {}
        self._nabla_rho = {}

    # -- generators ---------------------------------------------------------

    def rho(self, x) -> ChainElement:
        """1 (x) x for a coefficient vector over the unitalization."""
        return from_dga(dga.from_vector(self.at, as_element(self.at, x)))

    def rho_basis(self, i: int) -> ChainElement:
        if i not in self._rho:
            e = np.zeros(self.at.dim)
            e[i] = 1.0
            self._rho[i] = self.rho(e)
        return self._rho[i]

    def nabla_rho_basis(self, i: int) -> ChainElement:
        if i not in self._nabla_rho:
            self._nabla_rho[i] = connection_apply(self, self.rho_basis(i))
        return self._nabla_rho[i]

    # -- operator side -------------------------------------------------------

    def _pi_word(self, word) -> np.ndarray:
        cached = self._pi_cache.get(word)
        if cached is None:
            cached = dga.pi_represent(
                self.module, self.T, dga.DGAElement(self.at, {word: 1.0})
            )
            self._pi_cache[word] = cached
        return cached

    def _word_trace(self, word) -> complex:
        """(1/2) Tr(gamma^m F pi(d word)); cached per word."""
        cached = self._trace_cache.get(word)
        if cached is None:
            front = self.module.gamma_eff @ self.module.F
            d_terms = dga.differential(dga.DGAElement(self.at, {word: 1.0}))
            val = 0.0 + 0.0j
            for w, c in d_terms.terms.items():
                val += c * np.trace(front @ self._pi_word(w))
            cached = 0.5 * val
            self._trace_cache[word] = cached
        return cached


def connection_apply(chain: PerturbationChain, x: ChainElement) -> ChainElement:
    """Degree-one graded derivation d (x) 1 + 1 (x) d + t (x) [tau, .]."""
    at = chain.at
    raw: dict = {}

    def add(key, c):
        raw[key] = raw.get(key, 0.0) + c

    for (k, e, w), c in x.terms.items():
        sign = -1.0 if e else 1.0
        # d on the form factor
        if not e and k >= 1:
            add((k - 1, 1, w), k * c)
        # 1 (x) d with the Koszul sign of the form factor
        for w2, s in dga._d_word(w, chain.unit_idx):
            add((k, e, w2), sign * s * c)
        # t (x) [tau, .] with the same sign
        wdeg = dga.word_degree(w)
        add((k + 1, e, ((dga.T,),) + w), sign * c)
        add((k + 1, e, w + ((dga.T,),)), sign * c * (-1.0) ** (wdeg + 1))
    return chain_element(at, raw)


def curvature(chain: PerturbationChain) -> ChainElement:
    """theta = dt (x) tau + (t^2 - t) (x) tau^2, after the d(tau) rewrite."""
    t_letter = (dga.T,)
    return chain_element(
        chain.at,
        {
            (0, 1, (t_letter,)): 1.0,
            (2, 0, (t_letter, t_letter)): 1.0,
            (1, 0, (t_letter, t_letter)): -1.0,
        },
    )


def curvature_power(chain: PerturbationChain, i: int) -> ChainElement:
    if i < 0:
        raise InputError("curvature power must be non-negative")
    if i > chain.m:
        raise BudgetError(f"curvature power {i} exceeds the chain dimension {chain.m}")
    if i not in chain._theta_pows:
        chain._theta_pows[i] = chain_mul(curvature_power(chain, i - 1), curvature(chain))
    return chain._theta_pows[i]


def graded_trace(chain: PerturbationChain, x: ChainElement) -> complex:
    """Evaluate the graded trace on a homogeneous element of total degree m.

    Zero-form terms contribute nothing; a term t^k dt (x) w contributes
    (1/(k+1)) . (1/2) Tr(gamma^m F pi(dw)).
    """
    degs = x.degrees()
    if degs and degs != [chain.m]:
        raise InputError(f"graded trace needs a homogeneous degree-{chain.m} element, got degrees {degs}")
    return _trace_noncheck(chain, x)


def _trace_noncheck(chain: PerturbationChain, x: ChainElement) -> complex:
    val = 0.0 + 0.0j
    for (k, e, w), c in x.terms.items():
        if not e:
            continue
        val += c * float(Fraction(1, k + 1)) * chain._word_trace(w)
    return complex(val)


def boundary_restrict(x: ChainElement):
    """Restriction r = (r1, r0) to the endpoints; one-form terms vanish."""
    at_one: dict = {}
    at_zero: dict = {}
    for (k, e, w), c in x.terms.items():
        if e:
            continue
        at_one[w] = at_one.get(w, 0.0) + c
        if k == 0:
            at_zero[w] = at_zero.get(w, 0.0) + c
    return (
        dga.DGAElement(x.algebra, {w: c for w, c in at_one.items() if abs(c) > dga.CHOP}),
        dga.DGAElement(x.algebra, {w: c for w, c in at_zero.items() if abs(c) > dga.CHOP}),
    )


def boundary_connection(side: str, x: dga.DGAElement) -> dga.DGAElement:
    """Boundary connections: d + [tau, .] on the t=1 factor, d on the t=0 factor."""
    out = dga.differential(x)
    if side == "perturbed":
        t = dga.tau(x.algebra)
        for w, c in x.terms.items():
            single = dga.DGAElement(x.algebra, {w: c})
            sign = (-1.0) ** dga.word_degree(w)
            out = out + dga.word_multiply(t, single) - dga.word_multiply(single, t).scale(sign)
    elif side != "base":
        raise InputError("side must be 'base' or 'perturbed'")
    return out


# ---------------------------------------------------------------------------
# Chern character components
# ---------------------------------------------------------------------------

def _compositions(total: int, slots: int):
    """Weak compositions of `total` into `slots` parts, lexicographic."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def chern_component(chain: PerturbationChain, k: int, args) -> complex:
    """One value of the degree-(m - 2k) character component.

    The k = 0 (top) component is exposed for the vanishing check: every
    integrand term is a zero-form, so the graded trace returns exactly zero.
    """
    m = chain.m
    if k < 0 or 2 * k > m:
        raise InputError(f"component index k={k} outside 0..floor(m/2) for m={m}")
    q = m - 2 * k
    if len(args) != q + 1:
        raise InputError(f"component of degree {q} takes {q + 1} arguments, got {len(args)}")
    rho0 = chain.rho(args[0])
    nablas = [connection_apply(chain, chain.rho(a)) for a in args[1:]]
    total = 0.0 + 0.0j
    for comp in _compositions(k, q + 1):
        acc = chain_mul(rho0, curvature_power(chain, comp[0]))
        for j, nab in enumerate(nablas):
            acc = chain_mul(acc, nab)
            acc = chain_mul(acc, curvature_power(chain, comp[j + 1]))
        total += _trace_noncheck(chain, acc)
    return complex((-1.0) ** k / math.factorial(m - k) * total)


def chern_component_tensor(chain: PerturbationChain, k: int) -> Cochain:
    """Dense tensor of the degree-(m - 2k) component over the unitalization."""
    m = chain.m
    if k < 0 or 2 * k > m:
        raise InputError(f"component index k={k} outside 0..floor(m/2) for m={m}")
    q = m - 2 * k
    at = chain.at
    d = at.dim
    _check_budget(d, q)
    values = np.zeros((d,) * (q + 1), dtype=complex)
    scale = (-1.0) ** k / math.factorial(m - k)
    for comp in _compositions(k, q + 1):
        theta_after = [curvature_power(chain, c) for c in comp]

        def descend(pos, prefix, idx):
            if pos == q + 1:
                values[idx] += scale * _trace_noncheck(chain, prefix)
                return
            for i in range(d):
                fac = chain.rho_basis(i) if pos == 0 else chain.nabla_rho_basis(i)
                nxt = chain_mul(prefix, fac)
                nxt = chain_mul(nxt, theta_after[pos])
                descend(pos + 1, nxt, idx + (i,))

        descend(0, chain_unit(at), ())
    return Cochain(at, values)


def chern_character(chain: PerturbationChain) -> TotalCochain:
    """All components (top degree m down to 0 or 1) of the chain's character."""
    comps = []
    deg = chain.m
    while deg >= 0:
        comps.append(chern_component_tensor(chain, (chain.m - deg) // 2).values)
        deg -= 2
    return TotalCochain(chain.at, tuple(comps))


def boundary_cycle_chern(module: FredholmModule, T, side: str) -> Cochain:
    """Degree-(m-1) character of one boundary cycle.

    Both boundary cycles are flat, so only the top component is nonzero; it
    equals the corresponding index cocycle divided by (m-1)!.  The t=0 side
    ('base') uses the differential alone, the t=1 side ('perturbed') the
    differential plus the tau-commutator; the trace is the same on both.
    """
    if side not in ("base", "perturbed"):
        raise InputError("side must be 'base' or 'perturbed'")
    chain = PerturbationChain(module, T)
    at = chain.at
    d = at.dim
    m = chain.m
    _check_budget(d, m - 1)

    basis = []
    nabla_basis = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        x = dga.from_vector(at, e)
        basis.append(x)
        nabla_basis.append(boundary_connection(side, x))

    values = np.zeros((d,) * m, dtype=complex)
    scale = 1.0 / math.factorial(m - 1)

    def trace_word_elem(elem: dga.DGAElement) -> complex:
        return complex(sum(c * chain._word_trace(w) for w, c in elem.terms.items()))

    def descend(pos, prefix, idx):
        if pos == m:
            values[idx] += scale * trace_word_elem(prefix)
            return
        for i in range(d):
            fac = basis[i] if pos == 0 else nabla_basis[i]
            descend(pos + 1, dga.word_multiply(prefix, fac), idx + (i,))

    descend(0, dga.unit(at), ())
    return Cochain(at, values)


# ---------------------------------------------------------------------------
# Operator route: the characters evaluated through pi
# ---------------------------------------------------------------------------

def _component_values(module: FredholmModule, T: np.ndarray, k: int) -> np.ndarray:
    """Dense degree-(m - 2k) component, k >= 1, by the operator formula."""
    m = module.m
    q = m - 2 * k
    A = rep_tilde_basis(module)
    x, w = np.polynomial.legendre.leggauss(k + q // 2)
    t = (x + 1.0) / 2.0
    w = w / 2.0 * (t * t - t) ** (k - 1)
    comm_T = T @ A - A @ T
    C = commutators_tilde(module)[None] + t[:, None, None, None] * comm_T[None]   # C_i(t_p)
    T_pow = [np.eye(module.n, dtype=complex)]
    for _ in range(2 * k):
        T_pow.append(T_pow[-1] @ T)
    C_pow = [C @ P for P in T_pow]                                # C_i(t_p) T^e
    front_pow = [module.gamma_eff @ A @ P for P in T_pow]         # gamma^m A_i T^e
    values = np.zeros((A.shape[0],) * (q + 1), dtype=complex)
    for comp in _compositions(k, q + 1):
        for j in range(q + 1):
            if comp[j] == 0:
                continue
            e = [2 * c for c in comp]
            e[j] -= 1
            front = w[:, None, None, None] * front_pow[e[0]][None]
            values += (-1) ** j * comp[j] * trace_stack(front, [C_pow[p] for p in e[1:]])
    return (-1.0) ** k / math.factorial(m - k) * values


def operator_component_tensor(module: FredholmModule, T, k: int) -> Cochain:
    """The degree-(m - 2k) character component, computed through pi.

    Same values as chern_component_tensor on PerturbationChain(module, T);
    the top component (k = 0) is exactly zero.
    """
    m = module.m
    if k < 0 or 2 * k > m:
        raise InputError(f"component index k={k} outside 0..floor(m/2) for m={m}")
    q = m - 2 * k
    _check_budget(module.algebra.dim + 1, q)
    T = np.asarray(T, dtype=complex)
    perturb(module, T)                     # validates G = F + T
    at = unitalize(module.algebra)
    if k == 0:
        return Cochain(at, np.zeros((at.dim,) * (q + 1), dtype=complex))
    return Cochain(at, _component_values(module, T, k))


def operator_boundary_character(module: FredholmModule) -> Cochain:
    """Tr(gamma^m A_i0 [F, A_i1] ... [F, A_i(m-1)]) / (m-1)! over the unitalization.

    The degree-(m-1) character of the flat boundary cycle with symmetry F:
    boundary_cycle_chern(module, T, 'base') for the module itself and
    boundary_cycle_chern(module, T, 'perturbed') for perturb(module, T).
    """
    m = module.m
    _check_budget(module.algebra.dim + 1, m - 1)
    front = module.gamma_eff @ rep_tilde_basis(module)
    values = trace_stack(front[None], [commutators_tilde(module)[None]] * (m - 1))
    return Cochain(unitalize(module.algebra), values / math.factorial(m - 1))


# ---------------------------------------------------------------------------
# The witness and the verifiers
# ---------------------------------------------------------------------------

def witness_cochain(module: FredholmModule, T):
    """The reduced cochain whose coboundary is (tau_G - tau_F)/(m-1)!.

    Components are the lower character components of the perturbation chain,
    computed by the operator route; for even m the degree-0 component is
    corrected by its value on the adjoined unit so that the restriction to
    scalars vanishes identically.  Returns None for m = 1, where the witness
    is empty and the index cocycles agree entrywise.
    """
    m = module.m
    if m >= 2:
        _check_budget(module.algebra.dim + 1, m - 2)   # the largest component
    T = np.asarray(T, dtype=complex)
    perturb(module, T)                     # validates G = F + T
    if m == 1:
        return None
    at = unitalize(module.algebra)
    comps = [_component_values(module, T, k) for k in range(1, m // 2 + 1)]
    if m % 2 == 0:
        comps[-1][at.dim - 1] = 0.0        # the adjoined unit is the last basis vector
    return TotalCochain(at, tuple(comps))


def verify_perturbation_invariance(module: FredholmModule, T, tol: float = WITNESS_TOL) -> dict:
    """Certify [tau_F] = [tau_G] by the explicit coboundary witness.

    PASS means: the witness cochain is reduced (exactly), and

        (b + B) psi = (tau_G - tau_F)/(m-1)!

    holds entrywise within tol, placed in top degree m-1 with zero lower
    components.  For m = 1 the statement degenerates to entrywise equality
    of the index cocycles.
    """
    valid_f, perturbed = require_valid(module), perturb(module, T)
    valid_g = require_valid(perturbed)
    return _invariance_report(module, T, valid_f, valid_g, index_cocycle(module, validated=True),
                              index_cocycle(perturbed, validated=True), tol)


def _invariance_report(module: FredholmModule, T, valid_f: dict, valid_g: dict,
                       tau_f: Cochain, tau_g: Cochain, tol: float) -> dict:
    """verify_perturbation_invariance on modules already validated (valid_f
    for F, valid_g for G = F + T) and their index cocycles."""
    m = module.m
    T = np.asarray(T, dtype=complex)
    target = tau_g.values - tau_f.values
    target *= 1.0 / math.factorial(m - 1)
    psi = witness_cochain(module, T)       # None for m = 1: the cocycles must agree
    resid, worst = coboundary_residual(psi, Cochain(tau_f.algebra, target))
    reduced = psi is None or is_reduced(psi, tol=0.0)
    return {
        "m": m,
        "involution_defect": involution_defect(module.F, T),
        "schatten_base": valid_f["schatten"],
        "schatten_perturbed": valid_g["schatten"],
        "perturbation_m_norm": schatten_norm(T, m),
        "witness_degrees": [] if psi is None else [c.ndim - 1 for c in psi.components],
        "max_residual": resid,
        "worst_tuple": worst,
        "reduced": reduced,
        "pass": bool(resid <= tol and reduced),
        "witness": psi,
    }


def verify_cobordism_identity(chain: PerturbationChain) -> dict:
    """Check (b + B) Ch(chain) = S Ch(boundary) on every basis tuple.

    The right-hand side is assembled from the two boundary-cycle characters
    (the lower components of a flat cycle vanish: every curvature power in
    them is zero).
    """
    m = chain.m
    d = chain.at.dim
    try:
        _check_budget(d, m + 1)
    except BudgetError as exc:
        raise BudgetError(f"cobordism check at dim {d}, m {m}: {exc}") from None
    ch_g = boundary_cycle_chern(chain.module, chain.T, "perturbed").values
    ch_f = boundary_cycle_chern(chain.module, chain.T, "base").values
    resid, worst = coboundary_residual(chern_character(chain), Cochain(chain.at, ch_g - ch_f))
    return {
        "m": m,
        "max_residual": resid,
        "worst_tuple": worst,
        "pass": bool(resid <= WITNESS_TOL),
    }


def run_verification_suite(module: FredholmModule, T, tol: float = WITNESS_TOL,
                           seed: int = 0) -> dict:
    """The batch verification pipeline behind the command-line front end.

    Runs: algebra and module validation, the complex identities on random
    cochains over the module's unitalization, the cocycle check for both
    index cocycles, the involution identity for T, the boundary-character
    comparison, and the witness identity with its reducedness check; the top
    component is reported as the exact zero it is by construction.  Every
    max |(b + B) x - y| is cyclic.coboundary_residual, which takes b x one row
    at a time, so no check holds a tensor larger than the largest one its
    input admitted, and a NaN residual fails.  tol bounds the witness
    identity, every other check its row of the table in cycfred.cyclic.  The
    witness block holds psi under "witness", as verify_perturbation_invariance does.
    """
    rng = np.random.default_rng(seed)
    at = unitalize(module.algebra)
    m = module.m
    report = {"module": validate_module(module)}
    if not report["module"]["pass"]:
        # structurally broken input: report the failure instead of raising
        report["pass"] = False
        return report
    perturbed = perturb(module, T)
    # G breaking the module axioms is invalid input, not a failed check
    report["perturbed_module"] = require_valid(perturbed)

    # complex identities at the largest degree the budget allows
    ident_degree = 1
    while ident_degree < 4 and at.dim ** (ident_degree + 3) <= MAX_IDENTITY_ENTRIES:
        ident_degree += 1
    # (b + B)^2 = b o b + (bB + Bb) + B o B: one residual covers all three
    worst_ident = 0.0
    for _ in range(IDENTITY_SAMPLES):
        phi = random_cochain(at, ident_degree, rng)
        scale = max(1.0, float(np.abs(phi.values).max()))
        resid, _ = coboundary_residual(total_coboundary(total_from_top(phi)))
        worst_ident = float(np.max([worst_ident, resid / scale]))   # NaN propagates
    report["complex_identities"] = {
        "degree": ident_degree,
        "max_residual": worst_ident,
        "pass": worst_ident <= STRUCTURAL_TOL,
    }

    tau_f = index_cocycle(module, validated=True)
    tau_g = index_cocycle(perturbed, validated=True)
    cocycle_resid = float(np.max(
        [coboundary_residual(total_from_top(tau))[0] for tau in (tau_f, tau_g)]))
    report["index_cocycle"] = {"max_residual": cocycle_resid, "pass": cocycle_resid <= DERIVED_TOL}

    defect = involution_defect(module.F, np.asarray(T, dtype=complex))
    report["involution_identity"] = {"residual": defect, "pass": defect <= STRUCTURAL_TOL}

    fact = math.factorial(m - 1)
    lemma_resid = float(np.max([
        np.abs(fact * operator_boundary_character(mod).values - tau.values).max()
        for mod, tau in ((module, tau_f), (perturbed, tau_g))]))
    report["boundary_character"] = {"max_residual": lemma_resid, "pass": lemma_resid <= DERIVED_TOL}

    # no curvature slot supplies dt at k = 0, so the top component is zero by
    # construction (operator_component_tensor(module, T, 0) and the symbolic
    # chern_component_tensor(chain, 0) are checked against that in the tests)
    report["top_component"] = {"max_abs": 0.0, "pass": True}

    report["witness"] = _invariance_report(module, T, report["module"], report["perturbed_module"],
                                           tau_f, tau_g, tol)
    report["pass"] = all(block["pass"] for block in report.values())
    return report
