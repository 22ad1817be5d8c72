"""Universal differential graded algebra over a unitalized algebra extended
by a degree-one generator tau with d(tau) = -tau^2.

Elements are complex-linear combinations of words.  A word is a tuple of
letters:

    ('a', i)   basis element e_i of the coefficient algebra, degree 0
    ('t',)     the generator tau, degree 1
    ('da', i)  the differential of e_i, degree 1
    ('dt',)    the differential of tau, degree 2; never survives
               normalization (rewritten to -tau.tau at construction)

Normal form: no ('dt',) letters, no letter carrying the algebra unit, no two
adjacent ('a', _) letters (they fuse through the structure constants), and no
('a', _) letter immediately after a ('da', _) letter, eliminated through

    d(e_i) . e_j  =  d(e_i e_j) - e_i . d(e_j)

which is the degree-zero Leibniz relation read backwards; rewriting with it
terminates and is confluent by associativity of the coefficient algebra.
The differential acts letter-wise by the graded Leibniz rule with

    d e_i = ('da', i),   d tau = -tau.tau,   d('da', i) = 0,

and d kills the unit basis element.  The bimodule right action of the
abstract construction is realized implicitly by letter fusion plus these
rewrites; the equivalence is exercised by the associativity and Leibniz
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, as_element, same_algebra, unit_basis_index
from .errors import InputError
from .fredholm import FredholmModule, schatten_norm

CHOP = 1e-14

A, T, DA, DT = "a", "t", "da", "dt"

_LETTER_DEGREE = {A: 0, T: 1, DA: 1, DT: 2}


def letter_degree(letter) -> int:
    return _LETTER_DEGREE[letter[0]]


def word_degree(word) -> int:
    return sum(letter_degree(l) for l in word)


def word_str(word, coeff=None) -> str:
    """Debug format, e.g. '(1+0j) a3 . d(a1) . tau . tau'."""
    parts = []
    for l in word:
        if l[0] == A:
            parts.append(f"a{l[1]}")
        elif l[0] == T:
            parts.append("tau")
        elif l[0] == DA:
            parts.append(f"d(a{l[1]})")
        else:
            parts.append("d(tau)")
    body = " . ".join(parts) if parts else "1"
    return body if coeff is None else f"({coeff}) {body}"


def _normalize(algebra: Algebra, terms: dict, unit_idx: int) -> dict:
    out: dict = {}
    stack = list(terms.items())
    structure = algebra.structure
    while stack:
        word, coeff = stack.pop()
        if coeff == 0:
            continue
        redex = None
        for i, letter in enumerate(word):
            kind = letter[0]
            if kind == DT:
                redex = ("dt", i)
                break
            if kind == DA and letter[1] == unit_idx:
                redex = ("zero", i)
                break
            if kind == A and letter[1] == unit_idx:
                redex = ("unit", i)
                break
            if kind == A and i + 1 < len(word) and word[i + 1][0] == A:
                redex = ("fuse", i)
                break
            if kind == DA and i + 1 < len(word) and word[i + 1][0] == A:
                redex = ("push", i)
                break
        if redex is None:
            out[word] = out.get(word, 0.0) + coeff
            continue
        op, i = redex
        if op == "dt":
            stack.append((word[:i] + ((T,), (T,)) + word[i + 1:], -coeff))
        elif op == "zero":
            continue
        elif op == "unit":
            stack.append((word[:i] + word[i + 1:], coeff))
        elif op == "fuse":
            a, b = word[i][1], word[i + 1][1]
            for k in range(algebra.dim):
                c = structure[a, b, k]
                if c != 0:
                    stack.append((word[:i] + ((A, k),) + word[i + 2:], coeff * c))
        else:
            # d(e_a) . e_b -> d(e_a e_b) - e_a . d(e_b)
            a, b = word[i][1], word[i + 1][1]
            for k in range(algebra.dim):
                c = structure[a, b, k]
                if c != 0:
                    stack.append((word[:i] + ((DA, k),) + word[i + 2:], coeff * c))
            stack.append((word[:i] + ((A, a), (DA, b)) + word[i + 2:], -coeff))
    return {w: c for w, c in out.items() if abs(c) > CHOP}


@dataclass(frozen=True, eq=False)
class DGAElement:
    algebra: Algebra
    terms: dict

    def degrees(self):
        return sorted({word_degree(w) for w in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    @property
    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise InputError(f"element is not homogeneous: degrees {degs}")
        return degs[0]

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __add__(self, other):
        _require_same(self, other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0.0) + c
        return DGAElement(self.algebra, {w: c for w, c in terms.items() if abs(c) > CHOP})

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c) -> "DGAElement":
        return DGAElement(self.algebra, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        return word_multiply(self, other)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(word_str(w, c) for w, c in sorted(self.terms.items()))


def _require_same(x: DGAElement, y: DGAElement):
    if not same_algebra(x.algebra, y.algebra):
        raise InputError("operands live over different algebras")


def _unit_index(algebra: Algebra) -> int:
    idx = unit_basis_index(algebra)
    if idx is None:
        raise InputError("the DGA needs an algebra whose unit is a basis vector (unitalize first)")
    return idx


def element(algebra: Algebra, terms: dict) -> DGAElement:
    """Build an element from raw word terms; normalizes, rewriting d(tau)."""
    return DGAElement(algebra, _normalize(algebra, terms, _unit_index(algebra)))


def unit(algebra: Algebra) -> DGAElement:
    return element(algebra, {(): 1.0})


def zero(algebra: Algebra) -> DGAElement:
    return DGAElement(algebra, {})


def from_vector(algebra: Algebra, x) -> DGAElement:
    x = as_element(algebra, x)
    return element(algebra, {((A, i),): x[i] for i in range(algebra.dim) if x[i] != 0})


def tau(algebra: Algebra) -> DGAElement:
    return element(algebra, {((T,),): 1.0})


def word_multiply(x: DGAElement, y: DGAElement) -> DGAElement:
    """Concatenation product with letter fusion; degree adds."""
    _require_same(x, y)
    terms: dict = {}
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            w = wx + wy
            terms[w] = terms.get(w, 0.0) + cx * cy
    return element(x.algebra, terms)


def _d_word(word, unit_idx):
    """Letter-wise graded Leibniz expansion of one word."""
    out = []
    sign = 1
    for i, letter in enumerate(word):
        kind = letter[0]
        if kind == A:
            if letter[1] != unit_idx:
                out.append((word[:i] + ((DA, letter[1]),) + word[i + 1:], sign))
        elif kind == T:
            out.append((word[:i] + ((T,), (T,)) + word[i + 1:], -sign))
        # d of ('da', _) letters is zero
        sign *= (-1) ** letter_degree(letter)
    return out


def differential(x: DGAElement) -> DGAElement:
    unit_idx = _unit_index(x.algebra)
    terms: dict = {}
    for word, coeff in x.terms.items():
        for w, s in _d_word(word, unit_idx):
            terms[w] = terms.get(w, 0.0) + s * coeff
    return element(x.algebra, terms)


def pi_represent(module: FredholmModule, T_op: np.ndarray, x: DGAElement) -> np.ndarray:
    """Operator image: e_i -> rep(e_i), tau -> T, d(e_i) -> [F, rep(e_i)].

    The map is multiplicative and kills d(tau) + tau^2 whenever
    F T + T F + T^2 = 0, so it is well defined on the quotient.
    """
    n = module.n
    T_op = np.asarray(T_op, dtype=complex)
    if T_op.shape != (n, n):
        raise InputError("operator image of tau has the wrong shape")
    if x.algebra.dim != module.algebra.dim + 1:
        raise InputError("pi_represent expects an element over the unitalization")
    d = module.algebra.dim
    images = {}
    out = np.zeros((n, n), dtype=complex)
    for word, coeff in x.terms.items():
        mat = np.eye(n, dtype=complex)
        for letter in word:
            img = images.get(letter)
            if img is None:
                kind = letter[0]
                if kind == A:
                    i = letter[1]
                    img = np.eye(n, dtype=complex) if i == d else module.rep[i]
                elif kind == T:
                    img = T_op
                else:
                    i = letter[1]
                    base = np.eye(n, dtype=complex) if i == d else module.rep[i]
                    img = module.F @ base - base @ module.F
                images[letter] = img
            mat = mat @ img
        out += coeff * mat
    return out


def trace_norm_report(module: FredholmModule, T_op: np.ndarray, x: DGAElement) -> dict:
    """Trace norms of pi(word) per word; the finite-dimensional shadow of the
    trace-class statement for words of total degree m."""
    return {
        word_str(w): schatten_norm(pi_represent(module, T_op, DGAElement(x.algebra, {w: 1.0})), 1)
        for w in x.terms
    }


def induced_hom(images_alg, image_tau: DGAElement, x: DGAElement) -> DGAElement:
    """Unique extension of a generator map to the whole DGA.

    images_alg lists one degree-0 image per basis element of the source
    algebra; image_tau is the degree-1 image of tau and must satisfy
    d(image_tau) = -image_tau^2 for the map to respect the quotient.
    Letters go to phi(e_i), phi(tau), d(phi(e_i)); unitality of phi on the
    source unit is required.
    """
    if not images_alg:
        raise InputError("need at least one generator image")
    target = image_tau.algebra
    src = x.algebra
    if len(images_alg) != src.dim:
        raise InputError("one image per source basis element required")
    unit_idx = _unit_index(src)
    if not (images_alg[unit_idx] - unit(target)).is_zero(1e-12):
        raise InputError("generator map must be unital: phi(1) = 1")
    defect = differential(image_tau) + word_multiply(image_tau, image_tau)
    if not defect.is_zero(1e-12):
        raise InputError("image of tau must satisfy d(phi(tau)) = -phi(tau)^2")
    out = zero(target)
    for word, coeff in x.terms.items():
        mat = unit(target)
        for letter in word:
            kind = letter[0]
            if kind == A:
                img = images_alg[letter[1]]
            elif kind == T:
                img = image_tau
            else:
                img = differential(images_alg[letter[1]])
            mat = word_multiply(mat, img)
        out = out + mat.scale(coeff)
    return out


def random_word(algebra: Algebra, rng, max_len: int = 4):
    """Random normal-form word; used by the property test suites."""
    kinds = [A, T, DA]
    word = []
    for _ in range(int(rng.integers(0, max_len + 1))):
        k = kinds[int(rng.integers(0, 3))]
        if k == T:
            word.append((T,))
        else:
            word.append((k, int(rng.integers(0, algebra.dim))))
    return tuple(word)


def random_dga_element(algebra: Algebra, rng, n_words: int = 3, max_len: int = 4) -> DGAElement:
    terms = {}
    for _ in range(n_words):
        w = random_word(algebra, rng, max_len)
        terms[w] = terms.get(w, 0.0) + complex(rng.normal(), rng.normal())
    return element(algebra, terms)
