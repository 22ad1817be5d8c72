import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycfred import dga
from cycfred.algebra import pointwise_algebra, unitalize, upper_triangular_algebra
from cycfred.errors import InputError
from cycfred.models import conjugation_perturbation, random_reflection_module

AT = unitalize(upper_triangular_algebra())
UNIT_IDX = AT.dim - 1

letters = st.one_of(
    st.tuples(st.just(dga.A), st.integers(0, AT.dim - 1)),
    st.just((dga.T,)),
    st.tuples(st.just(dga.DA), st.integers(0, AT.dim - 1)),
)
words = st.lists(letters, max_size=4).map(tuple)


def elem(word, coeff=1.0):
    return dga.element(AT, {word: coeff})


def test_alg_letters_fuse():
    x = elem(((dga.A, 0),))
    y = elem(((dga.A, 1),))
    out = dga.word_multiply(x, y)   # E00 * E01 = E01
    assert out.terms == {((dga.A, 1),): 1.0}


def test_multiplying_by_the_unit_is_identity():
    w = ((dga.A, 0), (dga.T,), (dga.DA, 1))
    x = elem(w, 0.5 + 1j)
    assert (dga.word_multiply(x, dga.unit(AT)) - x).is_zero()
    assert (dga.word_multiply(dga.unit(AT), x) - x).is_zero()


def test_unit_letters_are_absorbed():
    raw = dga.element(AT, {((dga.T,), (dga.A, UNIT_IDX), (dga.T,)): 1.0})
    assert raw.terms == {((dga.T,), (dga.T,)): 1.0}
    assert dga.element(AT, {((dga.A, UNIT_IDX),): 3.0}).terms == {(): 3.0}


def test_d_of_unit_vanishes():
    assert dga.differential(dga.unit(AT)).is_zero()
    assert dga.element(AT, {((dga.DA, UNIT_IDX),): 1.0}).is_zero()


@given(words, words, words)
@settings(max_examples=60, deadline=None)
def test_multiplication_is_associative(w1, w2, w3):
    x, y, z = elem(w1), elem(w2), elem(w3)
    lhs = dga.word_multiply(dga.word_multiply(x, y), z)
    rhs = dga.word_multiply(x, dga.word_multiply(y, z))
    assert (lhs - rhs).max_coeff() < 1e-10


def test_degree_adds_under_multiplication():
    x = elem(((dga.T,), (dga.A, 0)))
    y = elem(((dga.DA, 2), (dga.T,)))
    out = dga.word_multiply(x, y)
    assert out.degrees() == [3]


def test_leibniz_on_degree_zero_product():
    a = elem(((dga.A, 0),))
    b = elem(((dga.A, 2),))
    lhs = dga.differential(dga.word_multiply(a, b))
    rhs = dga.word_multiply(dga.differential(a), b) + dga.word_multiply(a, dga.differential(b))
    assert (lhs - rhs).max_coeff() < 1e-12


def test_d_tau_is_minus_tau_squared():
    out = dga.differential(dga.tau(AT))
    assert out.terms == {((dga.T,), (dga.T,)): -1.0}


@given(words)
@settings(max_examples=80, deadline=None)
def test_d_squared_vanishes(word):
    x = elem(word)
    assert dga.differential(dga.differential(x)).is_zero(1e-12)


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_graded_leibniz(w1, w2):
    x, y = elem(w1), elem(w2)
    sign = (-1.0) ** dga.word_degree(w1)
    lhs = dga.differential(dga.word_multiply(x, y))
    rhs = dga.word_multiply(dga.differential(x), y) \
        + dga.word_multiply(x, dga.differential(y)).scale(sign)
    assert (lhs - rhs).max_coeff() < 1e-12


def _rewrite_dt_by_hand(word, order, rng):
    """Rewrite ('dt',) letters one at a time in a random order."""
    terms = {word: 1.0}
    while any(l == (dga.DT,) for w in terms for l in w):
        new_terms = {}
        for w, c in terms.items():
            spots = [i for i, l in enumerate(w) if l == (dga.DT,)]
            if not spots:
                new_terms[w] = new_terms.get(w, 0.0) + c
                continue
            i = spots[int(rng.integers(0, len(spots)))]
            w2 = w[:i] + ((dga.T,), (dga.T,)) + w[i + 1:]
            new_terms[w2] = new_terms.get(w2, 0.0) - c
        terms = new_terms
    return terms


@pytest.mark.parametrize("seed", range(10))
def test_rewrite_confluence_random_orders(seed):
    rng = np.random.default_rng(seed)
    word = []
    for _ in range(5):
        pick = rng.integers(0, 4)
        if pick == 0:
            word.append((dga.DT,))
        elif pick == 1:
            word.append((dga.T,))
        elif pick == 2:
            word.append((dga.A, int(rng.integers(0, AT.dim))))
        else:
            word.append((dga.DA, int(rng.integers(0, AT.dim - 1))))
    word = tuple(word)
    engine = dga.element(AT, {word: 1.0})
    by_hand = dga.element(AT, _rewrite_dt_by_hand(word, None, rng))
    assert (engine - by_hand).is_zero(1e-12)


@pytest.fixture(scope="module")
def module_and_T():
    mod = random_reflection_module(6, upper_triangular_algebra(), seed=21, m=2)
    T = conjugation_perturbation(mod, seed=22, strength=0.3)
    return mod, T


def test_pi_of_differential_letter_is_commutator(module_and_T):
    mod, T = module_and_T
    x = dga.element(AT, {((dga.DA, 1),): 1.0})
    expected = mod.F @ mod.rep[1] - mod.rep[1] @ mod.F
    assert np.abs(dga.pi_represent(mod, T, x) - expected).max() < 1e-12


def test_pi_kills_the_quotient_relation(module_and_T):
    mod, T = module_and_T
    defect = dga.differential(dga.tau(AT)) + dga.word_multiply(dga.tau(AT), dga.tau(AT))
    assert defect.is_zero()   # already zero in normal form
    # the raw relation d(tau) + tau^2 maps to FT + TF + T^2 = 0
    raw = dga.element(AT, {((dga.DT,),): 1.0, ((dga.T,), (dga.T,)): 1.0})
    assert np.abs(dga.pi_represent(mod, T, raw)).max() < 1e-12


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_pi_is_multiplicative(module_and_T, w1, w2):
    mod, T = module_and_T
    x, y = elem(w1), elem(w2)
    lhs = dga.pi_represent(mod, T, dga.word_multiply(x, y))
    rhs = dga.pi_represent(mod, T, x) @ dga.pi_represent(mod, T, y)
    assert np.abs(lhs - rhs).max() < 1e-9


def _relabeling_map():
    """Generator images for a unital relabeling into the same DGA."""
    images = []
    for i in range(AT.dim):
        e = np.zeros(AT.dim)
        e[i] = 1.0
        images.append(dga.from_vector(AT, e))
    return images


@given(words)
@settings(max_examples=40, deadline=None)
def test_induced_hom_identity_map(word):
    x = elem(word)
    out = dga.induced_hom(_relabeling_map(), dga.tau(AT), x)
    assert (out - x).is_zero(1e-10)


@given(words)
@settings(max_examples=40, deadline=None)
def test_induced_hom_commutes_with_d(word):
    x = elem(word)
    images = _relabeling_map()
    lhs = dga.induced_hom(images, dga.tau(AT), dga.differential(x))
    rhs = dga.differential(dga.induced_hom(images, dga.tau(AT), x))
    assert (lhs - rhs).is_zero(1e-10)


def test_induced_hom_restricts_to_phi_on_generators():
    images = _relabeling_map()
    for i in range(AT.dim):
        e = np.zeros(AT.dim)
        e[i] = 1.0
        out = dga.induced_hom(images, dga.tau(AT), dga.from_vector(AT, e))
        assert (out - images[i]).is_zero(1e-12)


def test_induced_hom_across_algebras():
    # unital embedding of grid functions on 2 points into 3 points:
    # d0 -> d0 + d1, d1 -> d2, adjoined unit -> adjoined unit
    src = unitalize(pointwise_algebra(2))
    dst = unitalize(pointwise_algebra(3))
    images = [
        dga.from_vector(dst, np.array([1.0, 1.0, 0.0, 0.0])),
        dga.from_vector(dst, np.array([0.0, 0.0, 1.0, 0.0])),
        dga.unit(dst),
    ]
    x = dga.element(src, {((dga.A, 0), (dga.T,), (dga.DA, 1)): 2.0})
    out = dga.induced_hom(images, dga.tau(dst), x)
    expected = dga.word_multiply(
        dga.word_multiply(images[0], dga.tau(dst)), dga.differential(images[1])
    ).scale(2.0)
    assert (out - expected).is_zero(1e-12)
    # multiplicative and compatible with d
    y = dga.element(src, {((dga.DA, 0),): 1.0})
    lhs = dga.induced_hom(images, dga.tau(dst), dga.word_multiply(x, y))
    rhs = dga.word_multiply(out, dga.induced_hom(images, dga.tau(dst), y))
    assert (lhs - rhs).is_zero(1e-12)
    lhs_d = dga.induced_hom(images, dga.tau(dst), dga.differential(x))
    assert (lhs_d - dga.differential(out)).is_zero(1e-12)


def test_induced_hom_requires_unitality():
    images = _relabeling_map()
    images[UNIT_IDX] = dga.zero(AT)
    with pytest.raises(InputError, match="unital"):
        dga.induced_hom(images, dga.tau(AT), dga.unit(AT))
