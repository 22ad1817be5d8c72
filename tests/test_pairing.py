from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycfred.algebra import pointwise_algebra, upper_triangular_algebra
from cycfred.cyclic import chain_boundary
from cycfred.errors import InputError
from cycfred.fredholm import direct_sum, index_cocycle, perturb
from cycfred.models import (
    conjugation_perturbation,
    degenerate_module,
    discrete_hardy,
    discrete_hardy_graded,
    sawtooth_log,
    toy_even_module,
    winding_symbol,
)
from cycfred.pairing import (
    LatticeValue,
    antisym_cycle,
    c_constant,
    chern_pairing,
    lattice_eq,
    lattice_generator,
    lattice_reduce,
    mult_char_exponentials,
)

TWO_PI_I = 2j * np.pi


def test_constant_table():
    assert c_constant(1) == Fraction(-1)
    assert c_constant(2) == Fraction(-1, 2)
    assert c_constant(3) == Fraction(1, 2)
    assert c_constant(4) == Fraction(-1, 8)
    assert c_constant(5) == Fraction(-1, 12)
    with pytest.raises(InputError):
        c_constant(0)


def test_antisym_cycle_small_cases():
    alg = pointwise_algebra(2)
    b0 = np.array([1.0, 2.0])
    b1 = np.array([0.5, -1.0])
    b2 = np.array([1.0j, 3.0])
    x2 = antisym_cycle(alg, [b0, b1])
    assert np.allclose(x2.values, np.multiply.outer(np.append(b0, 0), np.append(b1, 0)))
    x3 = antisym_cycle(alg, [b0, b1, b2])
    direct = (np.multiply.outer(np.multiply.outer(np.append(b0, 0), np.append(b1, 0)), np.append(b2, 0))
              - np.multiply.outer(np.multiply.outer(np.append(b0, 0), np.append(b2, 0)), np.append(b1, 0)))
    assert np.allclose(x3.values, direct)


def test_antisym_cycle_is_alternating():
    alg = pointwise_algebra(3)
    rng = np.random.default_rng(0)
    b = [rng.normal(size=3) for _ in range(3)]
    swapped = [b[0], b[2], b[1]]
    assert np.allclose(antisym_cycle(alg, b).values, -antisym_cycle(alg, swapped).values)


def test_antisym_cycle_is_a_hochschild_cycle_over_commutative():
    alg = pointwise_algebra(3)
    rng = np.random.default_rng(1)
    b = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
    x = antisym_cycle(alg, b)
    assert np.abs(chain_boundary(x).values).max() < 1e-12


def test_antisym_cycle_warns_on_noncommutative():
    with pytest.warns(UserWarning):
        antisym_cycle(upper_triangular_algebra(), [np.ones(3), np.zeros(3)])


def test_lattice_reduce_examples():
    v = lattice_reduce(1.0 + TWO_PI_I, 1)
    assert abs(v.representative - 1.0) < 1e-12
    assert v.modulus_exponent == 1
    assert lattice_reduce(0.0, 3).representative == 0.0
    z = 0.3 - 0.7j
    assert lattice_eq(z, z + TWO_PI_I ** 2, 3)
    assert not lattice_eq(z, z + TWO_PI_I ** 2 / 2, 3)


@given(st.integers(-50, 50), st.integers(1, 5),
       st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_lattice_equality_is_shift_invariant(k, m, re, im):
    z = complex(re, im)
    assert lattice_eq(z, z + k * lattice_generator(m), m)


def test_lattice_search_radius():
    with pytest.raises(InputError):
        lattice_reduce(1e9 * TWO_PI_I, 1)


def test_chern_pairing_degenerate_is_zero():
    mod = degenerate_module(pointwise_algebra(2), 3, m=2, seed=2)
    rng = np.random.default_rng(3)
    b = [rng.normal(size=2) for _ in range(2)]
    assert chern_pairing(mod, antisym_cycle(pointwise_algebra(2), b)) == 0.0


def test_chern_pairing_degree_checked():
    _, mod = discrete_hardy(8)
    with pytest.raises(InputError):
        chern_pairing(mod, antisym_cycle(mod.algebra, [np.ones(8)]))


def test_chern_pairing_additive_under_direct_sum():
    alg = pointwise_algebra(2)
    _, m1 = toy_even_module(3, seed=4, m=3, base_dim=2)
    _, m2 = toy_even_module(4, seed=5, m=3, base_dim=2)
    total = direct_sum(m1, m2)
    rng = np.random.default_rng(6)
    x = antisym_cycle(alg, [rng.normal(size=2) for _ in range(3)])
    lhs = chern_pairing(total, x)
    rhs = chern_pairing(m1, x) + chern_pairing(m2, x)
    assert abs(lhs - rhs) < 1e-10


def test_pairing_invariant_under_perturbation_on_cycles():
    # the witness coboundary pairs to zero against chains killed by the
    # chain boundary, so cycle pairings agree for perturbed pairs; on a
    # generic (non-cycle) chain the two cocycles genuinely differ
    from cycfred.cyclic import Chain, pair_cochain_chain

    alg = pointwise_algebra(2)
    _, mod = toy_even_module(4, seed=7, m=3, base_dim=2)
    T = conjugation_perturbation(mod, seed=8, strength=0.3)
    pert = perturb(mod, T)
    rng = np.random.default_rng(9)
    b = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
    x = antisym_cycle(alg, b)
    assert np.abs(chain_boundary(x).values).max() < 1e-12
    assert abs(chern_pairing(mod, x) - chern_pairing(pert, x)) < 1e-8

    at = x.algebra
    y = Chain(at, rng.normal(size=(at.dim,) * 3))
    tau_f, tau_g = index_cocycle(mod), index_cocycle(pert)
    difference = pair_cochain_chain(tau_g, y) - pair_cochain_chain(tau_f, y)
    assert abs(difference) > 1e-4   # only the classes agree, not the tensors


def test_mult_char_zero_on_scalar_logs():
    _, mod = discrete_hardy(8)
    a = [0.3 * np.ones(8), -1.2 * np.ones(8)]
    value = mult_char_exponentials(mod, a, a)
    assert abs(value.representative) < 1e-12
    assert value.modulus_exponent == 1


def test_mult_char_rejects_wrong_logs():
    _, mod = discrete_hardy(8)
    a = [np.ones(8), np.ones(8)]
    b = [np.ones(8), 1.5 * np.ones(8)]
    with pytest.raises(InputError, match="index 1"):
        mult_char_exponentials(mod, a, b)


def test_mult_char_needs_m_entries():
    _, mod = discrete_hardy(8)
    with pytest.raises(InputError):
        mult_char_exponentials(mod, [np.ones(8)], [np.ones(8)])


@pytest.mark.parametrize("seed", range(4))
def test_branch_shift_invariance_m1(seed):
    # shifting a log by 2 pi i times an integer idempotent moves the value
    # by 2 pi i times a supertrace, an exact lattice element
    N = 6
    _, mod = discrete_hardy_graded(N, seed=seed)
    rng = np.random.default_rng(100 + seed)
    a = [rng.normal(size=N) + 1j * rng.normal(size=N)]
    chi = rng.integers(0, 2, size=N).astype(float)
    shifted = [a[0] + TWO_PI_I * chi]
    v1 = mult_char_exponentials(mod, a, a)
    v2 = mult_char_exponentials(mod, a, shifted)
    assert lattice_eq(v1.representative, v2.representative, 1)


def test_branch_shift_changes_raw_value_m1():
    # the invariance is modulo the lattice, not on the nose
    N = 6
    _, mod = discrete_hardy_graded(N, seed=3)
    tau = index_cocycle(mod).values[:N]
    chi = np.zeros(N)
    chi[int(np.argmax(np.abs(tau.real) > 0.5))] = 1.0
    a = [1j * np.arange(N, dtype=float)]
    shifted = [a[0] + TWO_PI_I * chi]
    v1 = mult_char_exponentials(mod, a, a)
    v2 = mult_char_exponentials(mod, a, shifted)
    assert abs(v1.representative - v2.representative) > 1.0
    assert lattice_eq(v1.representative, v2.representative, 1)


@pytest.mark.parametrize("seed", range(3))
def test_branch_shift_invariance_m2(seed):
    N = 8
    _, mod = discrete_hardy(N)
    rng = np.random.default_rng(200 + seed)
    b0 = sawtooth_log(N, 1)
    b1 = np.log(winding_symbol(N, 1, amplitude=0.3, phase=0.5))
    chi = rng.integers(0, 2, size=N).astype(float)
    v1 = mult_char_exponentials(mod, [b0, b1], [b0, b1])
    v2 = mult_char_exponentials(mod, [b0, b1], [b0, b1 + TWO_PI_I * chi])
    assert lattice_eq(v1.representative, v2.representative, 2)


def test_m1_character_exponentiates_to_determinant_ratio():
    # exp(character) = det(exp r_minus(b)) / det(exp r_plus(b)): the lattice
    # ambiguity 2 pi i Z dies under exp, so the ratio is branch-independent
    from scipy.linalg import expm

    N = 5
    _, mod = discrete_hardy_graded(N, seed=12)
    rng = np.random.default_rng(13)
    b = rng.normal(size=N) + 1j * rng.normal(size=N)
    value = mult_char_exponentials(mod, [b], [b])
    rep_b = np.tensordot(b, mod.rep, axes=(0, 0))
    plus = (np.eye(2 * N) + mod.gamma) / 2
    minus = (np.eye(2 * N) - mod.gamma) / 2
    assert np.abs(plus @ rep_b @ minus).max() < 1e-12   # block-diagonal rep
    det_plus = np.linalg.det(expm(rep_b)[:N, :N])
    det_minus = np.linalg.det(expm(rep_b)[N:, N:])
    ratio = det_minus / det_plus
    assert abs(np.exp(value.representative) - ratio) < 1e-8 * abs(ratio)
    # a different log branch moves the representative but not its exponential
    chi = np.zeros(N)
    chi[2] = 1.0
    shifted = mult_char_exponentials(mod, [b], [b + TWO_PI_I * chi])
    assert abs(np.exp(shifted.representative) - ratio) < 1e-8 * abs(ratio)


def test_lattice_value_str():
    v = LatticeValue(1.0 + 2.0j, 2)
    assert "mod (2*pi*i)^2" in str(v)
