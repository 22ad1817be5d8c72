import numpy as np
import pytest

from cycfred.algebra import (
    matrix_units_algebra,
    pointwise_algebra,
    upper_triangular_algebra,
    validate_algebra,
)
from cycfred.errors import InputError
from cycfred.fredholm import (
    index_cocycle,
    involution_defect,
    is_degenerate,
    schatten_norm,
    validate_module,
)
from cycfred.models import (
    conjugation_perturbation,
    degenerate_module,
    discrete_hardy,
    discrete_hardy_graded,
    grid_points,
    haar_unitary,
    random_exact_rep,
    random_hermitian,
    random_reflection_module,
    sawtooth_log,
    toeplitz_index_oracle,
    toy_even_module,
    winding_by_phase,
    winding_symbol,
)

UT = upper_triangular_algebra()


@pytest.mark.parametrize("make", [
    lambda: discrete_hardy(8)[1],
    lambda: discrete_hardy(16)[1],
    lambda: discrete_hardy_graded(6, seed=2)[1],
    lambda: toy_even_module(4, seed=3, m=3)[1],
    lambda: toy_even_module(4, seed=3, m=3, algebra=UT)[1],
    lambda: random_reflection_module(7, UT, seed=4, m=2),
    lambda: random_reflection_module(6, matrix_units_algebra(2), seed=5, m=2),
    lambda: random_reflection_module(6, pointwise_algebra(3), seed=6, m=4),
    lambda: degenerate_module(UT, 3, m=2, seed=7),
    lambda: degenerate_module(pointwise_algebra(2), 3, m=3, seed=8),
])
def test_constructors_produce_valid_modules(make):
    mod = make()
    report = validate_module(mod)
    assert report["pass"], report["checks"]


def test_constructors_are_seed_deterministic():
    a = toy_even_module(4, seed=11, m=3)[1]
    b = toy_even_module(4, seed=11, m=3)[1]
    assert np.array_equal(a.F, b.F) and np.array_equal(a.rep, b.rep)
    c = random_reflection_module(6, UT, seed=12, m=2)
    d = random_reflection_module(6, UT, seed=12, m=2)
    assert np.array_equal(c.F, d.F) and np.array_equal(c.rep, d.rep)
    t1 = conjugation_perturbation(c, seed=13, strength=0.2)
    t2 = conjugation_perturbation(d, seed=13, strength=0.2)
    assert np.array_equal(t1, t2)


def test_hardy_needs_even_N():
    with pytest.raises(InputError):
        discrete_hardy(7)
    with pytest.raises(InputError):
        discrete_hardy(2)


def test_hardy_constant_function_commutes():
    algebra, mod = discrete_hardy(8)
    unit_rep = mod.rep.sum(axis=0)     # representation of the constant 1
    assert np.abs(mod.F @ unit_rep - unit_rep @ mod.F).max() < 1e-12
    assert validate_algebra(algebra)["pass"]


def test_reflection_symmetry_has_plus_minus_one_spectrum():
    mod = random_reflection_module(6, UT, seed=14, m=2)
    eig = np.linalg.eigvalsh(mod.F)
    assert np.abs(np.abs(eig) - 1.0).max() < 1e-10
    comm = max(
        np.linalg.norm(mod.F @ mod.rep[i] - mod.rep[i] @ mod.F) for i in range(3)
    )
    assert comm > 1e-3     # generically nondegenerate


def test_degenerate_modules_are_degenerate():
    assert is_degenerate(degenerate_module(UT, 4, m=2, seed=15))
    assert is_degenerate(degenerate_module(UT, 4, m=5, seed=16))


def test_random_exact_rep_is_a_homomorphism():
    rng = np.random.default_rng(17)
    for alg in (pointwise_algebra(3), matrix_units_algebra(2), UT):
        rep = random_exact_rep(alg, 7, rng)
        s = alg.structure
        for i in range(alg.dim):
            for j in range(alg.dim):
                expected = np.tensordot(s[i, j], rep, axes=(0, 0))
                assert np.abs(rep[i] @ rep[j] - expected).max() < 1e-12


def test_conjugation_perturbation_identities():
    mod = random_reflection_module(6, UT, seed=18, m=2)
    T = conjugation_perturbation(mod, seed=19, strength=0.2)
    assert involution_defect(mod.F, T) < 1e-12
    assert np.abs(conjugation_perturbation(mod, seed=19, strength=0.0)).max() == 0.0


def test_conjugation_perturbation_respects_grading():
    _, mod = toy_even_module(4, seed=20, m=3)
    T = conjugation_perturbation(mod, seed=21, strength=0.3)
    G = mod.F + T
    assert np.abs(mod.gamma @ G + G @ mod.gamma).max() < 1e-12


def test_conjugation_perturbation_norm_scales_linearly():
    mod = random_reflection_module(6, UT, seed=22, m=2)
    rng = np.random.default_rng(23)
    K = random_hermitian(mod.n, rng)
    eps = 1e-3
    T = conjugation_perturbation(mod, seed=23, strength=eps)
    bound = 2 * eps * schatten_norm(K, mod.m) * (1 + 10 * eps)
    assert schatten_norm(T, mod.m) <= bound


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(24)
    u = haar_unitary(5, rng)
    assert np.abs(u @ u.conj().T - np.eye(5)).max() < 1e-12


def test_grid_and_sawtooth():
    x = grid_points(8)
    assert x[0] == 0.0 and abs(x[4] - np.pi) < 1e-12
    assert np.allclose(sawtooth_log(8, 2), 2j * x)
    assert np.allclose(np.exp(sawtooth_log(8, 2)), winding_symbol(8, 2))


@pytest.mark.parametrize("N", [16, 32, 64])
@pytest.mark.parametrize("w", [-3, -1, 0, 2, 3])
def test_index_oracle_matches_winding(N, w):
    u = winding_symbol(N, w, amplitude=0.35, phase=1.1)
    result = toeplitz_index_oracle(u)
    assert result.index == -w
    assert result.winding == w
    assert result.dim_ker == max(0, -w)
    assert result.dim_coker == max(0, w)
    assert winding_by_phase(u) == w


def test_index_oracle_pure_phase_has_root_multiplicity():
    u = winding_symbol(16, 3)          # p(z) proportional to z^3
    result = toeplitz_index_oracle(u)
    assert result.index == -3 and result.band == (3, 3)
    u = winding_symbol(16, -2)
    result = toeplitz_index_oracle(u)
    assert result.index == 2 and result.dim_ker == 2


def test_index_oracle_rejects_vanishing_symbols():
    x = grid_points(16)
    with pytest.raises(InputError):
        toeplitz_index_oracle(1.0 + np.exp(1j * x))   # vanishes at x = pi
    with pytest.raises(InputError):
        winding_by_phase(np.zeros(8, dtype=complex))


def test_index_oracle_additivity_of_winding():
    u = winding_symbol(32, 1, amplitude=0.2) * winding_symbol(32, 2, amplitude=0.1, phase=0.4)
    result = toeplitz_index_oracle(u)
    assert result.winding == 3 and result.index == -3


def test_graded_hardy_supertraces_are_integers():
    _, mod = discrete_hardy_graded(6, seed=25)
    tau = index_cocycle(mod).values
    finite_part = tau[:-1]
    assert np.abs(finite_part.imag).max() < 1e-12
    assert np.abs(finite_part.real - np.round(finite_part.real)).max() < 1e-12
    assert abs(tau[-1]) < 1e-12        # Tr(gamma) = 0 is forced
