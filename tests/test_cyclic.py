import math
from string import ascii_lowercase

import numpy as np
import pytest

from cycfred import cyclic
from cycfred.algebra import (
    matrix_units_algebra,
    pointwise_algebra,
    scalar_algebra,
    truncated_polynomial_algebra,
    unitalize,
    upper_triangular_algebra,
    zero_product_algebra,
)
from cycfred.cyclic import (
    Chain,
    Cochain,
    TotalCochain,
    chain_boundary,
    coboundary_residual,
    connes_B,
    evaluate_cochain,
    hochschild_b,
    hochschild_b_rows,
    is_reduced,
    pair_cochain_chain,
    periodicity_S,
    random_cochain,
    random_total,
    restrict_to_scalars,
    total_coboundary,
    total_from_top,
    zero_cochain,
    zero_total,
)
from cycfred.errors import BudgetError, InputError

ALGEBRAS = [
    unitalize(pointwise_algebra(2)),
    unitalize(upper_triangular_algebra()),
    matrix_units_algebra(2),
]


def random_chain(algebra, degree, rng):
    shape = (algebra.dim,) * (degree + 1)
    return Chain(algebra, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_b_kills_the_trace():
    alg = matrix_units_algebra(2)
    trace = Cochain(alg, np.array([1.0, 0.0, 0.0, 1.0], dtype=complex))
    assert np.abs(hochschild_b(trace).values).max() < 1e-14


def test_b_of_corner_functional_by_hand():
    # phi(a) = a_00 on M_2; (b phi)(E01, E10) = phi(E01 E10) - phi(E10 E01) = 1
    alg = matrix_units_algebra(2)
    phi = Cochain(alg, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    bphi = hochschild_b(phi)
    e01 = np.array([0, 1, 0, 0.0])
    e10 = np.array([0, 0, 1, 0.0])
    assert abs(evaluate_cochain(bphi, [e01, e10]) - 1.0) < 1e-14


def _dense_b(phi):
    """The full-tensor einsum form of b: the oracle for the row routine."""
    m = phi.degree
    d = phi.algebra.dim
    s = phi.algebra.structure
    n_out = m + 2
    out_letters = ascii_lowercase[:n_out]
    k = ascii_lowercase[n_out]
    out = np.zeros((d,) * n_out, dtype=complex)
    for i in range(m + 1):
        phi_letters = out_letters[:i] + k + out_letters[i + 2:]
        spec = f"{out_letters[i]}{out_letters[i + 1]}{k},{phi_letters}->{out_letters}"
        out += (-1) ** i * np.einsum(spec, s, phi.values)
    phi_letters = k + out_letters[1:n_out - 1]
    spec = f"{out_letters[-1]}{out_letters[0]}{k},{phi_letters}->{out_letters}"
    out += (-1) ** (m + 1) * np.einsum(spec, s, phi.values)
    return out


def _dense_residual(x):
    """max |x| over the components and the first tuple where it occurs, in
    component order and then C order: the dense oracle for coboundary_residual."""
    worst, where = 0.0, None
    for c in x.components:
        a = np.abs(c)
        m = float(a.max()) if a.size else 0.0
        if m > worst:
            worst, where = m, tuple(int(t) for t in np.unravel_index(a.argmax(), a.shape))
    return worst, where


BUILTIN = {
    "pointwise4": pointwise_algebra(4),
    "matrix2": matrix_units_algebra(2),
    "ut2": upper_triangular_algebra(),
    "zero2": zero_product_algebra(2),
    "truncated4": truncated_polynomial_algebra(4),
    "scalar": scalar_algebra(),
}
ROW_CASES = {**BUILTIN, **{f"{name}~": unitalize(alg) for name, alg in BUILTIN.items()}}


@pytest.mark.parametrize("name", sorted(ROW_CASES))
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_b_rows_equal_the_dense_oracle(name, degree):
    alg = ROW_CASES[name]
    phi = random_cochain(alg, degree, np.random.default_rng(40 + degree))
    want = _dense_b(phi)
    assert np.array_equal(hochschild_b(phi).values, want)
    one_at_a_time = [hochschild_b_rows(phi, slice(a, a + 1)) for a in range(alg.dim)]
    assert np.array_equal(np.concatenate(one_at_a_time), want)
    assert np.array_equal(hochschild_b_rows(phi, slice(1, None)), want[1:])
    if alg.unit is not None:           # connes_B needs a unit
        lower = total_coboundary(total_from_top(phi)).components[1:]
        want_total = TotalCochain(alg, (want,) + lower)
        assert coboundary_residual(total_from_top(phi)) == _dense_residual(want_total)


def test_b_budget_counts_the_rows_held(monkeypatch):
    alg = ALGEBRAS[1]                      # dim 4: b of a degree-2 cochain has 4 rows of 64
    phi = random_cochain(alg, 2, np.random.default_rng(50))
    monkeypatch.setattr(cyclic, "MAX_TENSOR_ENTRIES", 64)
    with pytest.raises(BudgetError, match="^dense tensor with dim 4 and degree 3"):
        hochschild_b(phi)
    with pytest.raises(BudgetError, match="2 rows of a dense tensor"):
        hochschild_b_rows(phi, slice(0, 2))
    want = max(np.abs(_dense_b(phi)).max(), np.abs(connes_B(phi).values).max())
    assert coboundary_residual(total_from_top(phi))[0] == want


def _minus(total, target):
    """total with target subtracted from the component of its own degree."""
    return TotalCochain(total.algebra, tuple(
        c - target.values if c.ndim == target.values.ndim else c for c in total.components))


UNITAL_CASES = sorted(name for name, alg in ROW_CASES.items() if alg.unit is not None)


@pytest.mark.parametrize("name", UNITAL_CASES)
@pytest.mark.parametrize("top", [0, 1, 2, 3])
def test_coboundary_residual_equals_the_dense_oracle(name, top):
    alg = ROW_CASES[name]
    rng = np.random.default_rng(60 + top)
    psi = random_total(alg, top, rng)
    d_psi = total_coboundary(psi)
    assert coboundary_residual(psi) == _dense_residual(d_psi)
    for degree in range(top + 1, -1, -2):
        target = random_cochain(alg, degree, rng)
        want = _dense_residual(_minus(d_psi, target))
        assert coboundary_residual(psi, target) == want


def test_coboundary_residual_zero_reports_no_tuple():
    alg = ALGEBRAS[1]
    rng = np.random.default_rng(70)
    assert coboundary_residual(zero_total(alg, 2)) == (0.0, None)
    # a degree-0 psi has the one component b psi_0, cancelled by its target
    phi = random_cochain(alg, 0, rng)
    assert coboundary_residual(total_from_top(phi), hochschild_b(phi)) == (0.0, None)
    # psi None is the empty witness of m = 1: the residual is max |target|
    assert coboundary_residual(None, zero_cochain(alg, 0)) == (0.0, None)
    target = random_cochain(alg, 0, rng)
    assert coboundary_residual(None, target) == _dense_residual(total_from_top(target))


@pytest.mark.parametrize("where", ["top", "lower", "target"])
def test_coboundary_residual_nan_is_the_result(where):
    alg = ALGEBRAS[1]
    rng = np.random.default_rng(71)
    psi = random_total(alg, 2, rng)
    target = random_cochain(alg, 3, rng)
    if where == "top":
        psi.components[0][1, 2, 0] = np.nan
    elif where == "lower":
        psi.components[1][0] = np.nan      # only b psi_0 in degree 1 sees it
    else:
        target.values[3, 0, 1, 2] = np.nan
    resid, worst = coboundary_residual(psi, target)
    assert math.isnan(resid)
    assert len(worst) == (2 if where == "lower" else 4)
    if where == "target":
        assert worst == (3, 0, 1, 2)


@pytest.mark.parametrize("alg", ALGEBRAS)
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_b_squared_vanishes(alg, degree):
    rng = np.random.default_rng(degree)
    phi = random_cochain(alg, degree, rng)
    assert np.abs(hochschild_b(hochschild_b(phi)).values).max() < 1e-12


@pytest.mark.parametrize("alg", ALGEBRAS)
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_B_squared_and_anticommutation(alg, degree):
    rng = np.random.default_rng(10 + degree)
    phi = random_cochain(alg, degree, rng)
    assert np.abs(connes_B(connes_B(phi)).values).max() < 1e-12
    anti = hochschild_b(connes_B(phi)).values + connes_B(hochschild_b(phi)).values
    assert np.abs(anti).max() < 1e-12


def test_B_on_degree_zero_is_zero_by_convention():
    alg = ALGEBRAS[0]
    rng = np.random.default_rng(3)
    phi = random_cochain(alg, 0, rng)
    out = connes_B(phi)
    assert out.degree == 0
    assert np.abs(out.values).max() == 0.0


@pytest.mark.parametrize("top", [2, 3, 4])
def test_total_coboundary_squares_to_zero(top):
    alg = ALGEBRAS[1]
    rng = np.random.default_rng(top)
    psi = random_total(alg, top, rng)
    assert total_coboundary(total_coboundary(psi)).max_abs() < 1e-12


def test_total_coboundary_commutes_with_shift():
    alg = ALGEBRAS[0]
    rng = np.random.default_rng(7)
    psi = random_total(alg, 2, rng)
    lhs = total_coboundary(periodicity_S(psi))
    rhs = periodicity_S(total_coboundary(psi))
    assert max(np.abs(a - b).max() for a, b in zip(lhs.components, rhs.components)) < 1e-12


def test_shift_layout():
    alg = ALGEBRAS[0]
    rng = np.random.default_rng(8)
    tau = random_cochain(alg, 1, rng)
    psi = total_from_top(tau)
    shifted = periodicity_S(psi)
    assert shifted.top_degree == 3
    assert np.abs(shifted.component(3)).max() == 0.0
    assert np.allclose(shifted.component(1), tau.values)
    assert periodicity_S(zero_total(alg, 1)).max_abs() == 0.0


def test_shift_preserves_cocycles():
    # a totalized cocycle of the zero class: (b+B) of anything
    alg = ALGEBRAS[1]
    rng = np.random.default_rng(9)
    cocycle = total_coboundary(random_total(alg, 2, rng))
    assert total_coboundary(cocycle).max_abs() < 1e-12
    assert total_coboundary(periodicity_S(cocycle)).max_abs() < 1e-12


def test_restrict_to_scalars_and_reducedness():
    alg = ALGEBRAS[0]
    assert is_reduced(zero_total(alg, 2), tol=0.0)
    values = np.zeros((alg.dim,) * 2, dtype=complex)
    values[-1, -1] = 2.0   # nonzero on the all-unit tuple
    psi = total_from_top(Cochain(alg, values))
    assert not is_reduced(psi)
    restricted = restrict_to_scalars(psi)
    assert restricted.component(1)[0, 0] == 2.0


def test_pairing_delta_tensor():
    alg = ALGEBRAS[0]
    phi_values = np.zeros((alg.dim,) * 2, dtype=complex)
    phi_values[1, 2] = 1.0
    x_values = np.zeros((alg.dim,) * 2, dtype=complex)
    x_values[1, 2] = 1.0
    assert pair_cochain_chain(Cochain(alg, phi_values), Chain(alg, x_values)) == 1.0


def test_pairing_against_shifted_top_component_vanishes():
    alg = ALGEBRAS[1]
    rng = np.random.default_rng(11)
    psi = random_total(alg, 1, rng)
    shifted = periodicity_S(psi)
    x = random_chain(alg, shifted.top_degree, rng)
    top = Cochain(alg, shifted.component(shifted.top_degree))
    assert pair_cochain_chain(top, x) == 0.0


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_chain_boundary_is_adjoint_to_b(degree):
    alg = ALGEBRAS[1]
    rng = np.random.default_rng(20 + degree)
    phi = random_cochain(alg, degree, rng)
    x = random_chain(alg, degree + 1, rng)
    lhs = pair_cochain_chain(hochschild_b(phi), x)
    rhs = pair_cochain_chain(phi, chain_boundary(x))
    assert abs(lhs - rhs) < 1e-10


def test_pairing_is_bilinear():
    alg = ALGEBRAS[0]
    rng = np.random.default_rng(30)
    phi = random_cochain(alg, 2, rng)
    x = random_chain(alg, 2, rng)
    y = random_chain(alg, 2, rng)
    combined = Chain(alg, 2.0 * x.values - 3.0j * y.values)
    lhs = pair_cochain_chain(phi, combined)
    rhs = 2.0 * pair_cochain_chain(phi, x) - 3.0j * pair_cochain_chain(phi, y)
    assert abs(lhs - rhs) < 1e-10


def test_degree_mismatch_raises():
    alg = ALGEBRAS[0]
    rng = np.random.default_rng(31)
    with pytest.raises(InputError):
        pair_cochain_chain(random_cochain(alg, 2, rng), random_chain(alg, 1, rng))


def test_budget_errors():
    alg = ALGEBRAS[0]
    with pytest.raises(BudgetError):
        zero_cochain(alg, 7)
    big = unitalize(pointwise_algebra(64))
    with pytest.raises(BudgetError):
        zero_cochain(big, 4)
