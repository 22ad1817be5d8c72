import tracemalloc

import numpy as np
import pytest

from cycfred.algebra import (
    Algebra,
    embed_element,
    matrix_units_algebra,
    multiply,
    pointwise_algebra,
    random_element,
    scalar_algebra,
    scalar_part,
    truncated_polynomial_algebra,
    unit_basis_index,
    unitalize,
    upper_triangular_algebra,
    validate_algebra,
    zero_product_algebra,
)
from cycfred.errors import InputError
from cycfred.fredholm import validate_module
from cycfred.models import discrete_hardy


def test_pointwise_idempotents_multiply_to_zero():
    alg = pointwise_algebra(2)
    out = multiply(alg, [1, 0], [0, 1])
    assert np.allclose(out, 0.0)


def test_unit_acts_as_identity_on_random_elements():
    rng = np.random.default_rng(0)
    for alg in (pointwise_algebra(3), matrix_units_algebra(2), upper_triangular_algebra()):
        x = random_element(alg, rng)
        assert np.allclose(multiply(alg, alg.unit, x), x)
        assert np.allclose(multiply(alg, x, alg.unit), x)


def test_matrix_units_product():
    alg = matrix_units_algebra(2)
    e11 = [1, 0, 0, 0]
    e12 = [0, 1, 0, 0]
    e21 = [0, 0, 1, 0]
    assert np.allclose(multiply(alg, e11, e12), e12)
    assert np.allclose(multiply(alg, e12, e11), np.zeros(4))
    assert np.allclose(multiply(alg, e12, e21), e11)


def test_unitalize_zero_product_algebra():
    alg = zero_product_algebra(1)
    at = unitalize(alg)
    # (a, l)(b, mu) = (a mu + b l + ab, l mu) with ab = 0
    x = np.array([2.0, 3.0])   # 2 a + 3
    y = np.array([5.0, 7.0])
    out = multiply(at, x, y)
    assert np.allclose(out, [2 * 7 + 5 * 3, 21])


def test_unitalize_projection_and_embedding():
    alg = pointwise_algebra(2)
    at = unitalize(alg)
    assert scalar_part(at, np.array([0, 0, 1.0])) == 1.0
    assert unit_basis_index(at) == 2
    rng = np.random.default_rng(1)
    a, b = random_element(alg, rng), random_element(alg, rng)
    lhs = multiply(at, embed_element(alg, a), embed_element(alg, b))
    rhs = embed_element(alg, multiply(alg, a, b))
    assert np.allclose(lhs, rhs)


def _scan_unit_index(alg):
    for i in range(alg.dim):
        if alg.unit is not None and np.allclose(alg.unit, np.eye(alg.dim)[i], atol=1e-12):
            return i
    return None


@pytest.mark.parametrize("alg", [
    pointwise_algebra(3),
    matrix_units_algebra(2),
    upper_triangular_algebra(),
    zero_product_algebra(2),
    truncated_polynomial_algebra(3),
    scalar_algebra(),
])
def test_cached_unit_index_matches_fresh_scan(alg):
    for a in (alg, unitalize(alg)):
        assert unit_basis_index(a) == _scan_unit_index(a)
    at = unitalize(alg)
    assert unit_basis_index(at) == at.dim - 1
    assert vars(at)["unit_index"] == at.dim - 1      # stored on the instance


def test_unitalization_unit_is_two_sided_identity():
    at = unitalize(upper_triangular_algebra())
    rng = np.random.default_rng(2)
    x = random_element(at, rng)
    assert np.allclose(multiply(at, at.unit, x), x)
    assert np.allclose(multiply(at, x, at.unit), x)


@pytest.mark.parametrize("alg", [
    pointwise_algebra(5),
    matrix_units_algebra(2),
    upper_triangular_algebra(),
    truncated_polynomial_algebra(4),
    unitalize(pointwise_algebra(4)),
])
def test_builtin_algebras_validate_exactly(alg):
    report = validate_algebra(alg)
    assert report["pass"]
    assert report["associativity_violation"] == 0.0
    assert report["unit_violation"] == 0.0


def test_validate_detects_broken_associativity():
    alg = matrix_units_algebra(2)
    bad = alg.structure.copy()
    bad[0, 1, 2] += 0.37
    broken = Algebra(alg.dim, alg.labels, bad, alg.unit)
    report = validate_algebra(broken)
    assert not report["pass"]
    assert report["associativity_violation"] > 1e-3
    assert report["worst_triple"] is not None


def test_graded_truncated_polynomials():
    alg = truncated_polynomial_algebra(4)
    report = validate_algebra(alg)
    assert report["graded_ok"]
    # direct expansion oracle: x^i x^j = x^(i+j) or 0 past the truncation
    for i in range(4):
        for j in range(4):
            out = multiply(alg, np.eye(4)[i], np.eye(4)[j])
            expected = np.zeros(4)
            if i + j < 4:
                expected[i + j] = 1.0
            assert np.allclose(out, expected)


def test_graded_violation_detected():
    alg = truncated_polynomial_algebra(3)
    bad = alg.structure.copy()
    bad[1, 1, 1] = 0.25   # degree 2 product feeding a degree-1 slot
    broken = Algebra(alg.dim, alg.labels, bad, alg.unit, alg.grading)
    assert not validate_algebra(broken)["graded_ok"]


def test_dimension_mismatch_raises():
    alg = pointwise_algebra(3)
    with pytest.raises(InputError):
        multiply(alg, [1, 0], [1, 0, 0])


def _dense_validate(alg, tol=1e-12):
    """Reference: the dense dim^4 associativity tensors and the triple-loop
    grading check that validate_algebra replaces."""
    s = alg.structure
    left = np.einsum("ijm,mkl->ijkl", s, s)
    right = np.einsum("jkm,iml->ijkl", s, s)
    diff = np.abs(left - right)
    worst = float(diff.max()) if diff.size else 0.0
    triple = (tuple(int(t) for t in np.unravel_index(diff.argmax(), diff.shape)[:3])
              if diff.size else None)
    bad = 0.0
    if alg.is_graded:
        g = alg.grading
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    if g[k] != g[i] + g[j]:
                        bad = max(bad, abs(s[i, j, k]))
    return {"associative": worst <= tol, "associativity_violation": worst,
            "worst_triple": triple, "graded_ok": bad <= tol, "grading_violation": bad}


def _noisy_matrix_units():
    alg = matrix_units_algebra(3)
    noise = 1e-3 * np.random.default_rng(3).normal(size=alg.structure.shape)
    return Algebra(alg.dim, alg.labels, alg.structure + noise, alg.unit)


def _dense_random():
    rng = np.random.default_rng(24)
    s = rng.normal(size=(24, 24, 24)) + 1j * rng.normal(size=(24, 24, 24))
    return Algebra(24, tuple(f"r{i}" for i in range(24)), s)


def _grading_violation():
    alg = truncated_polynomial_algebra(4)
    bad = alg.structure.copy()
    bad[1, 1, 1] = 0.25
    bad[2, 1, 0] = -0.5j
    return Algebra(alg.dim, alg.labels, bad, alg.unit, alg.grading)


BUILTIN = {
    "pointwise4": pointwise_algebra(4),
    "matrix2": matrix_units_algebra(2),
    "ut2": upper_triangular_algebra(),
    "zero2": zero_product_algebra(2),
    "truncated4": truncated_polynomial_algebra(4),
    "scalar": scalar_algebra(),
}
ORACLE_CASES = {
    **BUILTIN,
    **{f"{name}~": unitalize(alg) for name, alg in BUILTIN.items()},
    "matrix3-noisy": _noisy_matrix_units(),
    "dense-random-24": _dense_random(),
    "grading-violation": _grading_violation(),
    "dim0": Algebra(0, (), np.zeros((0, 0, 0), dtype=complex)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_validate_algebra_matches_dense_oracle(name):
    alg = ORACLE_CASES[name]
    got, want = validate_algebra(alg), _dense_validate(alg)
    for flag in ("associative", "graded_ok", "worst_triple"):
        assert got[flag] == want[flag], flag
    for key in ("associativity_violation", "grading_violation"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key


def test_validate_module_memory_stays_small_at_hardy_64():
    _, mod = discrete_hardy(64)
    tracemalloc.start()
    try:
        report = validate_module(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
