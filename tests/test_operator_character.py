"""The operator-level characters against the symbolic chain route.

The symbolic route multiplies chain elements word by word and evaluates the
graded trace at the end; the operator route evaluates the same components
and boundary characters as traces of matrix products.  The two share no code
beyond the module data, so agreement to rounding is the check.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cycfred.algebra import matrix_units_algebra, pointwise_algebra, upper_triangular_algebra
from cycfred.chern import (
    PerturbationChain,
    boundary_cycle_chern,
    chern_component_tensor,
    operator_boundary_character,
    operator_component_tensor,
    witness_cochain,
)
from cycfred.errors import BudgetError, InputError
from cycfred.fredholm import FredholmModule, index_cocycle, perturb
from cycfred.models import conjugation_perturbation, random_reflection_module, toy_even_module

UT = upper_triangular_algebra()
M2 = matrix_units_algebra(2)
TOL = 1e-12


def _instance(algebra, m, seed):
    # the construction of the acceptance suite's witness instances
    if m % 2:
        _, mod = toy_even_module(4, seed=seed, m=m, algebra=algebra)
    else:
        mod = random_reflection_module(8, algebra, seed=seed, m=m)
    T = conjugation_perturbation(mod, seed=7000 + 13 * seed + m, strength=0.1 + 0.01 * (seed % 5))
    return mod, T


def _grid():
    # ut2 on seeds 0-2 and pointwise:3 on seed 3, as in the acceptance suite,
    # plus matrix:2.  The symbolic route on matrix:2 at m = 5 takes over 10 s
    # for the top component and 8 s for the boundary characters, so that
    # instance runs once, on the components below the top only.
    for m in (2, 3, 4, 5):
        for seed in range(4):
            name = "pointwise3" if seed == 3 else "ut2"
            yield f"{name}-m{m}-s{seed}", pointwise_algebra(3) if seed == 3 else UT, m, seed, 0
            if m < 5 or seed == 0:
                yield f"matrix2-m{m}-s{seed}", M2, m, seed, 1 if m == 5 else 0


GRID = list(_grid())
BOUNDARY_GRID = [g for g in GRID if g[4] == 0]


@pytest.mark.parametrize("label,algebra,m,seed,k_min", GRID, ids=[g[0] for g in GRID])
def test_components_match_symbolic_route(label, algebra, m, seed, k_min):
    mod, T = _instance(algebra, m, seed)
    chain = PerturbationChain(mod, T)
    for k in range(k_min, m // 2 + 1):
        symbolic = chern_component_tensor(chain, k).values
        operator = operator_component_tensor(mod, T, k).values
        assert operator.shape == symbolic.shape
        assert np.abs(operator - symbolic).max() <= TOL, (label, k)


@pytest.mark.parametrize("label,algebra,m,seed,k_min", BOUNDARY_GRID,
                         ids=[g[0] for g in BOUNDARY_GRID])
def test_boundary_characters_match_symbolic_route(label, algebra, m, seed, k_min):
    mod, T = _instance(algebra, m, seed)
    for side, module in (("base", mod), ("perturbed", perturb(mod, T))):
        symbolic = boundary_cycle_chern(mod, T, side).values
        operator = operator_boundary_character(module).values
        assert np.abs(operator - symbolic).max() <= TOL, (label, side)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_index_cocycle_is_the_operator_boundary_character(m):
    # 1/2 Tr(gamma^m F [F, x0] ...) = Tr(gamma^m x0 [F, x1] ...) when F^2 = 1:
    # two different products through the one trace kernel
    mod, T = _instance(UT, m, seed=m)
    for module in (mod, perturb(mod, T)):
        tau = index_cocycle(module).values
        character = operator_boundary_character(module).values
        assert np.abs(tau - math.factorial(m - 1) * character).max() <= TOL, m


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_operator_top_component_is_exactly_zero(m):
    mod, T = _instance(M2 if m == 6 else UT, m, seed=m)
    top = operator_component_tensor(mod, T, 0).values
    assert top.shape == (mod.algebra.dim + 1,) * (m + 1)
    assert np.abs(top).max() == 0.0


def test_witness_components_are_the_operator_components():
    mod, T = _instance(UT, 5, seed=1)
    psi = witness_cochain(mod, T)
    for k, comp in enumerate(psi.components, start=1):
        assert np.array_equal(comp, operator_component_tensor(mod, T, k).values)


def test_operator_component_checks_its_arguments():
    mod, T = _instance(UT, 3, seed=0)
    with pytest.raises(InputError):
        operator_component_tensor(mod, T, 2)
    with pytest.raises(InputError):
        operator_component_tensor(mod, T, -1)
    with pytest.raises(InputError):
        operator_component_tensor(mod, 0.5 * np.eye(mod.n), 1)   # G = F + T is no involution
    with pytest.raises(InputError):
        operator_component_tensor(mod, np.zeros((2, 2)), 1)


def _small_module(algebra, m):
    F = np.array([[0, 1], [1, 0]], dtype=complex)
    gamma = np.diag([1.0, -1.0]).astype(complex) if m % 2 else None
    return FredholmModule(algebra, np.zeros((algebra.dim, 2, 2), dtype=complex), F, m, gamma)


def test_over_budget_degree_raises():
    mod = _small_module(UT, 10)              # degree 8 > MAX_DEGREE at k = 1
    T = np.zeros((2, 2))
    with pytest.raises(BudgetError):
        operator_component_tensor(mod, T, 1)
    with pytest.raises(BudgetError):
        operator_boundary_character(mod)
    with pytest.raises(BudgetError):
        witness_cochain(mod, T)


def test_over_budget_tensor_raises_before_any_allocation():
    # dim 71 at degree 3 is 25.4M entries, over MAX_TENSOR_ENTRIES; even the
    # unitalized structure tensor (dim^3 complex, 5.7 MB) must not be built
    mod = _small_module(pointwise_algebra(70), 5)
    T = np.zeros((2, 2))
    for call in (lambda: operator_component_tensor(mod, T, 1),
                 lambda: operator_boundary_character(mod),
                 lambda: witness_cochain(mod, T)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
