"""Naturality of the index cocycle and the witness along algebra maps.

An algebra homomorphism phi: A -> B, given as the dim_B x dim_A matrix Phi of
its values on A's basis, pulls a module over B back to the module
phi^* = (rep o phi, F) over A.  Its extension phi~ to the unitalizations sends
the adjoined unit to the adjoined unit, and phi~^* evaluates a cochain over
B~ on the images of A~'s basis.  The index cocycle and the witness are
natural:

    tau_(phi^* F) = phi~^* tau_F,    psi_(phi^*) = phi~^* psi.

The left-hand sides are computed from the module over A alone, so each case
checks the operator route against a change of algebra.
"""

import numpy as np
import pytest

from cycfred.algebra import matrix_units_algebra, pointwise_algebra
from cycfred.chern import witness_cochain
from cycfred.fredholm import FredholmModule, index_cocycle, validate_module
from cycfred.models import conjugation_perturbation, random_reflection_module, toy_even_module


def pullback(module, algebra, Phi):
    """phi^*: the module over algebra with rep(e_i) = sum_j Phi[j, i] rep(f_j)."""
    rep = np.tensordot(np.asarray(Phi, dtype=complex), module.rep, axes=(0, 0))
    return FredholmModule(algebra, rep, module.F, module.m, module.gamma)


def phi_tilde(Phi):
    """phi on the unitalizations: the adjoined unit goes to the adjoined unit."""
    dim_b, dim_a = Phi.shape
    out = np.zeros((dim_b + 1, dim_a + 1))
    out[:dim_b, :dim_a] = Phi
    out[dim_b, dim_a] = 1.0
    return out


def pull_cochain(values, Phi_t):
    """(phi~^* c)(i0, ..., iq) = sum_j c(j0, ..., jq) Phi_t[j0, i0] ... Phi_t[jq, iq]."""
    for _ in range(values.ndim):
        values = np.tensordot(values, Phi_t, axes=(0, 0))   # the new axis goes last
    return values


def _diagonal():
    # pointwise:2 -> matrix:2, e_k -> E_kk (row-major index 3k)
    Phi = np.zeros((4, 2))
    Phi[0, 0] = Phi[3, 1] = 1.0
    return pointwise_algebra(2), matrix_units_algebra(2), Phi


def _point_map():
    # pointwise:4 -> pointwise:2, f -> f o pi for the point map pi = (2, 0)
    Phi = np.zeros((2, 4))
    Phi[0, 2] = Phi[1, 0] = 1.0
    return pointwise_algebra(4), pointwise_algebra(2), Phi


# (label, map, exact): the diagonal agrees bit for bit, the point map within
# 1e-12 relative
MAPS = [("diagonal", _diagonal, True), ("point-map", _point_map, False)]
CASES = [(label, maker, exact, m) for label, maker, exact in MAPS for m in (2, 3, 4)]


def _module(algebra, m):
    # seed 1: the representation on each side carries every irrep, so no
    # compared tensor vanishes
    if m % 2:
        return toy_even_module(4, seed=1, m=m, algebra=algebra)[1]
    return random_reflection_module(6, algebra, seed=1, m=m)


def _assert_natural(got, want, exact, what):
    assert got.shape == want.shape, what
    if exact:
        assert np.array_equal(got, want), what
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), what


@pytest.mark.parametrize("label,maker,exact,m", CASES,
                         ids=[f"{c[0]}-m{c[3]}" for c in CASES])
def test_index_cocycle_and_witness_are_natural(label, maker, exact, m):
    A, B, Phi = maker()
    module = _module(B, m)
    T = conjugation_perturbation(module, seed=20 + m, strength=0.2)
    pulled = pullback(module, A, Phi)
    assert validate_module(pulled)["pass"]
    Phi_t = phi_tilde(Phi)

    _assert_natural(index_cocycle(pulled).values,
                    pull_cochain(index_cocycle(module).values, Phi_t), exact, "tau")
    # tau vanishes on every tuple holding the unit, and at m = 2 it is
    # rounding noise on both maps; psi carries the unit in its first slot
    psi, psi_pulled = witness_cochain(module, T), witness_cochain(pulled, T)
    assert max(np.abs(comp).max() for comp in psi.components) > 1e-3   # not vacuous
    assert len(psi_pulled.components) == len(psi.components)
    for comp, comp_pulled in zip(psi.components, psi_pulled.components):
        _assert_natural(comp_pulled, pull_cochain(comp, Phi_t), exact, f"psi degree {comp.ndim - 1}")
