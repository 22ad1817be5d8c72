import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cycfred import dga
from cycfred.algebra import pointwise_algebra, upper_triangular_algebra
from cycfred.chern import (
    IntervalForm,
    PerturbationChain,
    boundary_connection,
    boundary_cycle_chern,
    boundary_restrict,
    chain_element,
    chain_mul,
    chain_unit,
    chern_character,
    chern_component,
    chern_component_tensor,
    connection_apply,
    curvature,
    curvature_power,
    graded_trace,
    run_verification_suite,
    verify_cobordism_identity,
    verify_perturbation_invariance,
    witness_cochain,
)
from cycfred.cyclic import Cochain, TotalCochain, coboundary_residual, is_reduced
from cycfred.errors import BudgetError, InputError
from cycfred.fredholm import index_cocycle, perturb
from cycfred.models import (
    conjugation_perturbation,
    degenerate_module,
    discrete_hardy,
    random_reflection_module,
    toy_even_module,
)

UT = upper_triangular_algebra()


@pytest.fixture(scope="module")
def chain2():
    mod = random_reflection_module(6, UT, seed=30, m=2)
    T = conjugation_perturbation(mod, seed=31, strength=0.3)
    return PerturbationChain(mod, T)


@pytest.fixture(scope="module")
def chain3():
    _, mod = toy_even_module(4, seed=32, m=3)
    T = conjugation_perturbation(mod, seed=33, strength=0.2)
    return PerturbationChain(mod, T)


# -- interval forms ---------------------------------------------------------

def test_interval_form_one_forms_square_to_zero():
    a = IntervalForm.monomial(2, True)
    b = IntervalForm.monomial(0, True, Fraction(3))
    assert (a * b).p == () and (a * b).q == ()


def test_interval_form_differential_and_integral():
    f = IntervalForm.monomial(3, False)          # t^3
    assert f.d().q == (Fraction(0), Fraction(0), Fraction(3))
    assert f.d().integrate() == Fraction(1)      # int_0^1 3 t^2 dt, exactly
    g = IntervalForm.monomial(4, True, Fraction(7))
    assert g.integrate() == Fraction(7, 5)
    assert f.at(1) == 1 and f.at(0) == 0


def test_interval_form_product_mixes_degrees():
    f = IntervalForm.monomial(1, False) + IntervalForm.monomial(0, True)
    g = IntervalForm.monomial(2, False)
    out = f * g
    assert out.p == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert out.q == (Fraction(0), Fraction(0), Fraction(1))


# -- connection and curvature ----------------------------------------------

def test_connection_on_generator_matches_formula(chain2):
    i = 0
    out = connection_apply(chain2, chain2.rho_basis(i))
    expected = chain_element(chain2.at, {
        (0, 0, ((dga.DA, i),)): 1.0,
        (1, 0, ((dga.T,), (dga.A, i))): 1.0,
        (1, 0, ((dga.A, i), (dga.T,))): -1.0,
    })
    assert (out - expected).is_zero()


def test_connection_kills_the_unit(chain2):
    assert connection_apply(chain2, chain_unit(chain2.at)).is_zero()


def test_connection_is_a_graded_derivation(chain2):
    at = chain2.at
    # x homogeneous of degree 2, y of degree 1
    x = chain_element(at, {(1, 0, ((dga.T,), (dga.DA, 1))): 1.5,
                           (0, 1, ((dga.T,),)): 1.0 - 0.5j})
    y = chain_element(at, {(0, 0, ((dga.DA, 2),)): 2.0,
                           (2, 0, ((dga.A, 1), (dga.T,))): 0.5j})
    lhs = connection_apply(chain2, chain_mul(x, y))
    rhs = chain_mul(connection_apply(chain2, x), y) \
        + chain_mul(x, connection_apply(chain2, y)).scale((-1.0) ** 2)
    assert (lhs - rhs).is_zero(1e-12)


def test_curvature_normal_form(chain2):
    theta = curvature(chain2)
    t = (dga.T,)
    assert theta.terms == {
        (0, 1, (t,)): 1.0,
        (2, 0, (t, t)): 1.0,
        (1, 0, (t, t)): -1.0,
    }
    # the form multiplying tau^2 is exactly t^2 - t
    from cycfred.chern import interval_form_of
    form = interval_form_of(theta, (t, t))
    assert form.p == (Fraction(0), Fraction(-1), Fraction(1)) and form.q == ()
    assert form.at(0) == 0 and form.at(1) == 0
    assert interval_form_of(theta, (t,)).q == (Fraction(1),)


def test_curvature_square_has_no_double_dt(chain2):
    theta2 = curvature_power(chain2, 2)
    assert all(
        sum(1 for _ in [None] if e) <= 1 and e in (0, 1)
        for (_, e, _) in theta2.terms
    )
    # every term carries at most one dt factor by construction
    assert {e for (_, e, _) in theta2.terms} <= {0, 1}


def test_connection_annihilates_curvature(chain2):
    assert connection_apply(chain2, curvature(chain2)).is_zero()


def test_connection_squares_to_curvature_commutator(chain2):
    x = chain_mul(chain2.rho_basis(1), curvature(chain2))
    lhs = connection_apply(chain2, connection_apply(chain2, x))
    theta = curvature(chain2)
    rhs = chain_mul(theta, x) - chain_mul(x, theta)
    assert (lhs - rhs).is_zero(1e-12)


def test_curvature_power_budget(chain2):
    with pytest.raises(BudgetError):
        curvature_power(chain2, chain2.m + 1)


# -- graded trace ------------------------------------------------------------

def test_trace_vanishes_on_zero_forms(chain2):
    x = chain_element(chain2.at, {(3, 0, ((dga.T,), (dga.T,))): 2.0})
    assert graded_trace(chain2, x) == 0.0


def test_trace_of_dt_term_matches_direct_formula(chain2):
    w = ((dga.DA, 0),)
    x = chain_element(chain2.at, {(0, 1, w): 1.0})
    val = graded_trace(chain2, x)
    dw = dga.differential(dga.DGAElement(chain2.at, {w: 1.0}))
    direct = 0.5 * np.trace(
        chain2.module.gamma_eff @ chain2.module.F
        @ dga.pi_represent(chain2.module, chain2.T, dw)
    )
    assert abs(val - direct) < 1e-12


def test_trace_requires_matching_degree(chain2):
    x = chain_element(chain2.at, {(0, 1, ()): 1.0})
    with pytest.raises(InputError):
        graded_trace(chain2, x)


def test_trace_kills_graded_commutators(chain3):
    rng = np.random.default_rng(41)
    at = chain3.at
    m = chain3.m

    def rand_elem(deg):
        terms = {}
        for _ in range(3):
            e = int(rng.integers(0, 2))
            need = deg - e
            if need < 0:
                continue
            word = []
            while need > 0:
                kind = rng.integers(0, 3)
                if kind == 0:
                    word.append((dga.T,))
                    need -= 1
                elif kind == 1:
                    word.append((dga.DA, int(rng.integers(0, at.dim - 1))))
                    need -= 1
                else:
                    word.append((dga.A, int(rng.integers(0, at.dim))))
            terms[(int(rng.integers(0, 3)), e, tuple(word))] = complex(rng.normal(), rng.normal())
        return chain_element(at, terms)

    worst = 0.0
    for _ in range(12):
        da = int(rng.integers(0, m + 1))
        x, y = rand_elem(da), rand_elem(m - da)
        sign = (-1.0) ** (da * (m - da))
        comm = chain_mul(x, y) - chain_mul(y, x).scale(sign)
        worst = max(worst, abs(graded_trace(chain3, comm)))
    assert worst < 1e-10


def test_trace_closedness_on_boundary_vanishing_elements(chain3):
    rng = np.random.default_rng(42)
    at = chain3.at
    kill = chain_element(at, {(2, 0, ()): 1.0, (1, 0, ()): -1.0})   # t(t-1)

    def word_of_degree(deg):
        return tuple(
            (dga.T,) if rng.integers(0, 2) else (dga.DA, int(rng.integers(0, at.dim - 1)))
            for _ in range(deg)
        )

    for trial in range(6):
        # interior zero-form part plus an unconstrained one-form part: the
        # restriction kills dt terms outright, so both belong to the kernel
        x = chain_mul(kill, chain_element(
            at, {(0, 0, word_of_degree(chain3.m - 1)): complex(rng.normal(), rng.normal())}))
        x = x + chain_element(
            at, {(trial % 3, 1, word_of_degree(chain3.m - 2)): complex(rng.normal(), rng.normal())})
        r1, r0 = boundary_restrict(x)
        assert r1.is_zero(1e-12) and r0.is_zero(1e-12)
        assert abs(graded_trace(chain3, connection_apply(chain3, x))) < 1e-10


def test_restriction_intertwines_connections(chain2):
    rng = np.random.default_rng(43)
    at = chain2.at
    x = chain_element(at, {
        (1, 0, ((dga.A, 0), (dga.T,))): complex(rng.normal(), rng.normal()),
        (0, 1, ((dga.A, 1),)): complex(rng.normal(), rng.normal()),
        (2, 0, ((dga.DA, 2),)): complex(rng.normal(), rng.normal()),
    })
    nx = connection_apply(chain2, x)
    r1n, r0n = boundary_restrict(nx)
    r1x, r0x = boundary_restrict(x)
    assert (r1n - boundary_connection("perturbed", r1x)).is_zero(1e-12)
    assert (r0n - boundary_connection("base", r0x)).is_zero(1e-12)


# -- character components ----------------------------------------------------

def test_top_component_is_exactly_zero(chain2, chain3):
    rng = np.random.default_rng(44)
    for chain in (chain2, chain3):
        tensor = chern_component_tensor(chain, 0)
        assert np.abs(tensor.values).max() == 0.0
        args = [rng.normal(size=chain.at.dim) for _ in range(chain.m + 1)]
        assert chern_component(chain, 0, args) == 0.0


def test_component_arity_checked(chain3):
    with pytest.raises(InputError):
        chern_component(chain3, 1, [np.zeros(chain3.at.dim)] * 3)
    with pytest.raises(InputError):
        chern_component(chain3, 5, [np.zeros(chain3.at.dim)])


def test_component_tensor_matches_pointwise_evaluation(chain3):
    tensor = chern_component_tensor(chain3, 1).values
    at = chain3.at
    rng = np.random.default_rng(45)
    for _ in range(4):
        idx = tuple(rng.integers(0, at.dim, size=2))
        args = [np.eye(at.dim)[i] for i in idx]
        assert abs(chern_component(chain3, 1, args) - tensor[idx]) < 1e-12


@pytest.mark.parametrize("maker,m", [
    (lambda: (random_reflection_module(6, UT, seed=50, m=2), 51), 2),
    (lambda: (toy_even_module(4, seed=52, m=3)[1], 53), 3),
    (lambda: (random_reflection_module(6, UT, seed=54, m=4), 55), 4),
])
def test_boundary_characters_reproduce_index_cocycles(maker, m):
    mod, seed = maker()
    T = conjugation_perturbation(mod, seed=seed, strength=0.25)
    perturbed = perturb(mod, T)
    fact = math.factorial(m - 1)
    base = boundary_cycle_chern(mod, T, "base").values
    pert = boundary_cycle_chern(mod, T, "perturbed").values
    assert np.abs(fact * base - index_cocycle(mod).values).max() < 1e-9
    assert np.abs(fact * pert - index_cocycle(perturbed).values).max() < 1e-9


def test_boundary_character_of_degenerate_module_is_zero():
    mod = degenerate_module(UT, 3, m=2, seed=56)
    T = np.zeros((mod.n, mod.n))
    assert np.abs(boundary_cycle_chern(mod, T, "base").values).max() == 0.0


def test_cobordism_identity_small_cases():
    mod = random_reflection_module(6, UT, seed=57, m=2)
    T = conjugation_perturbation(mod, seed=58, strength=0.3)
    report = verify_cobordism_identity(PerturbationChain(mod, T))
    assert report["pass"] and report["max_residual"] < 1e-10

    _, mod3 = toy_even_module(3, seed=59, m=3)
    T3 = conjugation_perturbation(mod3, seed=60, strength=0.2)
    assert verify_cobordism_identity(PerturbationChain(mod3, T3))["pass"]


def test_cobordism_identity_m1_both_sides_vanish():
    _, mod = toy_even_module(3, seed=61, m=1)
    T = conjugation_perturbation(mod, seed=62, strength=0.2)
    report = verify_cobordism_identity(PerturbationChain(mod, T))
    assert report["pass"] and report["max_residual"] < 1e-12


def test_cobordism_identity_zero_perturbation():
    mod = random_reflection_module(4, UT, seed=63, m=2)
    report = verify_cobordism_identity(PerturbationChain(mod, np.zeros((4, 4))))
    assert report["pass"]


def test_cobordism_identity_m4_middle_components():
    mod = random_reflection_module(6, UT, seed=68, m=4)
    T = conjugation_perturbation(mod, seed=69, strength=0.2)
    report = verify_cobordism_identity(PerturbationChain(mod, T))
    assert report["pass"] and report["max_residual"] < 1e-10


def test_cobordism_identity_budget_names_the_limit():
    mod = random_reflection_module(6, UT, seed=66, m=6)
    T = conjugation_perturbation(mod, seed=67, strength=0.1)
    with pytest.raises(BudgetError, match="dim 4, m 6"):
        verify_cobordism_identity(PerturbationChain(mod, T))


# -- the witness --------------------------------------------------------------

def test_witness_empty_at_m1_and_cocycles_agree():
    _, mod = toy_even_module(4, seed=64, m=1)
    T = conjugation_perturbation(mod, seed=65, strength=0.4)
    assert witness_cochain(mod, T) is None
    report = verify_perturbation_invariance(mod, T, tol=1e-9)
    assert report["pass"] and report["witness_degrees"] == []


@pytest.mark.parametrize("m,seed", [(2, 70), (3, 71), (4, 72), (5, 73)])
def test_witness_identity(m, seed):
    if m % 2:
        _, mod = toy_even_module(3, seed=seed, m=m)
    else:
        mod = random_reflection_module(6, UT, seed=seed, m=m)
    T = conjugation_perturbation(mod, seed=seed + 100, strength=0.25)
    report = verify_perturbation_invariance(mod, T, tol=1e-8)
    assert report["pass"]
    assert report["reduced"]
    assert report["max_residual"] < 1e-10
    psi = report["witness"]
    assert [c.ndim - 1 for c in psi.components] == list(range(m - 2, -1, -2))


def test_witness_for_non_conjugation_perturbations():
    # any second symmetry with the same grading data is a valid perturbation
    # target; these T are large and not of the form uFu* - F
    rng = np.random.default_rng(90)
    mod = random_reflection_module(6, UT, seed=91, m=2)
    q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0][:, :3]
    G = 2.0 * q @ q.conj().T - np.eye(6)
    G = (G + G.conj().T) / 2.0
    T = G - mod.F
    assert np.linalg.norm(T) > 1.0
    result = verify_perturbation_invariance(mod, T, tol=1e-8)
    assert result["pass"] and result["reduced"]

    from cycfred.models import haar_unitary

    _, mod3 = toy_even_module(3, seed=92, m=3, algebra=UT)
    V2 = haar_unitary(3, rng)
    G3 = np.zeros((6, 6), dtype=complex)
    G3[:3, 3:] = V2
    G3[3:, :3] = V2.conj().T
    T3 = G3 - mod3.F
    result3 = verify_perturbation_invariance(mod3, T3, tol=1e-8)
    assert result3["pass"] and result3["reduced"]


def test_witness_reducedness_is_exact():
    mod = random_reflection_module(6, UT, seed=74, m=4)
    T = conjugation_perturbation(mod, seed=75, strength=0.3)
    psi = witness_cochain(mod, T)
    assert is_reduced(psi, tol=0.0)


def test_corrupted_witness_is_detected():
    mod = random_reflection_module(6, UT, seed=76, m=2)
    T = conjugation_perturbation(mod, seed=77, strength=0.3)
    psi = witness_cochain(mod, T)
    # flip the component sign and re-run the residual check
    flipped = TotalCochain(psi.algebra, tuple(-c for c in psi.components))
    tau_f = index_cocycle(mod)
    tau_g = index_cocycle(perturb(mod, T))
    target = Cochain(psi.algebra, (tau_g.values - tau_f.values) / math.factorial(mod.m - 1))
    assert coboundary_residual(flipped, target)[0] > 1e-3


def test_witness_after_summability_relaxation():
    # an m-summable perturbation is also (m+2)-summable; the witness for the
    # relaxed module certifies the same pair two degrees up
    from cycfred.fredholm import relax_summability

    mod = random_reflection_module(6, UT, seed=85, m=2)
    T = conjugation_perturbation(mod, seed=86, strength=0.25)
    relaxed = relax_summability(mod)
    result = verify_perturbation_invariance(relaxed, T, tol=1e-8)
    assert result["pass"] and result["m"] == 4
    assert result["witness_degrees"] == [2, 0]


def test_zero_perturbation_gives_zero_witness():
    mod = random_reflection_module(6, UT, seed=78, m=2)
    T = np.zeros((mod.n, mod.n))
    psi = witness_cochain(mod, T)
    assert psi.max_abs() == 0.0
    report = verify_perturbation_invariance(mod, T)
    assert report["pass"] and report["max_residual"] == 0.0


def test_chern_character_total_layout(chain3):
    ch = chern_character(chain3)
    assert ch.top_degree == chain3.m
    assert np.abs(ch.component(chain3.m)).max() == 0.0


def test_run_verification_suite_passes():
    mod = random_reflection_module(6, UT, seed=79, m=2)
    T = conjugation_perturbation(mod, seed=80, strength=0.2)
    report = run_verification_suite(mod, T, seed=81)
    assert report["pass"]
    for key in ("complex_identities", "index_cocycle", "involution_identity",
                "boundary_character", "top_component", "witness"):
        assert report[key]["pass"], key


def test_run_verification_suite_memory_stays_small_at_hardy_16():
    # b(b phi) at degree 2 over dim 17 has 17^5 entries (22 MiB); the suite
    # holds one row of it at a time
    _, mod = discrete_hardy(16)
    T = conjugation_perturbation(mod, seed=3, strength=0.2)
    tracemalloc.start()
    try:
        report = run_verification_suite(mod, T, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"] and report["complex_identities"]["degree"] == 2
    assert peak < 12 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_witness_residual_memory_stays_small_at_pointwise_7_m6():
    # tau has 8^6 entries (4 MiB) and (b + B) psi a top component of the same
    # size; the residual holds one row of it and no total-cochain temporaries
    mod = random_reflection_module(4, pointwise_algebra(7), seed=0, m=6)
    T = conjugation_perturbation(mod, seed=1, strength=0.2)
    tracemalloc.start()
    try:
        report = verify_perturbation_invariance(mod, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"] and report["worst_tuple"] is not None
    assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
