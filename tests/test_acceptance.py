"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is split: the symbol-side index oracle (8a) is exact and passes;
the cocycle-side anchor (8b) is implemented as stated and fails, because the
degree-1 index cocycle of any finite-dimensional module over a commutative
algebra vanishes identically (an exact trace identity, see the README), so
the constant pinned from the pairing is zero and cannot reproduce -w.  The
failure message carries the analysis; the convergence table is emitted
either way.
"""

import math
import time

import numpy as np
import pytest

from cycfred import dga
from cycfred.algebra import (
    pointwise_algebra,
    unitalize,
    upper_triangular_algebra,
)
from cycfred.chern import (
    PerturbationChain,
    boundary_cycle_chern,
    chern_component_tensor,
    verify_perturbation_invariance,
)
from cycfred.cyclic import (
    connes_B,
    hochschild_b,
    random_cochain,
    random_total,
    total_coboundary,
    total_from_top,
)
from cycfred.fredholm import (
    direct_sum,
    index_cocycle,
    inverse,
    involution_defect,
    perturb,
    unitary_conjugate,
)
from cycfred.models import (
    conjugation_perturbation,
    degenerate_module,
    discrete_hardy,
    discrete_hardy_graded,
    haar_unitary,
    random_reflection_module,
    sawtooth_log,
    toeplitz_index_oracle,
    toy_even_module,
    winding_symbol,
)
from cycfred.pairing import (
    antisym_cycle,
    c_constant,
    lattice_eq,
    mult_char_exponentials,
)

UT = upper_triangular_algebra()
TWO_PI_I = 2j * np.pi


def report(number, label, passed, detail, elapsed):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {state} ({detail}, {elapsed:.1f} s)")


def test_criterion_01_complex_identities():
    start = time.time()
    algebras = [
        unitalize(pointwise_algebra(1)),
        unitalize(pointwise_algebra(2)),
        unitalize(pointwise_algebra(4)),
        unitalize(UT),
        pointwise_algebra(5),
    ]
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 100:
        alg = algebras[count % len(algebras)]
        degree = 1 + count % 5            # degrees 1..5
        phi = random_cochain(alg, degree, rng)
        worst = max(
            worst,
            float(np.abs(connes_B(connes_B(phi)).values).max()),
            float(np.abs(hochschild_b(connes_B(phi)).values
                         + connes_B(hochschild_b(phi)).values).max()),
        )
        if degree <= 4:
            # b^2 lands two degrees up; degree-5 inputs would leave the
            # tensor budget, so the square is checked through degree 4
            worst = max(worst, float(np.abs(hochschild_b(hochschild_b(phi)).values).max()))
        if count % 7 == 0:
            psi = random_total(alg, min(degree, 4), rng)
            worst = max(worst, total_coboundary(total_coboundary(psi)).max_abs())
        count += 1
    elapsed = time.time() - start
    passed = worst <= 1e-10 and elapsed < 30
    report(1, "complex identities", passed, f"max residual {worst:.2e}", elapsed)
    assert worst <= 1e-10
    assert elapsed < 30


def _model_set():
    yield "hardy(16) m=2", discrete_hardy(16)[1]
    yield "even(4) m=1", toy_even_module(4, seed=41, m=1, algebra=UT)[1]
    yield "even(4) m=3", toy_even_module(4, seed=43, m=3, algebra=UT)[1]
    yield "reflection m=2", random_reflection_module(8, UT, seed=42, m=2)
    yield "reflection m=4", random_reflection_module(8, UT, seed=44, m=4)


def test_criterion_02_cocycle_property():
    start = time.time()
    worst = 0.0
    for label, mod in _model_set():
        resid = total_coboundary(total_from_top(index_cocycle(mod))).max_abs()
        worst = max(worst, resid)
    elapsed = time.time() - start
    passed = worst <= 1e-9 and elapsed < 60
    report(2, "index cocycles close", passed, f"max residual {worst:.2e}", elapsed)
    assert worst <= 1e-9
    assert elapsed < 60


def test_criterion_03_involution_identity():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        if seed % 2:
            mod = random_reflection_module(6 + seed % 3, UT, seed=seed, m=2)
        else:
            _, mod = toy_even_module(3 + seed % 2, seed=seed, m=3)
        T = conjugation_perturbation(mod, seed=1000 + seed, strength=0.05 + 0.004 * seed)
        worst = max(worst, involution_defect(mod.F, T))
    elapsed = time.time() - start
    passed = worst <= 1e-12
    report(3, "perturbation identity", passed, f"max residual {worst:.2e}", elapsed)
    assert worst <= 1e-12


def test_criterion_04_boundary_characters():
    start = time.time()
    worst = 0.0
    for i, (label, mod) in enumerate(_model_set()):
        T = conjugation_perturbation(mod, seed=400 + i, strength=0.2)
        perturbed = perturb(mod, T)
        fact = math.factorial(mod.m - 1)
        base = np.abs(fact * boundary_cycle_chern(mod, T, "base").values
                      - index_cocycle(mod).values).max()
        pert = np.abs(fact * boundary_cycle_chern(mod, T, "perturbed").values
                      - index_cocycle(perturbed).values).max()
        worst = max(worst, float(base), float(pert))
    elapsed = time.time() - start
    passed = worst <= 1e-9
    report(4, "boundary characters match cocycles", passed, f"max residual {worst:.2e}", elapsed)
    assert worst <= 1e-9


def _witness_instance(m, seed):
    # noncommutative coefficients for three quarters of the seeds; the
    # commutative instances are valid (their cocycle difference happens to
    # vanish at finite dimension, the certificate still has to close)
    algebra = pointwise_algebra(3) if seed % 4 == 3 else UT
    if m % 2:
        _, mod = toy_even_module(4, seed=seed, m=m, algebra=algebra)
    else:
        mod = random_reflection_module(8, algebra, seed=seed, m=m)
    T = conjugation_perturbation(mod, seed=7000 + 13 * seed + m, strength=0.1 + 0.01 * (seed % 5))
    return mod, T


def test_criterion_05_main_invariance_theorem():
    start = time.time()
    worst = 0.0
    biggest_move = 0.0
    all_reduced = True
    for m in (1, 2, 3, 4, 5):
        for seed in range(20):
            mod, T = _witness_instance(m, seed)
            assert unitalize(mod.algebra).dim <= 4 and mod.n <= 8
            result = verify_perturbation_invariance(mod, T, tol=1e-8)
            worst = max(worst, result["max_residual"])
            all_reduced = all_reduced and result["reduced"]
            if m >= 2:
                move = np.abs(index_cocycle(perturb(mod, T)).values
                              - index_cocycle(mod).values).max()
                biggest_move = max(biggest_move, float(move))
    elapsed = time.time() - start
    passed = worst <= 1e-8 and all_reduced and elapsed < 600
    report(5, "perturbation invariance witness", passed,
           f"max residual {worst:.2e}, reduced={all_reduced}, "
           f"largest cocycle move {biggest_move:.2e}", elapsed)
    assert worst <= 1e-8
    assert all_reduced            # i*(psi) = 0 exactly
    assert biggest_move > 1e-2    # the certificates are not vacuous
    assert elapsed < 600


def test_criterion_06_top_component_vanishes_exactly():
    start = time.time()
    worst = 0.0
    for m, seed in ((2, 61), (3, 62), (4, 63), (5, 64)):
        mod, T = _witness_instance(m, seed)
        chain = PerturbationChain(mod, T)
        worst = max(worst, float(np.abs(chern_component_tensor(chain, 0).values).max()))
    elapsed = time.time() - start
    passed = worst == 0.0
    report(6, "top character component", passed, f"max |value| {worst:.1e} (exact zero required)",
           elapsed)
    assert worst == 0.0


def test_criterion_07_group_law_shadow():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(7)
    for seed in range(20):
        m = 2 if seed % 2 else 3
        if m == 2:
            mod1 = random_reflection_module(6, UT, seed=seed, m=2)
            mod2 = random_reflection_module(4, UT, seed=100 + seed, m=2)
        else:
            _, mod1 = toy_even_module(3, seed=seed, m=3, algebra=UT)
            _, mod2 = toy_even_module(2, seed=100 + seed, m=3, algebra=UT)
        tau1 = index_cocycle(mod1).values
        tau2 = index_cocycle(mod2).values
        worst = max(worst, float(np.abs(
            index_cocycle(direct_sum(mod1, mod2)).values - tau1 - tau2).max()))
        worst = max(worst, float(np.abs(index_cocycle(inverse(mod1)).values + tau1).max()))
        deg = degenerate_module(UT, 3, m=m, seed=seed)
        worst = max(worst, float(np.abs(index_cocycle(deg).values).max()))
        u = haar_unitary(mod1.n, rng)
        worst = max(worst, float(np.abs(
            index_cocycle(unitary_conjugate(mod1, u)).values - tau1).max()))
    elapsed = time.time() - start
    passed = worst <= 1e-10
    report(7, "group-law shadow", passed, f"max residual {worst:.2e}", elapsed)
    assert worst <= 1e-10


def _anchor_data():
    """Oracle indices and raw degree-1 pairing values for the anchor table."""
    from cycfred.cyclic import pair_cochain_chain

    rows = []
    scale = complex(c_constant(2))
    for N in (16, 32, 64):
        _, mod = discrete_hardy(N)
        tau = index_cocycle(mod)
        ref_log = sawtooth_log(N, 1)
        for w in range(-3, 4):
            u = winding_symbol(N, w, amplitude=0.3, phase=0.4)
            oracle = toeplitz_index_oracle(u)
            chain = antisym_cycle(mod.algebra, [np.log(u), ref_log])
            raw = scale * pair_cochain_chain(tau, chain)
            rows.append((N, w, oracle.index, raw))
    return rows


def _emit_table(rows):
    print("N,winding,oracle_index,pairing_re,pairing_im")
    for N, w, idx, raw in rows:
        print(f"{N},{w},{idx},{raw.real:.6e},{raw.imag:.6e}")


def test_criterion_08a_index_oracle_exact():
    start = time.time()
    rows = _anchor_data()
    _emit_table(rows)
    bad = [(N, w, idx) for (N, w, idx, _) in rows if idx != -w]
    elapsed = time.time() - start
    report("8a", "symbol index oracle", not bad, f"{len(rows)} cases, mismatches {bad}", elapsed)
    assert not bad
    assert elapsed < 60


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the degree-1 index cocycle of a finite-"
        "dimensional module over a commutative algebra vanishes identically "
        "(exact identity tau(x0, x1) = Tr(F [rep x1, rep x0]) for F^2 = 1), "
        "so the constant pinned from the N=64 pairing is 0 and no scaling of "
        "the pairing can reproduce -w; the honest winding anchor is the "
        "symbol-side oracle of 8a"
    ),
)
def test_criterion_08b_pairing_reproduces_winding():
    rows = {(N, w): raw for (N, w, _, raw) in _anchor_data()}
    kappa = rows[(64, 1)] / (-1.0)
    report("8b", "pairing reproduces winding", False,
           f"pinned constant {abs(kappa):.2e} (identically zero cocycle)", 0.0)
    assert abs(kappa) > 1e-10, (
        "the pinned constant is numerically zero: the cocycle-side pairing "
        f"value at N=64, w=1 is {rows[(64, 1)]:.3e}"
    )
    for N, tol in ((64, 1e-6), (16, 1e-3)):
        for w in range(-3, 4):
            assert abs(rows[(N, w)] / kappa - (-w)) <= tol


def test_criterion_09_lattice_well_definedness():
    start = time.time()
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        if seed % 2 == 0:
            N = 6
            _, mod = discrete_hardy_graded(N, seed=seed)
            a = [rng.normal(size=N) + 1j * rng.normal(size=N)]
            chi = rng.integers(0, 2, size=N).astype(float)
            shifted = [a[0] + TWO_PI_I * chi]
        else:
            N = 8
            _, mod = discrete_hardy(N)
            u = winding_symbol(N, 1 + seed % 3, amplitude=0.25, phase=0.3 * seed)
            a = [np.log(u), sawtooth_log(N, 1)]
            chi = rng.integers(0, 2, size=N).astype(float)
            shifted = [a[0] + TWO_PI_I * chi, a[1]]
        v1 = mult_char_exponentials(mod, a, a)
        v2 = mult_char_exponentials(mod, a, shifted)
        if not lattice_eq(v1.representative, v2.representative, mod.m):
            failures.append((seed, v1.representative, v2.representative))
    elapsed = time.time() - start
    report(9, "lattice well-definedness", not failures, f"failures {failures}", elapsed)
    assert not failures


def test_criterion_10_dga_suite():
    start = time.time()
    at = unitalize(UT)
    rng = np.random.default_rng(10)
    mod = random_reflection_module(6, UT, seed=201, m=2)
    T = conjugation_perturbation(mod, seed=202, strength=0.3)
    images = []
    for i in range(at.dim):
        e = np.zeros(at.dim)
        e[i] = 1.0
        images.append(dga.from_vector(at, e))

    worst_exact = 0.0
    worst_pi = 0.0
    worst_hom = 0.0
    for count in range(200):
        word = dga.random_word(at, rng, max_len=4)
        x = dga.element(at, {word: 1.0})
        y = dga.random_dga_element(at, rng, n_words=2, max_len=3)
        worst_exact = max(worst_exact,
                          dga.differential(dga.differential(x)).max_coeff())
        # graded Leibniz, exact in normal form
        for w2, c2 in y.terms.items():
            yy = dga.DGAElement(at, {w2: c2})
            sign = (-1.0) ** dga.word_degree(word)
            lhs = dga.differential(dga.word_multiply(x, yy))
            rhs = dga.word_multiply(dga.differential(x), yy) \
                + dga.word_multiply(x, dga.differential(yy)).scale(sign)
            worst_exact = max(worst_exact, (lhs - rhs).max_coeff())
        # rewrite confluence: 10 random manual orders per word
        raw = tuple((dga.DT,) if rng.integers(0, 3) == 0 else l for l in word)
        engine = dga.element(at, {raw: 1.0})
        for _ in range(10):
            terms = {raw: 1.0}
            while any(l == (dga.DT,) for w in terms for l in w):
                new = {}
                for w, c in terms.items():
                    spots = [i for i, l in enumerate(w) if l == (dga.DT,)]
                    if not spots:
                        new[w] = new.get(w, 0.0) + c
                        continue
                    i = spots[int(rng.integers(0, len(spots)))]
                    w2 = w[:i] + ((dga.T,), (dga.T,)) + w[i + 1:]
                    new[w2] = new.get(w2, 0.0) - c
                terms = new
            worst_exact = max(worst_exact,
                              (dga.element(at, terms) - engine).max_coeff())
        # pi multiplicativity
        lhs = dga.pi_represent(mod, T, dga.word_multiply(x, y))
        rhs = dga.pi_represent(mod, T, x) @ dga.pi_represent(mod, T, y)
        worst_pi = max(worst_pi, float(np.abs(lhs - rhs).max()))
        # universal property: commutes with d
        lhs = dga.induced_hom(images, dga.tau(at), dga.differential(x))
        rhs = dga.differential(dga.induced_hom(images, dga.tau(at), x))
        worst_hom = max(worst_hom, (lhs - rhs).max_coeff())
    elapsed = time.time() - start
    passed = worst_exact <= 1e-10 and worst_pi <= 1e-9 and worst_hom <= 1e-10 and elapsed < 30
    report(10, "universal differential algebra suite", passed,
           f"exact {worst_exact:.1e}, pi {worst_pi:.1e}, hom {worst_hom:.1e}", elapsed)
    assert worst_exact <= 1e-10
    assert worst_pi <= 1e-9
    assert worst_hom <= 1e-10
    assert elapsed < 30
