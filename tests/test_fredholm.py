import numpy as np
import pytest

from cycfred.algebra import pointwise_algebra, upper_triangular_algebra
from cycfred.cyclic import is_reduced, total_coboundary, total_from_top
from cycfred.errors import InputError
from cycfred.fredholm import (
    FredholmModule,
    direct_sum,
    embedded_as_module,
    index_cocycle,
    inverse,
    involution_defect,
    is_degenerate,
    perturb,
    relax_summability,
    rep_tilde_basis,
    schatten_norm,
    schatten_report,
    unitary_conjugate,
    universal_embed,
    validate_module,
)
from cycfred.models import (
    conjugation_perturbation,
    degenerate_module,
    discrete_hardy,
    discrete_hardy_graded,
    haar_unitary,
    random_reflection_module,
    toy_even_module,
)

UT = upper_triangular_algebra()


def test_schatten_norm_monotone_in_p():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert schatten_norm(a, 1) >= schatten_norm(a, 2) >= schatten_norm(a, 4)
    v = np.zeros((3, 3))
    v[0, 1] = 2.0
    assert abs(schatten_norm(v, 3) - 2.0) < 1e-12


def test_hardy_module_validates():
    _, mod = discrete_hardy(8)
    report = validate_module(mod)
    assert report["pass"]
    assert report["max_violation"] < 1e-12
    assert report["eigenspaces_nonzero"]
    assert "nonzero" in report["warning"]


def test_non_involutive_symmetry_fails_validation():
    _, mod = discrete_hardy(8)
    broken = FredholmModule(mod.algebra, mod.rep, 0.5 * mod.F, mod.m)
    report = validate_module(broken)
    assert not report["pass"]
    assert report["checks"]["F_involutive"] > 0.1


def test_commuting_grading_fails_validation():
    _, mod = toy_even_module(3, seed=0, m=3)
    broken = FredholmModule(mod.algebra, mod.rep, mod.F, mod.m, gamma=np.eye(mod.n, dtype=complex))
    report = validate_module(broken)
    assert not report["pass"]
    assert report["checks"]["gamma_F_anticommute"] > 0.1


def test_grading_presence_is_tied_to_parity():
    _, mod = toy_even_module(3, seed=0, m=3)
    with pytest.raises(InputError):
        FredholmModule(mod.algebra, mod.rep, mod.F, 2, gamma=mod.gamma)
    with pytest.raises(InputError):
        FredholmModule(mod.algebra, mod.rep, mod.F, 3, gamma=None)


def test_degenerate_module_has_zero_cocycle():
    mod = degenerate_module(UT, 4, m=2, seed=1)
    assert is_degenerate(mod)
    assert np.abs(index_cocycle(mod).values).max() == 0.0
    graded = degenerate_module(UT, 4, m=3, seed=1)
    assert is_degenerate(graded)
    assert np.abs(index_cocycle(graded).values).max() == 0.0


def test_hardy_is_not_degenerate():
    _, mod = discrete_hardy(8)
    comm = mod.F @ mod.rep[0] - mod.rep[0] @ mod.F
    assert np.linalg.norm(comm) > 0.1
    assert not is_degenerate(mod)


def test_scalar_representation_gives_zero_cocycle_at_m1():
    # rep through multiples of the identity commutes with F
    alg = pointwise_algebra(1)
    n = 4
    rep = np.zeros((1, n, n), dtype=complex)
    rep[0] = np.eye(n)
    gamma = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    rng = np.random.default_rng(5)
    v = haar_unitary(2, rng)
    F = np.zeros((n, n), dtype=complex)
    F[:2, 2:] = v
    F[2:, :2] = v.conj().T
    mod = FredholmModule(alg, rep, F, 1, gamma)
    assert np.abs(index_cocycle(mod).values).max() < 1e-12


@pytest.mark.parametrize("make", [
    lambda: discrete_hardy(8)[1],
    lambda: toy_even_module(4, seed=2, m=3)[1],
    lambda: random_reflection_module(6, UT, seed=3, m=2),
    lambda: discrete_hardy_graded(4, seed=1)[1],
])
def test_index_cocycle_is_a_cocycle(make):
    mod = make()
    resid = total_coboundary(total_from_top(index_cocycle(mod))).max_abs()
    assert resid < 1e-9


def test_connes_B_kills_index_cocycles():
    # both insertion slots of B0 see the adjoined unit, which F commutes with
    from cycfred.cyclic import connes_B

    mod = random_reflection_module(6, UT, seed=33, m=2)
    assert np.abs(connes_B(index_cocycle(mod)).values).max() < 1e-12
    _, hardy = discrete_hardy(16)
    assert np.abs(connes_B(index_cocycle(hardy)).values).max() < 1e-12


def test_index_cocycles_are_reduced_for_valid_modules():
    # [F, rep(unit)] = 0 for m >= 2, and Tr(gamma) = 0 is forced by the
    # anticommutation with an invertible symmetry for m = 1
    for mod in (discrete_hardy_graded(4, seed=0)[1],
                toy_even_module(3, seed=1, m=3)[1],
                random_reflection_module(6, UT, seed=1, m=2)):
        assert is_reduced(total_from_top(index_cocycle(mod)), tol=1e-10)


def test_direct_sum_additivity_and_dims():
    mod1 = random_reflection_module(6, UT, seed=4, m=2)
    mod2 = random_reflection_module(4, UT, seed=5, m=2)
    total = direct_sum(mod1, mod2)
    assert total.n == mod1.n + mod2.n
    tau = index_cocycle(total).values
    expected = index_cocycle(mod1).values + index_cocycle(mod2).values
    assert np.abs(tau - expected).max() < 1e-10


def test_direct_sum_with_degenerate_keeps_cocycle():
    mod = random_reflection_module(6, UT, seed=6, m=2)
    deg = degenerate_module(UT, 3, m=2, seed=7)
    summed = direct_sum(mod, deg)
    assert np.abs(index_cocycle(summed).values - index_cocycle(mod).values).max() < 1e-10


def test_direct_sum_mismatched_degree_raises():
    mod1 = random_reflection_module(6, UT, seed=4, m=2)
    mod2 = random_reflection_module(6, UT, seed=4, m=4)
    with pytest.raises(InputError):
        direct_sum(mod1, mod2)


@pytest.mark.parametrize("make", [
    lambda: random_reflection_module(6, UT, seed=8, m=2),
    lambda: toy_even_module(4, seed=9, m=3)[1],
])
def test_inverse_negates_cocycle(make):
    mod = make()
    inv = inverse(mod)
    assert validate_module(inv)["pass"]
    assert np.abs(index_cocycle(inv).values + index_cocycle(mod).values).max() < 1e-10
    double = inverse(inv)
    assert np.abs(index_cocycle(double).values - index_cocycle(mod).values).max() < 1e-10


def test_perturb_accepts_conjugation_and_checks_identity():
    mod = random_reflection_module(6, UT, seed=10, m=2)
    T = conjugation_perturbation(mod, seed=11, strength=0.3)
    assert involution_defect(mod.F, T) < 1e-12
    pert = perturb(mod, T)
    assert validate_module(pert)["pass"]
    same = perturb(mod, np.zeros_like(mod.F))
    assert np.abs(same.F - mod.F).max() == 0.0


def test_perturb_rejects_non_involution():
    mod = random_reflection_module(6, UT, seed=12, m=2)
    with pytest.raises(InputError, match="involutive"):
        perturb(mod, 0.1 * np.eye(mod.n))


def test_a_nan_residual_never_passes(monkeypatch):
    from cycfred import fredholm

    mod = random_reflection_module(6, UT, seed=12, m=2)
    bad_rep = mod.rep.copy()
    bad_rep[1, 0, 0] = np.nan
    report = validate_module(FredholmModule(mod.algebra, bad_rep, mod.F, mod.m))
    assert np.isnan(report["checks"]["rep_homomorphism"]) and not report["pass"]
    monkeypatch.setattr(fredholm, "involution_defect", lambda F, T: float("nan"))
    with pytest.raises(InputError, match="FT\\+TF\\+T\\^2"):
        perturb(mod, np.zeros_like(mod.F))


def test_perturb_rejects_grading_violation():
    # a conjugation whose generator mixes the grading blocks changes gamma
    from scipy.linalg import expm

    _, mod = toy_even_module(3, seed=30, m=3)
    rng = np.random.default_rng(31)
    K = haar_unitary(mod.n, rng)
    K = (K + K.conj().T) / 2.0
    u = expm(0.3j * K)
    T = u @ mod.F @ u.conj().T - mod.F
    with pytest.raises(InputError, match="anticommute|involutive"):
        perturb(mod, T)


def test_m1_perturbations_leave_cocycle_unchanged():
    _, mod = discrete_hardy_graded(4, seed=3)
    T = conjugation_perturbation(mod, seed=4, strength=0.4)
    pert = perturb(mod, T)
    diff = np.abs(index_cocycle(pert).values - index_cocycle(mod).values).max()
    assert diff < 1e-9


def test_unitary_conjugation_invariance():
    mod = random_reflection_module(6, UT, seed=13, m=2)
    rng = np.random.default_rng(14)
    u = haar_unitary(mod.n, rng)
    conj = unitary_conjugate(mod, u)
    assert validate_module(conj)["pass"]
    assert np.abs(index_cocycle(conj).values - index_cocycle(mod).values).max() < 1e-10
    ident = unitary_conjugate(mod, np.eye(mod.n))
    assert np.abs(ident.F - mod.F).max() == 0.0
    with pytest.raises(InputError):
        unitary_conjugate(mod, 2.0 * np.eye(mod.n))


def test_summability_relaxation():
    mod = random_reflection_module(6, UT, seed=15, m=2)
    relaxed = relax_summability(mod)
    assert relaxed.m == 4
    assert validate_module(relaxed)["pass"]
    assert total_coboundary(total_from_top(index_cocycle(relaxed))).max_abs() < 1e-9


def test_rep_tilde_sends_unit_to_identity():
    mod = random_reflection_module(4, UT, seed=16, m=2)
    assert np.abs(rep_tilde_basis(mod)[-1] - np.eye(mod.n)).max() == 0.0


def test_universal_embed_ungraded():
    mod = random_reflection_module(6, UT, seed=17, m=2)
    embedded, report = universal_embed(mod)
    assert embedded.plus_dim + embedded.minus_dim == mod.n
    assert np.abs(embedded.F_model @ embedded.F_model - np.eye(mod.n)).max() < 1e-12
    assert all(v >= 0 for v in report.combined_norms)
    as_mod = embedded_as_module(mod, embedded)
    assert validate_module(as_mod)["pass"]
    assert report == schatten_report(as_mod)
    assert np.abs(index_cocycle(as_mod).values - index_cocycle(mod).values).max() < 1e-10


def test_universal_embed_on_already_split_symmetry_is_a_reshuffle():
    mod = degenerate_module(UT, 3, m=2, seed=18)   # F already diag(1, -1)
    embedded, _ = universal_embed(mod)
    assert np.abs(np.abs(embedded.basis) - np.eye(mod.n)).max() < 1e-12


def test_universal_embed_graded():
    _, mod = toy_even_module(4, seed=19, m=3)
    embedded, report = universal_embed(mod)
    swap = embedded.F_model
    assert np.abs(swap[:4, 4:] - np.eye(4)).max() == 0.0
    as_mod = embedded_as_module(mod, embedded)
    assert validate_module(as_mod)["pass"]
    assert report == schatten_report(as_mod)
    assert np.abs(index_cocycle(as_mod).values - index_cocycle(mod).values).max() < 1e-9
    assert report.m == 3


def test_universal_embed_needs_both_eigenspaces():
    alg = pointwise_algebra(1)
    rep = np.zeros((1, 3, 3), dtype=complex)
    mod = FredholmModule(alg, rep, np.eye(3, dtype=complex), 2)
    with pytest.raises(InputError, match="eigenspace"):
        universal_embed(mod)


def test_stable_perturbation_certificate():
    from cycfred.fredholm import check_stable_perturbation_certificate

    f1 = random_reflection_module(4, UT, seed=50, m=2)
    g = random_reflection_module(2, UT, seed=51, m=2)
    d = degenerate_module(UT, 2, m=2, seed=52)       # hilbert dim 4
    h = random_reflection_module(2, UT, seed=53, m=2)
    f2 = direct_sum(f1, d)
    tg = conjugation_perturbation(g, seed=54, strength=0.2)
    g2 = perturb(g, tg)

    # left layout [f1 g g~ d h] -> right layout [f1 d g g~ h]
    sizes_left = [f1.n, g.n, g.n, d.n, h.n]
    order = [0, 3, 1, 2, 4]
    starts = np.concatenate([[0], np.cumsum(sizes_left)])
    total = int(starts[-1])
    u = np.zeros((total, total))
    row = 0
    for block in order:
        for k in range(sizes_left[block]):
            u[row, starts[block] + k] = 1.0
            row += 1

    # the perturbation moves g to g2 inside both summand slots
    T = np.zeros((total, total), dtype=complex)
    off = f1.n + d.n
    T[off:off + g.n, off:off + g.n] = tg
    T[off + g.n:off + 2 * g.n, off + g.n:off + 2 * g.n] = -tg

    report = check_stable_perturbation_certificate(
        f1, f2, u, T, g1=g, g2=g2, h=h, d1=d)
    assert report["pass"], report
    assert report["d1_degenerate"]
    assert report["padding_cancellation"] < 1e-9

    broken = check_stable_perturbation_certificate(
        f1, f2, np.eye(total), T, g1=g, g2=g2, h=h, d1=d)
    assert not broken["pass"]


def test_schatten_report_attached_to_validation():
    mod = random_reflection_module(6, UT, seed=20, m=2)
    report = validate_module(mod)
    sch = report["schatten"]
    assert len(sch.commutator_norms) == mod.algebra.dim
    assert all(c >= 0 for c in sch.commutator_norms)
    assert all(abs(c + o - b) < 1e-12 for c, o, b in
               zip(sch.commutator_norms, sch.operator_norms, sch.combined_norms))
