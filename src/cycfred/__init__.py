"""Dense-matrix toolkit for cyclic cohomology of finite-dimensional algebras
and finitely summable Fredholm modules, centered on the explicit coboundary
certificate that makes the Chern-Connes character invariant under summable
perturbations of the symmetry."""

from .algebra import (
    Algebra,
    matrix_units_algebra,
    multiply,
    pointwise_algebra,
    truncated_polynomial_algebra,
    unitalize,
    upper_triangular_algebra,
    validate_algebra,
    zero_product_algebra,
)
from .cyclic import (
    Chain,
    Cochain,
    TotalCochain,
    chain_boundary,
    connes_B,
    hochschild_b,
    is_reduced,
    pair_cochain_chain,
    periodicity_S,
    restrict_to_scalars,
    total_coboundary,
    total_from_top,
)
from .errors import BudgetError, InputError
from .fredholm import (
    FredholmModule,
    SchattenReport,
    check_stable_perturbation_certificate,
    direct_sum,
    index_cocycle,
    inverse,
    is_degenerate,
    perturb,
    relax_summability,
    schatten_norm,
    unitary_conjugate,
    universal_embed,
    validate_module,
)
from .chern import (
    PerturbationChain,
    boundary_cycle_chern,
    chern_character,
    chern_component_tensor,
    connection_apply,
    curvature_power,
    graded_trace,
    operator_boundary_character,
    run_verification_suite,
    verify_cobordism_identity,
    verify_perturbation_invariance,
    witness_cochain,
)
from .pairing import (
    LatticeValue,
    antisym_cycle,
    c_constant,
    chern_pairing,
    lattice_eq,
    lattice_reduce,
    mult_char_exponentials,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
