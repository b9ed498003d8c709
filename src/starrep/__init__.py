"""Finite-dimensional *-algebras: cyclic representations and their kernels.

The package connects three equivalent pictures of the same object (a
positive functional on a *-algebra, the reproducing operator of a
*-invariant Hilbert subspace of the dual, and a cyclic *-representation)
and implements the cone calculus on all of them: sums, scaling, order,
differences, exclusion, chains, weighted sums, and pullback.
"""

from .algebra import (
    FiniteStarAlgebra,
    build_group_algebra,
    build_matrix_algebra,
    direct_sum_algebra,
    validate_algebra,
)
from .correspondence import (
    StarHomomorphism,
    cone_morphism_audit,
    functional_to_kernel,
    is_star_invariant,
    kernel_to_functional,
    kernel_to_rep,
    pullback,
    rep_to_kernel,
    validate_star_homomorphism,
)
from .duality import (
    dual_regular_action,
    evaluate,
    gram_matrix,
    hilbert_bound,
    is_positive,
)
from .gns import (
    BlockData,
    Decomposition,
    DecompositionComponent,
    GNSRepresentation,
    block_data,
    commutant,
    decompose,
    gns_construct,
    intertwiner,
    is_extremal,
    is_irreducible,
    representations_equivalent,
    verify_star_rep,
)
from .kernels import (
    Kernel,
    SubspaceElement,
    chain_limit,
    kernel_difference,
    kernel_leq,
    kernel_scale,
    kernel_sum,
    make_kernel,
    membership,
    min_dominating_scale,
    mutually_excluding,
    ordinary_subrep_check,
    weighted_kernel_sum,
)
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    hermitian_eigen,
    hermitian_eigvals,
    pseudo_inverse,
    psd_check,
)

__version__ = "0.1.0"
