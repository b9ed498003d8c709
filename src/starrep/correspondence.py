"""The bijections functional <-> kernel <-> representation, made executable.

The Gram matrix of a positive functional is itself the reproducing operator
of the attached Hilbert subspace of the dual; with the pairing conventions
of the duality module this makes ``rho = H e``, ``H = T^dagger T`` and the
module identity ``pi(x) H y = H (x y)`` literal matrix statements.  This
module houses the conversions between the three pictures, the invariance
test that characterizes which kernels arise this way, and transport along
*-homomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteStarAlgebra
from .duality import gram_matrix, hermitian_gram, is_positive
from .errors import (
    DimMismatch,
    InvalidRepresentation,
    NegativeScalar,
    NotPositive,
    NotStarInvariant,
    PullbackInvarianceFailure,
    ShapeMismatch,
)
from .gns import GNSRepresentation, gns_construct, verify_star_rep
from .kernels import Kernel, kernel_leq, make_kernel
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    index_blocks,
    psd_check,
)

__all__ = [
    "StarHomomorphism",
    "validate_star_homomorphism",
    "functional_to_kernel",
    "kernel_to_functional",
    "is_star_invariant",
    "kernel_to_rep",
    "rep_to_kernel",
    "pullback",
    "cone_morphism_audit",
]


@dataclass(frozen=True)
class StarHomomorphism:
    """A unital multiplicative *-preserving linear map between two algebras."""

    source: FiniteStarAlgebra
    target: FiniteStarAlgebra
    matrix: np.ndarray  # (target.dim, source.dim)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.target.dim, self.source.dim):
            raise ShapeMismatch(
                f"homomorphism matrix must be {(self.target.dim, self.source.dim)}, "
                f"got {m.shape}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def compose(self, other: "StarHomomorphism") -> "StarHomomorphism":
        """self after other (other.source -> self.target)."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise DimMismatch("homomorphisms are not composable")
        return StarHomomorphism(
            source=other.source, target=self.target, matrix=self.matrix @ other.matrix
        )


def validate_star_homomorphism(
    hom: StarHomomorphism, pol: TolerancePolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Check multiplicativity, *-compatibility, and unitality on basis pairs.

    Each violation is the exact maximum over all index tuples;
    multiplicativity is checked a block of the first index at a time
    (``index_blocks``), as matmuls.
    """
    a1, a2, m = hom.source, hom.target, hom.matrix
    n1, n2 = a1.dim, a2.dim
    c2_rows = a2.structure_constants.reshape(n2, n2 * n2)  # [a, (b, k)]
    # alpha(e_i e_j) against alpha(e_i) alpha(e_j), both laid out as [i, j, k]
    mult_dev = 0.0
    for blk in index_blocks(n1, n2 * (n1 + n2)):
        rows = blk.stop - blk.start
        prod_src = a1.structure_constants[blk].reshape(rows * n1, n1) @ m.T
        left = (m[:, blk].T @ c2_rows).reshape(rows, n2, n2)  # alpha(e_i) e_b
        prod_tgt = m.T @ left
        mult_dev = max(
            mult_dev, float(np.max(np.abs(prod_src.reshape(prod_tgt.shape) - prod_tgt)))
        )

    star_src = m @ a1.involution.T  # column i = image of e_i^*
    star_tgt = a2.involution.T @ np.conj(m)
    star_dev = float(np.max(np.abs(star_src - star_tgt)))

    unit_dev = float(np.max(np.abs(m @ a1.unit - a2.unit)))

    return ValidationReport(
        violations={
            "multiplicativity": mult_dev,
            "star_compatibility": star_dev,
            "unit": unit_dev,
        },
        tolerance=pol.match_tol,
    )


def functional_to_kernel(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """Reproducing operator of the subspace attached to a positive functional.

    This is the Gram matrix itself, read as an operator on dual coordinates;
    it satisfies the orientation identity rho(x) = <e | H x>.  One
    eigensolve of the Gram matrix decides positivity and gives the rank.
    """
    g = hermitian_gram(algebra, functional, pol)
    positive, rank = psd_check(g, pol) if g is not None else (False, 0)
    if not positive:
        raise NotPositive("functional_to_kernel requires a positive functional")
    return Kernel(matrix=(g + g.conj().T) / 2.0, rank=rank)


def _invariance_residual(algebra: FiniteStarAlgebra, matrix: np.ndarray) -> float:
    """max over i of |pi(e_i) H - H L_{e_i}|, a block of i at a time.

    pi(e_i), the dual regular action, is the adjoint of L_{e_i^*}.
    """
    n = algebra.dim
    left_mults = algebra.basis_left_mult()
    flat = left_mults.reshape(n, n * n)
    residual = 0.0
    for blk in index_blocks(n, n * n):
        star_mults = (algebra.involution[blk] @ flat).reshape(-1, n, n)
        lhs = np.conj(star_mults.transpose(0, 2, 1)) @ matrix
        rhs = matrix @ left_mults[blk]
        residual = max(residual, float(np.max(np.abs(lhs - rhs))))
    return residual


def is_star_invariant(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether the dual regular action restricts to the kernel's subspace.

    Tested as the module identity pi(e_i) H = H L_{e_i} on every basis
    element; by linearity this settles all of the algebra.
    """
    if kernel.dim != algebra.dim:
        raise DimMismatch(f"kernel dim {kernel.dim} vs algebra dim {algebra.dim}")
    return _invariance_residual(algebra, kernel.matrix) < pol.match_tol


def kernel_to_functional(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Functional r_j = <e | H e_j> recovered from an invariant kernel."""
    if kernel.dim != algebra.dim:
        raise DimMismatch(f"kernel dim {kernel.dim} vs algebra dim {algebra.dim}")
    if not is_star_invariant(algebra, kernel, pol):
        raise NotStarInvariant("kernel is not invariant under the dual action")
    return np.conj(algebra.unit) @ kernel.matrix


def kernel_to_rep(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> GNSRepresentation:
    """The cyclic *-representation carried by an invariant kernel's subspace."""
    return gns_construct(algebra, kernel_to_functional(algebra, kernel, pol), pol)


def rep_to_kernel(
    rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """Reproducing operator recovered from a representation as T^dagger T.

    T is the orbit matrix of the cyclic vector (columns pi(e_j) xi); the
    result coincides with the kernel of the source functional.
    """
    report = verify_star_rep(rep, pol)
    if not report.passed:
        raise InvalidRepresentation(
            f"representation fails verification: {report.violations}"
        )
    t = rep.orbit_matrix()
    return make_kernel(t.conj().T @ t, pol)


def pullback(
    hom: StarHomomorphism, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """Transport of an invariant kernel along a *-homomorphism.

    The pulled-back operator is ``alpha^dagger H alpha``; invariance on the
    source algebra is re-verified numerically (a failure indicates the map
    was not a valid *-homomorphism).
    """
    if kernel.dim != hom.target.dim:
        raise DimMismatch(
            f"kernel dim {kernel.dim} vs homomorphism target dim {hom.target.dim}"
        )
    if not is_star_invariant(hom.target, kernel, pol):
        raise NotStarInvariant("input kernel is not invariant on the target algebra")
    pulled = hom.matrix.conj().T @ kernel.matrix @ hom.matrix
    residual = _invariance_residual(hom.source, pulled)
    if residual > 10.0 * pol.match_tol:
        raise PullbackInvarianceFailure(
            f"pulled-back kernel fails invariance by {residual:.3e}"
        )
    return make_kernel(pulled, pol)


def cone_morphism_audit(
    algebra: FiniteStarAlgebra,
    rho1,
    rho2,
    lam: float,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> ValidationReport:
    """Audit that functional -> kernel respects sums, scaling, and order.

    Reports the deviation of the kernel of rho1 + rho2 from the sum of
    kernels, likewise for scaling by lam, and whether the two order
    relations agree: rho1 <= rho2 as functionals (rho2 - rho1 positive) and
    k1 <= k2 as kernels (k2 - k1 PSD).
    """
    r1 = np.asarray(rho1, dtype=complex)
    r2 = np.asarray(rho2, dtype=complex)
    if lam < 0:
        raise NegativeScalar(f"scale factor must be nonnegative, got {lam}")
    try:
        k1 = functional_to_kernel(algebra, r1, pol)
        k2 = functional_to_kernel(algebra, r2, pol)
    except NotPositive:
        raise NotPositive("cone_morphism_audit requires positive functionals") from None

    g1 = gram_matrix(algebra, r1)
    g2 = gram_matrix(algebra, r2)
    sum_dev = float(np.max(np.abs(gram_matrix(algebra, r1 + r2) - (g1 + g2))))
    scale_dev = float(np.max(np.abs(gram_matrix(algebra, lam * r1) - lam * g1)))

    functional_order, _ = is_positive(algebra, r2 - r1, pol)
    kernel_order = kernel_leq(k1, k2, pol)
    order_dev = 0.0 if functional_order == kernel_order else 1.0

    return ValidationReport(
        violations={
            "sum": sum_dev,
            "scale": scale_dev,
            "order_agreement": order_dev,
        },
        tolerance=pol.match_tol,
    )
