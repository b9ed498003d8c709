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

from .algebra import FiniteStarAlgebra, _real_if_real
from .duality import functional_to_kernel, gram_matrix, is_positive
from .errors import (
    DimMismatch,
    InvalidRepresentation,
    NonFiniteScalar,
    NotPositive,
    NotStarInvariant,
    PullbackInvarianceFailure,
    ShapeMismatch,
)
from .gns import GNSRepresentation, _represent, verify_star_rep
from .kernels import Kernel, _check_scale, kernel_leq, make_kernel
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    _overflow_checked,
    index_blocks,
    relative_gap,
    within_tol,
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
        mult_dev = np.maximum(
            mult_dev, np.max(np.abs(prod_src.reshape(prod_tgt.shape) - prod_tgt))
        )

    star_src = m @ a1.involution.T  # column i = image of e_i^*
    star_tgt = a2.involution.T @ np.conj(m)
    star_dev = float(np.max(np.abs(star_src - star_tgt)))

    unit_dev = float(np.max(np.abs(m @ a1.unit - a2.unit)))

    return ValidationReport(
        violations={
            "multiplicativity": float(mult_dev),
            "star_compatibility": star_dev,
            "unit": unit_dev,
        },
        tolerance=pol.match_tol,
    )


def _dual_action(algebra: FiniteStarAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The stacks pi(e_i) and L_{e_i}^T, each laid out flat as (n * n, n).

    pi(e_i) = L_{e_i^*}^H is the dual regular action, and L_{e_i}^T is the
    slice c[i] of the structure constants.  Both depend on the algebra
    alone, so they are built on the first invariance test and kept on the
    algebra (``FiniteStarAlgebra.derived``).  Group algebras and matrix
    units give real stacks, 2 n^3 reals (4 MB at n = 64); in a complex
    basis pi is complex and the L^T stack is the structure constants
    themselves.
    """
    if "dual action" not in algebra.derived:
        n = algebra.dim
        c = _real_if_real(algebra.structure_constants).reshape(n, n * n)
        # pi(e_i)[a, b] = sum_j conj(S[i, j] c[j, a, b]), as L_{e_j}^T = c[j]
        pi = _real_if_real(algebra.involution) @ c
        np.conjugate(pi, out=pi)
        algebra.derived["dual action"] = (
            _real_if_real(pi).reshape(n * n, n),
            c.reshape(n * n, n),
        )
    return algebra.derived["dual action"]


def _stack_times(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """stack @ m for a C-contiguous complex m; a real stack multiplies m's (re, im) pairs."""
    return (stack @ (m if np.iscomplexobj(stack) else m.view(float))).view(complex)


def _invariance_residual(algebra: FiniteStarAlgebra, matrix: np.ndarray) -> float:
    """max over i of |pi(e_i) H - H L_{e_i}|, a block of i at a time.

    pi(e_i), the dual regular action, is the adjoint of L_{e_i^*}.  Each
    block is two flat matmuls on the kept stacks (``_dual_action``):
    pi(e_i) H and (H L_{e_i})^T = L_{e_i}^T H^T.  A real stack multiplies
    the real and imaginary parts of H as one real matmul, half the work of
    the complex product.
    """
    n = algebra.dim
    pi, left_t = _dual_action(algebra)
    h = np.ascontiguousarray(matrix, dtype=complex)
    h_t = np.ascontiguousarray(h.T)
    residual = 0.0
    for blk in index_blocks(n, n * n):
        rows = slice(blk.start * n, blk.stop * n)
        lhs = _stack_times(pi[rows], h).reshape(-1, n, n)
        rhs_t = _stack_times(left_t[rows], h_t).reshape(-1, n, n)
        lhs -= rhs_t.transpose(0, 2, 1)
        residual = np.maximum(residual, np.max(np.abs(lhs)))
    return float(residual)


def _invariant(
    algebra: FiniteStarAlgebra, matrix: np.ndarray, pol: TolerancePolicy
) -> tuple[bool, float]:
    """The entrywise rule on the module identity, and its residual.

    Both products pi(e_i) H and H L_{e_i} pair entries of H with structure
    constants, so the residual is measured against max|H| * max|c|, read
    off the operands rather than the products; max|c| is kept on the
    algebra (``FiniteStarAlgebra.derived``).
    """
    residual = _invariance_residual(algebra, matrix)
    if "max|c|" not in algebra.derived:
        algebra.derived["max|c|"] = float(np.abs(algebra.structure_constants).max())
    size = float(np.abs(matrix).max()) * algebra.derived["max|c|"]
    return bool(within_tol(residual, size, pol)), residual


def is_star_invariant(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether the dual regular action restricts to the kernel's subspace.

    Tested as the module identity pi(e_i) H = H L_{e_i} on every basis
    element; by linearity this settles all of the algebra.  The residual is
    measured by the entrywise rule (``within_tol``) against max|H| times
    the largest structure constant, so a kernel and its positive multiples
    get the same verdict.
    """
    if kernel.dim != algebra.dim:
        raise DimMismatch(f"kernel dim {kernel.dim} vs algebra dim {algebra.dim}")
    return _invariant(algebra, kernel.matrix, pol)[0]


def kernel_to_functional(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Functional r_j = <e | H e_j> recovered from an invariant kernel."""
    if not is_star_invariant(algebra, kernel, pol):
        raise NotStarInvariant("kernel is not invariant under the dual action")
    return np.conj(algebra.unit) @ kernel.matrix


def kernel_to_rep(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> GNSRepresentation:
    """The cyclic *-representation carried by an invariant kernel's subspace.

    Read off the kernel's kept spectrum (``gns._represent``), so its dimension
    is the rank the kernel was made with; on rho's kernel it is gns_construct(rho).
    """
    return _represent(algebra, kernel_to_functional(algebra, kernel, pol), kernel)


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
            f"representation fails verification: {dict(report.violations)}"
        )
    t = rep.orbit_matrix()
    return make_kernel(t.conj().T @ t, pol)


def pullback(
    hom: StarHomomorphism, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """Transport of an invariant kernel along a *-homomorphism.

    The pulled-back operator is ``alpha^dagger H alpha``; invariance on the
    source algebra is re-verified numerically (a failure indicates the map
    was not a valid *-homomorphism).  NonFiniteScalar is raised when the
    product overflows.
    """
    if kernel.dim != hom.target.dim:
        raise DimMismatch(
            f"kernel dim {kernel.dim} vs homomorphism target dim {hom.target.dim}"
        )
    if not is_star_invariant(hom.target, kernel, pol):
        raise NotStarInvariant("input kernel is not invariant on the target algebra")
    overflow = "the pulled-back kernel overflows"
    pulled = _overflow_checked(lambda: hom.matrix.conj().T @ kernel.matrix @ hom.matrix, overflow)
    if not np.isfinite(pulled).all():  # BLAS threads may overflow unseen by numpy
        raise NonFiniteScalar(overflow)
    invariant, residual = _invariant(hom.source, pulled, pol)
    if not invariant:
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
    kernels, likewise for scaling by lam, each relative to the larger of
    the two matrices compared (``relative_gap``), and whether the two order
    relations agree: rho1 <= rho2 as functionals (rho2 - rho1 positive) and
    k1 <= k2 as kernels (k2 - k1 PSD).  NonFiniteScalar is raised when
    rho1 + rho2, lam rho1 or rho2 - rho1, or the matching sum or multiple
    of Gram matrices, overflows.
    """
    r1 = np.asarray(rho1, dtype=complex)
    r2 = np.asarray(rho2, dtype=complex)
    _check_scale(lam)
    try:
        k1 = functional_to_kernel(algebra, r1, pol)
        k2 = functional_to_kernel(algebra, r2, pol)
    except NotPositive:
        raise NotPositive("cone_morphism_audit requires positive functionals") from None

    g1 = gram_matrix(algebra, r1)
    g2 = gram_matrix(algebra, r2)
    sum_dev = relative_gap(*_overflow_checked(
        lambda: (gram_matrix(algebra, r1 + r2), g1 + g2), "the functional sum overflows"))
    scale_dev = relative_gap(*_overflow_checked(
        lambda: (gram_matrix(algebra, lam * r1), lam * g1),
        f"scaling by {lam} overflows the functional"))

    diff = _overflow_checked(lambda: r2 - r1, "the functional difference overflows")
    functional_order, _ = is_positive(algebra, diff, pol)
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
