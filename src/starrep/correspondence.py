"""The bijections functional <-> kernel <-> representation, made executable.

The Gram matrix of a positive functional is itself the reproducing operator
of the attached Hilbert subspace of the dual; with the pairing conventions
of the duality module this makes ``rho = H e``, ``H = T^dagger T`` and the
module identity ``pi(x) H y = H (x y)`` literal matrix statements.  This
module houses the conversions between the three pictures, the invariance
test that characterizes which kernels arise this way, and transport along
*-homomorphisms.

The invariance test reads the bijection backwards.  On a valid *-algebra a
kernel H satisfies the module identity exactly when it is the Gram matrix
of a functional, and that functional can only be the one H reproduces,
r = conj(e) H.  So H is invariant when it matches ``gram_matrix(algebra,
r)`` by the entrywise rule: O(n^3) work, and nothing kept on the algebra.
The precondition holds for every algebra a workspace loads, since loading
validates it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteStarAlgebra, _real_copies, _real_if_real
from .duality import _gram_and_kernel, functional_to_kernel, gram_matrix, is_positive
from .errors import (
    DimMismatch,
    InvalidRepresentation,
    NotPositive,
    NotStarInvariant,
    ShapeMismatch,
)
from .gns import GNSRepresentation, gns_construct, verify_star_rep
from .kernels import Kernel, _built, _check_scale, kernel_leq
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    _complex_array,
    _finite_product,
    _gap_report,
    _hermitian_product,
    _law_report,
    _overflow_checked,
    _worst_gap,
    entrywise_gap,
    index_blocks,
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
        m = _complex_array(self.matrix, "homomorphism matrix")
        if m.shape != (self.target.dim, self.source.dim):
            raise ShapeMismatch(
                f"homomorphism matrix must be {(self.target.dim, self.source.dim)}, "
                f"got {m.shape}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def compose(self, other: "StarHomomorphism") -> "StarHomomorphism":
        """self after other (other.source -> self.target); the middle algebras must be equal."""
        mid, src = other.target, self.source
        if mid is not src and not all(np.array_equal(getattr(mid, f), getattr(src, f))
                                      for f in ("structure_constants", "involution", "unit")):
            raise DimMismatch("homomorphisms are not composable")
        return StarHomomorphism(
            source=other.source, target=self.target, matrix=self.matrix @ other.matrix
        )


def validate_star_homomorphism(
    hom: StarHomomorphism, pol: TolerancePolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Check multiplicativity, *-compatibility, and unitality on basis pairs.

    Each violation is the exact maximum of |lhs - rhs| over all index
    tuples, relative to the larger of max|lhs| and max|rhs|
    (``numerics.entrywise_gap``, ``_gap_report``), so the verdict is the
    same in the basis e and in the basis s e of the source; multiplicativity
    is checked a block of the first index at a time (``index_blocks``), as
    matmuls.  The two algebras' data and the matrix
    are multiplied as real arrays where their imaginary parts are zero
    (``_real_copies``, ``_real_if_real``), so a real map between real
    algebras, such as an embedding of matrix units, is checked in real
    arithmetic.  A violation past the float range raises NonFiniteScalar
    (``_law_report``).
    """
    a1, a2, m = hom.source, hom.target, _real_if_real(hom.matrix)
    n1, n2 = a1.dim, a2.dim
    (c1, s1, e1), (c2, s2, e2) = _real_copies(a1), _real_copies(a2)
    c2_rows = c2.reshape(n2, n2 * n2)  # [a, (b, k)]

    def product_gaps():
        # alpha(e_i e_j) against alpha(e_i) alpha(e_j), both laid out as [i, j, k]
        for blk in index_blocks(n1, n2 * (n1 + n2)):
            rows = blk.stop - blk.start
            prod_src = c1[blk].reshape(rows * n1, n1) @ m.T
            left = (m[:, blk].T @ c2_rows).reshape(rows, n2, n2)  # alpha(e_i) e_b
            prod_tgt = m.T @ left
            yield entrywise_gap(prod_src.reshape(prod_tgt.shape), prod_tgt)

    def violations() -> dict[str, tuple[float, float]]:
        # column i of m s1^T is the image of e_i^*
        return {"multiplicativity": _worst_gap(product_gaps()),
                "star_compatibility": entrywise_gap(m @ s1.T, s2.T @ np.conj(m)),
                "unit": entrywise_gap(m @ e1, e2)}

    message = "the homomorphism's law checks overflow the float range"
    return _law_report(violations, pol, message, m)


def _invariant(
    algebra: FiniteStarAlgebra, matrix: np.ndarray, pol: TolerancePolicy
) -> tuple[bool, float, np.ndarray]:
    """``is_star_invariant``'s verdict on H, its residual max|H - G| and r = conj(e) H.

    G is the Gram matrix of r.  A NaN in H gives a NaN residual, which fails.
    """
    if len(matrix) != algebra.dim:
        raise DimMismatch(f"kernel dim {len(matrix)} vs algebra dim {algebra.dim}")
    r = _finite_product(lambda: np.conj(algebra.unit) @ matrix,
                        "the kernel's functional overflows", algebra.unit, matrix)
    residual, size = entrywise_gap(matrix, gram_matrix(algebra, r))
    return bool(within_tol(residual, size, pol)), residual, r


def is_star_invariant(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether the dual regular action restricts to the kernel's subspace.

    On a valid *-algebra, as a loaded workspace always is, this holds
    exactly when H is the Gram matrix of a functional, and the only
    candidate is the functional H reproduces, r = conj(e) H: an invariant
    H gives H[i, j] = <L_{e_i} e, H e_j> = r(e_i^* e_j), and every Gram
    matrix is invariant.  So H is compared with the Gram matrix of r,
    O(n^3) work, by the entrywise rule (``within_tol``) at the larger of
    the two matrices' largest entries, and a kernel and its positive
    multiples get the same verdict.  NonFiniteScalar is raised when r or
    its Gram matrix overflows.
    """
    return _invariant(algebra, kernel.matrix, pol)[0]


def kernel_to_functional(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Functional r_j = <e | H e_j> recovered from an invariant kernel.

    It is the r that ``is_star_invariant`` compares H with the Gram matrix of.
    """
    invariant, _, r = _invariant(algebra, kernel.matrix, pol)
    if not invariant:
        raise NotStarInvariant("kernel is not invariant under the dual action")
    return r


def kernel_to_rep(
    algebra: FiniteStarAlgebra, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> GNSRepresentation:
    """The cyclic *-representation carried by an invariant kernel's subspace.

    It is ``gns_construct`` of the functional the kernel reproduces
    (``kernel_to_functional``), so on rho's kernel it is gns_construct(rho).
    Its dimension is sum_j k_j r_j, read off the algebra's blocks; near the
    rank cutoff in a badly conditioned basis that can differ from
    ``kernel.rank``, which is cut on the Gram matrix's spectrum.
    """
    return gns_construct(algebra, kernel_to_functional(algebra, kernel, pol), pol)


def rep_to_kernel(
    rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """Reproducing operator recovered from a representation as T^dagger T.

    T is the orbit matrix of the cyclic vector (columns pi(e_j) xi); the
    result coincides with the kernel of the source functional.  The
    representation is checked where it enters (``verify_star_rep``).  T^H T
    is then hermitian and PSD by construction: it is hermitized
    (``_hermitian_product``) and built with no check and no PSD verdict
    (``kernels._built``), so a state ``gns_construct`` accepted gives its
    kernel under any ``psd_tol``.  NonFiniteScalar is raised when it
    overflows.
    """
    report = verify_star_rep(rep, pol)
    if not report.passed:
        raise InvalidRepresentation(
            f"representation fails verification: {dict(report.violations)}"
        )
    t = rep.orbit_matrix()  # finite: a NaN or an infinity fails the report
    return _built(_hermitian_product(lambda: t.conj().T @ t,
                                     "the representation's kernel overflows"), pol)


def pullback(
    hom: StarHomomorphism, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """The kernel of rho o alpha, rho the functional an invariant kernel H reproduces.

    H is checked invariant on the target, which gives r = conj(e) H
    (``is_star_invariant``); the result is the Gram matrix of alpha^T r,
    which on a *-homomorphism is alpha^dagger H alpha, invariant by
    construction.  ``pullback`` trusts alpha to be one, as every loaded
    workspace's is; along another map it raises NotPositive, naming
    ``pullback``, where rho o alpha is not positive.  NonFiniteScalar is
    raised when r, alpha^T r or a Gram matrix overflows.
    """
    if kernel.dim != hom.target.dim:
        raise DimMismatch(
            f"kernel dim {kernel.dim} vs homomorphism target dim {hom.target.dim}"
        )
    invariant, _, r = _invariant(hom.target, kernel.matrix, pol)
    if not invariant:
        raise NotStarInvariant("input kernel is not invariant on the target algebra")
    pulled = _finite_product(lambda: hom.matrix.T @ r, "the pulled-back kernel overflows",
                             hom.matrix, r)
    try:
        return functional_to_kernel(hom.source, pulled, pol)
    except NotPositive:
        raise NotPositive("pullback requires the pulled-back functional to be positive") from None


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
    the two matrices compared (``entrywise_gap``, ``_gap_report``), and whether the two order
    relations agree: rho1 <= rho2 as functionals (rho2 - rho1 positive) and
    k1 <= k2 as kernels (k2 - k1 PSD).  NonFiniteScalar is raised when
    rho1 + rho2, lam rho1 or rho2 - rho1, or the matching sum or multiple
    of Gram matrices, overflows.  Each of the five Gram matrices (of rho1,
    rho2, their sum, lam rho1 and rho2 - rho1) is built once.
    """
    _check_scale(lam)
    r1, r2 = (algebra._check_element(rho, "functional") for rho in (rho1, rho2))
    try:
        g1, k1 = _gram_and_kernel(algebra, r1, pol)
        g2, k2 = _gram_and_kernel(algebra, r2, pol)
    except NotPositive:
        raise NotPositive("cone_morphism_audit requires positive functionals") from None

    sum_gap = entrywise_gap(*_overflow_checked(
        lambda: (gram_matrix(algebra, r1 + r2), g1 + g2), "the functional sum overflows"))
    scale_gap = entrywise_gap(*_overflow_checked(
        lambda: (gram_matrix(algebra, lam * r1), lam * g1),
        f"scaling by {lam} overflows the functional"))

    diff = _overflow_checked(lambda: r2 - r1, "the functional difference overflows")
    functional_order, _ = is_positive(algebra, diff, pol)
    kernel_order = kernel_leq(k1, k2, pol)
    order_dev = 0.0 if functional_order == kernel_order else 1.0

    return _gap_report({"sum": sum_gap, "scale": scale_gap,
                        "order_agreement": (order_dev, 1.0)}, pol)
