"""Reproducing operators for Hilbert subspaces of the dual, and their cone.

A Hilbert subspace of the dual space is represented solely by its
reproducing operator: a hermitian PSD matrix H acting on dual coordinates.
Its elements are the vectors in range(H), carrying the squared norm
``phi^dagger H^+ phi``.  The cone operations (sum, nonnegative scaling,
order, difference, exclusion, chains, weighted sums) all reduce to matrix
arithmetic on the reproducing operators.  Hermiticity is decided once,
where a matrix enters (``make_kernel``'s argument).  A sum, a difference
or a nonnegatively weighted sum of kernels is hermitian by construction,
and so is every matrix an operation builds from them, so each goes to the
solver as it is.  Every kernel, given or made by an operation, gets its
top eigenvalue and rank from one value-only eigensolve (``_eigvalsh``,
then ``psd_rank``).  A PSD verdict is made in two places only: where a
matrix enters (``make_kernel``, which raises NegativeEigenvalue), and
where the order is asked (``_complement``, behind ``kernel_leq``,
``kernel_difference`` and ``ordinary_subrep_check``).  A sum or weighted
sum of kernels is PSD by construction, as the sum of two Hilbert
subspaces has the sum of their kernels as its kernel, so it is built
(``_built``) with no verdict.  A positive multiple scales its kernel's
top eigenvalue and keeps its rank, with no solve.  A verdict (the order,
exclusion, the direct-summand test, the least dominating scale) likewise
reads eigenvalues alone.  Every kernel's eigenvectors are made one way,
by the full canonical eigensolve of its matrix (``hermitian_eigen``) on
their first read, and kept, so each kernel is eigendecomposed at most
once, and only when membership or the least dominating scale reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimMismatch,
    MonotonicityViolation,
    NegativeEigenvalue,
    NegativeScalar,
    NegativeWeight,
    NonFiniteScalar,
    NoConvergence,
    NotDominated,
    NotMajorized,
    ZeroKernel,
)
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _complex_array,
    _eigvalsh,
    _hermitian_product,
    _hermitized,
    _overflow_checked,
    _require_square_hermitian,
    entrywise_gap,
    hermitian_eigen,
    psd_rank,
    within_tol,
)

__all__ = [
    "Kernel",
    "SubspaceElement",
    "make_kernel",
    "membership",
    "kernel_sum",
    "kernel_scale",
    "kernel_leq",
    "kernel_difference",
    "mutually_excluding",
    "min_dominating_scale",
    "ordinary_subrep_check",
    "chain_limit",
    "weighted_kernel_sum",
]

# Growth of an increasing chain's diagonal forms over its first nonzero term
# past which the chain counts as unbounded: the finite surrogate for an
# unbounded family, scale-free like every other verdict.
_MAJORIZATION_GROWTH = 1e12


@dataclass(frozen=True)
class Kernel:
    """Reproducing operator (hermitian PSD) with its top eigenvalue and rank.

    ``matrix`` is hermitian, a fixed point of the hermitization
    (A + A^H) / 2: hermitized where it entered or was built (``make_kernel``,
    T^H T of a representation), or a sum, difference or positive multiple
    of such matrices.  It is PSD: judged so where it entered
    (``make_kernel``) or by the order (a difference, ``_complement``), or
    PSD by construction and given no verdict (a sum, a weighted sum, the
    zero multiple, T^H T).  ``top``, the largest eigenvalue, and ``rank``,
    the count of eigenvalues above the rank cutoff, come from the
    value-only eigensolve the kernel was built with.  ``Kernel(...)``
    trusts its caller for all three.  ``values`` and ``vectors`` are the
    canonical eigendecomposition of ``matrix`` (``hermitian_eigen``:
    descending values, fixed phases and tie order), made on first read and
    kept, so that ``vectors[:, :rank]`` spans the subspace; a reader that
    pairs vectors with values takes both from there.  Every kernel, a
    multiple (``kernel_scale``) too, gets them that one way.  Build kernels
    from outside with ``make_kernel``.  All arrays are read-only.
    """

    matrix: np.ndarray
    top: float
    rank: int

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, vectors)``, made on first read and kept."""
        # the matrix is hermitian already, so any policy takes it
        values, vectors = hermitian_eigen(self.matrix)
        for array in (values, vectors):
            array.setflags(write=False)
        return values, vectors

    @property
    def values(self) -> np.ndarray:
        return self._eigen[0]

    @property
    def vectors(self) -> np.ndarray:
        return self._eigen[1]


@dataclass(frozen=True)
class SubspaceElement:
    """A dual vector known to lie in the subspace, with its squared norm there."""

    vector: np.ndarray
    norm_sq: float


def make_kernel(matrix, pol: TolerancePolicy = DEFAULT_POLICY) -> Kernel:
    """Validate a matrix as a reproducing operator, keeping its rank and top eigenvalue.

    The matrix is checked square and hermitian and hermitized
    (``_require_square_hermitian``), and judged PSD by ``psd_rank`` on the
    one value-only eigensolve that ``_built`` then reads its rank and top
    eigenvalue off: NegativeEigenvalue when it is not PSD.  This is the
    verdict where a matrix enters the cone.  The eigenvectors are left to
    their first read.
    """
    a = _require_square_hermitian(matrix, pol)
    values = _eigvalsh(a)
    if not psd_rank(values, pol)[0]:
        raise NegativeEigenvalue("a reproducing operator must be PSD")
    return _built(a, pol, values)


def _built(a: np.ndarray, pol: TolerancePolicy, values: np.ndarray | None = None) -> Kernel:
    """The kernel of ``a``, hermitian and PSD already, with no verdict.

    Its top eigenvalue and its rank (``psd_rank``, cut at that top) are read
    off ``values``, its descending eigenvalues, which one value-only
    eigensolve of ``a`` (``_eigvalsh``) gives when they are not passed.
    ``a`` is not checked hermitian or PSD: it entered through
    ``make_kernel``, passed the order (``_complement``), or is PSD by
    construction, as a sum or weighted sum of kernels, the zero multiple
    and T^H T of a verified representation are.
    """
    values = _eigvalsh(a) if values is None else values
    return Kernel(a, float(values[0]), psd_rank(values, pol)[1])


def _check_same_dim(k1: Kernel, k2: Kernel) -> None:
    if k1.dim != k2.dim:
        raise DimMismatch(f"kernel dimensions differ: {k1.dim} vs {k2.dim}")


def _complement(k1: Kernel, k2: Kernel, pol: TolerancePolicy) -> Kernel | None:
    """k2 - k1 as a kernel when k1 <= k2, else None: the one reading of the order.

    One value-only eigensolve of k2 - k1 gives the verdict, ``psd_rank`` at
    the larger top eigenvalue of k1 and k2, so kernels and their common
    multiples get the same verdict; and ``_built`` reads the complement's
    rank and top eigenvalue off the same values.  NonFiniteScalar is raised
    when an entry of k2 - k1 overflows.
    """
    _check_same_dim(k1, k2)
    a = _overflow_checked(lambda: k2.matrix - k1.matrix, "the kernel difference overflows")
    values = _eigvalsh(a)
    return _built(a, pol, values) if psd_rank(values, pol, max(k1.top, k2.top, 0.0))[0] else None


def membership(
    kernel: Kernel, phi, pol: TolerancePolicy = DEFAULT_POLICY
) -> SubspaceElement | None:
    """Test whether phi lies in the subspace; if so return it with its norm.

    Membership is decided by the residual of phi against its projection onto
    range(H), read off the kernel's eigendecomposition: phi is rejected when
    the residual exceeds ``rel_rank_tol * |phi|``, a bound that scales with
    phi, or is NaN.
    The squared norm of a member is ``phi^dagger H^+ phi``.  ShapeMismatch
    when phi is not an array of numbers, DimMismatch when its shape is not
    (dim,).
    """
    v = _complex_array(phi, "vector")
    if v.shape != (kernel.dim,):
        raise DimMismatch(f"vector has shape {v.shape}, kernel dim {kernel.dim}")
    basis = kernel.vectors[:, : kernel.rank]
    coords = basis.conj().T @ v
    residual = float(np.linalg.norm(v - basis @ coords))
    if not residual <= pol.rel_rank_tol * float(np.linalg.norm(v)):  # NaN fails too
        return None
    norm_sq = float(np.sum(np.abs(coords) ** 2 / kernel.values[: kernel.rank])) if kernel.rank else 0.0
    return SubspaceElement(vector=v, norm_sq=norm_sq)


def kernel_sum(k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY) -> Kernel:
    """Subspace sum; elements carry the infimum norm over all splittings.

    The sum of two kernels is PSD by construction, so it is built with no
    verdict (``_built``).  NonFiniteScalar is raised when the summed entries
    overflow.
    """
    _check_same_dim(k1, k2)
    summed = _overflow_checked(lambda: k1.matrix + k2.matrix, "the kernel sum overflows")
    return _built(summed, pol)


def _check_scale(lam: float) -> None:
    """NegativeScalar for a negative scale factor, then NonFiniteScalar for NaN or inf."""
    if lam < 0:
        raise NegativeScalar(f"scale factor must be nonnegative, got {lam}")
    if not math.isfinite(lam):
        raise NonFiniteScalar(f"scale factor must be finite, got {lam}")


def kernel_scale(lam: float, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY) -> Kernel:
    """Scale by a nonnegative real; member norms scale by 1/lam, 0 gives {0}.

    A positive finite lam scales the top eigenvalue and keeps the rank,
    with no eigensolve; the result's eigenvectors are made on their first
    read, as any kernel's are.  lam = 0 gives the zero kernel, built with
    no verdict (``_built``).  NonFiniteScalar is raised when the scaled
    entries or top eigenvalue overflow.
    """
    _check_scale(lam)
    if lam == 0:  # 0 H carries signed zeros, so it is hermitized, as make_kernel would
        zero = lam * kernel.matrix
        return _built(_hermitized(zero, zero.conj().T, 0.0), pol)
    matrix, top = _overflow_checked(lambda: (lam * kernel.matrix, lam * np.float64(kernel.top)),
                                    f"scaling by {lam} overflows the kernel")
    return Kernel(matrix, float(top), kernel.rank)


def kernel_leq(k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Order relation: k2 - k1 is PSD at the larger top eigenvalue (``_complement``)."""
    return _complement(k1, k2, pol) is not None


def kernel_difference(
    kernel: Kernel, k1: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """The unique complement with k1 + result = kernel; requires k1 <= kernel.

    One value-only eigensolve of kernel - k1 (``_complement``) decides the
    order and gives the result's rank and top eigenvalue.
    """
    result = _complement(k1, kernel, pol)
    if result is None:
        raise NotDominated("subtrahend is not below the kernel")
    return result


def mutually_excluding(
    k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Trivial intersection of the two subspaces, i.e. their sum is direct.

    At finite dimension this is exactly additivity of ranks under the sum:
    the rank of ``kernel_sum``, which makes no PSD verdict and raises
    NonFiniteScalar when the summed entries overflow.
    """
    return k1.rank + k2.rank == kernel_sum(k1, k2, pol).rank


def min_dominating_scale(
    k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> float | None:
    """Least lam with k1 <= lam * k2, or None when no scaling works.

    Finite domination is possible exactly when range(H1) sits inside
    range(H2); the optimum is the top eigenvalue of the compression of H1 by
    the inverse square root of H2 on its range, hermitian by construction:
    it is hermitized (``_hermitian_product``) and solved with no check.
    NonFiniteScalar is raised when the compression overflows.
    """
    _check_same_dim(k1, k2)
    if k1.rank == 0:
        raise ZeroKernel("the zero kernel is dominated by every scaling")
    if k2.rank == 0:
        return None

    basis2 = k2.vectors[:, : k2.rank]
    basis1 = k1.vectors[:, : k1.rank]

    overflow = basis1 - basis2 @ (basis2.conj().T @ basis1)
    residuals = np.linalg.norm(overflow, axis=0)
    if not np.all(residuals < pol.rel_rank_tol * 2.0):  # NaN fails too
        return None

    inv_sqrt = basis2 * (1.0 / np.sqrt(k2.values[: k2.rank]))[None, :]  # (n, r2)
    compressed = _hermitian_product(lambda: inv_sqrt.conj().T @ k1.matrix @ inv_sqrt,
                                    "the compression overflows")  # of finite kernels
    return float(_eigvalsh(compressed)[0])


def ordinary_subrep_check(
    k1: Kernel, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether k1 sits inside kernel as a direct summand.

    True exactly when k1 <= kernel and k1 excludes the complement
    kernel - k1: since k1 + (kernel - k1) is kernel, whose rank is cached,
    rank additivity certifies the direct-sum splitting.  One eigensolve of
    kernel - k1 (``_complement``, values alone) gives both the order and
    the complement's rank.
    """
    complement = _complement(k1, kernel, pol)
    return complement is not None and k1.rank + complement.rank == kernel.rank


def chain_limit(
    generator: Callable[[int], Kernel],
    direction: str,
    pol: TolerancePolicy = DEFAULT_POLICY,
    max_steps: int = 50,
) -> Kernel:
    """Limit of a monotone kernel chain produced by ``generator(step)``.

    Monotonicity is checked between consecutive terms by ``kernel_leq``,
    whose rule is relative to the terms.  Increasing chains are monitored
    through their diagonal quadratic forms: growth by more than a factor
    1e12 over the first nonzero term means the chain has no upper bound
    and NotMajorized is raised.  Convergence is the entrywise rule
    (``within_tol``) on consecutive terms, measured against the largest
    entry the chain has reached.  Both are relative, so a chain and its
    positive multiples get the same verdict at the same step; exhausting
    max_steps while still moving raises NoConvergence.  A bad direction or
    a max_steps below 2, too few terms to compare, raises ValueError.
    """
    if direction not in ("decreasing", "increasing"):
        raise ValueError(f"direction must be 'decreasing' or 'increasing', got {direction!r}")
    if max_steps < 2:
        raise ValueError(f"max_steps must be at least 2, got {max_steps}")
    first = 0.0  # the diagonal form of the first nonzero term

    def check_bound(k: Kernel, step: int) -> None:
        nonlocal first
        if direction == "increasing":
            top = float(np.max(np.diag(k.matrix).real))
            first = first or max(top, 0.0)
            if top > _MAJORIZATION_GROWTH * first:
                raise NotMajorized(
                    f"diagonal form reached {top:.3e} at step {step}; chain unbounded"
                )

    prev = generator(0)
    check_bound(prev, 0)
    # The largest entry so far: the first term of a decreasing chain, the
    # newest of an increasing one.  A decreasing chain may tend to zero, so
    # the newest term alone is no scale for it.
    size = float(np.max(np.abs(prev.matrix)))
    for step in range(1, max_steps):
        cur = generator(step)
        if cur.dim != prev.dim:
            raise DimMismatch(f"chain changed dimension at step {step}")
        ordered = (
            kernel_leq(cur, prev, pol)
            if direction == "decreasing"
            else kernel_leq(prev, cur, pol)
        )
        if not ordered:
            raise MonotonicityViolation(f"chain not {direction} at step {step}")
        check_bound(cur, step)
        moved, reached = entrywise_gap(cur.matrix, prev.matrix)
        size = max(size, reached)
        if within_tol(moved, size, pol):
            return cur
        prev = cur
    raise NoConvergence(f"chain still moving after {max_steps} steps")


def weighted_kernel_sum(
    terms: list[tuple[float, Kernel]], pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[Kernel, bool]:
    """Nonnegatively weighted sum of kernels, with a direct-sum certificate.

    The sum is direct exactly when the ranks of the (positively weighted)
    terms add up to the rank of the sum.  With quadrature weights this is
    the finite realization of integrating a kernel-valued map.  The sum is
    PSD by construction and built with no verdict (``_built``).
    """
    if not terms:
        raise ValueError("weighted_kernel_sum needs at least one term")
    dim = terms[0][1].dim
    for weight, kernel in terms:
        if weight < 0:
            raise NegativeWeight(f"weights must be nonnegative, got {weight}")
        if not math.isfinite(weight):
            raise NonFiniteScalar(f"weights must be finite, got {weight}")
        if kernel.dim != dim:
            raise DimMismatch("kernels in a weighted sum must share a dimension")
    total = _overflow_checked(
        lambda: sum((weight * kernel.matrix for weight, kernel in terms),
                    np.zeros((dim, dim), dtype=complex)),
        "the weighted sum overflows",
    )
    combined = _built(total, pol)
    return combined, sum(kernel.rank for weight, kernel in terms if weight > 0) == combined.rank
