"""Reproducing operators for Hilbert subspaces of the dual, and their cone.

A Hilbert subspace of the dual space is represented solely by its
reproducing operator: a hermitian PSD matrix H acting on dual coordinates.
Its elements are the vectors in range(H), carrying the squared norm
``phi^dagger H^+ phi``.  The cone operations (sum, nonnegative scaling,
order, difference, exclusion, chains, weighted sums) all reduce to matrix
arithmetic on the reproducing operators.  Each kernel carries the spectrum
its constructor computed, and the operations read their operands' spectra
instead of recomputing them: an operation eigensolves only the matrices it
makes.  A result kernel (a sum, a difference) gets the full canonical
eigensolve (``hermitian_eigen``); a verdict (the order, exclusion, the
direct-summand test, the least dominating scale) reads eigenvalues alone
(``hermitian_eigvals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _overflow_checked,
    entrywise_gap,
    hermitian_eigen,
    hermitian_eigvals,
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
    """Reproducing operator (hermitian PSD) with its spectrum and rank cached.

    ``values`` and ``vectors`` are the canonical eigendecomposition of
    ``matrix`` (``hermitian_eigen``: descending values, fixed phases and tie
    order), and ``rank`` counts the values above the rank cutoff, so that
    ``vectors[:, :rank]`` spans the subspace.  Build kernels with
    ``make_kernel``; the cone operations derive their results' spectra from
    their own eigensolves.  All three arrays are read-only.
    """

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        for array in (self.matrix, self.values, self.vectors):
            array.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SubspaceElement:
    """A dual vector known to lie in the subspace, with its squared norm there."""

    vector: np.ndarray
    norm_sq: float


def make_kernel(matrix, pol: TolerancePolicy = DEFAULT_POLICY) -> Kernel:
    """Validate a matrix as a reproducing operator and cache its spectrum.

    One eigensolve gives the hermitized matrix the kernel keeps, the PSD
    verdict (``psd_rank``), the rank and the spectrum the cone operations
    read.
    """
    eigen = hermitian_eigen(matrix, pol)
    values, vectors = eigen
    is_psd, rank = psd_rank(values, pol)
    if not is_psd:
        raise NegativeEigenvalue("a reproducing operator must be PSD")
    return Kernel(eigen.matrix, values, vectors, rank)


def _check_same_dim(k1: Kernel, k2: Kernel) -> None:
    if k1.dim != k2.dim:
        raise DimMismatch(f"kernel dimensions differ: {k1.dim} vs {k2.dim}")


def _sum(k1: Kernel, k2: Kernel) -> np.ndarray:
    """k1 + k2 as a matrix; NonFiniteScalar when an entry overflows."""
    _check_same_dim(k1, k2)
    return _overflow_checked(lambda: k1.matrix + k2.matrix, "the kernel sum overflows")


def _difference(k1: Kernel, k2: Kernel) -> np.ndarray:
    """k2 - k1 as a matrix; NonFiniteScalar when an entry overflows."""
    _check_same_dim(k1, k2)
    return _overflow_checked(lambda: k2.matrix - k1.matrix, "the kernel difference overflows")


def _top(k1: Kernel, k2: Kernel) -> float:
    """The larger top eigenvalue of two kernels, the size their order is measured against.

    k1 <= k2 is ``psd_rank``'s PSD verdict on k2 - k1 at this scale, so
    kernels and their common multiples get the same verdict.
    """
    return max(float(k1.values[0]), float(k2.values[0]), 0.0)


def membership(
    kernel: Kernel, phi, pol: TolerancePolicy = DEFAULT_POLICY
) -> SubspaceElement | None:
    """Test whether phi lies in the subspace; if so return it with its norm.

    Membership is decided by the residual of phi against its projection onto
    range(H), read off the cached spectrum: phi is rejected when the
    residual exceeds ``rel_rank_tol * |phi|``, a bound that scales with phi.
    The squared norm of a member is ``phi^dagger H^+ phi``.
    """
    v = np.asarray(phi, dtype=complex)
    if v.shape != (kernel.dim,):
        raise DimMismatch(f"vector has shape {v.shape}, kernel dim {kernel.dim}")
    basis = kernel.vectors[:, : kernel.rank]
    coords = basis.conj().T @ v
    residual = float(np.linalg.norm(v - basis @ coords))
    if residual > pol.rel_rank_tol * float(np.linalg.norm(v)):
        return None
    norm_sq = float(np.sum(np.abs(coords) ** 2 / kernel.values[: kernel.rank])) if kernel.rank else 0.0
    return SubspaceElement(vector=v, norm_sq=norm_sq)


def kernel_sum(k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY) -> Kernel:
    """Subspace sum; elements carry the infimum norm over all splittings.

    NonFiniteScalar is raised when the summed entries overflow.
    """
    return make_kernel(_sum(k1, k2), pol)


def _check_scale(lam: float) -> None:
    """NegativeScalar for a negative scale factor, then NonFiniteScalar for NaN or inf."""
    if lam < 0:
        raise NegativeScalar(f"scale factor must be nonnegative, got {lam}")
    if not math.isfinite(lam):
        raise NonFiniteScalar(f"scale factor must be finite, got {lam}")


def kernel_scale(lam: float, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY) -> Kernel:
    """Scale by a nonnegative real; member norms scale by 1/lam, 0 gives {0}.

    A positive finite lam scales the cached eigenvalues and keeps the
    eigenvectors and the rank; NonFiniteScalar is raised when the scaled
    entries overflow.
    """
    _check_scale(lam)
    if lam == 0:  # the zero kernel
        return make_kernel(lam * kernel.matrix, pol)
    matrix, values = _overflow_checked(lambda: (lam * kernel.matrix, lam * kernel.values),
                                       f"scaling by {lam} overflows the kernel")
    return Kernel(matrix, values, kernel.vectors, kernel.rank)


def kernel_leq(k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Order relation: k2 - k1 is PSD by ``psd_rank`` at the scale of ``_top``."""
    return psd_rank(hermitian_eigvals(_difference(k1, k2), pol), pol, _top(k1, k2))[0]


def kernel_difference(
    kernel: Kernel, k1: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """The unique complement with k1 + result = kernel; requires k1 <= kernel.

    One eigensolve of kernel - k1 decides the order and is the result's
    spectrum.
    """
    diff = _difference(k1, kernel)
    values, vectors = hermitian_eigen(diff, pol)
    if not psd_rank(values, pol, _top(k1, kernel))[0]:
        raise NotDominated("subtrahend is not below the kernel")
    return Kernel(diff, values, vectors, psd_rank(values, pol)[1])


def mutually_excluding(
    k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Trivial intersection of the two subspaces, i.e. their sum is direct.

    At finite dimension this is exactly additivity of ranks under the sum,
    read off the eigenvalues of the sum, which must be PSD as
    ``make_kernel`` requires.  NonFiniteScalar is raised when the summed
    entries overflow.
    """
    is_psd, rank = psd_rank(hermitian_eigvals(_sum(k1, k2), pol), pol)
    if not is_psd:
        raise NegativeEigenvalue("a reproducing operator must be PSD")
    return k1.rank + k2.rank == rank


def min_dominating_scale(
    k1: Kernel, k2: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> float | None:
    """Least lam with k1 <= lam * k2, or None when no scaling works.

    Finite domination is possible exactly when range(H1) sits inside
    range(H2); the optimum is the top eigenvalue of the compression of H1 by
    the inverse square root of H2 on its range.
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
    if np.any(residuals >= pol.rel_rank_tol * 2.0):
        return None

    inv_sqrt = basis2 * (1.0 / np.sqrt(k2.values[: k2.rank]))[None, :]  # (n, r2)
    compressed = inv_sqrt.conj().T @ k1.matrix @ inv_sqrt
    return float(hermitian_eigvals(compressed, pol)[0])


def ordinary_subrep_check(
    k1: Kernel, kernel: Kernel, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether k1 sits inside kernel as a direct summand.

    True exactly when k1 <= kernel and k1 excludes the complement
    kernel - k1: since k1 + (kernel - k1) is kernel, whose rank is cached,
    rank additivity certifies the direct-sum splitting.  One eigensolve of
    kernel - k1 (values alone) gives both the order and the complement's
    rank.
    """
    values = hermitian_eigvals(_difference(k1, kernel), pol)
    if not psd_rank(values, pol, _top(k1, kernel))[0]:
        return False
    return k1.rank + psd_rank(values, pol)[1] == kernel.rank


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
    the finite realization of integrating a kernel-valued map.
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
    combined = make_kernel(total, pol)
    return combined, sum(kernel.rank for weight, kernel in terms if weight > 0) == combined.rank
