"""Dense complex linear algebra primitives with a shared rank/tolerance policy.

Every module in the package funnels its spectral work through the
primitives here (``hermitian_eigen``, ``hermitian_eigvals``,
``pseudo_inverse``, ``psd_check`` and the PSD/rank rule ``psd_rank``) so
that rank decisions and eigenbasis conventions are made exactly once.  The
eigensolver is LAPACK's.  ``hermitian_eigen`` calls ``np.linalg.eigh`` and
fixes the order, phases and tie order of its output, so results are
deterministic for a given numpy build, across runs and BLAS thread counts.
Within a tied eigenspace the basis is the solver's.  Ties are common (the
Gram matrix of a state on M_m is I_m (x) D^T), so the columns of all tie
clusters are ordered together, in one stable sort.

The package decides with two tolerance rules, each written once here.  The
spectral rule is ``psd_rank``: eigenvalues are measured against the top
eigenvalue or a scale the caller gives.  The entrywise rule is
``within_tol``: a residual between arrays that should agree is measured
against ``match_tol`` times the size it scales with, and ``entrywise_gap``
gives both numbers for two arrays without overflow.  Neither has an
absolute floor, so a functional and its positive multiples get the same
verdict.

``hermitian_eigvals`` calls ``np.linalg.eigvalsh`` and returns the values
alone, descending.  It serves every decision that reads eigenvalues only:
``psd_check`` (positivity, and the cyclicity of a representation), the
kernel order, rank additivity, the least dominating scale and
extremality.  Its values can differ from ``hermitian_eigen``'s in the last
bits, so a verdict read from it can differ from one read from the full
spectrum only for an eigenvalue within a few ulps of its cutoff.  Both
solvers validate alike and raise ``NonFiniteScalar`` when an eigenvalue of
a finite matrix lies beyond the float range.

Overflow is decided once too.  ``_overflow_checked`` runs a computation
under numpy's overflow flag and turns the first overflow into
``NonFiniteScalar``; the sums, multiples and products of kernels and
functionals in the other modules go through it.  ``_hermitized`` is the
one hermitization, (A + A^H) / 2, taken of halves above 2**1022, where
the sum could overflow.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    NegativeEigenvalue,
    NoConvergence,
    NonFiniteScalar,
    NonSquare,
    NotHermitian,
)

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "ValidationReport",
    "is_hermitian",
    "hermitian_eigen",
    "hermitian_eigvals",
    "pseudo_inverse",
    "psd_check",
    "psd_rank",
    "within_tol",
    "entrywise_gap",
    "relative_gap",
    "index_blocks",
]

# Entries per temporary of one block of a law check (256 KiB of complex
# numbers).
_BLOCK_ENTRIES = 1 << 14

# Eigenvalues closer than this (relative) are treated as a tie and their
# eigenvectors ordered lexicographically for reproducibility.
_TIE_REL_TOL = 1e-12
_KEY_DECIMALS = 9


@dataclass(frozen=True)
class TolerancePolicy:
    """Bundle of the three tolerances used throughout the package.

    rel_rank_tol
        Eigenvalues at or below ``rel_rank_tol * size`` count as zero, with
        ``size`` the largest positive eigenvalue or a scale the caller gives
        (``psd_rank``).
    psd_tol
        Eigenvalues at or above ``-psd_tol * size`` still count as
        nonnegative, with the same ``size``.  The kernel order k1 <= k2
        measures the least eigenvalue of k2 - k1 against ``psd_tol`` times
        the larger top eigenvalue of k1 and k2.  No floor is absolute, so a
        matrix and its positive multiples get the same verdict.
    match_tol
        The entrywise rule (``within_tol``): a residual between arrays that
        should agree passes when it is at most ``match_tol * size``, with
        ``size`` the magnitude it scales with (for two arrays, the larger
        of their largest entries, ``entrywise_gap``).  Hermiticity, the
        *-invariance of a kernel, the equality of functionals and the
        convergence of a chain are decided so.  The law checks of an
        algebra, a representation and a homomorphism compare their
        violations with ``match_tol`` directly (``ValidationReport``):
        their inputs do not scale with a functional.
    """

    rel_rank_tol: float = 1e-9
    psd_tol: float = 1e-9
    match_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rel_rank_tol", "psd_tol", "match_tol"):
            if not getattr(self, name) >= 0:  # NaN too
                raise ValueError(f"{name} must be nonnegative")


DEFAULT_POLICY = TolerancePolicy()


@dataclass(frozen=True)
class ValidationReport:
    """Named maximum violations of a family of laws, plus a pass threshold.

    ``violations`` is a read-only mapping, so a report can be kept and
    shared (``gns.verify_star_rep`` keeps one per representation).  A NaN
    violation, a law whose check produced no number, counts as the worst
    and fails the report.
    """

    violations: Mapping[str, float]
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", MappingProxyType(dict(self.violations)))

    @property
    def max_violation(self) -> float:
        values = self.violations.values()
        # max drops a NaN that is not listed first; the sum keeps it
        return math.nan if math.isnan(sum(values)) else max(values, default=0.0)

    @property
    def worst(self) -> str:
        """The name of the largest violation, a NaN one first."""
        v = self.violations
        return max(v, key=lambda law: (math.isnan(v[law]), v[law]))

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tolerance

    def as_dict(self) -> dict:
        return {
            "violations": {k: float(v) for k, v in self.violations.items()},
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


def within_tol(residual, size, pol: TolerancePolicy = DEFAULT_POLICY):
    """The package's entrywise rule: ``residual <= match_tol * size``.

    ``size`` is the magnitude the residual scales with, so a residual and
    its operands scaled together get the same verdict.  A NaN or infinite
    residual fails, even against an infinite size.  Elementwise on arrays.
    """
    return (residual <= pol.match_tol * size) & (residual < math.inf)


def entrywise_gap(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """``(max|a - b|, size)`` for two arrays that should agree, size the larger max|entry|.

    Above 2**1022 the difference is taken of halves, where ``a - b`` could
    overflow and the halves cannot (inf past the float range); below, the
    bits are those of ``a - b``.  A NaN entry gives a NaN residual, which
    fails the rule.
    """
    size = float(max(np.abs(a).max(), np.abs(b).max()))
    return _gap(a, b, size), size


def _gap(a: np.ndarray, b: np.ndarray, size: float) -> float:
    """``entrywise_gap``'s residual, given its size.

    A caller that knows the size passes it, so max|entry| is not read
    twice: for a matrix and its adjoint it is max|A| alone.
    """
    if size <= 2.0**1022:
        return float(np.abs(a - b).max())
    with np.errstate(invalid="ignore"):  # inf - inf reads NaN
        return 2.0 * float(np.abs(a / 2.0 - b / 2.0).max())


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """``entrywise_gap``'s residual over its size, 0 when both arrays are 0.

    The form of the entrywise rule a ``ValidationReport`` holds.  A zero
    array against a nonzero one reads 1.
    """
    residual, size = entrywise_gap(got, want)
    return residual / size if size else 0.0


def is_hermitian(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """The package's one hermiticity rule: A against A^H by ``within_tol``.

    The size is max|A|, which is max|A^H| too.
    """
    size = float(np.abs(a).max())
    return bool(within_tol(_gap(a, a.conj().T, size), size, pol))


def _require_square_hermitian(m, pol: TolerancePolicy) -> np.ndarray:
    """m as a nonempty square complex matrix, hermitized; hermitian by ``is_hermitian``'s rule.

    Finite entries give a finite size, so the entries are checked one by
    one only when it is not (an entry's modulus can pass the float range).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a nonempty square matrix, got shape {a.shape}")
    ah = a.conj().T
    size = float(np.abs(a).max())  # max|A^H| too
    asym = _gap(a, ah, size)
    if not math.isfinite(size) and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not within_tol(asym, size, pol):
        raise NotHermitian(
            f"asymmetry {asym:.3e} exceeds match_tol {pol.match_tol:.1e} times the largest entry"
        )
    return _hermitized(a, ah, size)


def _hermitized(a: np.ndarray, ah: np.ndarray, size: float) -> np.ndarray:
    """(A + A^H) / 2 from A, its adjoint ``ah`` and ``size`` = max|A|.

    Above 2**1022 the halves are added, where a + ah could overflow and the
    halves cannot; below, the bits are those of (a + ah) / 2.0.
    """
    if size > 2.0**1022:
        return a / 2.0 + ah / 2.0
    herm = a + ah
    herm /= 2.0  # in place: the bits of (a + ah) / 2.0 without a second array
    return herm


def _overflow_checked(compute: Callable, message: str):
    """``compute()``, or NonFiniteScalar(message) when a numpy operation in it overflows.

    numpy raises inside the ufunc that overflows (``np.errstate(over="raise")``),
    so no result is scanned for infinities.  numpy does not see the flags of
    a BLAS product whose threads overflow: such a product is checked with
    ``np.isfinite`` as well.
    """
    with np.errstate(over="raise"):
        try:
            return compute()
        except FloatingPointError:
            raise NonFiniteScalar(message) from None


def index_blocks(n: int, entries_per_index: int) -> list[slice]:
    """Consecutive slices covering range(n), for work done a block at a time.

    A block holds as many indices as fit in _BLOCK_ENTRIES entries at
    ``entries_per_index`` each, and at least one, so that a temporary of
    ``len(block) * entries_per_index`` entries stays bounded whatever n is.
    """
    step = max(1, _BLOCK_ENTRIES // max(1, entries_per_index))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _canonical_columns(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix descending order, column phases, and tie ordering deterministically."""
    # eigh's values ascend.  Reversed, equal values come in the opposite order
    # to a stable descending sort, but they share a tie cluster, whose order
    # below depends on its columns alone.
    values = values[::-1].copy()
    vectors = np.asfortranarray(vectors[:, ::-1])
    n = values.size

    # Each column times the phase that makes its largest-magnitude entry real
    # positive.  np.hypot is the scalar abs(z) bit for bit, np.abs on an
    # array is not.  A column of an orthonormal matrix is never zero.
    z = vectors[np.abs(vectors).argmax(axis=0), np.arange(n)]
    vectors *= z.conj() / np.hypot(z.real, z.imag)

    # Tie clusters are the runs of neighbours at most tie_tol apart.  Within
    # one the eigenbasis is not canonical; order its columns by (descending)
    # lexicographic comparison of their rounded coordinates.  Above 2**1022
    # the gaps are taken of halves, which cannot overflow; below, halving is
    # skipped to keep the bits.
    spread = max(values[0], -values[-1])
    half = 0.5 if spread > 2.0**1022 else 1.0
    tied = half * values[:-1] - half * values[1:] <= _TIE_REL_TOL * half * spread
    if not tied.any():
        return values, vectors
    # One stable lexsort over the clustered columns alone orders every
    # cluster at once.  lexsort takes its primary key last: the cluster
    # index, then the real and imaginary part of each rounded coordinate,
    # first coordinate first, negated to sort descending.  So the rows are
    # laid out last coordinate first, imaginary before real.
    tied_back = np.append(False, tied)  # column k tied to column k - 1
    cols = np.flatnonzero(tied_back | np.append(tied, False))
    block = np.round(vectors[::-1, cols], _KEY_DECIMALS)
    keys = np.empty((2 * n + 1, cols.size))
    pairs = keys[:-1].reshape(n, 2, -1)
    np.negative(block.imag, out=pairs[:, 0])
    np.negative(block.real, out=pairs[:, 1])
    np.cumsum(~tied_back[cols], out=keys[-1])  # a cluster starts where a tie does not
    perm = cols[np.lexsort(keys)]
    values[cols] = values[perm]
    vectors[:, cols] = vectors[:, perm]
    return values, vectors


def _require_finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NonFiniteScalar("an eigenvalue lies beyond the float range")
    return values


class _Eigensystem(tuple):
    """``(values, vectors)``; ``matrix`` is the hermitized matrix they diagonalize."""


def hermitian_eigen(
    m, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix by LAPACK (``np.linalg.eigh``).

    Returns ``(values, vectors)`` with real eigenvalues in descending order
    and orthonormal eigenvector columns.  Column phases are normalized
    (largest-magnitude entry real positive) and tied eigenvalues are ordered
    by their eigenvectors' rounded coordinates, so repeated calls are
    bit-identical for a given numpy build.  The pair also carries, as
    ``.matrix``, the hermitized (A + A^H) / 2 that was diagonalized.
    """
    a = _require_square_hermitian(m, pol)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    result = _Eigensystem(_canonical_columns(_require_finite(values), vectors))
    result.matrix = a
    return result


def hermitian_eigvals(m, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Eigenvalues of a hermitian matrix in descending order, by ``np.linalg.eigvalsh``.

    Validated as ``hermitian_eigen`` validates, but with no eigenvectors,
    and so no phase or tie rule: for the decisions that read values alone.
    """
    a = _require_square_hermitian(m, pol)
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigvalsh did not converge: {exc}") from exc
    return _require_finite(values)[::-1]


def psd_rank(
    values: np.ndarray,
    pol: TolerancePolicy = DEFAULT_POLICY,
    scale: float | None = None,
) -> tuple[bool, int]:
    """The PSD verdict and the numerical rank read off descending eigenvalues.

    Both decisions are relative to one ``size``: ``scale`` when given,
    else the largest positive eigenvalue (0 when there is none).  The
    matrix is PSD when its least eigenvalue is at least ``-psd_tol * size``,
    and ``rank`` counts the eigenvalues above ``rel_rank_tol * size``, so
    they are ``values[:rank]``.  Uniformly scaled matrices therefore get the
    same verdict and rank.  A caller that knows the size of the data the
    matrix was built from passes that as ``scale``, so that a matrix made of
    roundoff alone has rank 0.
    """
    size = max(float(values[0]), 0.0) if scale is None else scale
    is_psd = float(values[-1]) >= -pol.psd_tol * size
    rank = int(np.count_nonzero(values > pol.rel_rank_tol * size))
    return is_psd, rank


def psd_check(m, pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[bool, int]:
    """Decide positive semidefiniteness and the numerical rank of ``m``.

    The rule is ``psd_rank``'s, applied to the eigenvalues of ``m``
    (``hermitian_eigvals``).
    """
    return psd_rank(hermitian_eigvals(m, pol), pol)


def pseudo_inverse(m, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Moore-Penrose inverse of a hermitian PSD matrix under the rank policy."""
    values, vectors = hermitian_eigen(m, pol)
    is_psd, rank = psd_rank(values, pol)
    if not is_psd:
        raise NegativeEigenvalue(
            f"eigenvalue {values[-1]:.3e} below -psd_tol*lambda_max"
        )
    inv = np.zeros_like(values)
    inv[:rank] = 1.0 / values[:rank]
    return (vectors * inv) @ vectors.conj().T
