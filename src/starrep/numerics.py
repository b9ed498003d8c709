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
gives both numbers for two arrays without overflow.  The law checks of an
algebra, a representation and a homomorphism take the same rule: each law
gives ``entrywise_gap`` of the two sides it compares, a blocked check the
larger residual and the larger size over its blocks (``_worst_gap``), and
``_gap_report`` reads each residual over its size (``_relative``), so a
``ValidationReport`` holds relative violations.  Neither rule has an
absolute floor, so a functional and its positive multiples get the same
verdict, and a law check gets the same verdict in the basis e and in the
basis s e.

``hermitian_eigvals`` calls ``np.linalg.eigvalsh`` and returns the values
alone, descending, for the decisions that read eigenvalues only
(``psd_check``: the positivity of a functional).  These values can differ
from ``hermitian_eigen``'s in the last bits, so a verdict read from them
can differ from one read from the full spectrum only for an eigenvalue
within a few ulps of its cutoff.

Hermiticity is decided once, where a matrix enters the package:
``kernels.make_kernel``'s argument, a functional's Gram matrix or block
densities, a representation given from outside, and the argument of a
public solver here.  Each is checked against its adjoint by the entrywise
rule and hermitized (``_checked_hermitized``): a matrix by
``_require_square_hermitian``, a functional's block densities by one check
of its values on all the blocks' matrix units (``gns``).  The public
solvers' last steps, ``_eigh`` and ``_eigvalsh``, solve a hermitized
matrix with no second check.  They also solve the matrices the package
builds hermitian: a kernel's sum, difference or weighted sum
(``kernels``), and T^H T, T T^H and the compressions of PSD matrices,
each built and hermitized by ``_hermitian_product``.  Every solve raises
``NonFiniteScalar`` when an eigenvalue of a finite matrix lies beyond the
float range.

Positive semidefiniteness is judged only where a matrix enters (the
argument of ``psd_check``, of ``pseudo_inverse``, which raises
``NegativeEigenvalue``, and of ``kernels.make_kernel``) or where the order
of kernels is asked.  A matrix PSD by construction, such as T T^H, is
read for its rank alone (``_pseudo_inverse``).

Overflow is decided once too.  ``_overflow_checked`` runs a computation
under numpy's overflow flag and turns the first overflow into
``NonFiniteScalar``; the sums, multiples and products of kernels and
functionals in the other modules go through it.  A BLAS product goes
through ``_finite_product``, which also checks its result with
``np.isfinite``, since numpy does not see the flags of BLAS threads, and
the law checks' reports go through ``_law_report``, which does the same.
``_hermitian_product`` is the one guard of T T^H, T^H T and the
compressions: it reads their finiteness off the max|P| their
hermitization takes, with no second scan.  ``_hermitized`` is the one
hermitization, (A + A^H) / 2, taken of halves above 2**1022, where the
sum could overflow.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    NegativeEigenvalue,
    NoConvergence,
    NonFiniteScalar,
    NonSquare,
    NotHermitian,
    ShapeMismatch,
)

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "ValidationReport",
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
        *-invariance of a kernel, the equality of functionals, the
        convergence of a chain and the law checks of an algebra, a
        representation and a homomorphism are decided so.
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
    """Named relative violations of a family of laws, plus a pass threshold.

    Each violation is a law's largest residual over the size it scales
    with (``_gap_report``), so the report of a law check does not change
    when the basis is scaled, and it passes when every violation is below
    ``tolerance``, the policy's ``match_tol``.  ``violations`` is a
    read-only mapping, so a report can be kept and shared
    (``gns.verify_star_rep`` keeps one per representation).  A NaN
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
    size = max(_maxabs(a), _maxabs(b))
    return _gap(a, b, size), size


def _gap(a: np.ndarray, b: np.ndarray, size: float) -> float:
    """``entrywise_gap``'s residual, given its size.

    A caller that knows the size passes it, so max|entry| is not read
    twice: for a matrix and its adjoint it is max|A| alone.
    """
    if size <= 2.0**1022:
        return _maxabs(a - b)
    with np.errstate(invalid="ignore"):  # inf - inf reads NaN
        return 2.0 * _maxabs(a / 2.0 - b / 2.0)


def _relative(residual: float, size: float) -> float:
    """A residual over the size it scales with, 0/0 read as 0.

    The one place a residual of the entrywise rule is divided by its size.
    """
    return residual / size if size else 0.0


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """``entrywise_gap``'s residual over its size, 0 when both arrays are 0.

    The form of the entrywise rule a ``ValidationReport`` holds.  A zero
    array against a nonzero one reads 1.
    """
    return _relative(*entrywise_gap(got, want))


def _worst_gap(gaps: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """The largest residual and the largest size of ``(residual, size)`` pairs.

    A law checked a block at a time, or over several arrays, gives one pair
    per block.  The larger residual over the larger size is the relative
    gap of the whole check, as every entry it compares lies in one block.
    A NaN residual or size stays NaN; no pairs read ``(0, 0)``.
    """
    residual, size = 0.0, 0.0
    for r, s in gaps:
        residual, size = np.maximum(residual, r), np.maximum(size, s)
    return float(residual), float(size)


def _gap_report(gaps: Mapping[str, tuple[float, float]], pol: TolerancePolicy) -> ValidationReport:
    """The report of named ``(residual, size)`` pairs: each residual over its size.

    A number that is scale-free already, such as a count, comes with the
    size 1.
    """
    return ValidationReport(violations={law: _relative(*gap) for law, gap in gaps.items()},
                            tolerance=pol.match_tol)


def _complex_array(x, what: str) -> np.ndarray:
    """x as a complex array; ShapeMismatch when it is not an array of numbers.

    A string, a ragged list or an object numpy cannot read as numbers is
    refused the same way wherever an array enters.
    """
    try:
        return np.asarray(x, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{what} is not an array of numbers: {exc}") from None


def _require_square_hermitian(m, pol: TolerancePolicy) -> np.ndarray:
    """m as a nonempty square complex matrix, hermitized; hermitian by the entrywise rule.

    The check and the hermitization are ``_checked_hermitized``'s.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a nonempty square matrix, got shape {a.shape}")
    return _checked_hermitized(a, a.conj().T, pol)


def _checked_hermitized(a: np.ndarray, ah: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """(A + A^H) / 2, when A is hermitian, from A and ``ah``.

    ``ah`` holds the adjoint's entries in the places of A's: the matrix
    A^H, or for the values rho(E^j_ab) of a functional the conjugates of
    the rho(E^j_ba).  The package's one hermiticity rule: A against A^H
    by ``within_tol`` at the size max|A|, which is max|A^H| too, so it is
    read once.  NotHermitian when the gap fails the rule; a
    ValueError when an entry is not finite.  Finite entries give a finite
    size, so the entries are checked one by one only when it is not (an
    entry's modulus can pass the float range).
    """
    size = float(np.abs(a).max())
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
    a BLAS product whose threads overflow: such a product goes through
    ``_finite_product`` or ``_hermitian_product``.
    """
    with np.errstate(over="raise"):
        try:
            return compute()
        except FloatingPointError:
            raise NonFiniteScalar(message) from None


def _finite_product(compute: Callable, message: str, *operands: np.ndarray) -> np.ndarray:
    """``_overflow_checked(compute, message)`` for a BLAS product of ``operands``.

    A result that is not finite raises NonFiniteScalar(message) as well,
    for BLAS threads that overflow unseen by numpy, unless an operand
    holds a NaN or an infinity already: that is not an overflow, and the
    caller reports it as it would any bad input.
    """
    result = _overflow_checked(compute, message)
    if not np.isfinite(result).all() and all(np.isfinite(a).all() for a in operands):
        raise NonFiniteScalar(message)
    return result


def _hermitian_product(compute: Callable, message: str, *operands: np.ndarray):
    """(P + P^H) / 2 for a product P = ``compute()`` of ``operands``, hermitian by construction.

    The one guard of the products the package solves as hermitian: T T^H,
    T^H T and the compressions of PSD matrices.  P is computed under the
    overflow flag (``_overflow_checked``), and max|P|, the size the
    hermitization takes, is also its finiteness test: P is PSD, so max|P|
    is its largest diagonal entry, finite exactly when P is.  When it is
    not finite, NonFiniteScalar(message) is raised if every operand is
    finite, as ``_finite_product`` does; otherwise the result is None, and
    the caller reports the NaN or infinite operand.  A caller whose
    operands are finite already passes none of them.
    """
    product = _overflow_checked(compute, message)
    size = _maxabs(product)
    if not math.isfinite(size) and all(np.isfinite(a).all() for a in operands):
        raise NonFiniteScalar(message)
    return _hermitized(product, product.conj().T, size) if math.isfinite(size) else None


def _law_report(compute: Callable[[], Mapping[str, tuple[float, float]]], pol: TolerancePolicy,
                message: str, *operands: np.ndarray) -> ValidationReport:
    """The law checks' report of the ``(residual, size)`` pairs ``compute()`` returns.

    An overflow in ``compute`` raises NonFiniteScalar(message) (``_overflow_checked``),
    and so does a residual or size that is not finite while every operand
    is finite.  The report is ``_gap_report``'s.
    """
    with np.errstate(invalid="ignore"):  # inf - inf, after an overflow BLAS threads hide
        gaps = _overflow_checked(compute, message)
    if (not all(math.isfinite(x) for gap in gaps.values() for x in gap)
            and all(np.isfinite(a).all() for a in operands)):
        raise NonFiniteScalar(message)
    return _gap_report(gaps, pol)


def _maxabs(x: np.ndarray) -> float:
    """max|x|, 0 for an empty array; a NaN entry gives NaN.

    A real array is read as |max(max x, -min x)|, the same number with no
    |x| temporary (the outer abs turns -0.0 into 0.0): the law checks take
    three of these per law.
    """
    if not x.size:
        return 0.0
    if x.dtype.kind == "f":
        return abs(float(np.maximum(x.max(), -x.min())))
    return float(np.abs(x).max())


def _stack_times(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """stack @ m for a C-contiguous matrix m, in the dtype of the two.

    A real stack multiplies the real and imaginary parts of a complex m as
    one real matmul on its (re, im) pairs, half the work of the complex
    product.
    """
    if np.iscomplexobj(stack) or np.isrealobj(m):
        return stack @ m
    return (stack @ m.view(float)).view(complex)


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


def hermitian_eigen(
    m, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix by LAPACK (``np.linalg.eigh``).

    Returns ``(values, vectors)`` with real eigenvalues in descending order
    and orthonormal eigenvector columns.  Column phases are normalized
    (largest-magnitude entry real positive) and tied eigenvalues are ordered
    by their eigenvectors' rounded coordinates, so repeated calls are
    bit-identical for a given numpy build.
    """
    return _eigh(_require_square_hermitian(m, pol))


def hermitian_eigvals(m, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Eigenvalues of a hermitian matrix in descending order, by ``np.linalg.eigvalsh``.

    Validated as ``hermitian_eigen`` validates, but with no eigenvectors,
    and so no phase or tie rule: for the decisions that read values alone.
    """
    return _eigvalsh(_require_square_hermitian(m, pol))


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eigen``'s canonical eigensystem of a hermitized matrix, with no check."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    return _canonical_columns(_require_finite(values), vectors)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``hermitian_eigvals``'s descending eigenvalues of a hermitized matrix, with no check."""
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
    """Moore-Penrose inverse of a hermitian PSD matrix under the rank policy.

    The argument enters here, so it is checked hermitian (``hermitian_eigen``)
    and judged PSD by ``psd_rank``: NegativeEigenvalue when it is not.
    """
    values, vectors = hermitian_eigen(m, pol)
    if not psd_rank(values, pol)[0]:
        raise NegativeEigenvalue(f"eigenvalue {values[-1]:.3e} below -psd_tol*lambda_max")
    return _pseudo_inverse(values, vectors, pol)


def _pseudo_inverse(values: np.ndarray, vectors: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """``pseudo_inverse`` of the matrix with the canonical eigensystem ``(values, vectors)``.

    No PSD verdict: the caller judged the matrix where it entered, or it is
    PSD by construction, as T T^H is.  Eigenvalues at or below the rank
    cutoff (``psd_rank``) are dropped.
    """
    rank = psd_rank(values, pol)[1]
    inv = np.zeros_like(values)
    inv[:rank] = 1.0 / values[:rank]
    return (vectors * inv) @ vectors.conj().T
