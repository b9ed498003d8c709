"""Dense complex linear algebra primitives with a shared rank/tolerance policy.

Every module in the package funnels its spectral work through the
primitives here (``hermitian_eigen``, ``pseudo_inverse``, ``psd_check`` and
the PSD/rank rule ``psd_rank``) so that rank decisions and eigenbasis
conventions are made exactly once.  The eigensolver is LAPACK's, through
``np.linalg.eigh``; ``hermitian_eigen`` fixes the order, phases and tie
order of its output, so results are deterministic for a given numpy build,
across runs and BLAS thread counts.  Within a tied eigenspace the basis is
the solver's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeEigenvalue, NoConvergence, NonSquare, NotHermitian

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "ValidationReport",
    "as_complex_matrix",
    "is_hermitian",
    "hermitian_eigen",
    "pseudo_inverse",
    "psd_check",
    "psd_rank",
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
        Generic agreement tolerance for identities checked entrywise, and
        the relative asymmetry bound of ``is_hermitian``.
    """

    rel_rank_tol: float = 1e-9
    psd_tol: float = 1e-9
    match_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rel_rank_tol", "psd_tol", "match_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


DEFAULT_POLICY = TolerancePolicy()


@dataclass(frozen=True)
class ValidationReport:
    """Named maximum violations of a family of laws, plus a pass threshold."""

    violations: dict[str, float]
    tolerance: float

    @property
    def max_violation(self) -> float:
        return max(self.violations.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_violation < self.tolerance

    def as_dict(self) -> dict:
        return {
            "violations": {k: float(v) for k, v in self.violations.items()},
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting empty or non-finite input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise NonSquare(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def is_hermitian(a: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """The package's one hermiticity rule: max|A - A^H| <= match_tol * max|A|.

    The bound is relative to the largest entry, so a matrix and its multiples
    get the same verdict.
    """
    asym = float(np.max(np.abs(a - a.conj().T)))
    return asym <= pol.match_tol * float(np.max(np.abs(a)))


def _require_square_hermitian(m, pol: TolerancePolicy) -> np.ndarray:
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    if not is_hermitian(a, pol):
        asym = float(np.max(np.abs(a - a.conj().T)))
        raise NotHermitian(
            f"asymmetry {asym:.3e} exceeds match_tol {pol.match_tol:.1e} times the largest entry"
        )
    return (a + a.conj().T) / 2.0


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
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]

    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        idx = int(np.argmax(np.abs(col)))
        z = col[idx]
        if abs(z) > 0.0:
            vectors[:, k] = col * (np.conj(z) / abs(z))

    # Within a tie cluster the eigenbasis is not canonical; order the columns
    # by (descending) lexicographic comparison of their rounded coordinates.
    n = values.size
    tie_tol = _TIE_REL_TOL * (np.max(np.abs(values)) if n else 0.0)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop - 1] - values[stop] <= tie_tol:
            stop += 1
        if stop - start > 1:
            # Keys: real then imaginary part of each rounded coordinate, first
            # coordinate first.  lexsort is stable and takes its primary key
            # last; negated keys sort descending.
            block = np.round(vectors[:, start:stop], _KEY_DECIMALS)
            keys = np.stack([block.real, block.imag], axis=1).reshape(2 * n, -1)
            perm = start + np.lexsort(-keys[::-1])
            values[start:stop] = values[perm]
            vectors[:, start:stop] = vectors[:, perm]
        start = stop
    return values, vectors


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
    a = _require_square_hermitian(m, pol)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    return _canonical_columns(values, vectors)


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
    is_psd = bool(values[-1] >= -pol.psd_tol * size)
    rank = int(np.count_nonzero(values > pol.rel_rank_tol * size))
    return is_psd, rank


def psd_check(m, pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[bool, int]:
    """Decide positive semidefiniteness and the numerical rank of ``m``.

    The rule is ``psd_rank``'s, applied to the eigenvalues of ``m``.
    """
    values, _ = hermitian_eigen(m, pol)
    return psd_rank(values, pol)


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
