"""Dense complex linear algebra primitives with a shared rank/tolerance policy.

Every module in the package funnels its spectral work through the
primitives here (``hermitian_eigen``, ``pseudo_inverse``, ``psd_check`` and
the PSD/rank rule ``psd_rank``) so that rank decisions and eigenbasis
conventions are made exactly once.  The eigensolver is cyclic Jacobi in the
round-robin order of Brent and Luk (SIAM J. Sci. Stat. Comput. 6, 1985): a
sweep is n - 1 rounds (n for odd n), each of floor(n/2) disjoint plane
rotations that numpy applies as one batch.  It is self-contained and
deterministic, so results do not depend on the LAPACK build.
"""

from __future__ import annotations

import functools
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

# Off-diagonal Frobenius mass below this fraction of ||M||_F counts as
# diagonal; quadratic convergence of Jacobi makes the sweep cap generous.
_JACOBI_REL_THRESHOLD = 1e-14
_JACOBI_MAX_SWEEPS = 100
# Entries per temporary of a batched rotation or of one block of a law check
# (256 KiB of complex numbers).
_BLOCK_ENTRIES = 1 << 14

# Eigenvalues closer than this (relative) are treated as a tie and their
# eigenvectors ordered lexicographically for reproducibility.
_TIE_REL_TOL = 1e-12
_KEY_DECIMALS = 9


@dataclass(frozen=True)
class TolerancePolicy:
    """Bundle of the three tolerances used throughout the package.

    rel_rank_tol
        Eigenvalues below ``rel_rank_tol * lambda_max`` count as zero.
    psd_tol
        Eigenvalues above ``-psd_tol * (1 + lambda_max)`` still count as
        nonnegative.
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


@functools.lru_cache(maxsize=16)
def _round_robin(n: int) -> np.ndarray:
    """Brent-Luk round-robin pairing of 0..n-1, shape (rounds, 2, pairs).

    With m = n rounded up to even, round r pairs (m-1, r) and
    ((r+i) mod (m-1), (r-i) mod (m-1)) for i = 1 .. m/2-1; every pair of
    indices meets exactly once per sweep and the pairs of a round are
    disjoint.  For odd n the pair holding the phantom index n is dropped.
    Each pair is stored as (p, q) with p < q.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    i = np.arange(1, m // 2)[None, :]
    p = (r + i) % (m - 1)
    q = (r - i) % (m - 1)
    if m == n:
        p = np.hstack([np.full_like(r, m - 1), p])
        q = np.hstack([r, q])
    sched = np.stack([np.minimum(p, q), np.maximum(p, q)], axis=1)
    sched.setflags(write=False)
    return sched


def _rotate_columns(m, p, q, j00, j01, s, c) -> None:
    """Set columns p, q of m to (x j00 - y s, x j01 + y c), x, y the old ones.

    Works through m in blocks of rows, so that each temporary holds at most
    _BLOCK_ENTRIES entries whatever the size of m.
    """
    rows = max(1, _BLOCK_ENTRIES // p.size)
    for lo in range(0, m.shape[0], rows):
        blk = m[lo:lo + rows]
        x, y = blk[:, p], blk[:, q]
        blk[:, p] = x * j00 - y * s
        blk[:, q] = x * j01 + y * c


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


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


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and accumulated rotations of round-robin Jacobi sweeps on a.

    Each sweep runs the rounds of ``_round_robin``; a round rotates its
    disjoint pairs (p, q) at once, so the pairs' 2x2 problems are read from
    the same matrix.  Returns copies, so the working arrays are freed
    before the caller canonicalizes the result.
    """
    n = a.shape[0]
    amax = float(np.max(np.abs(a)))
    if amax == 0.0:
        return np.zeros(n), np.eye(n, dtype=complex)
    # a on top of the eigenvector accumulator v, so that one column update
    # rotates both
    av = np.zeros((2 * n, n), dtype=complex)
    av[:n] = a
    a, v = av[:n], av[n:]
    # Scaled by a power of two to max|a| in [1/2, 1), so that the norms below
    # neither underflow nor overflow; the scaling is exact, and undone on the
    # eigenvalues at the end.
    _, exponent = np.frexp(amax)
    a_parts = a.view(np.float64)
    np.ldexp(a_parts, -exponent, out=a_parts)
    scale = float(np.linalg.norm(a))
    np.fill_diagonal(v, 1.0)
    diag = np.einsum("ii->i", a)
    diag_re, diag_im = diag.real, diag.imag

    threshold = _JACOBI_REL_THRESHOLD * scale
    # Entries at or below threshold / n are left alone: once all of them
    # are, the off-diagonal norm is below threshold and the sweeps stop.
    # This also keeps subnormal entries out of the rotation formulas.
    skip = threshold / n
    schedule = _round_robin(n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_norm(a) < threshold:
            break
        for p, q in schedule:
            apq = a[p, q]
            b = np.abs(apq)
            rotate = b > skip
            count = np.count_nonzero(rotate)
            if count < rotate.size:
                if count == 0:
                    continue
                p, q, apq, b = p[rotate], q[rotate], apq[rotate], b[rotate]
            # tan(theta) = t is the smaller root of t^2 + 2 tau t - 1, so
            # every rotation turns by at most pi/4.
            tau = (diag_re[q] - diag_re[p]) / (2.0 * b)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            phase = apq / b
            # Columns p, q of [a; v] times the 2x2 factors
            # [[c*phase, s*phase], [-s, c]] make a[p, q] real and then
            # rotate it away; rows p, q of a take the adjoint factors.
            j00, j01 = c * phase, s * phase
            _rotate_columns(av, p, q, j00, j01, s, c)
            _rotate_columns(a.T, p, q, np.conj(j00), np.conj(j01), s, c)
            a[p, q] = 0.0
            a[q, p] = 0.0
            # the diagonal is real in exact arithmetic; drop the rounding
            diag_im[:] = 0.0
    else:
        raise NoConvergence("jacobi sweep limit reached")
    return np.ldexp(diag_re, exponent), v.copy()


def hermitian_eigen(
    m, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix by round-robin Jacobi sweeps.

    Returns ``(values, vectors)`` with real eigenvalues in descending order
    and orthonormal eigenvector columns.  The output is a pure function of
    the input: column phases are normalized (largest-magnitude entry real
    positive) and tied eigenvalues are ordered by their eigenvectors'
    rounded coordinates, so repeated calls are bit-identical.
    """
    values, vectors = _jacobi(_require_square_hermitian(m, pol))
    return _canonical_columns(values, vectors)


def psd_rank(
    values: np.ndarray,
    pol: TolerancePolicy = DEFAULT_POLICY,
    scale: float | None = None,
) -> tuple[bool, int]:
    """The PSD verdict and the numerical rank read off descending eigenvalues.

    The matrix is PSD when its least eigenvalue is at least
    ``-psd_tol * (1 + lambda_max)``.  ``rank`` counts the eigenvalues above
    ``rel_rank_tol * scale``, so they are ``values[:rank]``; the cutoff
    is relative so that uniformly scaled matrices keep their rank.  ``scale``
    defaults to lambda_max; a caller that knows the size of the data the
    matrix was built from passes that instead, so that a matrix made of
    roundoff alone has rank 0.
    """
    lam_max = max(float(values[0]), 0.0)
    is_psd = bool(values[-1] >= -pol.psd_tol * (1.0 + lam_max))
    cutoff = pol.rel_rank_tol * (lam_max if scale is None else scale)
    rank = int(np.count_nonzero(values > cutoff))
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
            f"eigenvalue {values[-1]:.3e} below -psd_tol*(1+lambda_max)"
        )
    inv = np.zeros_like(values)
    inv[:rank] = 1.0 / values[:rank]
    return (vectors * inv) @ vectors.conj().T
