"""Finite-dimensional associative *-algebras given by structure constants.

An algebra of dimension ``n`` is described by a tensor ``c`` with
``e_i e_j = sum_k c[i, j, k] e_k``, an involution matrix ``S`` with
``e_i^* = sum_j S[i, j] e_j`` (coordinates are conjugated separately, so the
antilinearity lives in the operation rather than the matrix), and the
coordinates of the unit.  Elements are plain complex coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotAGroup, ShapeMismatch
from .numerics import DEFAULT_POLICY, TolerancePolicy, ValidationReport, index_blocks

__all__ = [
    "FiniteStarAlgebra",
    "validate_algebra",
    "build_group_algebra",
    "build_matrix_algebra",
    "direct_sum_algebra",
]


@dataclass(frozen=True)
class FiniteStarAlgebra:
    structure_constants: np.ndarray  # (n, n, n), e_i e_j = sum_k c[i,j,k] e_k
    involution: np.ndarray  # (n, n), e_i^* = sum_j S[i,j] e_j
    unit: np.ndarray  # (n,)
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.structure_constants, dtype=complex)
        s = np.asarray(self.involution, dtype=complex)
        e = np.asarray(self.unit, dtype=complex)
        n = c.shape[0] if c.ndim == 3 else 0
        if c.shape != (n, n, n) or n == 0:
            raise ShapeMismatch(f"structure constants must be (n,n,n), got {c.shape}")
        if s.shape != (n, n):
            raise ShapeMismatch(f"involution must be ({n},{n}), got {s.shape}")
        if e.shape != (n,):
            raise ShapeMismatch(f"unit must be ({n},), got {e.shape}")
        for a in (c, s, e):
            if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
                raise ValueError("algebra data must be finite")
            a.setflags(write=False)
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(self, "involution", s)
        object.__setattr__(self, "unit", e)
        if self.labels is not None and len(self.labels) != n:
            raise ShapeMismatch("labels length must equal dim")

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    def _check_element(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=complex)
        if v.shape != (self.dim,):
            raise DimMismatch(f"element has shape {v.shape}, algebra dim {self.dim}")
        return v

    def multiply(self, x, y) -> np.ndarray:
        """Coordinates of the product x.y."""
        return self.left_mult_matrix(x) @ self._check_element(y)

    def involute(self, x) -> np.ndarray:
        """Coordinates of x^*; antilinear in x."""
        xv = self._check_element(x)
        return self.involution.T @ np.conj(xv)

    def left_mult_matrix(self, x) -> np.ndarray:
        """Matrix of left multiplication by x: L_x @ y == coords of x.y."""
        xv = self._check_element(x)
        n = self.dim
        return (xv @ self.structure_constants.reshape(n, n * n)).reshape(n, n).T

    def basis_left_mult(self) -> np.ndarray:
        """Stack of the n left-multiplication matrices of the basis elements."""
        return np.ascontiguousarray(np.transpose(self.structure_constants, (0, 2, 1)))


def _real_if_real(a: np.ndarray) -> np.ndarray:
    """A contiguous real copy of a when its imaginary part is zero, else a."""
    return a if np.any(a.imag) else np.ascontiguousarray(a.real)


def validate_algebra(
    algebra: FiniteStarAlgebra, pol: TolerancePolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Check the algebra axioms coordinatewise and report the worst violations.

    Four laws are examined: associativity of the product, the two-sided unit
    law, the involution squaring to the identity, and antimultiplicativity
    of the involution.  Each violation is the exact maximum over all index
    tuples.  Associativity, the n^4 law, is checked a block of the first
    index at a time (``index_blocks``) as two BLAS matmuls per block, so it
    costs O(n^5) work in O(n^3) memory.  The other laws are matmuls on n^3
    entries at most.  Real structure constants and involutions (group
    algebras, matrix units) are multiplied as real arrays, a quarter of the
    work of complex ones.
    """
    c = _real_if_real(algebra.structure_constants)
    s = _real_if_real(algebra.involution)
    e = algebra.unit
    n = algebra.dim
    c_rows = c.reshape(n, n * n)  # [i, (j, l)]
    c_pairs = c.reshape(n * n, n)  # [(i, j), l]

    # (e_i e_j) e_k against e_i (e_j e_k), both laid out as [i, j, k, l]
    assoc = 0.0
    for blk in index_blocks(n, n ** 3):
        left = c[blk].reshape(-1, n) @ c_rows
        right = np.matmul(c_pairs, c[blk])
        assoc = max(assoc, float(np.max(np.abs(left.reshape(right.shape) - right))))

    eye = np.eye(n)
    unit_left = (e @ c_rows).reshape(n, n)
    unit_right = np.matmul(e, c)
    unit_dev = float(max(np.max(np.abs(unit_left - eye)), np.max(np.abs(unit_right - eye))))

    involutive = float(np.max(np.abs(s.T @ np.conj(s.T) - eye)))

    # (e_i e_j)^* against e_j^* e_i^*, both laid out as [i, j, l]; the right
    # side is s applied to the index of e_j, then to that of e_i
    lhs = np.conj(c_pairs) @ s
    star_j = (s @ c_rows).reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n)
    rhs = s @ star_j
    antimult = float(np.max(np.abs(lhs.reshape(rhs.shape) - rhs)))

    return ValidationReport(
        violations={
            "associativity": assoc,
            "unit": unit_dev,
            "involution_involutive": involutive,
            "involution_antimultiplicative": antimult,
        },
        tolerance=pol.match_tol,
    )


def build_group_algebra(cayley, inverses=None, labels=None) -> FiniteStarAlgebra:
    """Group algebra of a finite group given by its multiplication table.

    ``cayley[i][j]`` is the index of ``g_i g_j``.  The table is checked to be
    a genuine group table (identity, consistent inverses, associativity);
    the involution sends each basis element to its inverse and the unit is
    the group identity.
    """
    table = np.asarray(cayley, dtype=int)
    n = table.shape[0]
    if table.shape != (n, n) or n == 0:
        raise NotAGroup(f"table must be square and nonempty, got shape {table.shape}")
    if np.any(table < 0) or np.any(table >= n):
        raise NotAGroup("table entries must index group elements")

    identity = None
    for e in range(n):
        if all(table[e, x] == x and table[x, e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i, j], k] != table[i, table[j, k]]:
                    raise NotAGroup(f"associativity fails at triple ({i}, {j}, {k})")

    inv = np.full(n, -1, dtype=int)
    for i in range(n):
        hits = np.nonzero(table[i] == identity)[0]
        if hits.size != 1 or table[hits[0], i] != identity:
            raise NotAGroup(f"element {i} has no two-sided inverse")
        inv[i] = hits[0]
    if inverses is not None:
        if list(inverses) != inv.tolist():
            raise NotAGroup("supplied inverses disagree with the table")

    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i, j, table[i, j]] = 1.0
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[i, inv[i]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[identity] = 1.0
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    return FiniteStarAlgebra(c, s, unit, tuple(labels))


def build_matrix_algebra(m: int) -> FiniteStarAlgebra:
    """Full matrix algebra of m x m matrices in the matrix-unit basis.

    Basis elements are the units E_pq in row-major order; the product rule is
    E_pq E_rs = delta_qr E_ps, the involution is E_pq -> E_qp, and the unit
    is the sum of the diagonal units.
    """
    if m < 1:
        raise ValueError("matrix algebra size must be >= 1")
    n = m * m

    def idx(p: int, q: int) -> int:
        return p * m + q

    c = np.zeros((n, n, n), dtype=complex)
    for p in range(m):
        for q in range(m):
            for r in range(m):
                c[idx(p, q), idx(q, r), idx(p, r)] = 1.0
    s = np.zeros((n, n), dtype=complex)
    for p in range(m):
        for q in range(m):
            s[idx(p, q), idx(q, p)] = 1.0
    unit = np.zeros(n, dtype=complex)
    for p in range(m):
        unit[idx(p, p)] = 1.0
    labels = tuple(f"E{p + 1}{q + 1}" for p in range(m) for q in range(m))
    return FiniteStarAlgebra(c, s, unit, labels)


def direct_sum_algebra(a1: FiniteStarAlgebra, a2: FiniteStarAlgebra) -> FiniteStarAlgebra:
    """Direct sum; the two summands multiply blockwise and annihilate each other."""
    n1, n2 = a1.dim, a2.dim
    n = n1 + n2
    c = np.zeros((n, n, n), dtype=complex)
    c[:n1, :n1, :n1] = a1.structure_constants
    c[n1:, n1:, n1:] = a2.structure_constants
    s = np.zeros((n, n), dtype=complex)
    s[:n1, :n1] = a1.involution
    s[n1:, n1:] = a2.involution
    unit = np.concatenate([a1.unit, a2.unit])
    labels = None
    if a1.labels is not None and a2.labels is not None:
        labels = tuple(f"1.{l}" for l in a1.labels) + tuple(f"2.{l}" for l in a2.labels)
    return FiniteStarAlgebra(c, s, unit, labels)
