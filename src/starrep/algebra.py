"""Finite-dimensional associative *-algebras given by structure constants.

An algebra of dimension ``n`` is described by a tensor ``c`` with
``e_i e_j = sum_k c[i, j, k] e_k``, an involution matrix ``S`` with
``e_i^* = sum_j S[i, j] e_j`` (coordinates are conjugated separately, so the
antilinearity lives in the operation rather than the matrix), and the
coordinates of the unit.  Elements are plain complex coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, NotAGroup, ShapeMismatch
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    _complex_array,
    _law_report,
    _maxabs,
    _worst_gap,
    entrywise_gap,
    index_blocks,
)

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
    # Data other modules derive from the algebra on first use and keep for
    # its lifetime, keyed by what they were derived with: the real copies
    # the law checks multiply (``_real_copies``) and the Wedderburn blocks
    # of ``gns.block_data``.  None of it is built with the algebra.  The
    # invariance test keeps nothing here: it compares a kernel with the
    # Gram matrix of its own functional (``correspondence._invariant``).
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _check_element(self, x, what: str = "element") -> np.ndarray:
        """x as a vector of n complex coordinates.

        ShapeMismatch when x is not an array of numbers (a string, a ragged
        list, ``numerics._complex_array``), DimMismatch when its shape is not
        (n,).
        """
        v = _complex_array(x, what)
        if v.shape != (self.dim,):
            raise DimMismatch(f"{what} has shape {v.shape}, algebra dim {self.dim}")
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
    return a if a.imag.any() else np.ascontiguousarray(a.real)


def _real_copies(algebra: FiniteStarAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The structure constants, involution and unit, each by ``_real_if_real``.

    The law checks multiply these.  They are made on first use and kept on
    the algebra (``FiniteStarAlgebra.derived``), so the imaginary parts are
    read once per algebra.
    """
    if "real copies" not in algebra.derived:
        copies = tuple(_real_if_real(a) for a in
                       (algebra.structure_constants, algebra.involution, algebra.unit))
        for a in copies:
            a.setflags(write=False)
        algebra.derived["real copies"] = copies
    return algebra.derived["real copies"]


def _product_table(c: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(v, t) with e_i e_j = v[i, j] e_t[i, j], for real single-term c; else None.

    A product that is 0 has v = 0 and t = 0.
    """
    if np.iscomplexobj(c):
        return None
    nonzero = c != 0
    if nonzero.sum(axis=2).max() > 1:
        return None
    t = nonzero.argmax(axis=2)
    v = np.take_along_axis(c, t[:, :, None], axis=2)[:, :, 0]
    return v, t


def _associativity_from_table(v: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """``entrywise_gap`` of (e_i e_j) e_k and e_i (e_j e_k), read off a single-term table.

    (e_i e_j) e_k = L e_t[t_ij, k] with L = v[i, j] v[t_ij, k], and
    e_i (e_j e_k) = R e_t[i, t_jk] with R = v[j, k] v[i, t_jk]: their
    difference is |L - R| when the two indices agree, else max(|L|, |R|),
    and the size is the larger of max|L| and max|R|.  Every array is laid
    out as [i, j, k].
    """
    left = v[t]
    left *= v[:, :, None]
    right = np.take(v, t, axis=1)
    right *= v
    size = float(np.maximum(_maxabs(left), _maxabs(right)))
    agree = t[t] == np.take(t, t, axis=1)
    np.subtract(left, right, out=left, where=agree)
    np.copyto(right, 0.0, where=agree)
    return float(np.maximum(_maxabs(left), _maxabs(right))), size


def _associativity_blocked(c: np.ndarray) -> tuple[float, float]:
    """``entrywise_gap`` of (e_i e_j) e_k and e_i (e_j e_k), a block of i at a time."""
    n = c.shape[0]
    c_rows = c.reshape(n, n * n)  # [i, (j, l)]
    c_pairs = c.reshape(n * n, n)  # [(i, j), l]

    def gaps():  # both sides laid out as [i, j, k, l]
        for blk in index_blocks(n, n ** 3):
            right = np.matmul(c_pairs, c[blk])
            yield entrywise_gap((c[blk].reshape(-1, n) @ c_rows).reshape(right.shape), right)

    return _worst_gap(gaps())


def validate_algebra(
    algebra: FiniteStarAlgebra, pol: TolerancePolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Check the algebra axioms coordinatewise and report the worst relative violations.

    Four laws are examined: associativity of the product, the two-sided unit
    law, the involution squaring to the identity, and antimultiplicativity
    of the involution.  Each violation is the exact maximum of |lhs - rhs|
    over all index tuples, over the larger of max|lhs| and max|rhs|
    (``numerics.entrywise_gap``, ``_gap_report``), so the verdict is the
    same in the basis e and in the basis s e.  Real structure constants,
    involutions and units (group algebras, matrix units) are multiplied as
    real arrays, a quarter of the work of complex ones; the real copies are
    kept on the algebra (``_real_copies``).

    Associativity, the n^4 law, is checked in one of two forms.  When the
    structure constants are real and single-term, each product e_i e_j a
    multiple v[i, j] of one basis element e_t[i, j] (matrix units, group
    elements and their direct sums), it is read off that table in O(n^3)
    (``_associativity_from_table``).  Otherwise it is checked a block of the
    first index at a time (``index_blocks``) as two BLAS matmuls per block,
    O(n^5) work in O(n^3) memory (``_associativity_blocked``).  Both give the
    residual and size to the last bit on real single-term constants: each
    entry of the matmuls is then one rounded product plus exact zeros.  Complex
    single-term constants keep the blocked form, since a complex matmul
    rounds its products differently from numpy's.  The other laws are
    matmuls on n^3 entries at most.

    The algebra's data is finite, so a violation that is not finite comes
    from a product or a difference past the float range, and raises
    NonFiniteScalar (``_law_report``), never a report with an inf or NaN
    in it.
    """
    return _law_report(lambda: _axiom_violations(algebra), pol,
                       "the algebra's law checks overflow the float range")


def _axiom_violations(algebra: FiniteStarAlgebra) -> dict[str, tuple[float, float]]:
    """``validate_algebra``'s four ``(residual, size)`` pairs, by name."""
    c, s, e = _real_copies(algebra)
    n = algebra.dim
    c_rows = c.reshape(n, n * n)  # [i, (j, l)]
    c_pairs = c.reshape(n * n, n)  # [(i, j), l]

    table = _product_table(c)
    assoc = _associativity_blocked(c) if table is None else _associativity_from_table(*table)

    eye = np.eye(n)
    unit = _worst_gap((entrywise_gap((e @ c_rows).reshape(n, n), eye),
                       entrywise_gap(np.matmul(e, c), eye)))

    # (e_i e_j)^* against e_j^* e_i^*, both laid out as [i, j, l]; the right
    # side is s applied to the index of e_j, then to that of e_i
    star_j = (s @ c_rows).reshape(n, n, n).transpose(1, 0, 2).reshape(n, n * n)
    rhs = s @ star_j

    return {
        "associativity": assoc,
        "unit": unit,
        "involution_involutive": entrywise_gap(s.T @ np.conj(s.T), eye),
        "involution_antimultiplicative": entrywise_gap(
            (np.conj(c_pairs) @ s).reshape(rhs.shape), rhs),
    }


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

    idx = np.arange(n)
    # the first e with g_e g_x = g_x = g_x g_e for every x
    identities = np.flatnonzero((table == idx).all(axis=1) & (table == idx[:, None]).all(axis=0))
    if identities.size == 0:
        raise NotAGroup("no identity element")
    identity = int(identities[0])

    # (g_i g_j) g_k against g_i (g_j g_k) over all triples; the first failure in (i, j, k) order
    broken = np.flatnonzero(table[table] != table[:, table])
    if broken.size:
        i, j, k = np.unravel_index(broken[0], (n, n, n))
        raise NotAGroup(f"associativity fails at triple ({i}, {j}, {k})")

    # each row holds the identity once, at the column of a two-sided inverse
    hits = table == identity
    inv = hits.argmax(axis=1)
    inverted = (hits.sum(axis=1) == 1) & (table[inv, idx] == identity)
    if not inverted.all():
        raise NotAGroup(f"element {np.flatnonzero(~inverted)[0]} has no two-sided inverse")
    if inverses is not None:
        if list(inverses) != inv.tolist():
            raise NotAGroup("supplied inverses disagree with the table")

    c = np.zeros((n, n, n), dtype=complex)
    c[idx[:, None], idx, table] = 1.0
    s = np.zeros((n, n), dtype=complex)
    s[idx, inv] = 1.0
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
    p, q, r = np.indices((m, m, m))
    c = np.zeros((n, n, n), dtype=complex)
    c[p * m + q, q * m + r, p * m + r] = 1.0
    p, q = np.indices((m, m))
    s = np.zeros((n, n), dtype=complex)
    s[p * m + q, q * m + p] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[:: m + 1] = 1.0
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
