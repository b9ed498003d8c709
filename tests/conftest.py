"""Shared builders and random-instance generators for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from starrep import (
    DEFAULT_POLICY,
    FiniteStarAlgebra,
    GNSRepresentation,
    build_group_algebra,
    build_matrix_algebra,
    direct_sum_algebra,
    gram_matrix,
    hermitian_eigen,
    is_positive,
)
from starrep.errors import NotHermitian, NotPositive
from starrep.numerics import psd_rank


def cyclic_group_table(k: int) -> list[list[int]]:
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def symmetric_group_table(k: int) -> list[list[int]]:
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(k))

    return [[index[compose(p, q)] for q in perms] for p in perms]


def s3_table() -> list[list[int]]:
    return symmetric_group_table(3)


def z2_algebra() -> FiniteStarAlgebra:
    return build_group_algebra([[0, 1], [1, 0]], labels=("e", "g"))


def z3_algebra() -> FiniteStarAlgebra:
    return build_group_algebra(cyclic_group_table(3))


def s3_algebra() -> FiniteStarAlgebra:
    return build_group_algebra(s3_table())


def s4_algebra() -> FiniteStarAlgebra:
    return build_group_algebra(symmetric_group_table(4))


# Building blocks for random algebras: (constructor, dim, canonical trace).
# The trace of a block is the functional whose Gram matrix is the identity
# (delta at the group identity, resp. the matrix trace), so it is positive.
def _blocks():
    eye9 = np.eye(9)
    return [
        (lambda: build_matrix_algebra(1), 1, np.array([1.0 + 0j])),
        (z2_algebra, 2, np.array([1.0, 0.0], dtype=complex)),
        (z3_algebra, 3, np.array([1.0, 0.0, 0.0], dtype=complex)),
        (
            lambda: build_group_algebra(cyclic_group_table(4)),
            4,
            np.array([1.0, 0, 0, 0], dtype=complex),
        ),
        (lambda: build_matrix_algebra(2), 4, np.array([1.0, 0, 0, 1.0], dtype=complex)),
    ]


def random_algebra(rng, max_dim: int = 6):
    """Random direct sum of builder blocks, with its canonical trace functional."""
    target = int(rng.integers(1, max_dim + 1))
    algebra = None
    trace = None
    remaining = target
    while remaining > 0:
        options = [b for b in _blocks() if b[1] <= remaining]
        make, dim, block_trace = options[int(rng.integers(len(options)))]
        block = make()
        if algebra is None:
            algebra, trace = block, block_trace
        else:
            algebra = direct_sum_algebra(algebra, block)
            trace = np.concatenate([trace, block_trace])
        remaining -= dim
    return algebra, trace


def random_positive_functional(algebra, rng):
    """Seeded-Gaussian functional made positive by clipping its Gram matrix.

    A Gaussian draw is hermitized, its Gram matrix eigen-clipped to the PSD
    cone, and the functional read back off the clipped matrix.  In the
    builder coordinates used by random_algebra the clipped matrix is still a
    Gram matrix, so the result is exactly positive.
    """
    n = algebra.dim
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    adjoint = np.conj(algebra.involution @ raw)
    values = (raw + adjoint) / 2.0
    g = gram_matrix(algebra, values)
    w, v = hermitian_eigen((g + g.conj().T) / 2.0)
    clipped = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho = np.conj(algebra.unit) @ clipped
    ok, _ = is_positive(algebra, rho)
    assert ok, "gram projection failed to produce a positive functional"
    return rho


def random_element(algebra, rng):
    n = algebra.dim
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def random_psd(rng, n: int, rank: int | None = None) -> np.ndarray:
    k = n if rank is None else rank
    b = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return b.conj().T @ b


def random_unitary(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gaussian_basis(rng, n: int, cond: float = 10.0) -> np.ndarray:
    """A complex Gaussian matrix with its singular values spaced geometrically from cond to 1."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _, vh = np.linalg.svd(g)
    return (u * np.geomspace(cond, 1.0, n)) @ vh


def change_basis(algebra, s: np.ndarray) -> FiniteStarAlgebra:
    """The same algebra in the basis e'_i = sum_j s[j, i] e_j.

    c' = (s (x) s) c s^-1, s' = s^H S s^-T and e' = s^-1 e; a functional
    rho becomes s^T rho.
    """
    s_inv = np.linalg.inv(s)
    c = np.einsum("ji,ml,jmp,kp->ilk", s, s, algebra.structure_constants, s_inv,
                  optimize=True)
    return FiniteStarAlgebra(c, s.conj().T @ algebra.involution @ s_inv.T, s_inv @ algebra.unit)


# The full solvers and the value-only ones.  The private ``_eigh`` and
# ``_eigvalsh`` solve a matrix checked or built hermitian, as ``gns`` solves
# each block density and ``kernels`` each kernel it builds; inside
# ``numerics`` they are the public solvers' last step.
FULL_SOLVERS = ("hermitian_eigen", "_eigh")
VALUE_ONLY_SOLVERS = ("hermitian_eigvals", "_eigvalsh")


def conjugated_copy(rep, u):
    """The same representation written in a rotated orthonormal basis.

    Built here, outside the package, so ``verify_star_rep`` gives it the
    full check rather than a report kept as it was built.
    """
    return GNSRepresentation(
        algebra=rep.algebra,
        matrices=np.einsum("ab,ibc,cd->iad", u, rep.matrices, u.conj().T),
        cyclic_vector=u @ rep.cyclic_vector,
        source_functional=rep.source_functional,
        embedding=u @ rep.embedding,
    )


def gram_represent_oracle(algebra, functional, pol=DEFAULT_POLICY):
    """The representation on the range of rho's Gram matrix, by its own eigensolve.

    Returns the matrices, the cyclic vector and the embedding.
    """
    rho = np.asarray(functional, dtype=complex)
    try:
        values, vectors = hermitian_eigen(gram_matrix(algebra, rho), pol)
    except (NotHermitian, ValueError):
        raise NotPositive("gns_construct requires a positive functional") from None
    positive, d = psd_rank(values, pol)
    if not positive:
        raise NotPositive("gns_construct requires a positive functional")
    u_r = vectors[:, :d]
    sqrt_w = np.sqrt(values[:d])
    q = sqrt_w[:, None] * u_r.conj().T
    right = u_r * (1.0 / sqrt_w)[None, :] if d else u_r
    return q @ algebra.basis_left_mult() @ right, q @ algebra.unit, q


def record_eigensolves(monkeypatch, record, full_only: bool = False) -> None:
    """Call ``record(m)`` on the matrix of every eigensolve, full or value-only.

    Each module's own solvers are replaced: the public ones in
    ``numerics``, and in ``kernels`` and ``gns`` every solver they call, a
    private one too, so each solve is recorded once.  With
    ``full_only`` only the full solves (``FULL_SOLVERS``) are recorded.
    """
    import starrep.gns
    import starrep.kernels
    import starrep.numerics

    def recorded(solve):
        def solve_recorded(m, *args, **kwargs):
            record(m)
            return solve(m, *args, **kwargs)

        return solve_recorded

    solvers = FULL_SOLVERS if full_only else (*FULL_SOLVERS, *VALUE_ONLY_SOLVERS)
    for name in solvers:
        wrapper = recorded(getattr(starrep.numerics, name))
        for module in (starrep.numerics, starrep.kernels, starrep.gns):
            if hasattr(module, name) and not (module is starrep.numerics and name[0] == "_"):
                monkeypatch.setattr(module, name, wrapper)


def count_eigensolves(monkeypatch, run, full_only: bool = False):
    """``run()``'s result and the sizes of the eigensolves it made (``record_eigensolves``)."""
    sizes = []
    record_eigensolves(monkeypatch, lambda m: sizes.append(len(m)), full_only)
    return run(), sizes


def count_law_checks(monkeypatch) -> list[int]:
    """A list that gains the representation dimension of each ``gns._law_violations`` call."""
    import starrep.gns

    dims = []
    check = starrep.gns._law_violations

    def counted(algebra, mats):
        dims.append(mats.shape[1])
        return check(algebra, mats)

    monkeypatch.setattr(starrep.gns, "_law_violations", counted)
    return dims


def infimum_norm_oracle(h1: np.ndarray, h2: np.ndarray, xi: np.ndarray) -> float:
    """Constrained quadratic minimization reference for the two-kernel sum norm.

    Minimizes ||xi1||^2_{H1} + ||xi2||^2_{H2} over xi1 + xi2 = xi with each
    part constrained to the corresponding range, by normal equations on the
    joint range basis.  Deliberately routed through numpy's eigensolver so
    it shares nothing with the pseudoinverse path it checks.
    """

    def range_basis(h):
        w, v = np.linalg.eigh(h)
        keep = w > 1e-12 * max(w.max(), 1.0)
        return v[:, keep], w[keep]

    b1, w1 = range_basis(h1)
    b2, w2 = range_basis(h2)
    basis = np.hstack([b1, b2])
    norm_diag = np.concatenate([1.0 / w1, 1.0 / w2])

    c0, *_ = np.linalg.lstsq(basis, xi, rcond=None)
    assert np.linalg.norm(basis @ c0 - xi) < 1e-8 * (1 + np.linalg.norm(xi))

    u, s, vh = np.linalg.svd(basis)
    null_dim = basis.shape[1] - int(np.sum(s > 1e-12 * max(s[0], 1.0)))
    if null_dim > 0:
        z = vh.conj().T[:, basis.shape[1] - null_dim:]
        lhs = z.conj().T @ (norm_diag[:, None] * z)
        rhs = -z.conj().T @ (norm_diag * c0)
        t = np.linalg.solve(lhs, rhs)
        c = c0 + z @ t
    else:
        c = c0
    return float(np.real(np.vdot(c, norm_diag * c)))
