"""Cyclic *-representations built from positive functionals.

The construction quotients the algebra by the null space of the Gram form
and rescales the surviving eigendirections so that the representation space
carries the standard inner product on C^d.  Commutants, irreducibility,
extremality, equivalence and the splitting into irreducible pieces are
read in closed form off the algebra's Wedderburn block data
(``block_data``), computed once per algebra.

Inner products are written antilinear in the first argument throughout:
``(a, b) = sum_k conj(a_k) b_k``.  The defining reproduction identity is
``rho(x) = (xi, pi(x) xi)`` for the distinguished cyclic vector xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import FiniteStarAlgebra, _real_if_real
from . import duality
from .errors import (
    InvalidRepresentation,
    NoConvergence,
    NotEquivalent,
    NotHermitian,
    NotPositive,
    NotSemisimple,
    ZeroFunctional,
)
from .kernels import Kernel
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    _hermitized,
    _require_square_hermitian,
    entrywise_gap,
    hermitian_eigen,
    hermitian_eigvals,
    index_blocks,
    psd_check,
    psd_rank,
    pseudo_inverse,
    relative_gap,
    within_tol,
)

__all__ = [
    "GNSRepresentation",
    "BlockData",
    "Decomposition",
    "DecompositionComponent",
    "gns_construct",
    "verify_star_rep",
    "block_data",
    "intertwiner",
    "commutant",
    "is_irreducible",
    "is_extremal",
    "representations_equivalent",
    "decompose",
]

# The generic elements that resolve an algebra into blocks are drawn from
# this seed, so that the block data is a function of the algebra and policy.
_BLOCK_SEED = 0


@dataclass(frozen=True)
class GNSRepresentation:
    """A cyclic *-representation together with its provenance.

    ``matrices`` stacks the images of the basis elements, shape (n, d, d);
    ``embedding`` maps algebra coordinates onto representation-space
    coordinates (the class of an element x is ``embedding @ x``), and the
    cyclic vector is the class of the unit.  Its verification report is
    computed on first use and kept in ``derived``, one per policy, as an
    algebra keeps its block data.
    """

    algebra: FiniteStarAlgebra
    matrices: np.ndarray  # (n, d, d)
    cyclic_vector: np.ndarray  # (d,)
    source_functional: np.ndarray  # (n,)
    embedding: np.ndarray  # (d, n)
    # The reports of ``verify_star_rep``, keyed by what they were checked with.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=complex)
        xi = np.asarray(self.cyclic_vector, dtype=complex)
        rho = np.asarray(self.source_functional, dtype=complex)
        q = np.asarray(self.embedding, dtype=complex)
        n = self.algebra.dim
        d = xi.shape[0] if xi.ndim == 1 else -1
        if mats.shape != (n, d, d) or q.shape != (d, n) or rho.shape != (n,):
            raise InvalidRepresentation(
                f"inconsistent shapes: matrices {mats.shape}, cyclic vector "
                f"{xi.shape}, functional {rho.shape}, embedding {q.shape}"
            )
        for a in (mats, xi, rho, q):
            a.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "cyclic_vector", xi)
        object.__setattr__(self, "source_functional", rho)
        object.__setattr__(self, "embedding", q)

    @property
    def rep_dim(self) -> int:
        return self.cyclic_vector.shape[0]

    def orbit_matrix(self) -> np.ndarray:
        """The d x n matrix whose j-th column is pi(e_j) applied to the cyclic vector."""
        return (self.matrices @ self.cyclic_vector).T


def gns_construct(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> GNSRepresentation:
    """Build the cyclic *-representation attached to a positive functional.

    It is the one carried by rho's kernel, its Gram matrix, read off that
    kernel's one eigensolve (``_represent``).  The zero functional yields
    the empty representation (d = 0).
    """
    rho = np.asarray(functional, dtype=complex)
    return _represent(algebra, rho, duality._gram_kernel(algebra, rho, pol, "gns_construct"))


def _represent(algebra: FiniteStarAlgebra, rho: np.ndarray, kernel: Kernel) -> GNSRepresentation:
    """The cyclic representation of rho on the range of its kernel, with no eigensolve.

    The kernel's ``rank`` leading eigenpairs U diag(w) U^dagger give the quotient
    map ``Q = diag(sqrt(w)) U^dagger`` and ``pi(e_i) = Q L_i U diag(1/sqrt(w))``.
    """
    u_r = kernel.vectors[:, : kernel.rank]
    sqrt_w = np.sqrt(kernel.values[: kernel.rank])
    q = sqrt_w[:, None] * u_r.conj().T  # (d, n)
    right = u_r * (1.0 / sqrt_w)[None, :]  # (n, d)
    return GNSRepresentation(
        algebra=algebra,
        matrices=q @ algebra.basis_left_mult() @ right,
        cyclic_vector=q @ algebra.unit,
        source_functional=rho,
        embedding=q,
    )


def _law_violations(algebra: FiniteStarAlgebra, mats: np.ndarray) -> dict[str, float]:
    """Worst violations of the unit, product and adjoint laws by images of the basis.

    ``mats`` stacks candidate images pi(e_i), shape (n, d, d).
    Multiplicativity, n^2 d^2 entries, is checked a block of the first index
    at a time (``index_blocks``) as two BLAS matmuls per block, so it costs
    O(n^2 d^2 (n + d)) work in O(n d^2) memory; the other laws are matmuls.
    Real structure constants build the product table as a real matmul on
    the real and imaginary parts of the pi(e_k), half the work of a complex
    one.
    """
    n, d = algebra.dim, mats.shape[1]
    c = _real_if_real(algebra.structure_constants)
    flat = np.ascontiguousarray(mats.reshape(n, d * d))  # [k, (a, b)]
    # the table's right operand: flat itself, or its (re, im) pairs as reals
    table_rhs = flat if np.iscomplexobj(c) else flat.view(float)

    def maxabs(x) -> float:
        return float(np.max(np.abs(x))) if np.size(x) else 0.0

    unit_dev = maxabs((algebra.unit @ flat).reshape(d, d) - np.eye(d))

    # pi(e_i) pi(e_j) as [i, a, j, c] against sum_k c[i, j, k] pi(e_k) as
    # [i, j, a, c]
    by_row = mats.transpose(1, 0, 2).reshape(d, n * d)  # [b, (j, c)]
    mult_dev = 0.0
    for blk in index_blocks(n, n * d * d):
        rows = blk.stop - blk.start
        products = (mats[blk].reshape(rows * d, d) @ by_row).reshape(rows, d, n, d)
        table = (c[blk].reshape(rows * n, n) @ table_rhs).view(complex)
        table = table.reshape(rows, n, d, d)
        mult_dev = np.maximum(mult_dev, maxabs(products.transpose(0, 2, 1, 3) - table))

    star_images = (algebra.involution @ flat).reshape(n, d, d)
    star_dev = maxabs(star_images - np.conj(np.transpose(mats, (0, 2, 1))))
    return {"unit": unit_dev, "multiplicativity": float(mult_dev), "star_property": star_dev}


def verify_star_rep(
    rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Report the worst violation of each defining law of the representation.

    Checked: the unit acts as the identity; multiplicativity on basis pairs;
    the adjoint property pi(e_i^*) = pi(e_i)^dagger (all three by
    ``_law_violations``); cyclicity of the distinguished vector; and
    reproduction of the source functional, max|rho_hat - rho| relative to
    the larger of max|rho_hat| and max|rho| (``relative_gap``).  Each
    violation is the exact maximum over all index tuples.  The report is
    computed on the first call for a representation and policy and kept on
    the representation (``GNSRepresentation.derived``); later calls return
    the kept report.
    """
    key = ("verify_star_rep", pol)
    if key not in rep.derived:
        rep.derived[key] = _check_star_rep(rep, pol)
    return rep.derived[key]


def _check_star_rep(rep: GNSRepresentation, pol: TolerancePolicy) -> ValidationReport:
    mats = rep.matrices
    xi = rep.cyclic_vector
    d = rep.rep_dim

    t = rep.orbit_matrix()
    _, orbit_rank = psd_check(t @ t.conj().T, pol) if d else (True, 0)
    cyclic_dev = float(d - orbit_rank)

    reproduced = (mats @ xi) @ np.conj(xi)
    repro_dev = relative_gap(reproduced, rep.source_functional)

    return ValidationReport(
        violations={
            **_law_violations(rep.algebra, mats),
            "cyclicity": cyclic_dev,
            "reproduction": repro_dev,
        },
        tolerance=pol.match_tol,
    )


def _block_slices(sizes: tuple[int, ...]) -> list[slice]:
    ends = np.cumsum([k * k for k in sizes])
    return [slice(int(end) - k * k, int(end)) for end, k in zip(ends, sizes)]


class BlockData(NamedTuple):
    """An algebra written as a direct sum of full matrix algebras, A = (+)_j M_{k_j}.

    ``sizes`` are the k_j.  Column ``j0 + a k_j + b`` of ``units`` holds the
    coordinates of the matrix unit E^j_ab, where block j owns the columns
    ``slices[j]`` starting at j0.  ``coords`` inverts ``units``: the same
    row of ``coords @ x`` is the (a, b) entry of block j of x.
    ``blocks[j]`` stacks block j of every basis element, shape (n, k_j, k_j);
    x -> block j of x runs over the irreducible *-representations, each once.
    """

    sizes: tuple[int, ...]
    units: np.ndarray  # (n, n)
    coords: np.ndarray  # (n, n)
    blocks: tuple[np.ndarray, ...]

    @property
    def slices(self) -> list[slice]:
        return _block_slices(self.sizes)

    def densities(self, functional: np.ndarray) -> list[np.ndarray]:
        """The D_j with rho(x) = sum_j tr(D_j x_j), that is D_j[b, a] = rho(E^j_ab)."""
        values = functional @ self.units
        return [values[s].reshape(k, k).T for s, k in zip(self.slices, self.sizes)]

    def central_projections(self) -> list[np.ndarray]:
        """Coordinates of z_j = sum_a E^j_aa, the unit of block j."""
        n = self.units.shape[0]
        return [np.trace(self.units[:, s].reshape(n, k, k), axis1=1, axis2=2)
                for s, k in zip(self.slices, self.sizes)]


def block_data(
    algebra: FiniteStarAlgebra, pol: TolerancePolicy = DEFAULT_POLICY
) -> BlockData:
    """The algebra's Wedderburn block data, built on first use.

    It is kept on the algebra (``FiniteStarAlgebra.derived``), one build per
    policy; see ``_build_block_data``.  NotSemisimple when the algebra has
    no faithful trace.
    """
    key = ("block_data", pol)
    if key not in algebra.derived:
        algebra.derived[key] = _build_block_data(algebra, pol)
    return algebra.derived[key]


def _build_block_data(algebra: FiniteStarAlgebra, pol: TolerancePolicy) -> BlockData:
    """Resolve the algebra into matrix units from two generic elements.

    The trace tau(x) = tr L_x, tau_k = sum_j c[k, j, j], is faithful
    exactly when the algebra is semisimple; its GNS representation pi is
    then the left-regular one, in a frame orthonormal for tau(x^* y).  The
    eigenspaces of pi(h) for one generic hermitian h are the ranges of
    minimal projections F_a, and F_a, F_b lie in one block exactly when
    F_a Y F_b != 0 for a generic Y = pi(y) (the random-element block
    diagonalisation of Murota, Kanno, Kojima & Kojima, 2010).  In a block
    with projections F_1 .. F_k the matrix units are E_a1 = F_a Y F_1 /
    sqrt(t), with t such that E_a1^H E_a1 = F_1, E_11 = F_1, and
    E_ab = E_a1 E_b1^H.  An element X of pi(A) has coordinates
    q^-1 (X xi).  The generic elements come from a fixed seed, and the
    result is checked once: the blocks of the basis must reproduce the
    unit, product and involution, and ``coords`` must invert ``units``,
    within match_tol.  Eigenvalues of x split into eigenspaces where
    neighbours fail the entrywise rule (``within_tol``) against max|x's
    eigenvalues|, and two eigenspaces are linked where their block of y
    fails it against |y|.
    """
    n = algebra.dim
    tau = np.trace(algebra.structure_constants, axis1=1, axis2=2)
    try:
        regular = gns_construct(algebra, tau, pol)
    except NotPositive:
        raise NotSemisimple("the trace x -> tr L_x is not positive") from None
    if regular.rep_dim < n:
        raise NotSemisimple(
            f"the trace x -> tr L_x is degenerate: its Gram form has rank "
            f"{regular.rep_dim} < {n}"
        )
    q, xi = regular.embedding, regular.cyclic_vector
    # q has orthogonal rows, so its inverse is its adjoint over their squared norms
    q_inv = q.conj().T / np.sum(np.abs(q) ** 2, axis=1)

    rng = np.random.default_rng(_BLOCK_SEED)
    draws = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    x, y = ((draws @ q_inv.T) @ regular.matrices.reshape(n, n * n)).reshape(2, n, n)
    values, vectors = hermitian_eigen(_hermitized(x, x.conj().T, float(np.abs(x).max())), pol)
    spread = float(np.max(np.abs(values)))
    cuts = np.flatnonzero(~within_tol(-np.diff(values), spread, pol)) + 1
    spaces = [vectors[:, idx] for idx in np.split(np.arange(n), cuts)]

    groups: list[list[np.ndarray]] = []
    y_size = float(np.linalg.norm(y))
    for v in spaces:
        for group in groups:
            if not within_tol(np.linalg.norm(v.conj().T @ y @ group[0]), y_size, pol):
                group.append(v)
                break
        else:
            groups.append([v])

    sizes = tuple(len(group) for group in groups)
    if any(v.shape[1] != len(group) for group in groups for v in group):
        raise NoConvergence(
            f"eigenspaces of a generic element do not form matrix blocks: "
            f"blocks {sizes}, eigenspaces {[v.shape[1] for v in spaces]}"
        )
    images = []  # E^j_ab xi, in column order (j, a, b)
    for group in groups:
        k, first = len(group), group[0]
        # V_a M_a with M_a = V_a^H Y V_1 / sqrt(t) unitary, and M_1 = I
        lifts = [first]
        for v in group[1:]:
            link = v.conj().T @ y @ first
            lifts.append(v @ (link * (np.sqrt(k) / np.linalg.norm(link))))
        # E_ab xi = (V_a M_a)(V_b M_b)^H xi
        tails = np.stack([lift.conj().T @ xi for lift in lifts], axis=1)
        images.extend(lift @ tails for lift in lifts)
    images = np.hstack(images)
    units = q_inv @ images
    # the E_ab xi are orthogonal with squared norm tau(E_ba E_ab) = k_j
    norms = np.repeat(sizes, [k * k for k in sizes])
    coords = (images.conj().T @ q) / norms[:, None]

    blocks = tuple(np.ascontiguousarray(coords[s].T).reshape(n, k, k)
                   for s, k in zip(_block_slices(sizes), sizes))
    worst = {"inverse": float(np.max(np.abs(coords @ units - np.eye(n))))}
    for stack in blocks:
        stack.setflags(write=False)
        for law, dev in _law_violations(algebra, stack).items():
            worst[law] = float(np.maximum(worst.get(law, 0.0), dev))
    report = ValidationReport(violations=worst, tolerance=pol.match_tol)
    if not report.passed:
        law = report.worst
        raise NoConvergence(
            f"the blocks {sizes} miss the algebra: {law} deviates by {worst[law]:.3e}"
        )
    for a in (units, coords):
        a.setflags(write=False)
    return BlockData(sizes=sizes, units=units, coords=coords, blocks=blocks)


def intertwiner(
    rep1: GNSRepresentation,
    rep2: GNSRepresentation,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Unitary U with U pi1(x) = pi2(x) U and U pi1(e_i) xi1 = pi2(e_i) xi2.

    Such a unitary exists exactly when the two source functionals coincide;
    otherwise NotEquivalent is raised.  U is recovered from the two orbit
    matrices as ``T2 T1^+`` and then checked against its contract.  Each
    check is the entrywise rule (``within_tol``): the functionals against
    the larger of them, U T1 against T2 likewise, and the unitarity and
    intertwining residuals against 1, the norm of a unitary.
    """
    if rep1.algebra.dim != rep2.algebra.dim:
        raise NotEquivalent("representations live over different algebras")
    gap, size = entrywise_gap(rep1.source_functional, rep2.source_functional)
    if not within_tol(gap, size, pol):
        raise NotEquivalent(f"source functionals differ by {gap:.3e}")
    if rep1.rep_dim != rep2.rep_dim:
        raise NotEquivalent(
            f"representation dimensions differ: {rep1.rep_dim} vs {rep2.rep_dim}"
        )
    d = rep1.rep_dim
    if d == 0:
        return np.zeros((0, 0), dtype=complex)

    t1 = rep1.orbit_matrix()
    t2 = rep2.orbit_matrix()
    u = t2 @ t1.conj().T @ pseudo_inverse(t1 @ t1.conj().T, pol)

    orbit, size = entrywise_gap(u @ t1, t2)
    unitary = max(
        float(np.max(np.abs(u.conj().T @ u - np.eye(d)))),
        float(np.max(np.abs(u @ rep1.matrices - rep2.matrices @ u))),
    )
    if not (within_tol(orbit, size, pol) and within_tol(unitary, 1.0, pol)):
        raise NotEquivalent(f"intertwining residual {max(orbit, unitary):.3e}")
    return u


def _multiplicities(rep: GNSRepresentation, pol: TolerancePolicy) -> np.ndarray:
    """How often rep holds the irreducible representation of each block.

    m_j = tr pi(z_j) / k_j, z_j the block's central projection, read off
    the character tr pi(e_i).  InvalidRepresentation when rep is empty,
    some m_j is further than match_tol * d from an integer, or the m_j do
    not add up to d (pi(1) is not the identity).
    """
    d = rep.rep_dim
    if d < 1:
        raise InvalidRepresentation("the empty representation has no multiplicities")
    data = block_data(rep.algebra, pol)
    character = np.trace(rep.matrices, axis1=1, axis2=2)
    counts = np.array([character @ z / k for z, k in
                       zip(data.central_projections(), data.sizes)])
    whole = np.rint(counts.real)
    off = float(np.max(np.abs(counts - whole)))
    if off > pol.match_tol * d:
        raise InvalidRepresentation(
            f"block multiplicities {np.round(counts.real, 6).tolist()} are {off:.3e} "
            "from integers"
        )
    if int(whole @ data.sizes) != d:
        raise InvalidRepresentation(f"block multiplicities {whole.tolist()} do not fill d = {d}")
    return whole.astype(int)


def commutant(
    rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, int]:
    """Orthonormal basis of {C : C pi(e_i) = pi(e_i) C for all i} and its dimension.

    The commutant is (+)_j M_{m_j}, m_j the multiplicity of block j, of
    dimension sum_j m_j^2.  For each block with m_j > 0, W holds an
    orthonormal basis of the range of pi(E^j_11) (one d x d eigensolve),
    and the basis elements are sum_a pi(E^j_a1) W_s W_t^H pi(E^j_1a) /
    sqrt(k_j), orthonormal in the Frobenius inner product, stacked as an
    array of d x d matrices in the order (j, s, t).
    """
    counts = _multiplicities(rep, pol)
    data = block_data(rep.algebra, pol)
    n, d = rep.algebra.dim, rep.rep_dim
    flat = rep.matrices.reshape(n, d * d)
    basis = []
    for s, k, m in zip(data.slices, data.sizes, counts):
        if m == 0:
            continue
        units = data.units[:, s].reshape(n, k, k)
        down = (units[:, :, 0].T @ flat).reshape(k, d, d)  # pi(E_a1)
        up = (units[:, 0, :].T @ flat).reshape(k, d, d)  # pi(E_1a)
        # pi(E_11), a projection: hermitian, and hermitized by the eigensolver
        _, vectors = hermitian_eigen(down[0], pol)
        w = vectors[:, :m]
        left = (down @ w).transpose(2, 1, 0).reshape(m * d, k)  # [(s, row), a]
        right = (w.conj().T @ up).reshape(k, m * d)  # [a, (t, col)]
        block = (left @ right).reshape(m, d, m, d).transpose(0, 2, 1, 3)
        basis.append(block.reshape(m * m, d, d) / np.sqrt(k))
    basis = np.concatenate(basis)
    return basis, basis.shape[0]


def is_irreducible(rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Irreducible exactly when rep holds one block's representation once."""
    return int(np.sum(_multiplicities(rep, pol))) == 1


def representations_equivalent(
    rep1: GNSRepresentation,
    rep2: GNSRepresentation,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """Unitary equivalence of two representations, ignoring cyclic vectors.

    Two representations are equivalent exactly when they hold every block's
    irreducible representation equally often.
    """
    if rep1.rep_dim != rep2.rep_dim:
        return False
    if rep1.rep_dim == 0:
        return True
    return bool(np.array_equal(_multiplicities(rep1, pol), _multiplicities(rep2, pol)))


@dataclass(frozen=True)
class DecompositionComponent:
    weight: float
    functional: np.ndarray
    representation: GNSRepresentation


@dataclass(frozen=True)
class Decomposition:
    """Irreducible components with weights summing back to the input functional."""

    components: tuple[DecompositionComponent, ...]
    multiplicity_classes: tuple[tuple[int, ...], ...]


def _state_densities(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy, caller: str
) -> tuple[BlockData, np.ndarray, list[np.ndarray]]:
    """The block data, rho as an array, and the hermitized densities D_j of rho.

    rho is positive exactly when every D_j is hermitian and PSD.  The first
    is decided here with one scale for all blocks: the block-diagonal matrix
    of the D_j is checked and hermitized in one step, as an eigensolver's
    input is (``_require_square_hermitian``), and the D_j are its diagonal
    blocks.  The second is decided by ``_state_ranks``.  NotPositive names
    the calling function.
    """
    rho = algebra._check_element(functional, "functional")
    data = block_data(algebra, pol)
    diagonal = np.zeros((sum(data.sizes),) * 2, dtype=complex)
    blocks, start = [], 0
    for dens in data.densities(rho):
        block = slice(start, start + dens.shape[0])
        diagonal[block, block] = dens
        blocks.append(block)
        start = block.stop
    try:
        diagonal = _require_square_hermitian(diagonal, pol)
    except (NotHermitian, ValueError):  # a ValueError for an entry past the float range
        raise NotPositive(f"{caller} requires a positive functional") from None
    return data, rho, [diagonal[block, block] for block in blocks]


def _state_ranks(
    rho: np.ndarray, spectra: list[np.ndarray], pol: TolerancePolicy, caller: str, zero: str
) -> list[int]:
    """The rank of each density D_j of rho, given the descending eigenvalues of each.

    The D_j are PSD, and rho positive, by ``psd_rank`` on all their
    eigenvalues at once, and each block's rank is taken relative to the
    largest of them.  NotPositive names the calling function;
    ZeroFunctional carries ``zero``.
    """
    values = np.sort(np.concatenate(spectra))[::-1]
    positive, _ = psd_rank(values, pol)
    if not positive:
        raise NotPositive(f"{caller} requires a positive functional")
    if not np.any(rho):
        raise ZeroFunctional(zero)
    top = max(float(values[0]), 0.0)
    return [psd_rank(w, pol, top)[1] for w in spectra]


def is_extremal(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether the order interval [0, rho] consists of multiples of rho alone.

    Exactly when rho is a vector state of one block: sum_j rank D_j = 1,
    read off the eigenvalues of the D_j alone.
    """
    _, rho, densities = _state_densities(algebra, functional, pol, "is_extremal")
    spectra = [hermitian_eigvals(dens, pol) for dens in densities]
    ranks = _state_ranks(rho, spectra, pol, "is_extremal", "the zero functional is not in scope")
    return sum(ranks) == 1


def decompose(
    algebra: FiniteStarAlgebra,
    functional,
    pol: TolerancePolicy = DEFAULT_POLICY,
    *,
    seed: int | None = None,
) -> Decomposition:
    """Split a positive functional into irreducible weighted pieces.

    With rho(x) = sum_j tr(D_j x_j) over the algebra's blocks
    (``block_data``), every kept eigenpair (mu, v) of a density D_j gives
    one component: the vector state omega(x) = v^H x_j v of weight mu, with
    the representation x -> x_j on C^{k_j} and cyclic vector v.  So the
    weighted components sum back to rho, and the components of one block
    form a multiplicity class.  Components come in block order, and by
    descending weight within a block.

    Everything is fixed by the input: dimensions, classes, and the weights,
    which are the eigenvalues of the D_j (for delta_e on a group G,
    dim(pi)/|G| per copy; for tr/m on M_m, 1/m per copy).  Where a D_j has
    a repeated eigenvalue, the vectors v are its canonical eigenvectors.
    ``seed`` is accepted for callers written against the earlier random
    splitting and has no effect.
    """
    data, rho, densities = _state_densities(algebra, functional, pol, "decompose")
    spectra = [hermitian_eigen(dens, pol) for dens in densities]
    ranks = _state_ranks(rho, [values for values, _ in spectra], pol, "decompose",
                         "cannot decompose the zero functional")
    components: list[DecompositionComponent] = []
    classes: list[tuple[int, ...]] = []
    for stack, (values, vectors), rank in zip(data.blocks, spectra, ranks):
        first = len(components)
        for mu, v in zip(values[:rank], vectors.T[:rank]):
            orbit = stack @ v  # (n, k): row i is (e_i)_j v
            rep = GNSRepresentation(
                algebra=algebra,
                matrices=stack,
                cyclic_vector=v,
                source_functional=orbit @ np.conj(v),
                embedding=orbit.T,
            )
            components.append(DecompositionComponent(float(mu), rep.source_functional, rep))
        if rank:
            classes.append(tuple(range(first, len(components))))
    return Decomposition(components=tuple(components), multiplicity_classes=tuple(classes))
