"""Cyclic *-representations built from positive functionals.

The algebra's Wedderburn block data (``block_data``), computed once per
algebra, writes it as a sum of full matrix algebras.  A positive
functional is a density D_j per block, and its GNS representation is
read off the D_j (``gns_construct``): block j of x acts on r_j copies of
C^{k_j}, r_j the rank of D_j, so the dimension does not depend on the
basis the algebra is written in.  Such a representation's unit, product
and adjoint laws are those of the blocks, checked once as the blocks are
built, and its verification report is kept as it is made.  Commutants,
irreducibility, extremality, equivalence and the splitting into
irreducible pieces are read in closed form off the block data too.  An
algebra with no block data (NotSemisimple, or blocks the policy cannot
resolve) gets the representation on the range of the functional's Gram
form, the quotient of the algebra by the form's null space, rescaled so
that the representation space carries the standard inner product on C^d:
one eigensolve of the Gram matrix (``_gram_represent``, which also gives
the block build its regular representation).

Inner products are written antilinear in the first argument throughout:
``(a, b) = sum_k conj(a_k) b_k``.  The defining reproduction identity is
``rho(x) = (xi, pi(x) xi)`` for the distinguished cyclic vector xi.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .algebra import FiniteStarAlgebra, _real_copies, _real_if_real
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
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    _checked_hermitized,
    _complex_array,
    _eigh,
    _eigvalsh,
    _finite_product,
    _gap_report,
    _hermitian_product,
    _hermitized,
    _law_report,
    _maxabs,
    _pseudo_inverse,
    _stack_times,
    _worst_gap,
    entrywise_gap,
    hermitian_eigen,
    index_blocks,
    psd_rank,
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
    kept in ``derived``, one per policy, as an algebra keeps its block
    data: computed on first use, or by ``gns_construct`` as it builds the
    representation.
    """

    algebra: FiniteStarAlgebra
    matrices: np.ndarray  # (n, d, d)
    cyclic_vector: np.ndarray  # (d,)
    source_functional: np.ndarray  # (n,)
    embedding: np.ndarray  # (d, n)
    # The reports of ``verify_star_rep``, keyed by what they were checked with.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mats = _complex_array(self.matrices, "matrices")
        xi = _complex_array(self.cyclic_vector, "cyclic vector")
        rho = _complex_array(self.source_functional, "functional")
        q = _complex_array(self.embedding, "embedding")
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
        """The d x n matrix whose j-th column is pi(e_j) applied to the cyclic vector.

        An infinite entry of a representation given from outside gives NaN
        columns (inf * 0) with no warning; its callers report them.
        """
        with np.errstate(invalid="ignore"):
            return (self.matrices @ self.cyclic_vector).T


def gns_construct(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> GNSRepresentation:
    """Build the cyclic *-representation attached to a positive functional.

    On a semisimple algebra it is read off the block data (``block_data``),
    as ``decompose`` reads its components: with rho(x) = sum_j tr(D_j x_j)
    and D_j = V_j diag(mu) V_j^H of rank r_j (``_state_spectra``),
    pi(x) = (+)_j x_j (x) I_{r_j} and the cyclic vector is
    xi = (+)_j vec(V_j[:, :r_j] diag(sqrt(mu))).  So d = sum_j k_j r_j, a
    number that does not depend on the basis, and the representation is
    the sum of ``decompose``'s components, each weighted by sqrt(mu).  The
    embedding is the orbit (pi(e_i) xi), and the zero functional yields the
    empty representation (d = 0).  The verification report under ``pol``
    is kept on the representation as it is built (``_kept_report``).

    This is the one builder of a representation from a functional, and
    ``correspondence.kernel_to_rep`` calls it too.  Only an algebra with no
    block data gets the representation on the range of rho's Gram matrix
    instead (``_gram_represent``), which ``verify_star_rep`` checks in
    full: one that is not semisimple, or whose blocks ``pol`` cannot
    resolve (NoConvergence, as at match_tol = 0 or a match_tol that merges
    the eigenspaces of a generic element).
    """
    try:
        data = block_data(algebra, pol)
    except (NotSemisimple, NoConvergence):
        return _gram_represent(algebra, functional, pol)
    _, rho, spectra, ranks = _state_spectra(algebra, functional, pol, "gns_construct")
    n = algebra.dim
    d = sum(k * r for k, r in zip(data.sizes, ranks))
    mats = np.zeros((n, d, d), dtype=complex)
    parts, start = [], 0
    for stack, (values, vectors), r in zip(data.blocks, spectra, ranks):
        if r:
            k = stack.shape[1]
            block = slice(start, start + k * r)
            # x_j (x) I_r, laid out as [i, (a, p), (b, q)]
            mats[:, block, block] = (stack[:, :, None, :, None]
                                     * np.eye(r)[:, None, :]).reshape(n, k * r, k * r)
            parts.append((vectors[:, :r] * np.sqrt(values[:r])).ravel())
            start = block.stop
    xi = np.concatenate(parts) if parts else np.zeros(0, dtype=complex)
    orbit = mats @ xi  # (n, d): row i is pi(e_i) xi
    rep = GNSRepresentation(algebra=algebra, matrices=mats, cyclic_vector=xi,
                            source_functional=rho, embedding=orbit.T)
    rep.derived[("verify_star_rep", pol)] = _kept_report(data, ranks, orbit @ np.conj(xi), rho, pol)
    return rep


def _kept_report(data: BlockData, ranks: list[int], reproduced: np.ndarray, rho: np.ndarray,
                 pol: TolerancePolicy) -> ValidationReport:
    """``verify_star_rep``'s report on a representation (+)_j x_j (x) I_{r_j}.

    Its unit, product and adjoint violations are those of the blocks it
    holds, kept on the block data (``BlockData.laws``): an entry of
    pi(e_i) pi(e_l) is one of x_j y_j, or 0 off the blocks, so the largest
    residual over the largest size of the blocks with r_j > 0 is the full
    check's relative violation (``_worst_gap``).  The vector is cyclic by
    construction, as each V_j diag(sqrt(mu)) has full column rank.
    Reproduction is checked on the orbit, as ``_check_star_rep`` checks it.
    """
    held = [laws for laws, r in zip(data.laws, ranks) if r]
    return _gap_report({**{law: _worst_gap(laws[law] for laws in held) for law in _LAWS},
                        "cyclicity": (0.0, 1.0),
                        "reproduction": entrywise_gap(reproduced, rho)}, pol)


def _gram_represent(algebra: FiniteStarAlgebra, rho, pol: TolerancePolicy) -> GNSRepresentation:
    """The cyclic representation of rho on the range of its Gram matrix G.

    One canonical eigensolve of G (``hermitian_eigen``) decides positivity
    and gives the rank r (``psd_rank``) and the r leading eigenpairs
    U diag(w) U^dagger, which give the quotient map Q = diag(sqrt(w)) U^dagger
    and pi(e_i) = Q L_i U diag(1/sqrt(w)).  NotPositive is raised when G is
    not hermitian, not PSD or has NaN entries; a Gram matrix that overflows
    raises NonFiniteScalar (``duality.gram_matrix``).
    """
    rho = algebra._check_element(rho, "functional")
    try:
        values, vectors = hermitian_eigen(duality.gram_matrix(algebra, rho), pol)
        is_psd, rank = psd_rank(values, pol)
    except (NotHermitian, ValueError):  # a ValueError for NaN entries
        is_psd = False
    if not is_psd:
        raise NotPositive("gns_construct requires a positive functional")
    sqrt_w = np.sqrt(values[:rank])
    q = sqrt_w[:, None] * vectors[:, :rank].conj().T  # (d, n)
    right = vectors[:, :rank] * (1.0 / sqrt_w)[None, :]  # (n, d)
    return GNSRepresentation(
        algebra=algebra,
        matrices=q @ algebra.basis_left_mult() @ right,
        cyclic_vector=q @ algebra.unit,
        source_functional=rho,
        embedding=q,
    )


# The laws of a representation that ``_law_violations`` checks.
_LAWS = ("unit", "multiplicativity", "star_property")


def _law_violations(algebra: FiniteStarAlgebra,
                    mats: np.ndarray) -> dict[str, tuple[float, float]]:
    """The unit, product and adjoint laws by images of the basis, as ``(residual, size)`` pairs.

    ``mats`` stacks candidate images pi(e_i), shape (n, d, d).  Each law
    gives ``entrywise_gap`` of its two sides, the product law the largest
    residual and size over its blocks (``_worst_gap``).
    Multiplicativity, n^2 d^2 entries, is checked a block of the first index
    at a time (``index_blocks``) as two BLAS matmuls per block, so it costs
    O(n^2 d^2 (n + d)) work in O(n d^2) memory; the other laws are matmuls.
    Every operand is multiplied as a real array when its imaginary part is
    zero (``_real_if_real``; the algebra's copies are kept, ``_real_copies``):
    real images of real structure constants (the trace and delta_e states
    in matrix-unit and group bases) are checked in real arithmetic, a
    quarter of the work.  Real structure constants build the table of
    complex images as a real matmul on the real and imaginary parts of the
    pi(e_k) (``_stack_times``), half the work of a complex one.
    """
    n, d = algebra.dim, mats.shape[1]
    c, s, e = _real_copies(algebra)
    mats = _real_if_real(mats)
    flat = np.ascontiguousarray(mats.reshape(n, d * d))  # [k, (a, b)]

    # pi(e_i) pi(e_j) as [i, a, j, c] against sum_k c[i, j, k] pi(e_k) as
    # [i, j, a, c]
    by_row = mats.transpose(1, 0, 2).reshape(d, n * d)  # [b, (j, c)]

    def product_gaps():
        for blk in index_blocks(n, n * d * d):
            rows = blk.stop - blk.start
            products = (mats[blk].reshape(rows * d, d) @ by_row).reshape(rows, d, n, d)
            table = _stack_times(c[blk].reshape(rows * n, n), flat).reshape(rows, n, d, d)
            yield entrywise_gap(products.transpose(0, 2, 1, 3), table)

    return {"unit": entrywise_gap((e @ flat).reshape(d, d), np.eye(d)),
            "multiplicativity": _worst_gap(product_gaps()),
            "star_property": entrywise_gap((s @ flat).reshape(n, d, d),
                                           np.conj(np.transpose(mats, (0, 2, 1))))}


def verify_star_rep(
    rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Report the worst relative violation of each defining law of the representation.

    Checked: the unit acts as the identity; multiplicativity on basis pairs;
    the adjoint property pi(e_i^*) = pi(e_i)^dagger (all three by
    ``_law_violations``); cyclicity of the distinguished vector, the
    number of dimensions its orbit misses; and reproduction of the source
    functional.  Each law's violation is the exact maximum of |lhs - rhs|
    over all index tuples, relative to the larger of max|lhs| and max|rhs|
    (``numerics.entrywise_gap``, ``_gap_report``), so the verdict does not
    change when the algebra's basis is scaled.  The report is
    computed on the first call for a representation and policy and kept on
    the representation (``GNSRepresentation.derived``); later calls return
    the kept report.

    ``gns_construct`` keeps the report for its policy as it builds the
    representation from the algebra's blocks: the first three laws are the
    blocks' own, cyclicity holds by construction, and only reproduction is
    computed, at O(n d^2).  Any other policy, and any representation built
    elsewhere, gets the full check, whose multiplicativity costs
    O(n^2 d^2 (n + d)).
    """
    key = ("verify_star_rep", pol)
    if key not in rep.derived:
        rep.derived[key] = _check_star_rep(rep, pol)
    return rep.derived[key]


def _check_star_rep(rep: GNSRepresentation, pol: TolerancePolicy) -> ValidationReport:
    """The full check.  Cyclicity is the rank of T T^H, T the orbit of the matrix units.

    The orbit pi(E^j_ab) xi over the matrix units (``BlockData.units``) has
    a Gram form that does not depend on the basis the algebra is written
    in, where the orbit over a badly conditioned basis can lose rank to the
    cutoff.  An algebra with no block data under ``pol`` (NotSemisimple or
    NoConvergence) uses the orbit over its basis.  T T^H is hermitian by
    construction: it is hermitized and solved with no check
    (``_hermitian_product``).  A representation with a NaN entry has no
    orbit rank, and its cyclicity reads NaN, which fails the report; a
    violation past the float range raises NonFiniteScalar (``_law_report``,
    ``_hermitian_product``).
    """
    try:
        units = block_data(rep.algebra, pol).units
    except (NotSemisimple, NoConvergence):
        units = None
    message = "the representation's law checks overflow the float range"

    def violations() -> dict[str, float]:
        orbit = rep.orbit_matrix()
        t = orbit if units is None else orbit @ units
        gram = _hermitian_product(lambda: t @ t.conj().T, message, t)
        if gram is None:  # a NaN entry of rep, or an orbit past the range
            cyclicity = math.nan
        elif rep.rep_dim:
            cyclicity = float(rep.rep_dim - psd_rank(_eigvalsh(gram), pol)[1])
        else:
            cyclicity = 0.0
        reproduced = orbit.T @ np.conj(rep.cyclic_vector)
        return {**_law_violations(rep.algebra, rep.matrices),
                "cyclicity": (cyclicity, 1.0),
                "reproduction": entrywise_gap(reproduced, rep.source_functional)}

    return _law_report(violations, pol, message, rep.matrices, rep.cyclic_vector,
                       rep.source_functional)


def _block_slices(sizes: tuple[int, ...]) -> list[slice]:
    # Python integers: np.cumsum costs more than the few blocks it would sum
    ends = itertools.accumulate(k * k for k in sizes)
    return [slice(end - k * k, end) for end, k in zip(ends, sizes)]


class BlockData(NamedTuple):
    """An algebra written as a direct sum of full matrix algebras, A = (+)_j M_{k_j}.

    ``sizes`` are the k_j.  Column ``j0 + a k_j + b`` of ``units`` holds the
    coordinates of the matrix unit E^j_ab, where block j owns the columns
    ``slices[j]`` starting at j0.  ``coords`` inverts ``units``: the same
    row of ``coords @ x`` is the (a, b) entry of block j of x.
    ``blocks[j]`` stacks block j of every basis element, shape (n, k_j, k_j);
    x -> block j of x runs over the irreducible *-representations, each once.
    ``laws[j]`` holds the ``(residual, size)`` pair of each of the unit,
    product and adjoint laws by ``blocks[j]`` (``_law_violations``),
    measured as the blocks were built; a representation built from blocks
    reads its own off them.
    ``adjoint`` maps the column of E^j_ab to that of E^j_ba = (E^j_ab)^*,
    and column j of ``centers`` holds the coordinates of z_j = sum_a E^j_aa,
    the unit of block j: the values rho(E^j_ab) of a functional are
    checked for hermiticity (``_state_densities``) and a character read
    on the z_j (``_multiplicities``) with no per-block loop.
    """

    sizes: tuple[int, ...]
    units: np.ndarray  # (n, n)
    coords: np.ndarray  # (n, n)
    blocks: tuple[np.ndarray, ...]
    laws: tuple[Mapping[str, tuple[float, float]], ...]
    adjoint: np.ndarray  # (n,)
    centers: np.ndarray  # (n, J)

    @property
    def slices(self) -> list[slice]:
        return _block_slices(self.sizes)


def block_data(
    algebra: FiniteStarAlgebra, pol: TolerancePolicy = DEFAULT_POLICY
) -> BlockData:
    """The algebra's Wedderburn block data, built on first use.

    It is kept on the algebra (``FiniteStarAlgebra.derived``), one build per
    policy; see ``_build_block_data``.  NotSemisimple when the algebra has
    no faithful trace, NoConvergence when ``pol`` cannot resolve its
    blocks.  A failed build is kept too, as its error's type and message,
    and raised again on each later call.
    """
    key = ("block_data", pol)
    if key not in algebra.derived:
        try:
            algebra.derived[key] = _build_block_data(algebra, pol)
        except (NotSemisimple, NoConvergence) as exc:
            algebra.derived[key] = (type(exc), exc.args)
            raise
    kept = algebra.derived[key]
    if isinstance(kept, BlockData):
        return kept
    error, args = kept
    raise error(*args)


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
    result is checked once, by the rule of the law checks
    (``_gap_report``): the blocks of the basis must reproduce the unit,
    product and involution, the largest residual over the largest size of
    the blocks within match_tol, and ``coords`` must invert ``units``,
    max|coords units - I| within match_tol.  Eigenvalues of x split into
    eigenspaces where neighbours fail the entrywise rule (``within_tol``)
    against max|x's eigenvalues|, and two eigenspaces are linked where
    their block of y fails it against |y|.
    """
    n = algebra.dim
    tau = np.asarray(np.trace(algebra.structure_constants, axis1=1, axis2=2), dtype=complex)
    try:
        regular = _gram_represent(algebra, tau, pol)
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
    x, y = _finite_product(
        lambda: ((draws @ q_inv.T) @ regular.matrices.reshape(n, n * n)).reshape(2, n, n),
        "the generic elements of the algebra overflow", q_inv, regular.matrices)
    # (x + x^H) / 2 is hermitian by construction, so it is solved with no check
    values, vectors = _eigh(_hermitized(x, x.conj().T, _maxabs(x)))
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
    laws = []
    for stack in blocks:
        stack.setflags(write=False)
        laws.append(MappingProxyType(_law_violations(algebra, stack)))
    report = _gap_report({"inverse": (_maxabs(coords @ units - np.eye(n)), 1.0),
                          **{law: _worst_gap(block[law] for block in laws) for law in _LAWS}},
                         pol)
    if not report.passed:
        law = report.worst
        raise NoConvergence(f"the blocks {sizes} miss the algebra: "
                            f"{law} deviates by {report.violations[law]:.3e}")
    slices = _block_slices(sizes)
    adjoint = np.concatenate([s.start + np.arange(k * k).reshape(k, k).T.ravel()
                              for s, k in zip(slices, sizes)])
    centers = np.stack([np.trace(units[:, s].reshape(n, k, k), axis1=1, axis2=2)
                        for s, k in zip(slices, sizes)], axis=1)
    for a in (units, coords, adjoint, centers):
        a.setflags(write=False)
    return BlockData(sizes=sizes, units=units, coords=coords, blocks=blocks,
                     laws=tuple(laws), adjoint=adjoint, centers=centers)


def intertwiner(
    rep1: GNSRepresentation,
    rep2: GNSRepresentation,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Unitary U with U pi1(x) = pi2(x) U and U pi1(e_i) xi1 = pi2(e_i) xi2.

    Such a unitary exists exactly when the two source functionals coincide;
    otherwise NotEquivalent is raised.  U is recovered from the two orbit
    matrices as ``T2 T1^H (T1 T1^H)^+`` and then checked against its
    contract.  T1 T1^H is hermitian and PSD by construction: it is
    hermitized and solved with no check (``_hermitian_product``), and
    inverted with no PSD verdict (``numerics._pseudo_inverse``), so a
    roundoff eigenvalue below -psd_tol times its top is dropped as the
    rank cutoff drops it.  NonFiniteScalar is raised when it overflows.
    Each check is the entrywise rule (``within_tol``): the functionals
    against the larger of them, U T1 against T2 likewise, and
    the unitarity and intertwining residuals against 1, the norm of a
    unitary.  A NaN or infinite entry in either orbit raises NotEquivalent too.
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
    gram = _hermitian_product(lambda: t1 @ t1.conj().T, "the orbit's Gram matrix overflows", t1)
    if gram is None:
        raise NotEquivalent("the first representation's orbit is not finite")
    u = t2 @ t1.conj().T @ _pseudo_inverse(*_eigh(gram), pol)

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
    the character tr pi(e_i) in one product with the z_j
    (``BlockData.centers``).  InvalidRepresentation when rep is empty,
    some m_j is not within match_tol * d of an integer (``within_tol``: a
    NaN character fails too), or the m_j do not add up to d (pi(1) is not
    the identity).
    """
    d = rep.rep_dim
    if d < 1:
        raise InvalidRepresentation("the empty representation has no multiplicities")
    data = block_data(rep.algebra, pol)
    with np.errstate(invalid="ignore"):  # inf * 0 of an infinite character reads NaN
        counts = np.trace(rep.matrices, axis1=1, axis2=2) @ data.centers / data.sizes
    whole = np.rint(counts.real)
    off = float(np.max(np.abs(counts - whole)))
    if not within_tol(off, d, pol):
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

    D_j[b, a] = rho(E^j_ab), so rho(x) = sum_j tr(D_j x_j), and rho is
    positive exactly when every D_j is hermitian and PSD.  The first is
    decided here, on the n values rho(E^j_ab) against the conjugates of
    the rho(E^j_ba) (``BlockData.adjoint``), at one scale for all blocks,
    max|rho(E^j_ab)|, by the rule and the hermitization of an eigensolver's
    input (``_checked_hermitized``): the verdict and the bits are those of
    the block-diagonal matrix of the D_j checked whole, which is never
    built.  The D_j are views of the hermitized values, each solved with no
    second check (``_eigh``, ``_eigvalsh``).  The second is decided by
    ``_state_ranks``.  NotPositive names the calling function;
    NonFiniteScalar is raised when a finite rho has a value rho(E^j_ab)
    past the float range (``_finite_product``).
    """
    rho = algebra._check_element(functional, "functional")
    data = block_data(algebra, pol)
    values = _finite_product(lambda: rho @ data.units,
                             "the densities of the functional overflow", rho)
    try:
        values = _checked_hermitized(values, np.conj(values[data.adjoint]), pol)
    except (NotHermitian, ValueError):  # a ValueError for a NaN functional
        raise NotPositive(f"{caller} requires a positive functional") from None
    return data, rho, [values[s].reshape(k, k).T for s, k in zip(data.slices, data.sizes)]


def _state_ranks(
    rho: np.ndarray, spectra: list[np.ndarray], pol: TolerancePolicy, caller: str,
    zero: str | None,
) -> list[int]:
    """The rank of each density D_j of rho, given the descending eigenvalues of each.

    The D_j are PSD, and rho positive, by ``psd_rank``'s rule on the
    largest and the smallest eigenvalue of all blocks, the first and last
    of each spectrum, and each block's rank is taken relative to the
    largest of them.  NotPositive names the calling function; the zero
    functional raises ZeroFunctional carrying ``zero``, or has rank 0 in
    every block when ``zero`` is None.
    """
    top = max(float(w[0]) for w in spectra)
    positive, _ = psd_rank(np.array([top, min(float(w[-1]) for w in spectra)]), pol)
    if not positive:
        raise NotPositive(f"{caller} requires a positive functional")
    if zero is not None and not np.any(rho):
        raise ZeroFunctional(zero)
    return [psd_rank(w, pol, max(top, 0.0))[1] for w in spectra]


def _state_spectra(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy, caller: str,
    zero: str | None = None,
) -> tuple[BlockData, np.ndarray, list[tuple[np.ndarray, np.ndarray]], list[int]]:
    """The block data, rho, the eigensystem of each density D_j and the rank of each.

    ``_state_densities``, one eigensolve per block, then ``_state_ranks``
    with ``caller`` and ``zero``.
    """
    data, rho, densities = _state_densities(algebra, functional, pol, caller)
    spectra = [_eigh(dens) for dens in densities]
    ranks = _state_ranks(rho, [values for values, _ in spectra], pol, caller, zero)
    return data, rho, spectra, ranks


def is_extremal(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether the order interval [0, rho] consists of multiples of rho alone.

    Exactly when rho is a vector state of one block: sum_j rank D_j = 1,
    read off the eigenvalues of the D_j alone.
    """
    _, rho, densities = _state_densities(algebra, functional, pol, "is_extremal")
    spectra = [_eigvalsh(dens) for dens in densities]
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
    data, _, spectra, ranks = _state_spectra(algebra, functional, pol, "decompose",
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
