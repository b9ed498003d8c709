"""Cyclic *-representations built from positive functionals.

The construction quotients the algebra by the null space of the Gram form
and rescales the surviving eigendirections so that the representation space
carries the standard inner product on C^d.  Everything downstream
(commutants, irreducibility, splitting into irreducible pieces) is plain
matrix algebra on that space.

Inner products are written antilinear in the first argument throughout:
``(a, b) = sum_k conj(a_k) b_k``.  The defining reproduction identity is
``rho(x) = (xi, pi(x) xi)`` for the distinguished cyclic vector xi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteStarAlgebra
from .duality import hermitian_gram
from .errors import (
    InvalidRepresentation,
    NotEquivalent,
    NotPositive,
    SplitFailure,
    ZeroFunctional,
)
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ValidationReport,
    hermitian_eigen,
    psd_check,
    psd_rank,
    pseudo_inverse,
)

__all__ = [
    "GNSRepresentation",
    "Decomposition",
    "DecompositionComponent",
    "gns_construct",
    "verify_star_rep",
    "intertwiner",
    "commutant",
    "is_irreducible",
    "is_extremal",
    "representations_equivalent",
    "decompose",
]

# Relative gap below which two eigenvalues of a splitting operator are
# treated as one cluster; a draw whose spectrum forms a single cluster is
# discarded and redrawn.
_CLUSTER_GAP_TOL = 1e-7
_MAX_SPLIT_RETRIES = 8


@dataclass(frozen=True)
class GNSRepresentation:
    """A cyclic *-representation together with its provenance.

    ``matrices`` stacks the images of the basis elements, shape (n, d, d);
    ``embedding`` maps algebra coordinates onto representation-space
    coordinates (the class of an element x is ``embedding @ x``), and the
    cyclic vector is the class of the unit.
    """

    algebra: FiniteStarAlgebra
    matrices: np.ndarray  # (n, d, d)
    cyclic_vector: np.ndarray  # (d,)
    source_functional: np.ndarray  # (n,)
    embedding: np.ndarray  # (d, n)

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

    With G the Gram matrix, eigendecomposed as U diag(w) U^dagger, the kept
    eigenpairs (those above the rank cutoff) define the quotient map
    ``Q = diag(sqrt(w)) U^dagger`` and the representation matrices
    ``pi(e_i) = Q L_i U diag(1/sqrt(w))``.  The zero functional yields the
    empty representation (d = 0).
    """
    rho = np.asarray(functional, dtype=complex)
    g = hermitian_gram(algebra, rho, pol)
    if g is None:
        raise NotPositive("gns_construct requires a positive functional")
    values, vectors = hermitian_eigen(g, pol)
    positive, d = psd_rank(values, pol)
    if not positive:
        raise NotPositive("gns_construct requires a positive functional")

    u_r = vectors[:, :d]
    sqrt_w = np.sqrt(values[:d])
    q = sqrt_w[:, None] * u_r.conj().T  # (d, n)
    right = u_r * (1.0 / sqrt_w)[None, :] if d else u_r  # (n, d)

    mats = q @ algebra.basis_left_mult() @ right
    xi = q @ algebra.unit
    return GNSRepresentation(
        algebra=algebra,
        matrices=mats,
        cyclic_vector=xi,
        source_functional=rho,
        embedding=q,
    )


def verify_star_rep(
    rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY
) -> ValidationReport:
    """Report the worst violation of each defining law of the representation.

    Checked: the unit acts as the identity; multiplicativity on basis pairs;
    the adjoint property pi(e_i^*) = pi(e_i)^dagger; cyclicity of the
    distinguished vector; and reproduction of the source functional.
    """
    a = rep.algebra
    mats = rep.matrices
    xi = rep.cyclic_vector
    d = rep.rep_dim
    c = a.structure_constants

    def maxabs(x) -> float:
        return float(np.max(np.abs(x))) if np.size(x) else 0.0

    unit_dev = maxabs(np.einsum("i,iab->ab", a.unit, mats) - np.eye(d))

    prod_table = np.einsum("ijk,kab->ijab", c, mats)
    mult_dev = maxabs(np.einsum("iab,jbc->ijac", mats, mats) - prod_table)

    star_images = np.einsum("ij,jab->iab", a.involution, mats)
    star_dev = maxabs(star_images - np.conj(np.transpose(mats, (0, 2, 1))))

    t = rep.orbit_matrix()
    _, orbit_rank = psd_check(t @ t.conj().T, pol) if d else (True, 0)
    cyclic_dev = float(d - orbit_rank)

    reproduced = np.einsum("a,iab,b->i", np.conj(xi), mats, xi)
    repro_dev = maxabs(reproduced - rep.source_functional)

    return ValidationReport(
        violations={
            "unit": unit_dev,
            "multiplicativity": mult_dev,
            "star_property": star_dev,
            "cyclicity": cyclic_dev,
            "reproduction": repro_dev,
        },
        tolerance=pol.match_tol,
    )


def intertwiner(
    rep1: GNSRepresentation,
    rep2: GNSRepresentation,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Unitary U with U pi1(x) = pi2(x) U and U pi1(e_i) xi1 = pi2(e_i) xi2.

    Such a unitary exists exactly when the two source functionals coincide;
    otherwise NotEquivalent is raised.  U is recovered from the two orbit
    matrices as ``T2 T1^+`` and then checked against its contract.
    """
    if rep1.algebra.dim != rep2.algebra.dim:
        raise NotEquivalent("representations live over different algebras")
    gap = float(np.max(np.abs(rep1.source_functional - rep2.source_functional)))
    if gap > pol.match_tol:
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

    residual = max(
        float(np.max(np.abs(u @ t1 - t2))),
        float(np.max(np.abs(u.conj().T @ u - np.eye(d)))),
        float(np.max(np.abs(np.einsum("ab,ibc->iac", u, rep1.matrices)
                            - np.einsum("iab,bc->iac", rep2.matrices, u)))),
    )
    if residual > pol.match_tol:
        raise NotEquivalent(f"intertwining residual {residual:.3e}")
    return u


def _flatten_commutant_system(mats1: np.ndarray, mats2: np.ndarray) -> np.ndarray:
    """Normal matrix of the linear system X pi1(e_i) = pi2(e_i) X (row-major vec).

    With A_i = pi1(e_i) (d1 x d1), B_i = pi2(e_i) (d2 x d2) and the
    constraint matrices K_i = I (x) A_i^T - B_i (x) I, the normal matrix
    sum_i K_i^H K_i expands in closed form to

        I (x) sum_i conj(A_i) A_i^T  +  sum_i B_i^H B_i (x) I  -  (X + X^H),

    with X = sum_i B_i (x) conj(A_i), a single (d2^2 x n) by (n x d1^2)
    product regrouped as (d2 d1) x (d2 d1).  That is O(n d1^2 d2^2) work and
    no per-generator Kronecker products.

    K_i does not change when A_i and B_i are shifted by the same multiple of
    the identity, so each pair is first centred by the mean of their
    normalised traces.  The expansion then cancels only the non-scalar
    parts in floating point: a one-dimensional representation against
    itself gives an exact zero, as the Kronecker form does.
    """
    n, d1, _ = mats1.shape
    d2 = mats2.shape[1]
    shift = (np.trace(mats1, axis1=1, axis2=2) / d1
             + np.trace(mats2, axis1=1, axis2=2) / d2) / 2
    mats1 = mats1 - shift[:, None, None] * np.eye(d1)
    mats2 = mats2 - shift[:, None, None] * np.eye(d2)
    a_bar = np.conj(mats1)
    x = mats2.reshape(n, d2 * d2).T @ a_bar.reshape(n, d1 * d1)
    x = x.reshape(d2, d2, d1, d1).transpose(0, 2, 1, 3).reshape(d2 * d1, d2 * d1)
    normal = -(x + x.conj().T)
    # (row block, row within, column block, column within) view of normal
    blocks = normal.reshape(d2, d1, d2, d1)
    same1, same2 = np.arange(d1), np.arange(d2)
    blocks[same2, :, same2, :] += np.einsum("iab,icb->ac", a_bar, mats1)
    blocks[:, same1, :, same1] += np.einsum("iba,ibc->ac", np.conj(mats2), mats2)
    return normal


def commutant(
    rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, int]:
    """Orthonormal basis of {C : C pi(e_i) = pi(e_i) C for all i} and its dimension.

    Computed as the null space of the stacked commutation constraints on d^2
    unknowns; the basis (stacked as an array of d x d matrices) is the set of
    null eigenvectors of the normal matrix, in canonical eigen order.  The
    normal matrix is built in closed form (``_flatten_commutant_system``) in
    O(n d^4) work; its d^2 x d^2 eigensolve dominates the cost.
    """
    d = rep.rep_dim
    if d < 1:
        raise InvalidRepresentation("commutant requires a nonempty representation")
    normal = _flatten_commutant_system(rep.matrices, rep.matrices)
    values, vectors = hermitian_eigen(normal, pol)
    _, rank = psd_rank(values, pol)
    dim = values.size - rank
    basis = vectors[:, rank:].T.reshape(dim, d, d)
    return basis, dim


def is_irreducible(rep: GNSRepresentation, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """A representation is irreducible exactly when its commutant is scalar."""
    _, dim = commutant(rep, pol)
    return dim == 1


def _gns_of_positive(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy, caller: str
) -> GNSRepresentation:
    """``gns_construct``, with its NotPositive reworded for the calling function."""
    try:
        return gns_construct(algebra, functional, pol)
    except NotPositive:
        raise NotPositive(f"{caller} requires a positive functional") from None


def is_extremal(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Whether the order interval [0, rho] consists of multiples of rho alone.

    Decided through irreducibility of the attached representation; at finite
    dimension the two notions coincide.
    """
    rep = _gns_of_positive(algebra, functional, pol, "is_extremal")
    if float(np.max(np.abs(rep.source_functional))) == 0.0:
        raise ZeroFunctional("the zero functional is not in scope")
    return is_irreducible(rep, pol)


def representations_equivalent(
    rep1: GNSRepresentation,
    rep2: GNSRepresentation,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """Unitary equivalence of two representations, ignoring cyclic vectors.

    Decided by the dimension of the space of intertwiners; for a pair of
    irreducible representations that dimension is 1 when they are equivalent
    and 0 otherwise.
    """
    if rep1.rep_dim != rep2.rep_dim:
        return False
    if rep1.rep_dim == 0:
        return True
    normal = _flatten_commutant_system(rep1.matrices, rep2.matrices)
    values, _ = hermitian_eigen(normal, pol)
    _, rank = psd_rank(values, pol)
    return rank < values.size


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


def _eigenvalue_clusters(values: np.ndarray) -> list[np.ndarray]:
    gap_tol = _CLUSTER_GAP_TOL * (1.0 + float(np.max(np.abs(values))))
    clusters: list[list[int]] = [[0]]
    for k in range(1, values.size):
        if values[k - 1] - values[k] <= gap_tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return [np.asarray(c, dtype=int) for c in clusters]


def decompose(
    algebra: FiniteStarAlgebra,
    functional,
    pol: TolerancePolicy = DEFAULT_POLICY,
    seed: int = 0,
) -> Decomposition:
    """Split a positive functional into irreducible weighted pieces.

    While the commutant of the current representation is larger than the
    scalars, a random real combination C of its basis is hermitized with a
    phase, ((1 - i) C + (1 + i) C^H) / 2 (the sum of the hermitian and
    anti-hermitian parts of C, so complex-conjugate characters separate
    too), eigendecomposed, and the space split along its eigenvalue
    clusters; every cluster is invariant and inherits the projected cyclic
    vector (the random-element splitting of Murota, Kanno, Kojima & Kojima,
    2010).  Each piece contributes the normalized functional it reproduces,
    weighted by the squared norm of the projected cyclic vector, so the
    weighted pieces sum back to the input.  Components are finally grouped
    into multiplicity classes by unitary equivalence of their
    representations.

    Fixed by the input alone: the component dimensions, the multiplicity
    classes, and the weights of a tracial state (for delta_e on a group G,
    dim(pi)/|G| per copy; for tr/m on M_m, 1/m per copy).
    Not fixed: which vector state is picked inside a multiplicity class, and
    so the weights and functionals of other states; they depend on the
    commutant basis and can change between versions.  The contract is that
    the same code, input and seed give the same result, bit for bit.  A draw
    with a clusterless spectrum is retried up to 8 times before
    SplitFailure.
    """
    whole = _gns_of_positive(algebra, functional, pol, "decompose")
    if float(np.max(np.abs(whole.source_functional))) == 0.0:
        raise ZeroFunctional("cannot decompose the zero functional")

    rng = np.random.default_rng(seed)
    components: list[DecompositionComponent] = []

    def split(weight: float, rep: GNSRepresentation) -> None:
        basis, comm_dim = commutant(rep, pol)
        if comm_dim <= 1:
            components.append(DecompositionComponent(weight, rep.source_functional, rep))
            return

        clusters = None
        eigvecs = None
        for _ in range(_MAX_SPLIT_RETRIES):
            coeffs = rng.standard_normal(comm_dim)
            candidate = np.einsum("k,kab->ab", coeffs, basis)
            # The phase mixes the hermitian and anti-hermitian parts of the
            # combination; its real part alone cannot tell a character from
            # its complex conjugate (Z_k, k >= 3).
            candidate = ((1 - 1j) * candidate + (1 + 1j) * candidate.conj().T) / 2.0
            w, v = hermitian_eigen(candidate, pol)
            groups = _eigenvalue_clusters(w)
            if len(groups) >= 2:
                clusters, eigvecs = groups, v
                break
        if clusters is None:
            raise SplitFailure(
                f"no splitting direction found after {_MAX_SPLIT_RETRIES} draws"
            )

        for idx in clusters:
            block = eigvecs[:, idx]  # (d, m) orthonormal columns
            xi_block = block.conj().T @ rep.cyclic_vector
            lam = float(np.vdot(xi_block, xi_block).real)
            if np.sqrt(lam) <= pol.rel_rank_tol:
                raise SplitFailure("projected cyclic vector vanished in a block")
            sub_mats = block.conj().T @ rep.matrices @ block
            sub_values = (
                np.einsum("a,iab,b->i", np.conj(xi_block), sub_mats, xi_block) / lam
            )
            split(weight * lam, gns_construct(algebra, sub_values, pol))

    split(1.0, whole)

    classes: list[list[int]] = []
    for k, comp in enumerate(components):
        for cls in classes:
            anchor = components[cls[0]]
            if representations_equivalent(
                anchor.representation, comp.representation, pol
            ):
                cls.append(k)
                break
        else:
            classes.append([k])

    return Decomposition(
        components=tuple(components),
        multiplicity_classes=tuple(tuple(c) for c in classes),
    )
