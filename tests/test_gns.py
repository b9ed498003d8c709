"""Tests for the cyclic-representation construction and its consumers."""

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    GNSRepresentation,
    TolerancePolicy,
    block_data,
    build_group_algebra,
    build_matrix_algebra,
    commutant,
    decompose,
    direct_sum_algebra,
    functional_to_kernel,
    gns_construct,
    intertwiner,
    is_extremal,
    is_irreducible,
    is_positive,
    kernel_to_rep,
    representations_equivalent,
    rep_to_kernel,
    verify_star_rep,
)
from starrep.errors import NotEquivalent, NotPositive, ZeroFunctional
from starrep.gns import _gram_represent

from conftest import (
    change_basis,
    conjugated_copy,
    count_eigensolves,
    count_law_checks,
    cyclic_group_table,
    gram_represent_oracle,
    random_algebra,
    random_positive_functional,
    random_unitary,
    record_eigensolves,
    s3_algebra,
    s4_algebra,
    z2_algebra,
    z3_algebra,
)

TRACE2 = np.array([1.0, 0, 0, 1.0])


def test_gns_scalar_algebra():
    c1 = build_matrix_algebra(1)
    rep = gns_construct(c1, [1.0])
    assert rep.rep_dim == 1
    assert np.allclose(rep.matrices[0], [[1.0]])
    assert np.allclose(rep.cyclic_vector, [1.0])


def test_gns_trivial_character():
    rep = gns_construct(z2_algebra(), [1, 1])
    assert rep.rep_dim == 1
    assert np.allclose(rep.matrices[1], [[1.0]])
    assert np.allclose(rep.cyclic_vector, [1.0])


def test_gns_matrix_trace_reproduces():
    m2 = build_matrix_algebra(2)
    rep = gns_construct(m2, TRACE2)
    assert rep.rep_dim == 4
    values = np.einsum(
        "a,iab,b->i", np.conj(rep.cyclic_vector), rep.matrices, rep.cyclic_vector
    )
    assert np.allclose(values, TRACE2, atol=1e-12)


def test_gns_requires_positive():
    with pytest.raises(NotPositive):
        gns_construct(z2_algebra(), [1, 2.0])


def test_gns_requires_hermitian_gram():
    # on Z_2, rho(g) = 1j gives the Gram matrix [[1, 1j], [1j, 1]]
    with pytest.raises(NotPositive):
        gns_construct(z2_algebra(), [1, 1j])


def test_gns_eigendecomposes_each_density_once(monkeypatch):
    # once the algebra's block data is built (the trace's Gram matrix and a
    # generic element, n x n each), each block's density is eigendecomposed
    # once, k_j x k_j, and no Gram matrix is
    m2 = build_matrix_algebra(2)
    rep, sizes = count_eigensolves(monkeypatch, lambda: gns_construct(m2, TRACE2))
    assert rep.rep_dim == 4
    assert sizes == [4, 4, 2]
    rep, sizes = count_eigensolves(monkeypatch, lambda: gns_construct(m2, TRACE2))
    assert sizes == [2]
    s3 = s3_algebra()
    block_data(s3)
    rep, sizes = count_eigensolves(monkeypatch, lambda: gns_construct(s3, np.eye(6)[0]))
    assert rep.rep_dim == 6
    assert sorted(sizes) == [1, 1, 2]


ORACLE_ALGEBRAS = {
    "M2": lambda: build_matrix_algebra(2),
    "M3": lambda: build_matrix_algebra(3),
    "M4": lambda: build_matrix_algebra(4),
    "S3": s3_algebra,
    "M2+S3": lambda: direct_sum_algebra(build_matrix_algebra(2), s3_algebra()),
}


def weighted_components(algebra, rho):
    """The direct sum of ``decompose``'s components, each cyclic vector times sqrt(weight).

    In ``gns_construct``'s coordinate order: the r_j components of block j
    fill C^{k_j} (x) C^{r_j}, coordinate a of component s at a r_j + s.
    """
    if not np.any(rho):
        return np.zeros((algebra.dim, 0, 0)), np.zeros(0)
    dec = decompose(algebra, rho)
    reps = [c.representation for c in dec.components]
    d = sum(rep.rep_dim for rep in reps)
    mats = np.zeros((algebra.dim, d, d), dtype=complex)
    xi = np.zeros(d, dtype=complex)
    start = 0
    for cls in dec.multiplicity_classes:
        k, r = reps[cls[0]].rep_dim, len(cls)
        for s, c in enumerate(cls):
            at = slice(start + s, start + k * r, r)
            mats[:, at, at] = reps[c].matrices
            xi[at] = np.sqrt(dec.components[c].weight) * reps[c].cyclic_vector
        start += k * r
    return mats, xi


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
@pytest.mark.parametrize("scrambled", [False, True], ids=["units", "scrambled"])
@pytest.mark.parametrize("name", list(ORACLE_ALGEBRAS))
def test_representations_match_the_own_eigensolve_oracle(name, scrambled, scale):
    # The Gram form of the fallback (gns._gram_represent) is the oracle's
    # eigensolve of the same Gram matrix, so the two agree bit for bit.
    # gns_construct reads the block data: it is the sum of decompose's
    # components weighted by sqrt(weight), and unitarily equivalent to the
    # oracle; kernel_to_rep of rho's kernel is gns_construct of the
    # functional the kernel reproduces.  The states: the unit's coordinates
    # (the trace: a Gram matrix I, one tie cluster), a random one, a vector
    # state of it (rank-deficient), and zero.
    rng = np.random.default_rng([list(ORACLE_ALGEBRAS).index(name), scrambled])
    algebra = ORACLE_ALGEBRAS[name]()
    n = algebra.dim
    state = random_positive_functional(algebra, rng)
    vector_state = decompose(algebra, state).components[0].functional
    states = [algebra.unit, state, vector_state, np.zeros(n)]
    if scrambled:
        s = random_unitary(rng, n)
        algebra = change_basis(algebra, s)
        states = [s.T @ rho for rho in states]
    for rho in states:
        rho = scale * rho
        mats, xi, q = gram_represent_oracle(algebra, rho)
        oracle = GNSRepresentation(algebra, mats, xi, rho, q)
        rep = _gram_represent(algebra, rho, DEFAULT_POLICY)
        assert rep.matrices.tobytes() == mats.tobytes()
        assert rep.cyclic_vector.tobytes() == xi.tobytes()
        assert rep.embedding.tobytes() == q.tobytes()
        assert verify_star_rep(rep).passed

        built = gns_construct(algebra, rho)
        assert verify_star_rep(built).passed
        from_kernel = kernel_to_rep(algebra, functional_to_kernel(algebra, rho))
        assert from_kernel.rep_dim == built.rep_dim
        assert verify_star_rep(from_kernel).passed
        summed_mats, summed_xi = weighted_components(algebra, rho)
        assert np.array_equal(built.matrices, summed_mats)
        assert np.array_equal(built.cyclic_vector, summed_xi)
        assert np.array_equal(built.embedding, built.orbit_matrix())
        u = intertwiner(built, oracle)
        assert u.shape == (oracle.rep_dim,) * 2


@pytest.mark.parametrize(
    "functional",
    [[1, 2.0], [1, 1j], [np.nan, 0.0]],
    ids=["not-psd", "not-hermitian", "nan"],
)
def test_a_failed_gram_eigensolve_names_its_caller(functional):
    z2 = z2_algebra()
    with pytest.raises(NotPositive, match="^gns_construct requires a positive functional$"):
        gns_construct(z2, functional)
    with pytest.raises(NotPositive, match="^functional_to_kernel requires a positive functional$"):
        functional_to_kernel(z2, functional)


def test_gns_zero_functional_gives_empty_rep():
    rep = gns_construct(z2_algebra(), [0, 0])
    assert rep.rep_dim == 0
    assert verify_star_rep(rep).passed


def test_verify_detects_broken_multiplicativity():
    rep = gns_construct(z2_algebra(), [1, 0])
    mats = np.array(rep.matrices, copy=True)
    mats[1] = 2.0 * mats[1]
    broken = GNSRepresentation(
        algebra=rep.algebra,
        matrices=mats,
        cyclic_vector=rep.cyclic_vector,
        source_functional=rep.source_functional,
        embedding=rep.embedding,
    )
    report = verify_star_rep(broken)
    assert not report.passed
    assert report.violations["multiplicativity"] == pytest.approx(3.0)


def test_a_representation_is_verified_once_per_policy(monkeypatch):
    # gns_construct keeps the report for its policy, read off the blocks'
    # law checks (one k = 2 block, checked as the block data is built); a
    # representation built elsewhere, or another policy, gets the full
    # check once
    checks = count_law_checks(monkeypatch)
    m2 = build_matrix_algebra(2)
    rep = gns_construct(m2, TRACE2)
    assert checks == [2]
    report = verify_star_rep(rep)
    rep_to_kernel(rep)
    assert verify_star_rep(rep, TolerancePolicy()) is report
    rep_to_kernel(rep, TolerancePolicy())
    assert checks == [2]
    looser = TolerancePolicy(match_tol=1e-7)
    assert verify_star_rep(rep, looser).tolerance == 1e-7
    rep_to_kernel(rep, looser)
    assert checks == [2, 2, 4]  # the blocks under the looser policy, then rep

    outside = conjugated_copy(rep, random_unitary(np.random.default_rng(3), rep.rep_dim))
    report = verify_star_rep(outside)
    rep_to_kernel(outside)
    assert verify_star_rep(outside, TolerancePolicy()) is report
    assert checks == [2, 2, 4, 4]


def test_kept_report_is_read_only():
    report = verify_star_rep(gns_construct(build_matrix_algebra(2), TRACE2))
    with pytest.raises(TypeError):
        report.violations["reproduction"] = 1.0


# rho = tr(diag(2, 1) .) on M_2 in the matrix-unit basis E11, E12, E21, E22
DIAG21 = np.array([2.0, 0, 0, 1.0])


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_reproduction_is_scale_free_in_matrix_units(scale):
    # the block data's matrix units are complex, so rho is reproduced to a
    # few ulps; the representation is the same at every scale, its cyclic
    # vector scaled by sqrt(scale)
    eps = np.finfo(float).eps
    m2 = build_matrix_algebra(2)
    rep, unscaled = gns_construct(m2, scale * DIAG21), gns_construct(m2, DIAG21)
    report = verify_star_rep(rep)
    assert report.passed, dict(report.violations)
    assert report.violations["reproduction"] < 8 * eps
    assert np.array_equal(rep.matrices, unscaled.matrices)
    np.testing.assert_allclose(rep.cyclic_vector / np.sqrt(scale), unscaled.cyclic_vector,
                               rtol=8 * eps, atol=0)
    np.testing.assert_allclose(
        rep_to_kernel(rep).matrix / scale, rep_to_kernel(unscaled).matrix,
        atol=1e-14,
    )


@pytest.mark.parametrize("scale", [1e6, 1e9])
def test_reproduction_is_scale_free_in_a_scrambled_basis(scale):
    s = random_unitary(np.random.default_rng(11), 9)
    m3 = change_basis(build_matrix_algebra(3), s)
    # tr(diag(3, 2, 1) .) / 6 in the matrix-unit basis, carried through s
    rho = s.T @ (np.diag([3.0, 2.0, 1.0]).ravel() / 6.0)
    rep = gns_construct(m3, scale * rho)
    report = verify_star_rep(rep)
    assert rep.rep_dim == 9
    assert report.passed, dict(report.violations)
    assert report.violations["reproduction"] < 1e-13
    rep_to_kernel(rep)


def test_gns_round_trip_random():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        rep = gns_construct(a, rho)
        assert verify_star_rep(rep).passed
        _, gram_rank = is_positive(a, rho)
        assert rep.rep_dim == gram_rank


def test_intertwiner_with_itself_is_identity():
    rep = gns_construct(z2_algebra(), [1, 0])
    u = intertwiner(rep, rep)
    assert np.allclose(u, np.eye(2))


def test_intertwiner_finds_basis_rotation():
    rng = np.random.default_rng(32)
    for _ in range(10):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        rep1 = gns_construct(a, rho)
        if rep1.rep_dim == 0:
            continue
        w = random_unitary(rng, rep1.rep_dim)
        rep2 = conjugated_copy(rep1, w)
        u = intertwiner(rep1, rep2)
        t1 = rep1.orbit_matrix()
        t2 = rep2.orbit_matrix()
        assert np.max(np.abs(u @ t1 - t2)) < 1e-8
        assert np.max(np.abs(u.conj().T @ u - np.eye(rep1.rep_dim))) < 1e-8


def test_intertwiner_rejects_different_functionals():
    z2 = z2_algebra()
    with pytest.raises(NotEquivalent):
        intertwiner(gns_construct(z2, [1, 1]), gns_construct(z2, [1, -1]))


def test_functional_equality_decides_equivalence():
    rng = np.random.default_rng(33)
    for _ in range(10):
        a, trace = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        rep = gns_construct(a, rho)
        if rep.rep_dim == 0:
            continue
        intertwiner(rep, conjugated_copy(rep, random_unitary(rng, rep.rep_dim)))
        perturbed = rho + 1e-4 * trace
        with pytest.raises(NotEquivalent):
            intertwiner(rep, gns_construct(a, perturbed))


def test_equivalence_survives_roundoff_between_one_dimensional_copies():
    # the normal matrix of two 1x1 representations is sum |a_i - b_i|^2; a
    # cutoff relative to it alone read any residue as "no intertwiner"
    z2 = z2_algebra()
    rep = gns_construct(z2, [1.0, 1.0])
    nudged = GNSRepresentation(
        z2, rep.matrices + 2e-16, rep.cyclic_vector, rep.source_functional, rep.embedding
    )
    assert representations_equivalent(rep, nudged)
    assert not representations_equivalent(rep, gns_construct(z2, [1.0, -1.0]))


def test_like_characters_across_seeds_are_equivalent():
    # the irreducible components of delta_e on S_4 from two seeds: a pair is
    # equivalent exactly when the two have the same character
    s4 = s4_algebra()
    delta = np.eye(24)[0]
    anchors = [
        [dec.components[cls[0]].representation for cls in dec.multiplicity_classes]
        for dec in (decompose(s4, delta, seed=0), decompose(s4, delta, seed=1))
    ]
    assert len(anchors[0]) == len(anchors[1]) == 5

    def character(rep):
        return np.trace(rep.matrices, axis1=1, axis2=2)

    like = 0
    for rep0 in anchors[0]:
        for rep1 in anchors[1]:
            same = np.allclose(character(rep0), character(rep1), atol=1e-8)
            like += same
            assert representations_equivalent(rep0, rep1) == same
    assert like == 5


def test_commutant_dimensions():
    c1 = build_matrix_algebra(1)
    _, dim = commutant(gns_construct(c1, [1.0]))
    assert dim == 1

    m2 = build_matrix_algebra(2)
    _, dim = commutant(gns_construct(m2, TRACE2))
    assert dim == 4

    _, dim = commutant(gns_construct(z2_algebra(), [1, 0]))
    assert dim == 2


def flatten_commutant_system(mats1: np.ndarray, mats2: np.ndarray) -> np.ndarray:
    """Normal matrix of the system X pi1(e_i) = pi2(e_i) X on d1 d2 unknowns (row-major vec).

    The d^2-unknown system that ``commutant`` and ``representations_equivalent``
    solved before they read the algebra's block data, kept as their oracle.
    With A_i = pi1(e_i), B_i = pi2(e_i) and K_i = I (x) A_i^T - B_i (x) I,
    sum_i K_i^H K_i is built in closed form as

        I (x) sum_i conj(A_i) A_i^T  +  sum_i B_i^H B_i (x) I  -  (X + X^H),

    X = sum_i B_i (x) conj(A_i), after centring each pair by the mean of
    their normalised traces (which leaves every K_i unchanged).
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
    blocks = normal.reshape(d2, d1, d2, d1)
    same1, same2 = np.arange(d1), np.arange(d2)
    blocks[same2, :, same2, :] += np.einsum("iab,icb->ac", a_bar, mats1)
    blocks[:, same1, :, same1] += np.einsum("iba,ibc->ac", np.conj(mats2), mats2)
    return normal


def commutant_oracle(rep) -> np.ndarray:
    """Orthonormal rows spanning the commutant: the null space of the d^2 system.

    Solved with numpy's eigh; the cutoff is relative to sum_i ||pi(e_i)||_F^2.
    """
    values, vectors = np.linalg.eigh(flatten_commutant_system(rep.matrices, rep.matrices))
    scale = 2 * np.vdot(rep.matrices, rep.matrices).real
    return vectors[:, values <= 1e-9 * scale].T


def kron_sum_normal_matrix(mats1, mats2):
    """The commutant normal matrix summed from explicit Kronecker products."""
    d1, d2 = mats1.shape[1], mats2.shape[1]
    normal = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for a, b in zip(mats1, mats2):
        k = np.kron(np.eye(d2), a.T) - np.kron(b, np.eye(d1))
        normal += k.conj().T @ k
    return normal


def test_closed_form_normal_matrix_matches_kron_sum():
    rng = np.random.default_rng(35)
    unequal = 0
    for _ in range(25):
        a, _ = random_algebra(rng)
        rep1 = gns_construct(a, random_positive_functional(a, rng))
        rep2 = gns_construct(a, random_positive_functional(a, rng))
        if rep1.rep_dim == 0 or rep2.rep_dim == 0:
            continue
        unequal += rep1.rep_dim != rep2.rep_dim
        for m1, m2 in [(rep1.matrices, rep1.matrices), (rep1.matrices, rep2.matrices),
                       (rep2.matrices, rep1.matrices)]:
            oracle = kron_sum_normal_matrix(m1, m2)
            closed = flatten_commutant_system(m1, m2)
            assert closed.shape == oracle.shape
            scale = max(float(np.max(np.abs(oracle))), 1.0)
            assert np.max(np.abs(closed - oracle)) <= 1e-12 * scale
    assert unequal >= 5


def commutant_cases():
    rng = np.random.default_rng(36)
    for _ in range(20):
        a, _ = random_algebra(rng, max_dim=9)
        yield gns_construct(a, random_positive_functional(a, rng))
    yield gns_construct(s3_algebra(), np.eye(6)[0])
    yield gns_construct(s4_algebra(), np.eye(24)[0])
    yield gns_construct(build_matrix_algebra(3), matrix_state([1, 2, 3]) / 6)


def test_commutant_matches_the_d2_system_oracle():
    # same dimension, and the same subspace of the d x d matrices
    checked = 0
    for rep in commutant_cases():
        d = rep.rep_dim
        if d == 0:
            continue
        basis, dim = commutant(rep)
        oracle = commutant_oracle(rep)
        assert dim == oracle.shape[0]
        rows = basis.reshape(dim, d * d)
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(dim))) < 1e-10
        assert np.max(np.abs(rows.T @ rows.conj() - oracle.T @ oracle.conj())) < 1e-10
        checked += 1
    assert checked >= 20


def matrix_state(weights):
    """Values on the matrix units of tr(D .) with D = diag(weights)."""
    return np.diag(np.asarray(weights, dtype=float)).ravel()


@pytest.mark.parametrize(
    "algebra,rho,dim",
    [
        (s3_algebra(), np.eye(6)[0], 6),
        (build_matrix_algebra(3), matrix_state([1, 2, 3]) / 6, 9),
        (build_matrix_algebra(4), matrix_state([1, 2, 3, 4]) / 10, 16),
        (s4_algebra(), np.eye(24)[0], 1 + 1 + 4 + 9 + 9),
    ],
    ids=["S3-regular", "M3-faithful", "M4-faithful", "S4-delta"],
)
def test_commutant_dimension_and_basis(algebra, rho, dim):
    rep = gns_construct(algebra, rho)
    basis, comm_dim = commutant(rep)
    assert comm_dim == dim
    assert basis.shape == (dim, rep.rep_dim, rep.rep_dim)
    residual = basis[:, None] @ rep.matrices[None] - rep.matrices[None] @ basis[:, None]
    assert np.max(np.abs(residual)) < 1e-10


@pytest.mark.parametrize(
    "algebra,order", [(s4_algebra(), 24), (build_group_algebra(cyclic_group_table(5)), 5)],
    ids=["S4", "Z5"],
)
def test_one_dimensional_components_are_irreducible(algebra, order):
    # the normal matrix of a one-dimensional representation against itself
    # is zero; the closed form must not leave a roundoff residue that reads
    # as rank 1 (the characters split off by decompose carry roundoff)
    for seed in range(4):
        dec = decompose(algebra, np.eye(order)[0], seed=seed)
        characters = [c for c in dec.components if c.representation.rep_dim == 1]
        assert characters
        for c in characters:
            assert commutant(c.representation)[1] == 1
            assert representations_equivalent(c.representation, c.representation)
            assert is_extremal(algebra, c.functional)


def test_commutant_basis_commutes():
    m2 = build_matrix_algebra(2)
    rep = gns_construct(m2, TRACE2)
    basis, dim = commutant(rep)
    assert basis.shape == (dim, 4, 4)
    for b in basis:
        for mat in rep.matrices:
            assert np.max(np.abs(b @ mat - mat @ b)) < 1e-10


def test_is_irreducible():
    z2 = z2_algebra()
    assert is_irreducible(gns_construct(z2, [1, 1]))
    assert not is_irreducible(gns_construct(z2, [1, 0]))
    m2 = build_matrix_algebra(2)
    vector_state = gns_construct(m2, [1.0, 0, 0, 0])
    assert vector_state.rep_dim == 2
    assert is_irreducible(vector_state)


def test_is_extremal():
    z2 = z2_algebra()
    assert is_extremal(z2, [1, 1])
    assert not is_extremal(z2, [1, 0])
    # and indeed (1, 0) = (1/2)(1, 1) + (1/2)(1, -1)
    assert np.allclose(
        0.5 * np.array([1.0, 1.0]) + 0.5 * np.array([1.0, -1.0]), [1, 0]
    )
    assert not is_extremal(build_matrix_algebra(2), TRACE2)
    with pytest.raises(ZeroFunctional):
        is_extremal(z2, [0, 0])
    with pytest.raises(NotPositive):
        is_extremal(z2, [1, 2.0])


def test_decompose_regular_z2():
    dec = decompose(z2_algebra(), [1, 0], seed=0)
    assert len(dec.components) == 2
    weights = sorted(c.weight for c in dec.components)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-12)
    values = sorted(c.functional[1].real for c in dec.components)
    assert np.allclose(values, [-1.0, 1.0], atol=1e-12)
    assert len(dec.multiplicity_classes) == 2


def test_decompose_already_irreducible():
    dec = decompose(z2_algebra(), [1, 1], seed=0)
    assert len(dec.components) == 1
    assert dec.components[0].weight == pytest.approx(1.0)
    assert dec.multiplicity_classes == ((0,),)


def test_decompose_matrix_trace():
    m2 = build_matrix_algebra(2)
    dec = decompose(m2, TRACE2, seed=7)
    assert len(dec.components) == 2
    assert dec.multiplicity_classes == ((0, 1),)
    for c in dec.components:
        assert c.weight == pytest.approx(1.0, abs=1e-9)
        assert c.representation.rep_dim == 2
        assert is_irreducible(c.representation)
    # both pieces carry the defining representation
    defining = gns_construct(m2, [1.0, 0, 0, 0])
    for c in dec.components:
        assert representations_equivalent(c.representation, defining)


def test_decompose_is_seed_deterministic():
    # the seed is accepted and has no effect: every run gives the same bits
    s3 = s3_algebra()
    first = decompose(s3, np.eye(6)[0], seed=5)
    for again in (decompose(s3_algebra(), np.eye(6)[0], seed=5),
                  decompose(s3_algebra(), np.eye(6)[0], seed=6),
                  decompose(s3_algebra(), np.eye(6)[0])):
        assert again.multiplicity_classes == first.multiplicity_classes
        for c1, c2 in zip(first.components, again.components, strict=True):
            assert np.array_equal(c1.functional, c2.functional)
            assert c1.weight == c2.weight


def test_decompose_soundness_random():
    rng = np.random.default_rng(34)
    for trial in range(15):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        if float(np.max(np.abs(rho))) < 1e-9:
            continue
        dec = decompose(a, rho, seed=trial)
        rebuilt = sum(c.weight * c.functional for c in dec.components)
        assert np.max(np.abs(rebuilt - rho)) < 1e-8
        for c in dec.components:
            assert is_irreducible(c.representation)
            _, dim = commutant(c.representation)
            assert dim == 1


def test_decompose_s3_regular_matches_character_theory():
    # the regular representation splits into irreducibles of dims 1, 1, 2, 2
    # with the 2-dimensional piece appearing twice, and the projected-unit
    # weights equal dim(pi)/|G| per copy
    from conftest import s3_algebra

    s3 = s3_algebra()
    delta = np.eye(6)[0]
    dec = decompose(s3, delta, seed=1)
    dims = sorted(c.representation.rep_dim for c in dec.components)
    assert dims == [1, 1, 2, 2]
    assert sorted(len(c) for c in dec.multiplicity_classes) == [1, 1, 2]
    weights = sorted(c.weight for c in dec.components)
    assert np.allclose(weights, [1 / 6, 1 / 6, 1 / 3, 1 / 3], atol=1e-10)
    rebuilt = sum(c.weight * c.functional for c in dec.components)
    assert np.max(np.abs(rebuilt - delta)) < 1e-10


def test_decompose_matrix_plus_group_trace_over_seeds():
    # 1/2 tr/3 on M_3 plus 1/2 delta_e on S_3: three copies of the defining
    # representation of M_3 with weight 1/6 each, and the regular
    # representation of S_3 at half weight.  Seed 30 once drew a splitting
    # operator whose eigensolve met a subnormal entry and did not converge.
    algebra = direct_sum_algebra(build_matrix_algebra(3), s3_algebra())
    rho = np.concatenate([0.5 * np.eye(3).ravel() / 3, 0.5 * np.eye(6)[0]])
    for seed in range(26, 34):
        dec = decompose(algebra, rho, seed=seed)
        dims = sorted(c.representation.rep_dim for c in dec.components)
        assert dims == [1, 1, 2, 2, 3, 3, 3]
        assert sorted(len(c) for c in dec.multiplicity_classes) == [1, 1, 2, 3]
        weights = sorted(c.weight for c in dec.components)
        assert np.allclose(weights, [1 / 12, 1 / 12] + [1 / 6] * 5, atol=1e-10)
        rebuilt = sum(c.weight * c.functional for c in dec.components)
        assert np.max(np.abs(rebuilt - rho)) < 1e-10


def test_decompose_rejects_bad_input():
    z2 = z2_algebra()
    with pytest.raises(NotPositive):
        decompose(z2, [1, 2.0])
    with pytest.raises(ZeroFunctional):
        decompose(z2, [0, 0])


@pytest.mark.parametrize(
    "call,zero",
    [(decompose, "cannot decompose the zero functional"),
     (is_extremal, "the zero functional is not in scope")],
    ids=["decompose", "is_extremal"],
)
def test_errors_keep_their_messages(call, zero):
    z2 = z2_algebra()
    not_positive = f"^{call.__name__} requires a positive functional$"
    with pytest.raises(NotPositive, match=not_positive):
        call(z2, [1, 2.0])
    with pytest.raises(NotPositive, match=not_positive):
        call(z2, [1, 1j])
    with pytest.raises(ZeroFunctional, match=f"^{zero}$"):
        call(z2, [0, 0])


def gram_eigensolves(monkeypatch, run):
    """Run ``run()`` and count, per Gram matrix built, the eigensolves of it (``record_eigensolves``)."""
    import starrep.duality

    grams, solved = [], []
    build = starrep.duality.gram_matrix

    def recorded_gram(*args):
        grams.append(build(*args))
        return grams[-1]

    monkeypatch.setattr(starrep.duality, "gram_matrix", recorded_gram)
    record_eigensolves(monkeypatch, lambda m: solved.append(np.array(m)))
    run()
    return [sum(m.shape == g.shape and np.array_equal(m, g) for m in solved) for g in grams]


def test_block_data_is_built_once_per_algebra_and_policy(monkeypatch):
    import starrep.gns

    builds = []
    build = starrep.gns._build_block_data

    def counted(algebra, pol):
        builds.append(pol)
        return build(algebra, pol)

    monkeypatch.setattr(starrep.gns, "_build_block_data", counted)
    s3 = s3_algebra()
    delta = np.eye(6)[0]
    for _ in range(2):
        dec = decompose(s3, delta)
        assert not is_extremal(s3, delta)
        assert is_extremal(s3, dec.components[0].functional)
        assert commutant(gns_construct(s3, delta))[1] == 6
        reps = [c.representation for c in dec.components]
        pair = next(cls for cls in dec.multiplicity_classes if len(cls) == 2)
        assert representations_equivalent(reps[pair[0]], reps[pair[1]])
        assert is_irreducible(reps[0])
    assert builds == [DEFAULT_POLICY]
    looser = TolerancePolicy(match_tol=1e-7)
    decompose(s3, delta, looser)
    is_extremal(s3, delta, looser)
    decompose(s3, delta)
    assert builds == [DEFAULT_POLICY, looser]


@pytest.mark.parametrize(
    "algebra,rho",
    [
        (s4_algebra(), np.eye(24)[0]),
        (build_matrix_algebra(4), matrix_state([1, 2, 3, 4]) / 10),
        (direct_sum_algebra(build_matrix_algebra(3), s3_algebra()),
         np.concatenate([0.5 * np.eye(3).ravel() / 3, 0.5 * np.eye(6)[0]])),
    ],
    ids=["S4-delta", "M4-faithful", "M3+S3-trace"],
)
def test_no_eigensolve_is_larger_than_the_algebra(monkeypatch, algebra, rho):
    # the d^2 x d^2 commutant system is gone: every matrix eigendecomposed
    # is at most n x n (the algebra) or d x d (a representation, d <= n)
    sizes = []
    record_eigensolves(monkeypatch, lambda m: sizes.append(len(m)))
    rep = gns_construct(algebra, rho)
    dec = decompose(algebra, rho)
    is_extremal(algebra, rho)
    commutant(rep)
    for c in dec.components:
        is_extremal(algebra, c.functional)
        commutant(c.representation)
        representations_equivalent(c.representation, dec.components[0].representation)
    assert sizes and max(sizes) <= algebra.dim


def test_decompose_reassembles_within_match_tol():
    rng = np.random.default_rng(37)
    cases = [(s4_algebra(), np.eye(24)[0]),
             (build_matrix_algebra(5), matrix_state([3, 2, 1, 0, 0]) / 6)]
    for _ in range(20):
        a, _ = random_algebra(rng, max_dim=9)
        cases.append((a, random_positive_functional(a, rng)))
    for a, rho in cases:
        if not np.any(np.abs(rho) > 1e-9):
            continue
        dec = decompose(a, rho)
        rebuilt = sum(c.weight * c.functional for c in dec.components)
        assert np.max(np.abs(rebuilt - rho)) <= DEFAULT_POLICY.match_tol


def test_is_extremal_eigendecomposes_the_gram_matrix_once(monkeypatch):
    assert gram_eigensolves(monkeypatch, lambda: is_extremal(z2_algebra(), [1, 0])) == [1]
    assert gram_eigensolves(
        monkeypatch, lambda: is_extremal(build_matrix_algebra(2), [1.0, 0, 0, 0])) == [1]


@pytest.mark.parametrize("seed", range(4))
def test_decompose_z3_delta_into_its_three_characters(seed):
    # the real part of a commutant combination cannot separate the two
    # complex-conjugate characters of Z_3; the phased hermitization does
    z3 = z3_algebra()
    delta = np.eye(3)[0]
    dec = decompose(z3, delta, seed=seed)
    assert [c.representation.rep_dim for c in dec.components] == [1, 1, 1]
    assert sorted(len(c) for c in dec.multiplicity_classes) == [1, 1, 1]
    assert np.allclose([c.weight for c in dec.components], 1 / 3, atol=1e-10)
    omega = np.exp(2j * np.pi / 3)
    characters = sorted(np.round(c.functional[1], 10) for c in dec.components)
    assert np.allclose(characters, sorted(np.round([1, omega, omega**2], 10)), atol=1e-9)
    rebuilt = sum(c.weight * c.functional for c in dec.components)
    assert np.max(np.abs(rebuilt - delta)) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_decompose_matrix_plus_z4_delta(seed):
    # 1/2 tr/2 on M_2 plus 1/2 delta_e on Z_4: two copies of the defining
    # representation of M_2 with weight 1/4 each, and the four characters of
    # Z_4 with weight (1/2)(1/4) each
    z4 = build_group_algebra(cyclic_group_table(4))
    algebra = direct_sum_algebra(build_matrix_algebra(2), z4)
    rho = np.concatenate([0.5 * TRACE2 / 2, 0.5 * np.eye(4)[0]])
    dec = decompose(algebra, rho, seed=seed)
    dims = sorted(c.representation.rep_dim for c in dec.components)
    assert dims == [1, 1, 1, 1, 2, 2]
    assert sorted(len(c) for c in dec.multiplicity_classes) == [1, 1, 1, 1, 2]
    for c in dec.components:
        expected = 1 / 4 if c.representation.rep_dim == 2 else 1 / 8
        assert c.weight == pytest.approx(expected, abs=1e-10)
    rebuilt = sum(c.weight * c.functional for c in dec.components)
    assert np.max(np.abs(rebuilt - rho)) < 1e-10
