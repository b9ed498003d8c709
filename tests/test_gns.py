"""Tests for the cyclic-representation construction and its consumers."""

import numpy as np
import pytest

from starrep import (
    GNSRepresentation,
    build_group_algebra,
    build_matrix_algebra,
    commutant,
    decompose,
    direct_sum_algebra,
    gns_construct,
    intertwiner,
    is_extremal,
    is_irreducible,
    is_positive,
    representations_equivalent,
    verify_star_rep,
)
from starrep.errors import NotEquivalent, NotPositive, ZeroFunctional

from conftest import (
    cyclic_group_table,
    random_algebra,
    random_positive_functional,
    random_unitary,
    s3_algebra,
    s4_algebra,
    z2_algebra,
    z3_algebra,
)

TRACE2 = np.array([1.0, 0, 0, 1.0])


def conjugated_copy(rep, u):
    """The same representation written in a rotated orthonormal basis."""
    return GNSRepresentation(
        algebra=rep.algebra,
        matrices=np.einsum("ab,ibc,cd->iad", u, rep.matrices, u.conj().T),
        cyclic_vector=u @ rep.cyclic_vector,
        source_functional=rep.source_functional,
        embedding=u @ rep.embedding,
    )


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


def test_gns_eigendecomposes_the_gram_matrix_once(monkeypatch):
    import starrep.gns
    import starrep.numerics

    sizes = []
    solve = starrep.numerics.hermitian_eigen

    def counted(m, *args, **kwargs):
        sizes.append(len(m))
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(starrep.numerics, "hermitian_eigen", counted)
    monkeypatch.setattr(starrep.gns, "hermitian_eigen", counted)
    rep = gns_construct(build_matrix_algebra(2), TRACE2)
    assert rep.rep_dim == 4
    assert sizes == [4]


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


def kron_sum_normal_matrix(mats1, mats2):
    """The commutant normal matrix summed from explicit Kronecker products."""
    d1, d2 = mats1.shape[1], mats2.shape[1]
    normal = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for a, b in zip(mats1, mats2):
        k = np.kron(np.eye(d2), a.T) - np.kron(b, np.eye(d1))
        normal += k.conj().T @ k
    return normal


def test_closed_form_normal_matrix_matches_kron_sum():
    from starrep.gns import _flatten_commutant_system

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
            closed = _flatten_commutant_system(m1, m2)
            assert closed.shape == oracle.shape
            scale = max(float(np.max(np.abs(oracle))), 1.0)
            assert np.max(np.abs(closed - oracle)) <= 1e-12 * scale
    assert unequal >= 5


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
    m2 = build_matrix_algebra(2)
    first = decompose(m2, TRACE2, seed=5)
    second = decompose(m2, TRACE2, seed=5)
    for c1, c2 in zip(first.components, second.components):
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
    """Run ``run()`` and count, per Gram matrix built, the eigensolves of it."""
    import starrep.duality
    import starrep.gns
    import starrep.numerics

    grams, solved = [], []
    build, solve = starrep.duality.gram_matrix, starrep.numerics.hermitian_eigen

    def recorded_gram(*args):
        grams.append(build(*args))
        return grams[-1]

    def recorded_solve(m, *args, **kwargs):
        solved.append(np.array(m))
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(starrep.duality, "gram_matrix", recorded_gram)
    monkeypatch.setattr(starrep.numerics, "hermitian_eigen", recorded_solve)
    monkeypatch.setattr(starrep.gns, "hermitian_eigen", recorded_solve)
    run()
    return [sum(m.shape == g.shape and np.array_equal(m, g) for m in solved) for g in grams]


def test_decompose_eigendecomposes_each_gram_matrix_once(monkeypatch):
    # the whole state, then one Gram matrix per piece split off
    counts = gram_eigensolves(monkeypatch, lambda: decompose(z2_algebra(), [1, 0], seed=0))
    assert counts == [1, 1, 1]
    counts = gram_eigensolves(
        monkeypatch, lambda: decompose(build_matrix_algebra(2), TRACE2, seed=7))
    assert counts == [1, 1, 1]


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
