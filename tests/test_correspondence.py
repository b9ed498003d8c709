"""Tests for the functional <-> kernel <-> representation conversions."""

import warnings

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    StarHomomorphism,
    TolerancePolicy,
    build_matrix_algebra,
    cone_morphism_audit,
    direct_sum_algebra,
    evaluate,
    functional_to_kernel,
    gns_construct,
    gram_matrix,
    is_star_invariant,
    kernel_leq,
    kernel_sum,
    kernel_to_functional,
    kernel_to_rep,
    make_kernel,
    pullback,
    rep_to_kernel,
    validate_star_homomorphism,
    verify_star_rep,
)
from starrep.errors import DimMismatch, NonFiniteScalar, NotPositive, NotStarInvariant

from conftest import (
    count_eigensolves,
    random_algebra,
    random_positive_functional,
    random_unitary,
    z2_algebra,
    z3_algebra,
)

TRACE2 = np.array([1.0, 0, 0, 1.0])
# the vector states of the two basis vectors on M_2
E11 = np.array([1.0, 0, 0, 0])
E22 = np.array([0, 0, 0, 1.0])


def embed_z2_into_m2():
    return StarHomomorphism(
        source=z2_algebra(),
        target=build_matrix_algebra(2),
        matrix=np.array([[1, 1], [0, 0], [0, 0], [1, -1]], dtype=complex),
    )


def m2_automorphism(u):
    # conjugation by a unitary, written on row-major matrix-unit coordinates
    return StarHomomorphism(
        source=build_matrix_algebra(2),
        target=build_matrix_algebra(2),
        matrix=np.kron(u, np.conj(u)),
    )


def test_functional_to_kernel_examples():
    c1 = build_matrix_algebra(1)
    assert np.allclose(functional_to_kernel(c1, [1.0]).matrix, [[1.0]])
    z2 = z2_algebra()
    for t in (-1.0, 0.0, 0.5, 1.0):
        assert np.allclose(functional_to_kernel(z2, [1, t]).matrix, [[1, t], [t, 1]])
    m2 = build_matrix_algebra(2)
    assert np.allclose(functional_to_kernel(m2, TRACE2).matrix, np.eye(4))
    with pytest.raises(NotPositive):
        functional_to_kernel(z2, [1, 2.0])


def test_kernel_to_functional_examples():
    z2 = z2_algebra()
    assert np.allclose(kernel_to_functional(z2, make_kernel(np.eye(2))), [1, 0])
    assert np.allclose(kernel_to_functional(z2, make_kernel([[1, 1], [1, 1]])), [1, 1])
    assert np.allclose(kernel_to_functional(z2, make_kernel(np.zeros((2, 2)))), [0, 0])
    with pytest.raises(NotStarInvariant):
        kernel_to_functional(z2, make_kernel(np.diag([1.0, 0.0])))


def test_star_invariance():
    z2 = z2_algebra()
    assert is_star_invariant(z2, make_kernel(np.eye(2)))
    assert not is_star_invariant(z2, make_kernel(np.diag([1.0, 0.0])))
    assert is_star_invariant(z2, make_kernel(np.zeros((2, 2))))


def test_gram_kernels_always_star_invariant():
    rng = np.random.default_rng(51)
    for _ in range(25):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        assert is_star_invariant(a, functional_to_kernel(a, rho))


def test_orientation_identity_with_complex_values():
    # rho(x) = <e | G x>, and the transposed orientation is wrong for
    # genuinely complex functionals
    z3 = z3_algebra()
    rho = np.array([1.0, 0.3j, -0.3j])
    g = gram_matrix(z3, rho)
    recovered = np.conj(z3.unit) @ g
    assert np.max(np.abs(recovered - rho)) < 1e-12
    transposed = np.conj(z3.unit) @ g.T
    assert np.max(np.abs(transposed - rho)) > 0.1


def test_kernel_to_rep():
    z2 = z2_algebra()
    rep = kernel_to_rep(z2, make_kernel([[1, 1], [1, 1]]))
    assert rep.rep_dim == 1
    assert np.allclose(rep.matrices[1], [[1.0]])

    m2 = build_matrix_algebra(2)
    rep = kernel_to_rep(m2, make_kernel(np.eye(4)))
    assert rep.rep_dim == 4

    rep = kernel_to_rep(z2, make_kernel(np.zeros((2, 2))))
    assert rep.rep_dim == 0


def test_rep_to_kernel():
    z2 = z2_algebra()
    assert np.allclose(rep_to_kernel(gns_construct(z2, [1, 0])).matrix, np.eye(2))
    c1 = build_matrix_algebra(1)
    assert np.allclose(rep_to_kernel(gns_construct(c1, [1.0])).matrix, [[1.0]])
    m2 = build_matrix_algebra(2)
    assert np.allclose(rep_to_kernel(gns_construct(m2, TRACE2)).matrix, np.eye(4))


def test_triple_round_trip_random():
    rng = np.random.default_rng(52)
    for _ in range(30):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        rep = gns_construct(a, rho)
        recovered = kernel_to_functional(a, rep_to_kernel(rep))
        assert np.max(np.abs(recovered - rho)) < 1e-8


def test_kernel_round_trip_through_representation():
    # random states on random algebras, and states tr(D .) on M_3 with D of
    # eigenvalues (1, 0.5, 0) in random frames at a rank cutoff of 0, which
    # has no margin: a roundoff eigenvalue falls on either side of it.  The
    # representation is finite and made with no RuntimeWarning.
    rng = np.random.default_rng(53)
    cases = []
    for _ in range(20):
        a, _ = random_algebra(rng)
        cases.append((a, random_positive_functional(a, rng), DEFAULT_POLICY))
    m3, zero_cutoff = build_matrix_algebra(3), TolerancePolicy(rel_rank_tol=0.0)
    for seed in range(20):
        w = random_unitary(np.random.default_rng(seed), 3)
        cases.append((m3, ((w * [1.0, 0.5, 0.0]) @ w.conj().T).T.ravel(), zero_cutoff))
    for a, rho, pol in cases:
        k = functional_to_kernel(a, rho, pol)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = kernel_to_rep(a, k, pol)
        assert np.isfinite(rep.matrices).all() and np.isfinite(rep.cyclic_vector).all()
        back = rep_to_kernel(rep, pol)
        assert np.max(np.abs(back.matrix - k.matrix)) < 1e-8


def test_distinct_functionals_have_distinct_kernels():
    rng = np.random.default_rng(54)
    for _ in range(20):
        a, trace = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        other = rho + 1e-4 * trace
        assert np.max(np.abs(other - rho)) > 1e-6
        k1 = functional_to_kernel(a, rho)
        k2 = functional_to_kernel(a, other)
        assert np.max(np.abs(k1.matrix - k2.matrix)) > 1e-8


def test_validate_star_homomorphism():
    assert validate_star_homomorphism(embed_z2_into_m2()).passed
    rng = np.random.default_rng(55)
    assert validate_star_homomorphism(m2_automorphism(random_unitary(rng, 2))).passed
    broken = StarHomomorphism(
        source=z2_algebra(),
        target=build_matrix_algebra(2),
        matrix=np.array([[1, 0], [0, 1], [0, 0], [1, 0]], dtype=complex),
    )
    assert not validate_star_homomorphism(broken).passed


def test_compose_requires_the_same_middle_algebra():
    # C (+) C and Z_2 both have dimension 2.  Composing C (+) C -> M_2 after
    # C -> Z_2 through the wrong one would send the unit to E_11, failing
    # the unit law by 1.0; an equal copy of C (+) C composes
    c1 = build_matrix_algebra(1)
    diagonal = StarHomomorphism(direct_sum_algebra(c1, c1), build_matrix_algebra(2),
                                np.array([[1, 0], [0, 0], [0, 0], [0, 1.0]]))
    into_z2 = StarHomomorphism(c1, z2_algebra(), np.array([[1.0], [0.0]]))
    into_sum = StarHomomorphism(c1, direct_sum_algebra(c1, c1), np.array([[1.0], [1.0]]))
    for hom in (diagonal, into_z2, into_sum):
        assert validate_star_homomorphism(hom).passed
    with pytest.raises(DimMismatch, match="^homomorphisms are not composable$"):
        diagonal.compose(into_z2)
    composed = diagonal.compose(into_sum)
    assert validate_star_homomorphism(composed).passed
    assert np.array_equal(composed.matrix, [[1.0], [0.0], [0.0], [1.0]])


def test_pullback_identity():
    z2 = z2_algebra()
    ident = StarHomomorphism(source=z2, target=z2, matrix=np.eye(2, dtype=complex))
    k = functional_to_kernel(z2, [1, 0.5])
    assert np.allclose(pullback(ident, k).matrix, k.matrix)


def test_pullback_group_embedding_fixture():
    m2 = build_matrix_algebra(2)
    pulled = pullback(embed_z2_into_m2(), functional_to_kernel(m2, TRACE2))
    assert np.array_equal(pulled.matrix, 2.0 * np.eye(2))


def test_pullback_unit_embedding_reads_off_unit_value():
    rng = np.random.default_rng(56)
    c1 = build_matrix_algebra(1)
    for _ in range(5):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        unit_embed = StarHomomorphism(
            source=c1, target=a, matrix=np.asarray(a.unit, dtype=complex)[:, None]
        )
        pulled = pullback(unit_embed, functional_to_kernel(a, rho))
        assert np.allclose(pulled.matrix, [[evaluate(a, rho, a.unit)]], atol=1e-12)


def test_pullback_matches_composed_functional():
    rng = np.random.default_rng(57)
    m2 = build_matrix_algebra(2)
    hom = embed_z2_into_m2()
    for _ in range(5):
        rho = random_positive_functional(m2, rng)
        pulled = pullback(hom, functional_to_kernel(m2, rho))
        rho_pulled = kernel_to_functional(hom.source, pulled)
        for j, basis_vec in enumerate(np.eye(2)):
            composed = evaluate(m2, rho, hom.matrix @ basis_vec)
            assert abs(rho_pulled[j] - composed) < 1e-10


def test_pullback_functoriality_and_additivity():
    rng = np.random.default_rng(58)
    z2 = z2_algebra()
    m2 = build_matrix_algebra(2)
    flip = StarHomomorphism(source=z2, target=z2, matrix=np.diag([1.0, -1.0]).astype(complex))
    for _ in range(20):
        inner = flip if rng.uniform() < 0.5 else StarHomomorphism(
            source=z2, target=z2, matrix=np.eye(2, dtype=complex)
        )
        outer_pair = (embed_z2_into_m2(), m2_automorphism(random_unitary(rng, 2)))
        beta = inner
        alpha = outer_pair[1].compose(outer_pair[0])  # z2 -> m2, rotated
        rho = random_positive_functional(m2, rng)
        k = functional_to_kernel(m2, rho)

        composed = pullback(alpha.compose(beta), k)
        stepwise = pullback(beta, pullback(alpha, k))
        assert np.max(np.abs(composed.matrix - stepwise.matrix)) < 1e-10

        rho2 = random_positive_functional(m2, rng)
        k2 = functional_to_kernel(m2, rho2)
        added = pullback(alpha, kernel_sum(k, k2))
        split = kernel_sum(pullback(alpha, k), pullback(alpha, k2))
        assert np.max(np.abs(added.matrix - split.matrix)) < 1e-10

        # order preservation: k <= k + k2 transports to the pullbacks
        assert kernel_leq(pullback(alpha, k), added)


def test_cone_morphism_audit_examples():
    z2 = z2_algebra()
    report = cone_morphism_audit(z2, [1, 1], [1, -1], 2.0)
    assert report.passed
    assert report.max_violation == 0.0

    report = cone_morphism_audit(z2, [1, 0.5], [0, 0], 1.0)
    assert report.passed

    rng = np.random.default_rng(59)
    m2 = build_matrix_algebra(2)
    rho1 = random_positive_functional(m2, rng)
    rho2 = random_positive_functional(m2, rng)
    report = cone_morphism_audit(m2, rho1, rho2, float(rng.uniform(0, 3)))
    assert report.max_violation < 1e-12

    with pytest.raises(NotPositive):
        cone_morphism_audit(z2, [1, 2.0], [1, 0], 1.0)
    # a NaN factor used to give a NaN "scale" violation and pass
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteScalar):
            cone_morphism_audit(z2, [1, 0], [1, 1], bad)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_cone_morphism_audit_is_scale_free(scale):
    # delta_11 <= tr on M_2 on both sides of the bijection, at every scale
    report = cone_morphism_audit(build_matrix_algebra(2), scale * TRACE2, scale * E11, 0.5)
    assert report.passed
    assert report.violations["order_agreement"] == 0.0


def test_functional_to_kernel_eigendecomposes_the_gram_matrix_once(monkeypatch):
    m2 = build_matrix_algebra(2)
    # one value-only solve gives the rank; the eigenvectors are made once,
    # by the full solve of the Gram matrix on their first read
    kernel, sizes = count_eigensolves(monkeypatch, lambda: functional_to_kernel(m2, TRACE2))
    assert sizes == [4]
    assert kernel.rank == 4
    assert np.array_equal(kernel.matrix, np.eye(4))
    (values, vectors), sizes = count_eigensolves(
        monkeypatch, lambda: (kernel.values, kernel.vectors), full_only=True)
    assert sizes == [4]
    assert np.array_equal(values, np.ones(4))
    assert np.array_equal(vectors, np.eye(4))
    assert count_eigensolves(monkeypatch, lambda: kernel.vectors)[1] == []


def test_kernel_to_rep_is_gns_construct_of_the_kernels_functional(monkeypatch):
    # the first representation builds the block data (the trace's Gram
    # matrix and a generic element, 9 x 9 each) and solves the one 3 x 3
    # density; the kernel's own eigensystem is never made
    m3 = build_matrix_algebra(3)
    rho = random_positive_functional(m3, np.random.default_rng(55))
    kernel = functional_to_kernel(m3, rho)
    rep, sizes = count_eigensolves(monkeypatch, lambda: kernel_to_rep(m3, kernel))
    assert sizes == [9, 9, 3]
    assert "_eigen" not in vars(kernel)
    assert rep.rep_dim == kernel.rank
    assert ("verify_star_rep", DEFAULT_POLICY) in rep.derived
    assert verify_star_rep(rep).passed
    again, sizes = count_eigensolves(monkeypatch, lambda: kernel_to_rep(m3, kernel))
    assert sizes == [3]
    built = gns_construct(m3, kernel_to_functional(m3, kernel))
    for other in (again, built):
        assert np.array_equal(other.matrices, rep.matrices)
        assert np.array_equal(other.cyclic_vector, rep.cyclic_vector)


def test_cone_morphism_audit_makes_four_eigensolves(monkeypatch):
    # one per kernel, one for rho2 - rho1 and one for kernel_leq
    m2 = build_matrix_algebra(2)
    report, sizes = count_eigensolves(
        monkeypatch, lambda: cone_morphism_audit(m2, E11, TRACE2, 1.0))
    assert report.passed
    assert sizes == [4, 4, 4, 4]
    with pytest.raises(NotPositive, match="^cone_morphism_audit requires positive functionals$"):
        cone_morphism_audit(m2, E11, -TRACE2, 1.0)


@pytest.mark.parametrize(
    "rho1,rho2,ordered",
    [(E11, TRACE2, True), (TRACE2, E11, False), (E11, E22, False)],
    ids=["ordered", "reversed", "unordered"],
)
def test_cone_morphism_audit_order_agreement(monkeypatch, rho1, rho2, ordered):
    import starrep.correspondence

    m2 = build_matrix_algebra(2)
    k1, k2 = functional_to_kernel(m2, rho1), functional_to_kernel(m2, rho2)
    assert kernel_leq(k1, k2) == ordered
    assert cone_morphism_audit(m2, rho1, rho2, 1.0).violations["order_agreement"] == 0.0
    # the functional order is decided apart from kernel_leq, so a kernel
    # order that says the opposite shows as a violation
    monkeypatch.setattr(starrep.correspondence, "kernel_leq", lambda a, b, pol: not ordered)
    assert cone_morphism_audit(m2, rho1, rho2, 1.0).violations["order_agreement"] == 1.0
