"""The blocked law checks against their unblocked einsum forms.

``validate_algebra``, ``verify_star_rep``, ``validate_star_homomorphism``,
the invariance residual behind ``is_star_invariant`` and ``gram_matrix``
work a block of the first basis index at a time with BLAS matmuls.  The
einsum forms they replaced are kept here as oracles: each check must report
the same worst violation, on valid data, on perturbed data whose violations
are far from zero, and with the block budget cut down so that every check
runs over many blocks.
"""

import tracemalloc

import numpy as np
import pytest

from starrep import (
    FiniteStarAlgebra,
    GNSRepresentation,
    StarHomomorphism,
    build_matrix_algebra,
    direct_sum_algebra,
    gns_construct,
    gram_matrix,
    is_star_invariant,
    make_kernel,
    numerics,
    validate_algebra,
    validate_star_homomorphism,
    verify_star_rep,
)
from starrep.correspondence import _invariance_residual

from conftest import random_algebra, random_positive_functional, s3_algebra

# A budget of 1 puts each index in its own block; 200 gives blocks of a few
# indices, the last one often short; the default keeps the small algebras
# below in one block.
BUDGETS = [1, 200, numerics._BLOCK_ENTRIES]


@pytest.fixture(params=BUDGETS, ids=lambda b: f"budget{b}")
def budget(request, monkeypatch):
    monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", request.param)
    return request.param


def algebra_oracle(a: FiniteStarAlgebra) -> dict:
    c, s, e, n = a.structure_constants, a.involution, a.unit, a.dim
    eye = np.eye(n)
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    unit_left = np.einsum("i,ijl->jl", e, c)
    unit_right = np.einsum("j,ijl->il", e, c)
    lhs = np.einsum("ijm,ml->ijl", np.conj(c), s)
    rhs = np.einsum("jp,iq,pql->ijl", s, s, c)
    return {
        "associativity": np.max(np.abs(left - right)),
        "unit": max(np.max(np.abs(unit_left - eye)), np.max(np.abs(unit_right - eye))),
        "involution_involutive": np.max(np.abs(s.T @ np.conj(s.T) - eye)),
        "involution_antimultiplicative": np.max(np.abs(lhs - rhs)),
    }


def rep_oracle(rep: GNSRepresentation) -> dict:
    a, mats, xi, d = rep.algebra, rep.matrices, rep.cyclic_vector, rep.rep_dim

    def maxabs(x) -> float:
        return float(np.max(np.abs(x))) if np.size(x) else 0.0

    prod_table = np.einsum("ijk,kab->ijab", a.structure_constants, mats)
    star_images = np.einsum("ij,jab->iab", a.involution, mats)
    reproduced = np.einsum("a,iab,b->i", np.conj(xi), mats, xi)
    return {
        "unit": maxabs(np.einsum("i,iab->ab", a.unit, mats) - np.eye(d)),
        "multiplicativity": maxabs(np.einsum("iab,jbc->ijac", mats, mats) - prod_table),
        "star_property": maxabs(star_images - np.conj(mats.transpose(0, 2, 1))),
        "reproduction": maxabs(reproduced - rep.source_functional),
    }


def hom_multiplicativity_oracle(hom: StarHomomorphism) -> float:
    m = hom.matrix
    prod_src = np.einsum("ab,ijb->ija", m, hom.source.structure_constants)
    prod_tgt = np.einsum("ai,bj,abk->ijk", m, m, hom.target.structure_constants)
    return float(np.max(np.abs(prod_src - prod_tgt)))


def invariance_oracle(a: FiniteStarAlgebra, h: np.ndarray) -> float:
    left_mults = a.basis_left_mult()
    star_mults = np.einsum("ij,jab->iab", a.involution, left_mults)
    dual_action = np.conj(np.transpose(star_mults, (0, 2, 1)))
    lhs = np.einsum("iab,bc->iac", dual_action, h)
    rhs = np.einsum("ab,ibc->iac", h, left_mults)
    return float(np.max(np.abs(lhs - rhs)))


def gram_oracle(a: FiniteStarAlgebra, rho: np.ndarray) -> np.ndarray:
    return np.einsum("ip,pjk,k->ij", a.involution, a.structure_constants, rho)


def assert_matches(report, oracle: dict) -> None:
    for law, want in oracle.items():
        np.testing.assert_allclose(report.violations[law], want, rtol=1e-12, atol=1e-14)


def noise(rng, shape, scale=0.1):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def perturbed_algebra(a: FiniteStarAlgebra, rng) -> FiniteStarAlgebra:
    n = a.dim
    return FiniteStarAlgebra(
        a.structure_constants + noise(rng, (n, n, n)),
        a.involution + noise(rng, (n, n)),
        a.unit + noise(rng, n),
    )


def perturbed_rep(rep: GNSRepresentation, rng) -> GNSRepresentation:
    return GNSRepresentation(
        rep.algebra,
        rep.matrices + noise(rng, rep.matrices.shape),
        rep.cyclic_vector,
        rep.source_functional,
        rep.embedding,
    )


@pytest.mark.parametrize("seed", range(6))
def test_validate_algebra_matches_oracle(budget, seed):
    rng = np.random.default_rng(seed)
    a, _ = random_algebra(rng, max_dim=9)
    assert_matches(validate_algebra(a), algebra_oracle(a))
    bad = perturbed_algebra(a, rng)
    report = validate_algebra(bad)
    assert min(report.violations.values()) > 1e-3
    assert_matches(report, algebra_oracle(bad))


@pytest.mark.parametrize("seed", range(6))
def test_verify_star_rep_matches_oracle(budget, seed):
    rng = np.random.default_rng(100 + seed)
    a, _ = random_algebra(rng, max_dim=9)
    rep = gns_construct(a, random_positive_functional(a, rng))
    assert_matches(verify_star_rep(rep), rep_oracle(rep))
    if rep.rep_dim == 0:
        return
    bad = perturbed_rep(rep, rng)
    report = verify_star_rep(bad)
    assert min(v for k, v in report.violations.items() if k != "cyclicity") > 1e-3
    assert_matches(report, rep_oracle(bad))
    assert report.violations["cyclicity"] == verify_star_rep(rep).violations["cyclicity"]


@pytest.mark.parametrize("seed", range(6))
def test_validate_star_homomorphism_matches_oracle(budget, seed):
    rng = np.random.default_rng(200 + seed)
    a, _ = random_algebra(rng, max_dim=6)
    b, _ = random_algebra(rng, max_dim=6)
    n1, n2 = a.dim, a.dim + b.dim
    # e_i -> e_i into the first summand of A + B is multiplicative (though
    # not unital), so its multiplicativity violation is zero
    embed = StarHomomorphism(a, direct_sum_algebra(a, b), np.eye(n2, n1))
    want = hom_multiplicativity_oracle(embed)
    got = validate_star_homomorphism(embed).violations["multiplicativity"]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    assert got == 0.0
    wild = StarHomomorphism(a, embed.target, noise(rng, (n2, n1), scale=1.0))
    want = hom_multiplicativity_oracle(wild)
    got = validate_star_homomorphism(wild).violations["multiplicativity"]
    assert want > 1e-3
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_invariance_and_gram_match_oracles(budget, seed):
    rng = np.random.default_rng(300 + seed)
    a, _ = random_algebra(rng, max_dim=9)
    rho = random_positive_functional(a, rng)
    g = gram_matrix(a, rho)
    np.testing.assert_allclose(g, gram_oracle(a, rho), rtol=1e-12, atol=1e-14)
    wild = noise(rng, a.dim, scale=1.0)
    np.testing.assert_allclose(
        gram_matrix(a, wild), gram_oracle(a, wild), rtol=1e-12, atol=1e-14
    )

    for h in (g, noise(rng, (a.dim, a.dim), scale=1.0)):
        want = invariance_oracle(a, h)
        np.testing.assert_allclose(_invariance_residual(a, h), want, rtol=1e-12, atol=1e-14)
    kernel = make_kernel((g + g.conj().T) / 2)
    assert is_star_invariant(a, kernel) == (invariance_oracle(a, kernel.matrix) < 1e-8)
    assert is_star_invariant(a, kernel)


def worst_index(per_index: np.ndarray) -> int:
    """The index holding the worst violation, asserted to be unique."""
    worst = np.flatnonzero(per_index == per_index.max())
    assert worst.size == 1
    return int(worst[0])


def test_planted_associativity_violation_in_last_slice(budget):
    # a dyadic entry on the integer structure constants of S_3, so that every
    # sum is exact and the blocked and unblocked forms agree to the last bit:
    # e_5 e_0 = (1 + 1/4) e_5, with e_0 the identity
    a = s3_algebra()
    n = a.dim
    c = a.structure_constants.copy()
    c[n - 1, 0, n - 1] += 0.25
    bad = FiniteStarAlgebra(c, a.involution, a.unit)
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    per_i = np.abs(left - right).reshape(n, -1).max(axis=1)
    assert worst_index(per_i) == n - 1
    assert validate_algebra(bad).violations["associativity"] == per_i[n - 1]


def test_planted_multiplicativity_violation_in_last_slice(budget):
    # the regular representation of S_3 on C^6, all entries 0 or 1, over
    # structure constants that add e_0 / 4 to every product e_5 e_j: only
    # the products pi(e_5) pi(e_j) miss the table, by 1/4 exactly
    a = s3_algebra()
    n = a.dim
    c = a.structure_constants.copy()
    c[n - 1, :, 0] += 0.25
    bad = FiniteStarAlgebra(c, a.involution, a.unit)
    mats = a.basis_left_mult()
    rep = GNSRepresentation(bad, mats, a.unit, np.eye(n)[0], np.eye(n, dtype=complex))
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    table = np.einsum("ijk,kab->ijab", c, mats)
    per_i = np.abs(prod - table).reshape(n, -1).max(axis=1)
    assert np.all(per_i[:-1] == 0.0)
    assert verify_star_rep(rep).violations["multiplicativity"] == per_i[n - 1] == 0.25


def test_planted_invariance_violation_in_last_slice(budget):
    # the identity kernel of S_3 is invariant; a row of the involution
    # changed at e_5 breaks the identity pi(e_5) H = H L_5 alone
    a = s3_algebra()
    n = a.dim
    s = a.involution.copy()
    s[n - 1, 0] += 0.25
    bad = FiniteStarAlgebra(a.structure_constants, s, a.unit)
    h = np.eye(n, dtype=complex)
    assert _invariance_residual(a, h) == 0.0
    assert _invariance_residual(bad, h) == invariance_oracle(bad, h) == 0.25


def test_planted_homomorphism_violation_in_last_slice(budget):
    # the identity on M_2 with the image of its last basis element E22
    # scaled by 1 + 1/4: products involving E22 go wrong, worst at i = 3
    a = build_matrix_algebra(2)
    m = np.eye(4, dtype=complex)
    m[3, 3] = 1.25
    hom = StarHomomorphism(a, a, m)
    prod_src = np.einsum("ab,ijb->ija", m, a.structure_constants)
    prod_tgt = np.einsum("ai,bj,abk->ijk", m, m, a.structure_constants)
    per_i = np.abs(prod_src - prod_tgt).reshape(4, -1).max(axis=1)
    assert worst_index(per_i) == 3
    assert validate_star_homomorphism(hom).violations["multiplicativity"] == per_i[3]


def traced_peak_mb(check) -> tuple[object, float]:
    tracemalloc.start()
    try:
        result = check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_law_checks_at_n64_in_cubic_memory():
    # M_8, n = 64: the old einsums built n^4 and n^2 d^2 temporaries
    # (927 MB and 640 MB); the blocked checks stay near n^3
    m8 = build_matrix_algebra(8)
    rep = gns_construct(m8, m8.unit / 8)
    assert rep.rep_dim == 64
    for check in (lambda: validate_algebra(m8), lambda: verify_star_rep(rep)):
        report, peak = traced_peak_mb(check)
        assert report.passed, report.violations
        assert peak < 150.0
