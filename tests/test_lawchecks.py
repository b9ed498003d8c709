"""The law checks against their unblocked einsum forms.

``validate_algebra``, ``verify_star_rep`` and ``validate_star_homomorphism``
work a block of the first basis index at a time with BLAS matmuls.  The
einsum forms they replaced are kept here as oracles: each check must report
the same worst violation, on valid data, on perturbed data whose violations
are far from zero, and with the block budget cut down so that every check
runs over many blocks.  Real representations, homomorphisms and kernels
are multiplied as real arrays, so each check also runs on real inputs: the
trace state on M_3 and S_3, an embedding of matrix units and a real kernel.

The invariance residual behind ``is_star_invariant`` is max|H - G|, G the
Gram matrix of the functional r = conj(e) H that H reproduces; it must
equal its einsum form to a few ulps.  Its verdict must equal that of the
module identity pi(e_i) H = H L_{e_i}, the test it replaced, kept here as
an independent oracle, in real, unitary and Gaussian bases and at scales
from 1e-12 to 1e9.

Real single-term structure constants, each product e_i e_j a multiple of
one basis element, have their associativity read off a product table
instead of the blocked matmuls; on them the report must equal the oracle's
exactly, and the overflowing products must give the blocked form's verdict.
"""

import tracemalloc

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    FiniteStarAlgebra,
    GNSRepresentation,
    StarHomomorphism,
    algebra,
    build_group_algebra,
    build_matrix_algebra,
    correspondence,
    direct_sum_algebra,
    functional_to_kernel,
    gns_construct,
    gram_matrix,
    is_star_invariant,
    kernel_to_functional,
    make_kernel,
    numerics,
    pullback,
    rep_to_kernel,
    validate_algebra,
    validate_star_homomorphism,
    verify_star_rep,
)
from starrep.algebra import _associativity_blocked, _product_table, _real_copies
from starrep.correspondence import _invariant
from starrep.errors import InvalidRepresentation, NonFiniteScalar, NotPositive
from starrep.gns import _gram_represent, _law_violations

from conftest import (
    change_basis,
    conjugated_copy,
    cyclic_group_table,
    gaussian_basis,
    random_algebra,
    random_positive_functional,
    random_psd,
    random_unitary,
    s3_algebra,
    s4_algebra,
)

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
    # reproduction is relative to the larger of the two functionals
    size = max(maxabs(reproduced), maxabs(rep.source_functional))
    return {
        "unit": maxabs(np.einsum("i,iab->ab", a.unit, mats) - np.eye(d)),
        "multiplicativity": maxabs(np.einsum("iab,jbc->ijac", mats, mats) - prod_table),
        "star_property": maxabs(star_images - np.conj(mats.transpose(0, 2, 1))),
        "reproduction": maxabs(reproduced - rep.source_functional) / size if size else 0.0,
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


def invariance_residual(a: FiniteStarAlgebra, h: np.ndarray) -> float:
    """The residual ``is_star_invariant`` decides on."""
    return _invariant(a, h, DEFAULT_POLICY)[1]


def gram_residual_oracle(a: FiniteStarAlgebra, h: np.ndarray) -> tuple[float, float, float]:
    """max|H - G| by einsum, G the Gram matrix of r = conj(e) H, with two sizes.

    The first is the size the entrywise rule reads, the larger of max|H|
    and max|G|.  The second is the largest entry of |S| |c| (|e| |H|), the
    sums of absolute terms that both forms round: they agree to a few ulps
    of it.
    """
    r = np.einsum("i,ij->j", np.conj(a.unit), h)
    g = gram_oracle(a, r)
    terms = np.einsum("ip,pjk,k->ij", np.abs(a.involution), np.abs(a.structure_constants),
                      np.abs(a.unit) @ np.abs(h))
    size = max(np.abs(h).max(), np.abs(g).max())
    return float(np.abs(h - g).max()), float(size), float(np.abs(terms).max())


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


@pytest.mark.parametrize("scrambled", [False, True], ids=["real", "complex"])
def test_kept_report_matches_oracle(budget, scrambled):
    # M_3 in the matrix-unit basis has real structure constants and builds
    # the product table in real arithmetic; a random unitary change of basis
    # makes them complex
    rng = np.random.default_rng(400)
    a = build_matrix_algebra(3)
    rho = np.diag([3.0, 2.0, 1.0]).ravel() / 6.0
    if scrambled:
        s = random_unitary(rng, a.dim)
        a, rho = change_basis(a, s), s.T @ rho
    assert np.any(a.structure_constants.imag) == scrambled
    for rep in (gns_construct(a, rho), perturbed_rep(gns_construct(a, rho), rng)):
        report = verify_star_rep(rep)
        assert verify_star_rep(rep) is report
        assert_matches(report, rep_oracle(rep))


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
        assert_residual_matches_oracle(a, h)
    kernel = make_kernel((g + g.conj().T) / 2)
    assert is_star_invariant(a, kernel) == (invariance_oracle(a, kernel.matrix) < 1e-8)
    assert is_star_invariant(a, kernel)


def invariance_residual_oracle(a: FiniteStarAlgebra, h: np.ndarray) -> float:
    """max over i of |pi(e_i) H - H L_{e_i}|, the module identity, a block of i at a time.

    The residual of the invariance test the Gram comparison replaced: it
    builds L_{e_i^*}^H from the structure constants on every call and
    multiplies in complex arithmetic.
    """
    n = a.dim
    left_mults = a.basis_left_mult()
    flat = left_mults.reshape(n, n * n)
    residual = 0.0
    for blk in numerics.index_blocks(n, n * n):
        star_mults = (a.involution[blk] @ flat).reshape(-1, n, n)
        lhs = np.conj(star_mults.transpose(0, 2, 1)) @ h
        rhs = h @ left_mults[blk]
        residual = np.maximum(residual, np.max(np.abs(lhs - rhs)))
    return float(residual)


def module_identity_verdict(a: FiniteStarAlgebra, h: np.ndarray) -> bool:
    """The earlier verdict: the module identity's residual against max|H| * max|c|."""
    size = float(np.abs(h).max()) * float(np.abs(a.structure_constants).max())
    return bool(numerics.within_tol(invariance_residual_oracle(a, h), size))


INVARIANCE_ALGEBRAS = {
    "m2": lambda: build_matrix_algebra(2),
    "m3": lambda: build_matrix_algebra(3),
    "s3": s3_algebra,
    "m2+s3": lambda: direct_sum_algebra(build_matrix_algebra(2), s3_algebra()),
}


def assert_residual_matches_oracle(a: FiniteStarAlgebra, h) -> tuple[float, float]:
    """The residual against the einsum oracle's, and the size the entrywise rule reads.

    They agree to a few ulps of the sums' absolute terms
    (``gram_residual_oracle``).
    """
    got = invariance_residual(a, h)
    want, size, terms = gram_residual_oracle(a, h)
    assert abs(got - want) <= 4 * np.finfo(float).eps * terms, (got, want, terms)
    return want, size


# a basis change s of each kind: none, a random unitary, and a complex
# Gaussian matrix of condition 10 or 100, the last the loosest for the
# module identity's size max|H| * max|c|
BASES = {
    "real": None,
    "unitary": random_unitary,
    "gauss10": lambda rng, n: gaussian_basis(rng, n, 10.0),
    "gauss100": lambda rng, n: gaussian_basis(rng, n, 100.0),
}


@pytest.mark.parametrize("name", INVARIANCE_ALGEBRAS)
@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_invariance_verdict_matches_the_module_identity(budget, name, basis, scale):
    # matrix units and group elements give real structure constants, a
    # change of basis complex ones; each verdict is the module identity's
    rng = np.random.default_rng(500)
    a = INVARIANCE_ALGEBRAS[name]()
    rho = random_positive_functional(a, rng)
    if BASES[basis] is not None:
        s = BASES[basis](rng, a.dim)
        a, rho = change_basis(a, s), s.T @ rho
    invariant = functional_to_kernel(a, scale * rho)
    wild = make_kernel(scale * random_psd(rng, a.dim))
    for kernel, expected in ((invariant, True), (wild, False)):
        want, size = assert_residual_matches_oracle(a, kernel.matrix)
        assert bool(numerics.within_tol(want, size)) == expected
        assert module_identity_verdict(a, kernel.matrix) == expected
        assert is_star_invariant(a, kernel) == expected
    # the functional returned is the one checked, conj(e) H to the bit
    assert np.array_equal(kernel_to_functional(a, invariant),
                          np.conj(a.unit) @ invariant.matrix)


def m2_in_m4() -> StarHomomorphism:
    """x -> x (x) I_2 from M_2 into M_4, on matrix-unit coordinates."""
    m = np.zeros((16, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            for r in range(2):
                m[(2 * p + r) * 4 + 2 * q + r, 2 * p + q] = 1.0
    return StarHomomorphism(build_matrix_algebra(2), build_matrix_algebra(4), m)


# a basis change s of the source M_2: none, a random unitary, and a complex
# Gaussian matrix of condition 10
SOURCE_BASES = {
    "real": None,
    "complex": random_unitary,
    "gauss10": lambda rng, n: gaussian_basis(rng, n, 10.0),
}


@pytest.mark.parametrize("basis", SOURCE_BASES)
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_pullback_source_side_matches_the_complex_oracle(budget, monkeypatch, basis, scale):
    # pullback is the Gram matrix of alpha^T r on the source, r = conj(e) H
    # the target kernel's functional, and checks invariance on the target
    # alone.  Along a *-homomorphism it matches alpha^H H alpha, which is
    # invariant by the module identity too
    rng = np.random.default_rng(501)
    hom, s = m2_in_m4(), np.eye(4)
    if SOURCE_BASES[basis] is not None:  # the source M_2 in a basis s: alpha becomes alpha s
        s = SOURCE_BASES[basis](rng, 4)
        hom = StarHomomorphism(change_basis(hom.source, s), hom.target, hom.matrix @ s)
    kernel = functional_to_kernel(hom.target, scale * random_positive_functional(hom.target, rng))
    r = np.conj(hom.target.unit) @ kernel.matrix
    checked = []
    invariant = correspondence._invariant

    def counted(algebra, matrix, pol):
        checked.append(algebra)
        return invariant(algebra, matrix, pol)

    monkeypatch.setattr(correspondence, "_invariant", counted)
    got = pullback(hom, kernel)
    assert checked == [hom.target]
    pulled = hom.matrix.conj().T @ kernel.matrix @ hom.matrix
    assert numerics.within_tol(*numerics.entrywise_gap(got.matrix, pulled))
    want, size = assert_residual_matches_oracle(hom.source, pulled)
    assert numerics.within_tol(want, size)
    assert module_identity_verdict(hom.source, pulled)
    assert is_star_invariant(hom.source, got)

    # alpha times a random unitary is not *-preserving: rho o alpha is not
    # hermitian, so it has no kernel
    skewed = StarHomomorphism(hom.source, hom.target, hom.matrix @ random_unitary(rng, 4))
    with pytest.raises(NotPositive,
                       match="^pullback requires the pulled-back functional to be positive$"):
        pullback(skewed, kernel)

    # alpha after the transpose of M_2, positive but not multiplicative:
    # rho o alpha is a state, and pullback returns its Gram matrix, where
    # alpha^H H alpha is neither invariant nor equal to it
    transpose = np.eye(4)[[0, 2, 1, 3]]  # E_pq -> E_qp on matrix-unit coordinates
    skewed = StarHomomorphism(hom.source, hom.target,
                              m2_in_m4().matrix @ transpose @ s)
    pulled = skewed.matrix.conj().T @ kernel.matrix @ skewed.matrix
    want, size = assert_residual_matches_oracle(skewed.source, pulled)
    assert not numerics.within_tol(want, size)
    assert not module_identity_verdict(skewed.source, pulled)
    got = pullback(skewed, kernel).matrix
    oracle = gram_matrix(skewed.source, skewed.matrix.T @ r)
    assert numerics.within_tol(*numerics.entrywise_gap(got, oracle))
    assert not numerics.within_tol(*numerics.entrywise_gap(got, pulled))


def test_the_invariance_test_keeps_nothing_on_the_algebra():
    # is_star_invariant, kernel_to_functional and pullback build no stacks
    # and keep nothing: the algebras' derived data stays empty
    a = s3_algebra()
    kernel = functional_to_kernel(a, np.eye(6)[0])
    assert is_star_invariant(a, kernel)
    kernel_to_functional(a, kernel)
    hom = m2_in_m4()
    pullback(hom, functional_to_kernel(hom.target, hom.target.unit / 4))
    for alg in (a, hom.source, hom.target):
        assert alg.derived == {}


@pytest.mark.parametrize("cond", [10.0, 100.0])
def test_gaussian_basis_m8_kernels_pass_with_margin(cond):
    # M_8 (n = 64) in a complex Gaussian basis with a faithful state: its
    # Gram kernel and the kernel of its representation are invariant with a
    # relative residual far below match_tol
    rng = np.random.default_rng(64)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    density = b @ b.conj().T + np.eye(8)
    s = gaussian_basis(rng, 64, cond)
    a = change_basis(build_matrix_algebra(8), s)
    rho = s.T @ (density.T.ravel() / np.trace(density).real)
    for kernel in (functional_to_kernel(a, rho), rep_to_kernel(gns_construct(a, rho))):
        invariant, residual, _ = _invariant(a, kernel.matrix, DEFAULT_POLICY)
        _, size, _ = gram_residual_oracle(a, kernel.matrix)
        assert invariant and residual <= 1e-10 * size


def test_an_overflowing_functional_or_gram_matrix_raises():
    # H = 1e308 v v^T with v = (1, 0, 0, 1) on M_2: conj(e) H adds two
    # entries of 1e308.  In the basis 2 E_pq, e = (E_11 + E_22) / 2 halves
    # them first, and the Gram matrix, 2 r on each entry, overflows instead
    m2 = build_matrix_algebra(2)
    h = 1e308 * np.outer([1.0, 0, 0, 1], [1.0, 0, 0, 1]) + 0j
    with pytest.raises(NonFiniteScalar, match="functional overflows"):
        _invariant(m2, h, DEFAULT_POLICY)
    with pytest.raises(NonFiniteScalar, match="Gram matrix overflows"):
        _invariant(change_basis(m2, 2.0 * np.eye(4)), h, DEFAULT_POLICY)
    # a kernel on M_4 of top eigenvalue 1.5e308 whose functional reaches
    # 2.25e308: u = (e_0 + e / 2) / sqrt(3) has <e, u> u_0 = 3 / 2
    m4 = build_matrix_algebra(4)
    u = np.eye(16)[0] + m4.unit.real / 2
    kernel = make_kernel(np.outer(u, u) * (1.5e308 / 3.0))
    for call in (is_star_invariant, kernel_to_functional):
        with pytest.raises(NonFiniteScalar, match="functional overflows"):
            call(m4, kernel)


def worst_index(per_index: np.ndarray) -> int:
    """The index holding the worst violation, asserted to be unique."""
    worst = np.flatnonzero(per_index == per_index.max())
    assert worst.size == 1
    return int(worst[0])


def single_term(a: FiniteStarAlgebra) -> bool:
    """Whether validate_algebra reads a's associativity off a product table."""
    return _product_table(_real_copies(a)[0]) is not None


# Dyadic entries planted in the integer structure constants of S_3, so that
# every sum is exact and every form of the check agrees to the last bit.
# e_0 is the identity and e_5 e_3 = e_2, e_5 e_1 = e_4.
PLANTED = {
    # e_5 e_0 = (1 + 1/4) e_5: still single-term
    "dyadic": {(5, 0, 5): 1.25},
    # e_5 e_3 = (5/4) e_5 instead of e_2: still single-term
    "redirected": {(5, 3, 2): 0.0, (5, 3, 5): 1.25},
    # e_5 e_1 = e_4 + (5/4) e_1: two terms, so the blocked form
    "two-term": {(5, 1, 1): 1.25},
}


def planted_s3(plant: str) -> FiniteStarAlgebra:
    a = s3_algebra()
    c = a.structure_constants.copy()
    for index, value in PLANTED[plant].items():
        c[index] = value
    return FiniteStarAlgebra(c, a.involution, a.unit)


@pytest.mark.parametrize("plant", PLANTED)
def test_planted_associativity_violation_in_last_slice(budget, plant):
    bad = planted_s3(plant)
    c, n = bad.structure_constants, bad.dim
    assert single_term(bad) == (plant != "two-term")
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    per_i = np.abs(left - right).reshape(n, -1).max(axis=1)
    assert worst_index(per_i) == n - 1
    report = validate_algebra(bad)
    assert report.violations["associativity"] == per_i[n - 1]
    assert report.worst == "associativity"


def phased(a: FiniteStarAlgebra, seed: int) -> FiniteStarAlgebra:
    """a in the basis e'_i = phase_i e_i: still single-term, but complex."""
    rng = np.random.default_rng(seed)
    return change_basis(a, np.diag(np.exp(2j * np.pi * rng.random(a.dim))))


SINGLE_TERM_ALGEBRAS = {
    **{f"m{m}": (lambda m=m: build_matrix_algebra(m)) for m in range(1, 6)},
    **{f"z{k}": (lambda k=k: build_group_algebra(cyclic_group_table(k))) for k in (2, 3, 5)},
    "s3": s3_algebra,
    "s4": s4_algebra,
    "m2+s3": lambda: direct_sum_algebra(build_matrix_algebra(2), s3_algebra()),
    "m3+z2": lambda: direct_sum_algebra(build_matrix_algebra(3),
                                        build_group_algebra(cyclic_group_table(2))),
    "m2 basis 2E": lambda: change_basis(build_matrix_algebra(2), 2.0 * np.eye(4)),
    "m2 basis E/2": lambda: change_basis(build_matrix_algebra(2), 0.5 * np.eye(4)),
}


def raise_on_blocks(*args):
    raise AssertionError("the blocked associativity loop ran")


@pytest.mark.parametrize("name", SINGLE_TERM_ALGEBRAS)
def test_single_term_algebras_take_the_table_and_equal_the_oracle(monkeypatch, name):
    a = SINGLE_TERM_ALGEBRAS[name]()
    monkeypatch.setattr(algebra, "index_blocks", raise_on_blocks)
    assert validate_algebra(a).violations == algebra_oracle(a)


@pytest.mark.parametrize("seed", range(6))
def test_random_single_term_tables_equal_the_oracle(seed):
    # e_i e_j = v e_t with t random and v Gaussian or 0: far from
    # associative, and each side of every triple is one rounded product, so
    # the table, the blocked matmuls and the einsum oracle agree to the bit
    rng = np.random.default_rng(800 + seed)
    n = int(rng.integers(1, 10))
    c = np.zeros((n, n, n))
    targets = rng.integers(0, n, (n, n))
    values = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.8)
    np.put_along_axis(c, targets[:, :, None], values[:, :, None], axis=2)
    a = FiniteStarAlgebra(c, np.eye(n), np.eye(n)[0])
    assert single_term(a)
    got = validate_algebra(a).violations["associativity"]
    assert got == algebra_oracle(a)["associativity"] == _associativity_blocked(c)


def test_m8_reports_zero_for_every_law():
    report = validate_algebra(build_matrix_algebra(8))
    assert set(report.violations.values()) == {0.0}


BLOCKED_ALGEBRAS = {
    "m3 scrambled": lambda: change_basis(build_matrix_algebra(3),
                                         random_unitary(np.random.default_rng(700), 9)),
    "m2 phased": lambda: phased(build_matrix_algebra(2), 701),
    "s3 phased": lambda: phased(s3_algebra(), 702),
    "s3 two-term": lambda: planted_s3("two-term"),
}


@pytest.mark.parametrize("name", BLOCKED_ALGEBRAS)
def test_other_algebras_take_the_blocked_loop(monkeypatch, name):
    # a random-phase basis keeps one term per product, but complex: a
    # complex matmul rounds differently from numpy's products, so it keeps
    # the blocked form and its bits
    a = BLOCKED_ALGEBRAS[name]()
    monkeypatch.setattr(algebra, "index_blocks", raise_on_blocks)
    with pytest.raises(AssertionError, match="blocked associativity loop"):
        validate_algebra(a)


@pytest.mark.parametrize("rows", ["all", "last"])
def test_overflowing_single_term_products_match_the_blocked_verdict(budget, monkeypatch, rows):
    # S_3 with its products scaled by 1e200, all of them or those of e_5:
    # (e_i e_j) e_k overflows to inf, and inf - inf reads NaN when both
    # sides overflow onto one basis element.  The table form and the
    # blocked form both raise NonFiniteScalar rather than report that
    a = s3_algebra()
    c = a.structure_constants.copy()
    c[slice(None) if rows == "all" else slice(5, None)] *= 1e200
    bad = FiniteStarAlgebra(c, a.involution, a.unit)
    assert single_term(bad)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _associativity_blocked(_real_copies(bad)[0])
    assert np.isnan(want) if rows == "all" else want == np.inf
    with pytest.raises(NonFiniteScalar, match="overflow"):
        validate_algebra(bad)
    monkeypatch.setattr(algebra, "_product_table", lambda c: None)
    with pytest.raises(NonFiniteScalar, match="overflow"):
        validate_algebra(bad)


def test_overflowing_representation_and_homomorphism_laws_raise(budget):
    # the regular representation of S_3 times 1e200, given from outside,
    # and the map 1e200 I on S_3: their products pass the float range, so
    # verify_star_rep and validate_star_homomorphism raise NonFiniteScalar,
    # as validate_algebra does, rather than warn or report an inf
    a = s3_algebra()
    n = a.dim
    rep = GNSRepresentation(a, 1e200 * a.basis_left_mult(), a.unit, np.eye(n)[0],
                            np.eye(n, dtype=complex))
    with pytest.raises(NonFiniteScalar,
                       match="^the representation's law checks overflow the float range$"):
        verify_star_rep(rep)
    with pytest.raises(NonFiniteScalar,
                       match="^the homomorphism's law checks overflow the float range$"):
        validate_star_homomorphism(StarHomomorphism(a, a, 1e200 * np.eye(n)))


def test_representation_with_a_nan_entry_fails_its_report():
    # the regular representation of S_3, given from outside with a NaN at
    # matrices[5, 0, 0]: its orbit's Gram matrix has no rank, so cyclicity
    # reads NaN, the report fails rather than raise a bare ValueError, and
    # rep_to_kernel refuses the representation
    a = s3_algebra()
    n = a.dim
    mats = np.array(a.basis_left_mult(), dtype=complex)
    mats[5, 0, 0] = np.nan
    rep = GNSRepresentation(a, mats, a.unit, np.eye(n)[0], np.eye(n, dtype=complex))
    report = verify_star_rep(rep)
    assert np.isnan(report.violations["cyclicity"])
    assert not report.passed
    with pytest.raises(InvalidRepresentation, match="^representation fails verification: "):
        rep_to_kernel(rep)


def test_planted_multiplicativity_violation_in_last_slice(budget):
    # the regular representation of S_3 on C^6, all entries 0 or 1, over
    # structure constants that add e_0 / 4 to every product e_5 e_j: only
    # the products pi(e_5) pi(e_j) miss the table, by 1/4 exactly.  The
    # representation is real, so the real path must carry the violation
    a = s3_algebra()
    n = a.dim
    c = a.structure_constants.copy()
    c[n - 1, :, 0] += 0.25
    bad = FiniteStarAlgebra(c, a.involution, a.unit)
    mats = a.basis_left_mult()
    assert not np.any(mats.imag)
    rep = GNSRepresentation(bad, mats, a.unit, np.eye(n)[0], np.eye(n, dtype=complex))
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    table = np.einsum("ijk,kab->ijab", c, mats)
    per_i = np.abs(prod - table).reshape(n, -1).max(axis=1)
    assert np.all(per_i[:-1] == 0.0)
    assert verify_star_rep(rep).violations["multiplicativity"] == per_i[n - 1] == 0.25


def test_planted_invariance_violation_in_last_slice(budget):
    # the identity kernel of S_3 is invariant; a row of the involution
    # changed at e_5 breaks the identity pi(e_5) H = H L_5 alone, and the
    # Gram matrix of H's functional in its row of e_5
    a = s3_algebra()
    n = a.dim
    s = a.involution.copy()
    s[n - 1, 0] += 0.25
    bad = FiniteStarAlgebra(a.structure_constants, s, a.unit)
    h = np.eye(n, dtype=complex)
    assert invariance_residual(a, h) == 0.0
    want = gram_residual_oracle(bad, h)[0]
    assert invariance_residual(bad, h) == want == invariance_oracle(bad, h) == 0.25
    # the Gram matrix of r = e_0 misses H in its last row alone
    g = gram_oracle(bad, np.conj(bad.unit) @ h)
    assert worst_index(np.abs(h - g).max(axis=1)) == n - 1
    assert not is_star_invariant(bad, make_kernel(h))


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


def test_a_nan_in_the_last_slice_reaches_the_report(budget):
    # a running maximum that starts at 0.0 and uses Python's max drops NaN
    a = s3_algebra()
    n = a.dim
    m = np.eye(n, dtype=complex)
    m[n - 1, n - 1] = np.nan
    report = validate_star_homomorphism(StarHomomorphism(a, a, m))
    assert np.isnan(report.violations["multiplicativity"])
    assert np.isnan(report.violations["star_compatibility"])
    assert not report.passed

    h = np.eye(n, dtype=complex)
    h[n - 1, n - 1] = np.nan
    invariant, residual, _ = _invariant(a, h, DEFAULT_POLICY)
    assert np.isnan(residual) and not invariant

    mats = a.basis_left_mult().astype(complex)
    mats[n - 1, 0, 0] = np.nan
    assert np.isnan(_law_violations(a, mats)["multiplicativity"])


REAL_ALGEBRAS = {"m3": lambda: build_matrix_algebra(3), "s3": s3_algebra}


def trace_state(a: FiniteStarAlgebra) -> np.ndarray:
    """tau(x) = tr L_x / n, the normalized trace of the left-regular representation."""
    return np.trace(a.structure_constants, axis1=1, axis2=2) / a.dim


def real_noise(rng, shape, scale=0.1):
    return scale * rng.standard_normal(shape) + 0j


@pytest.mark.parametrize("name", REAL_ALGEBRAS)
def test_real_representations_match_the_oracle(budget, name):
    # the trace state in the matrix-unit and group bases has a real Gram
    # matrix, so the representation on its range (the Gram form, which no
    # report is kept for) is real and checked in real arithmetic; real
    # noise keeps it real and makes every law fail
    rng = np.random.default_rng(600)
    a = REAL_ALGEBRAS[name]()
    rep = _gram_represent(a, trace_state(a), DEFAULT_POLICY)
    assert rep.rep_dim == a.dim and not np.any(rep.matrices.imag)
    assert_matches(verify_star_rep(rep), rep_oracle(rep))
    bad = GNSRepresentation(a, rep.matrices + real_noise(rng, rep.matrices.shape),
                            rep.cyclic_vector, rep.source_functional, rep.embedding)
    violations = _law_violations(a, bad.matrices)
    assert min(violations.values()) > 1e-3
    assert_matches(verify_star_rep(bad), rep_oracle(bad))


def test_a_tiny_imaginary_part_takes_the_complex_path(budget):
    # the regular representation of S_3, all entries 0 or 1, satisfies every
    # law exactly; an imaginary 1e-300 in one entry breaks the adjoint law
    # by 1e-300 exactly, which a real check would drop
    a = s3_algebra()
    n = a.dim
    mats = a.basis_left_mult().copy()
    assert max(_law_violations(a, mats).values()) == 0.0
    mats[n - 1, 0, n - 1] += 1e-300j
    rep = GNSRepresentation(a, mats, a.unit, np.eye(n)[0], np.eye(n, dtype=complex))
    violations, want = _law_violations(a, mats), rep_oracle(rep)
    assert violations["star_property"] == want["star_property"] == 1e-300
    for law in ("unit", "multiplicativity"):
        np.testing.assert_allclose(violations[law], want[law], rtol=1e-12, atol=0)


def test_real_homomorphisms_match_the_oracle(budget):
    # x -> x (x) I_2 has real entries between real algebras; a real matrix of
    # noise breaks every law
    rng = np.random.default_rng(601)
    hom = m2_in_m4()
    assert not np.any(hom.matrix.imag)
    report = validate_star_homomorphism(hom)
    assert report.passed and report.violations["multiplicativity"] == 0.0
    wild = StarHomomorphism(hom.source, hom.target, real_noise(rng, hom.matrix.shape, 1.0))
    want = hom_multiplicativity_oracle(wild)
    got = validate_star_homomorphism(wild).violations
    assert want > 1e-3 and min(got.values()) > 1e-3
    np.testing.assert_allclose(got["multiplicativity"], want, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        got["star_compatibility"],
        np.max(np.abs(wild.matrix @ hom.source.involution.T
                      - hom.target.involution.T @ np.conj(wild.matrix))),
        rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", REAL_ALGEBRAS)
def test_real_kernels_match_the_oracle(budget, name):
    # the trace state's Gram matrix is real and invariant; a real symmetric
    # matrix of noise is not
    rng = np.random.default_rng(602)
    a = REAL_ALGEBRAS[name]()
    g = gram_matrix(a, trace_state(a))
    b = rng.standard_normal((a.dim, a.dim))
    for h, expected in ((g, True), (b @ b.T + 0j, False)):
        assert not np.any(h.imag)
        want, size = assert_residual_matches_oracle(a, h)
        assert bool(numerics.within_tol(want, size)) == expected
        assert is_star_invariant(a, make_kernel(h)) == expected


def test_one_real_copy_of_the_algebra_is_kept():
    # validate_algebra and the law checks of a representation multiply the
    # same real copies, made on first use; the invariance test keeps nothing
    a = build_matrix_algebra(3)
    assert "real copies" not in a.derived
    validate_algebra(a)
    copies = a.derived["real copies"]
    assert [x.dtype for x in copies] == [np.float64] * 3
    verify_star_rep(gns_construct(a, trace_state(a)))
    kept = list(a.derived)
    assert is_star_invariant(a, functional_to_kernel(a, trace_state(a)))
    assert list(a.derived) == kept
    assert a.derived["real copies"] is copies
    s = random_unitary(np.random.default_rng(603), a.dim)
    scrambled = change_basis(a, s)
    validate_algebra(scrambled)
    assert [x.dtype for x in scrambled.derived["real copies"]] == [np.complex128] * 3


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
    # (927 MB and 640 MB); the blocked checks stay near n^3.  A
    # representation given from outside (gns_construct's, in a rotated
    # basis) gets the full check.
    m8 = build_matrix_algebra(8)
    built = gns_construct(m8, m8.unit / 8)
    rep = conjugated_copy(built, random_unitary(np.random.default_rng(64), built.rep_dim))
    assert rep.rep_dim == 64
    for check in (lambda: validate_algebra(m8), lambda: verify_star_rep(rep)):
        report, peak = traced_peak_mb(check)
        assert report.passed, report.violations
        assert peak < 150.0
