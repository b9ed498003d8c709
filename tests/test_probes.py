"""GNS representations of nearly singular states, in bases where the Gram form is misleading.

The states are rho = tr(D .) on M_2, M_3, M_4 and M_6, with D of
eigenvalues (1, eps, ..., eps) in a random eigenbasis, for eps from 1e-2
down to 1.5e-9, just above ``rel_rank_tol``.  Each algebra is written in
its matrix-unit basis, in a random unitary basis, and in a random complex
Gaussian basis of condition number 10 (``change_basis``), and each state
is taken at the scales 1e-12, 1 and 1e9.  A change of basis changes the
Gram matrix's spectrum by congruence, so a rank cut on it depends on the
basis; the densities D_j of the block data do not.  Every case must give
a representation of dimension sum_j k_j r_j = m^2, whose kept report (the
one ``gns_construct`` leaves for ``verify_star_rep``) passes and agrees
with the full check to a few ulps, and whose kernel gives back rho.  The
representation of rho's kernel (``kernel_to_rep``) must have the same
dimension and pass ``verify_star_rep`` too, whatever rank the kernel's
spectrum was cut at.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    TolerancePolicy,
    block_data,
    build_matrix_algebra,
    decompose,
    direct_sum_algebra,
    functional_to_kernel,
    gns_construct,
    kernel_to_functional,
    kernel_to_rep,
    rep_to_kernel,
    verify_star_rep,
)
from starrep.errors import NotPositive
from starrep.gns import _check_star_rep, _law_violations
from starrep.numerics import psd_rank, relative_gap

from conftest import (
    change_basis,
    gaussian_basis,
    random_positive_functional,
    random_unitary,
    s3_algebra,
    s4_algebra,
)

BASES = ("units", "unitary", "gaussian")
EPSILONS = (1e-2, 1e-4, 1e-6, 1e-8, 1.5e-9)
SCALES = (1e-12, 1.0, 1e9)
EPS = np.finfo(float).eps
# the kept and the full report of one representation differ by the
# roundoff of the wider products of the full check
ULPS = 8


@functools.cache
def algebra_in(m: int, basis: str):
    """M_m in the named basis, and the basis matrix (None for matrix units)."""
    if basis == "units":
        return build_matrix_algebra(m), None
    rng = np.random.default_rng([m, BASES.index(basis)])
    n = m * m
    s = random_unitary(rng, n) if basis == "unitary" else gaussian_basis(rng, n)
    return change_basis(build_matrix_algebra(m), s), s


def probe_state(m: int, basis: str, eps: float) -> np.ndarray:
    """tr(D .) with D of eigenvalues (1, eps, ..., eps), in the algebra's basis."""
    w = random_unitary(np.random.default_rng([m, EPSILONS.index(eps)]), m)
    density = (w * np.r_[1.0, [eps] * (m - 1)]) @ w.conj().T
    rho = density.T.ravel()  # rho(E_pq) = D[q, p]
    s = algebra_in(m, basis)[1]
    return rho if s is None else s.T @ rho


def law_sizes(rep) -> dict:
    """The size each law of ``rep`` is measured against, the larger of max|lhs| and max|rhs|.

    Computed by einsum, apart from the package's law checks.  Cyclicity and
    reproduction are scale-free already and have the size 1 here.
    """
    a, mats = rep.algebra, rep.matrices

    def maxabs(x) -> float:
        return float(np.abs(x).max())

    products = np.einsum("iab,jbc->ijac", mats, mats, optimize=True)
    table = np.einsum("ijk,kab->ijab", a.structure_constants, mats, optimize=True)
    return {
        "unit": max(maxabs(np.einsum("i,iab->ab", a.unit, mats)), 1.0),
        "multiplicativity": max(maxabs(products), maxabs(table)),
        "star_property": max(maxabs(np.einsum("ij,jab->iab", a.involution, mats)),
                             maxabs(mats)),
        "cyclicity": 1.0,
        "reproduction": 1.0,
    }


def assert_kept_matches_full(rep) -> None:
    # the residuals agree to ULPS ulps of the largest entry, so the relative
    # violations agree to that over each law's size.  The sizes cost
    # O(n^2 d^3) by einsum, and are computed only where the two differ
    kept = verify_star_rep(rep).violations
    full = _check_star_rep(rep, DEFAULT_POLICY).violations
    assert list(kept) == list(full)
    if kept == full:
        return
    size = max(1.0, float(np.abs(rep.matrices).max()))
    sizes = law_sizes(rep)
    for law in kept:
        bound = ULPS * EPS * size / sizes[law]
        assert abs(kept[law] - full[law]) <= bound, (law, kept[law], full[law])


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_nearly_singular_states_keep_their_dimension(m, basis, eps):
    algebra = algebra_in(m, basis)[0]
    (k,) = block_data(algebra).sizes
    for scale in SCALES:
        rho = scale * probe_state(m, basis, eps)
        rep = gns_construct(algebra, rho)
        assert rep.rep_dim == k * m  # sum_j k_j r_j, one block of rank m
        report = verify_star_rep(rep)
        assert report.passed, dict(report.violations)
        assert_kept_matches_full(rep)
        back = kernel_to_functional(algebra, rep_to_kernel(rep))
        assert relative_gap(back, rho) < 1e-12
        from_kernel = kernel_to_rep(algebra, functional_to_kernel(algebra, rho))
        assert from_kernel.rep_dim == k * m
        report = verify_star_rep(from_kernel)
        assert report.passed, dict(report.violations)


# a PSD tolerance that admits no roundoff: only where a state enters is PSD judged
EXACT_PSD = TolerancePolicy(psd_tol=1e-300)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_the_kernel_of_an_accepted_state_takes_no_psd_verdict(m, basis):
    # T^H T of a representation gns_construct built is PSD by construction,
    # so rep_to_kernel returns its kernel even where roundoff leaves it a
    # least eigenvalue below -psd_tol times its top, as the rank-deficient
    # T^H T of a vector state w^H x w often does.  A vector state's density
    # can itself carry a negative roundoff eigenvalue; gns_construct judges
    # it where it enters and refuses it, and such a state is passed over
    algebra, s = algebra_in(m, basis)
    states = [probe_state(m, basis, eps) for eps in EPSILONS]
    for seed in range(3):
        w = random_unitary(np.random.default_rng([m, seed]), m)[:, 0]
        vector = np.outer(w, w.conj()).T.ravel()  # rho(E_pq) = D[q, p], D = w w^H
        states.append(vector if s is None else s.T @ vector)
    for rho in states:
        for scale in SCALES:
            try:
                rep = gns_construct(algebra, scale * rho, EXACT_PSD)
            except NotPositive:
                continue
            kernel = rep_to_kernel(rep, EXACT_PSD)
            assert kernel.rank == psd_rank(np.linalg.eigvalsh(kernel.matrix)[::-1], EXACT_PSD)[1]


ALGEBRAS = {
    "M2": lambda: build_matrix_algebra(2),
    "M3": lambda: build_matrix_algebra(3),
    "S3": s3_algebra,
    "S4": s4_algebra,
    "M3+S3": lambda: direct_sum_algebra(build_matrix_algebra(3), s3_algebra()),
}


@pytest.mark.parametrize("scrambled", [False, True], ids=["builder", "scrambled"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_the_kept_report_is_the_full_check(name, scrambled):
    # a random state, the faithful trace (the unit's coordinates in the
    # builders' bases) and a vector state; then the trace again, built
    # from a corrupted block: the block's violation shows in both reports
    rng = np.random.default_rng([list(ALGEBRAS).index(name), scrambled])
    algebra = ALGEBRAS[name]()
    rho = random_positive_functional(algebra, rng)
    states = [rho, algebra.unit, decompose(algebra, rho).components[-1].functional]
    if scrambled:
        s = random_unitary(rng, algebra.dim)
        algebra, states = change_basis(algebra, s), [s.T @ state for state in states]
    for state in states:
        assert_kept_matches_full(gns_construct(algebra, state))

    data = block_data(algebra)
    blocks = list(data.blocks)
    blocks[-1] = blocks[-1] + 1e-3 * rng.standard_normal(blocks[-1].shape)
    laws = tuple(_law_violations(algebra, stack) for stack in blocks)
    algebra.derived[("block_data", DEFAULT_POLICY)] = data._replace(blocks=tuple(blocks), laws=laws)
    rep = gns_construct(algebra, states[1])
    assert not verify_star_rep(rep).passed
    assert_kept_matches_full(rep)
