"""The value-only eigensolve gives the verdicts the full spectrum gives."""

import numpy as np
from hypothesis import given, settings, strategies as st

from starrep import (
    build_matrix_algebra,
    decompose,
    direct_sum_algebra,
    functional_to_kernel,
    gns_construct,
    gram_matrix,
    hermitian_eigen,
    hermitian_eigvals,
    is_extremal,
    is_positive,
    kernel_leq,
    make_kernel,
    mutually_excluding,
    ordinary_subrep_check,
)
from starrep.errors import NegativeEigenvalue
from starrep.numerics import psd_rank

from conftest import change_basis, random_unitary

SCALES = (1e-12, 1.0, 1e9)


def sparse_state(rng, unitaries) -> np.ndarray:
    """tr(D_j .) summed over the blocks, each D_j PSD on random eigenvectors of U_j.

    Values on the matrix units of the blocks in turn; D_j keeps each column
    of U_j with probability 1/2, at a weight in [0.5, 2], so ranks are
    exact and states are often pure, nested or orthogonal.
    """
    values = []
    for u in unitaries:
        weights = rng.uniform(0.5, 2.0, u.shape[0]) * (rng.random(u.shape[0]) < 0.5)
        density = (u * weights) @ u.conj().T
        values.append(density.T.ravel())  # rho(E_ab) = D[b, a]
    return np.concatenate(values)


def full_verdict(m, scale=None) -> tuple[bool, int | None]:
    """``psd_rank``'s PSD verdict and rank of m, read off ``hermitian_eigen``; no rank if not PSD."""
    is_psd, rank = psd_rank(hermitian_eigen(m)[0], scale=scale)
    return is_psd, rank if is_psd else None


def make_kernel_verdict(m) -> tuple[bool, int | None]:
    """``make_kernel``'s PSD verdict and rank of m, from its value-only solve."""
    try:
        return True, make_kernel(m).rank
    except NegativeEigenvalue:
        return False, None


def cone_matrices(algebra, states) -> list[np.ndarray]:
    """The Gram matrices of the states, and the sum and difference of each pair of them."""
    grams = [gram_matrix(algebra, rho) for rho in states]
    return grams + [g for g1 in grams for g2 in grams for g in (g1 + g2, g2 - g1)]


def full_spectrum_verdicts(algebra, states) -> dict:
    """Each decision read off ``hermitian_eigen`` (inside the block-reading operations)."""
    mats = [functional_to_kernel(algebra, rho).matrix for rho in states]
    ranks = [full_verdict(m)[1] for m in mats]
    pairs = [(i, j) for i in range(len(mats)) for j in range(len(mats))]

    def dominated(i, j):
        top = max(hermitian_eigen(mats[i])[0][0], hermitian_eigen(mats[j])[0][0], 0.0)
        return full_verdict(mats[j] - mats[i], top)[0]

    def summand(i, j):
        return dominated(i, j) and ranks[i] + full_verdict(mats[j] - mats[i])[1] == ranks[j]

    return {
        "rank": [gns_construct(algebra, rho).rep_dim for rho in states],
        "extremal": [len(decompose(algebra, rho).components) == 1 for rho in states],
        "leq": [dominated(i, j) for i, j in pairs],
        "excluding": [ranks[i] + ranks[j] == full_verdict(mats[i] + mats[j])[1]
                      for i, j in pairs],
        "subrep": [summand(i, j) for i, j in pairs],
        "make_kernel": [full_verdict(m) for m in cone_matrices(algebra, states)],
    }


def value_only_verdicts(algebra, states) -> dict:
    kernels = [functional_to_kernel(algebra, rho) for rho in states]
    pairs = [(k1, k2) for k1 in kernels for k2 in kernels]
    positive = [is_positive(algebra, rho) for rho in states]
    assert all(ok for ok, _ in positive)
    return {
        "rank": [rank for _, rank in positive],
        "extremal": [is_extremal(algebra, rho) for rho in states],
        "leq": [kernel_leq(k1, k2) for k1, k2 in pairs],
        "excluding": [mutually_excluding(k1, k2) for k1, k2 in pairs],
        "subrep": [ordinary_subrep_check(k1, k2) for k1, k2 in pairs],
        "make_kernel": [make_kernel_verdict(m) for m in cone_matrices(algebra, states)],
    }


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    scrambled=st.booleans(),
)
def test_value_only_verdicts_agree_with_the_full_spectrum(seed, sizes, scrambled):
    rng = np.random.default_rng(seed)
    algebra = build_matrix_algebra(sizes[0])
    for k in sizes[1:]:
        algebra = direct_sum_algebra(algebra, build_matrix_algebra(k))
    unitaries = [random_unitary(rng, k) for k in sizes]
    a, b, c = (sparse_state(rng, unitaries) for _ in range(3))
    states = [rho for rho in (a, b, a + c) if np.any(rho)]
    if not states:
        return
    if scrambled:
        s = random_unitary(rng, algebra.dim)
        algebra, states = change_basis(algebra, s), [s.T @ rho for rho in states]

    expected = None
    for scale in SCALES:
        scaled = [scale * rho for rho in states]
        verdicts = value_only_verdicts(algebra, scaled)
        assert verdicts == full_spectrum_verdicts(algebra, scaled)
        expected = expected or verdicts
        assert verdicts == expected

        for rho in scaled:
            g = gram_matrix(algebra, rho)
            values = hermitian_eigvals(g)
            full, _ = hermitian_eigen(g)
            assert np.all(np.diff(values) <= 0)
            ulp = np.finfo(float).eps * float(np.abs(full).max())
            assert np.abs(values - full).max() <= 4 * len(g) * ulp
