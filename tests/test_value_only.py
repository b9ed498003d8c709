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
    kernel_difference,
    kernel_leq,
    make_kernel,
    mutually_excluding,
    ordinary_subrep_check,
)
from starrep.errors import NotDominated

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


def full_spectrum_verdicts(algebra, states) -> dict:
    """Each decision read off ``hermitian_eigen`` (inside the vector-using operations)."""
    kernels = [functional_to_kernel(algebra, rho) for rho in states]
    pairs = [(k1, k2) for k1 in kernels for k2 in kernels]

    def dominated(k1, k2):
        try:
            kernel_difference(k2, k1)
        except NotDominated:
            return False
        return True

    def summand(k1, k2):
        return dominated(k1, k2) and k1.rank + kernel_difference(k2, k1).rank == k2.rank

    return {
        "rank": [gns_construct(algebra, rho).rep_dim for rho in states],
        "extremal": [len(decompose(algebra, rho).components) == 1 for rho in states],
        "leq": [dominated(k1, k2) for k1, k2 in pairs],
        "excluding": [k1.rank + k2.rank == make_kernel(k1.matrix + k2.matrix).rank
                      for k1, k2 in pairs],
        "subrep": [summand(k1, k2) for k1, k2 in pairs],
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
