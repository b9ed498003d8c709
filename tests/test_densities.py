"""The density pass: a functional's values on the matrix units, checked as one vector.

``gns_construct``, ``decompose`` and ``is_extremal`` read a functional rho
through its densities D_j[b, a] = rho(E^j_ab), hermitized after one
hermiticity check at one scale for all blocks (``_state_densities``).  The
check runs on the n values rho(E^j_ab) against the conjugates of the
rho(E^j_ba); the oracle here builds the block-diagonal matrix of the D_j
and checks and hermitizes it whole, as an eigensolver's input, and the two
must agree in their verdict and in every bit.  The one scale is the
largest value of all blocks, so a small block's asymmetry is measured
against a large block's entries.  A representation's multiplicities are a
character read on the blocks' central projections, one product; they must
agree with the trace of each block taken apart.
"""

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    block_data,
    build_matrix_algebra,
    decompose,
    direct_sum_algebra,
    gns_construct,
    is_extremal,
    is_irreducible,
    representations_equivalent,
)
from starrep.errors import NotHermitian, NotPositive
from starrep.gns import _state_densities
from starrep.numerics import _require_square_hermitian, entrywise_gap, within_tol

from conftest import (
    change_basis,
    random_algebra,
    random_positive_functional,
    random_unitary,
    s3_algebra,
    s4_algebra,
)
from test_probes import BASES, EPSILONS, SCALES, algebra_in, probe_state

CALLERS = {"gns_construct": gns_construct, "decompose": decompose, "is_extremal": is_extremal}


def block_diagonal_densities(algebra, rho, pol=DEFAULT_POLICY):
    """The D_j as the diagonal blocks of one checked, hermitized block-diagonal matrix."""
    data = block_data(algebra, pol)
    values = np.asarray(rho, dtype=complex) @ data.units
    diagonal = np.zeros((sum(data.sizes),) * 2, dtype=complex)
    blocks, start = [], 0
    for s, k in zip(data.slices, data.sizes):
        block = slice(start, start + k)
        diagonal[block, block] = values[s].reshape(k, k).T
        blocks.append(block)
        start = block.stop
    diagonal = _require_square_hermitian(diagonal, pol)
    return [diagonal[block, block] for block in blocks]


def assert_same_densities(algebra, rho) -> None:
    try:
        want = block_diagonal_densities(algebra, rho)
    except (NotHermitian, ValueError):
        with pytest.raises(NotPositive, match="^probe requires a positive functional$"):
            _state_densities(algebra, rho, DEFAULT_POLICY, "probe")
        return
    got = _state_densities(algebra, rho, DEFAULT_POLICY, "probe")[2]
    assert [d.shape for d in got] == [d.shape for d in want]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_densities_match_the_block_diagonal_oracle_on_random_algebras(seed):
    # positive states in the builder and in a scrambled basis, at three
    # scales; a complex draw, which is not hermitian; and a positive state
    # with an asymmetry near the tolerance, on both sides of it
    rng = np.random.default_rng([27, seed])
    algebra, trace = random_algebra(rng, max_dim=9)
    rho = random_positive_functional(algebra, rng)
    s = random_unitary(rng, algebra.dim)
    scrambled = change_basis(algebra, s)
    for scale in (1e-12, 1.0, 1e9):
        for state in (trace, rho):
            assert_same_densities(algebra, scale * state)
            assert_same_densities(scrambled, scale * (s.T @ state))
    draw = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    assert_same_densities(algebra, draw)
    size = float(np.abs(rho @ block_data(algebra).units).max())
    for factor in (0.4, 0.6):
        assert_same_densities(algebra, rho + 1j * factor * DEFAULT_POLICY.match_tol * size * draw)


@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_densities_match_the_block_diagonal_oracle_on_the_probes(m):
    for basis in BASES:
        algebra = algebra_in(m, basis)[0]
        for eps in EPSILONS:
            for scale in SCALES:
                assert_same_densities(algebra, scale * probe_state(m, basis, eps))


def test_densities_match_the_block_diagonal_oracle_on_delta_e_of_s4():
    algebra = s4_algebra()
    assert_same_densities(algebra, np.eye(algebra.dim)[0])


@pytest.mark.parametrize("caller", CALLERS)
def test_hermiticity_is_decided_at_the_scale_of_all_blocks(caller):
    # M_2 (+) C with D = 1e3 I on M_2 and 1 + i t on C: the asymmetry of the
    # 1 x 1 density, 2 t, is measured against 1e3, the largest value, and
    # passes just below match_tol * 1e3 though it is far past match_tol * 1
    algebra = direct_sum_algebra(build_matrix_algebra(2), build_matrix_algebra(1))
    data = block_data(algebra)
    (one,) = [s for s, k in zip(data.slices, data.sizes) if k == 1]
    tol = DEFAULT_POLICY.match_tol
    for factor, passes in ((0.99, True), (1.01, False)):
        values = np.zeros(algebra.dim, dtype=complex)
        for s, k in zip(data.slices, data.sizes):
            values[s] = (1e3 * np.eye(k)).ravel()
        values[one] = 1.0 + 0.5j * factor * tol * 1e3
        rho = values @ data.coords  # rho(E^j_ab) = values[j0 + a k + b]
        gap, _ = entrywise_gap(values[one], np.conj(values[one]))
        assert not within_tol(gap, abs(values[one][0]))
        if passes:
            CALLERS[caller](algebra, rho)
        else:
            with pytest.raises(NotPositive, match=f"^{caller} requires a positive functional$"):
                CALLERS[caller](algebra, rho)


def block_multiplicities(algebra, rep) -> list[int]:
    """tr pi(z_j) / k_j, each z_j the trace of block j's matrix units taken alone."""
    data = block_data(algebra)
    n = algebra.dim
    character = np.trace(rep.matrices, axis1=1, axis2=2)
    counts = []
    for s, k in zip(data.slices, data.sizes):
        z = np.trace(data.units[:, s].reshape(n, k, k), axis1=1, axis2=2)
        counts.append(int(np.rint((character @ z / k).real)))
    return counts


@pytest.mark.parametrize("name", ["S4", "M2+S3"])
def test_equivalence_and_irreducibility_match_a_per_block_trace(name):
    algebra = s4_algebra() if name == "S4" else direct_sum_algebra(build_matrix_algebra(2),
                                                                   s3_algebra())
    rho = np.eye(algebra.dim)[0] if name == "S4" else algebra.unit
    reps = [c.representation for c in decompose(algebra, rho).components]
    reps.append(gns_construct(algebra, rho))
    counts = [block_multiplicities(algebra, rep) for rep in reps]
    for rep, m in zip(reps, counts):
        assert is_irreducible(rep) == (sum(m) == 1)
    for rep1, m1 in zip(reps, counts):
        for rep2, m2 in zip(reps, counts):
            assert representations_equivalent(rep1, rep2) == (m1 == m2)
