"""Tests for the shared linear-algebra kit."""

import numpy as np
import pytest

from starrep import (
    TolerancePolicy,
    gns_construct,
    hermitian_eigen,
    pseudo_inverse,
    psd_check,
)
from starrep.numerics import psd_rank
from starrep.errors import NegativeEigenvalue, NoConvergence, NonSquare, NotHermitian

from conftest import random_hermitian, random_psd, s3_algebra


def two_by_two_symmetric_eigenvalues(a, b):
    # characteristic polynomial of [[a, b], [b, a]] by hand: (a-l)^2 = b^2
    return a + abs(b), a - abs(b)


def test_eigen_identity():
    w, v = hermitian_eigen(np.eye(2))
    assert np.array_equal(w, [1.0, 1.0])
    assert np.array_equal(v, np.eye(2, dtype=complex))


def test_eigen_swap_matrix():
    w, v = hermitian_eigen([[0, 1], [1, 0]])
    assert np.allclose(w, [1.0, -1.0])
    s = 1 / np.sqrt(2)
    assert np.allclose(v[:, 0], [s, s])
    assert np.allclose(v[:, 1], [s, -s])


def test_eigen_characteristic_polynomial_oracle():
    hi, lo = two_by_two_symmetric_eigenvalues(1.0, 0.5)
    assert (hi, lo) == (1.5, 0.5)
    w, _ = hermitian_eigen([[1, 0.5], [0.5, 1]])
    assert np.allclose(w, [hi, lo], atol=1e-14)


def assert_eigendecomposition(m, w, v, tol=1e-12):
    """Descending eigvalsh spectrum, small residual, orthonormal columns.

    Ties may come in either order: their columns are ordered by coordinates.
    """
    n = m.shape[0]
    scale = 1.0 + np.max(np.abs(w))
    assert np.all(np.diff(w) <= tol * scale)
    assert np.max(np.abs(w - np.linalg.eigvalsh(m)[::-1])) < tol * scale
    assert np.max(np.abs(m @ v - v * w)) < tol * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < tol


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13, 16, 21, 33, 64])
def test_eigen_reconstruction_random(n):
    rng = np.random.default_rng(n)
    m = random_hermitian(rng, n)
    w, v = hermitian_eigen(m)
    lam_max = np.max(np.abs(w))
    assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-9 * (1 + lam_max)
    assert np.max(np.abs(m @ v - v * w)) < 1e-10 * (1 + lam_max)
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
    # independent check of the spectrum
    assert np.allclose(w, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10)


def test_eigen_bit_identical_determinism():
    rng = np.random.default_rng(42)
    m = random_hermitian(rng, 7)
    w1, v1 = hermitian_eigen(m)
    w2, v2 = hermitian_eigen(m.copy())
    assert w1.tobytes() == w2.tobytes()
    assert v1.tobytes() == v2.tobytes()


def test_eigen_bit_identical_determinism_n64():
    rng = np.random.default_rng(64)
    m = random_hermitian(rng, 64)
    w1, v1 = hermitian_eigen(m)
    w2, v2 = hermitian_eigen(m.copy())
    assert w1.tobytes() == w2.tobytes()
    assert v1.tobytes() == v2.tobytes()


@pytest.mark.parametrize("n", [4, 7])
def test_eigen_exact_ties(n):
    # kron(I_3, H) repeats each eigenvalue of H exactly three times
    rng = np.random.default_rng(100 + n)
    m = np.kron(np.eye(3), random_hermitian(rng, n))
    w, v = hermitian_eigen(m)
    assert_eigendecomposition(m, w, v)
    assert np.allclose(w[0::3], w[1::3], atol=1e-12) and np.allclose(w[0::3], w[2::3], atol=1e-12)


@pytest.mark.parametrize("n,rank", [(3, 1), (7, 3), (16, 5), (33, 1), (64, 20)])
def test_eigen_rank_deficient_psd(n, rank):
    rng = np.random.default_rng(n * 100 + rank)
    m = random_psd(rng, n, rank)
    w, v = hermitian_eigen(m)
    assert_eigendecomposition(m, w, v)
    assert psd_check(m) == (True, rank)
    assert np.max(np.abs(w[rank:])) < 1e-12 * w[0]


def test_eigen_commutant_normal_matrix():
    # the normal matrix of X pi(e_i) = pi(e_i) X for the regular
    # representation of S_3: its null space is the commutant, of dimension
    # 1 + 1 + 2^2 = 6
    rep = gns_construct(s3_algebra(), np.eye(6)[0])
    d = rep.rep_dim
    normal = np.zeros((d * d, d * d), dtype=complex)
    for a in rep.matrices:
        k = np.kron(np.eye(d), a.T) - np.kron(a, np.eye(d))
        normal += k.conj().T @ k
    w, v = hermitian_eigen(normal)
    assert_eigendecomposition(normal, w, v)
    assert psd_check(normal)[1] == d * d - 6


@pytest.mark.parametrize("t", [2.5e-323, 2.5e-323j, 1e-310 * (1 + 1j), 5e-324])
def test_eigen_subnormal_off_diagonal_entry(t):
    # phase = a_pq / |a_pq| overflows when |a_pq| is subnormal; such an entry
    # is far below the stopping threshold and must be left alone
    m = np.array(
        [[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, t], [0, 0, np.conj(t), 4]], dtype=complex
    )
    w, v = hermitian_eigen(m)
    expected = [4.0, 3.0, (3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2]
    assert np.allclose(w, expected, atol=1e-14)
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-14
    assert np.max(np.abs(m @ v - v * w)) < 1e-14


@pytest.mark.parametrize(
    "m,expected",
    [
        # max|m| far below 1e-154 or above 1e154, where ||m||_F under- or
        # overflows; and a spectrum below 1e-12, which an absolute tie
        # tolerance would take for one tie cluster
        (1e-200 * np.diag([1.0, 2.0]), 1e-200 * np.array([2.0, 1.0])),
        (1e-200 * np.array([[2.0, 1.0], [1.0, 2.0]]), 1e-200 * np.array([3.0, 1.0])),
        (1e200 * np.array([[2.0, 1.0], [1.0, 2.0]]), 1e200 * np.array([3.0, 1.0])),
        (1e-150 * np.diag([1.0, 2.0]), 1e-150 * np.array([2.0, 1.0])),
    ],
    ids=["tiny-diagonal", "tiny", "huge", "tiny-spectrum"],
)
def test_eigen_extreme_scales(m, expected):
    w, v = hermitian_eigen(m)
    assert np.allclose(w, expected, rtol=1e-14, atol=0.0)
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-14


def test_hermiticity_rule_is_relative():
    # an asymmetry of 1e-12 relative to the largest entry passes at any scale
    for scale in (1e-9, 1.0, 1e9):
        w, _ = hermitian_eigen(scale * np.array([[1.0, 1e-12], [0.0, 1.0]]))
        assert np.allclose(w, scale * np.array([1 + 5e-13, 1 - 5e-13]), rtol=1e-15, atol=0.0)
    # and one of 1e-6 fails at any scale
    for scale in (1e-9, 1.0, 1e9):
        with pytest.raises(NotHermitian):
            hermitian_eigen(scale * np.array([[1.0, 1e-6], [0.0, 1.0]]))


def test_eigen_rejects_bad_input():
    with pytest.raises(NonSquare):
        hermitian_eigen(np.ones((2, 3)))
    with pytest.raises(NotHermitian):
        hermitian_eigen([[0, 1], [5, 0]])
    with pytest.raises(ValueError):
        hermitian_eigen([[np.nan, 0], [0, 1]])


def test_eigen_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="Eigenvalues did not converge"):
        hermitian_eigen(np.eye(2))


def test_pinv_diagonal():
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))


def test_pinv_rank_one_oracle():
    # rank-1 formula: pinv(v v^H) = v v^H / ||v||^4
    v = np.array([1.0, 1.0])
    expected = np.outer(v, v) / np.linalg.norm(v) ** 4
    assert np.allclose(expected, [[0.25, 0.25], [0.25, 0.25]])
    assert np.allclose(pseudo_inverse([[1, 1], [1, 1]]), expected)


@pytest.mark.parametrize("n,rank", [(4, 4), (5, 3), (6, 2)])
def test_pinv_penrose_identity(n, rank):
    rng = np.random.default_rng(n * 10 + rank)
    m = random_psd(rng, n, rank)
    p = pseudo_inverse(m)
    lam_max = np.max(np.linalg.eigvalsh(m))
    assert np.max(np.abs(m @ p @ m - m)) < 1e-8 * (1 + lam_max)


def test_pinv_idempotent_compatible():
    rng = np.random.default_rng(5)
    m = random_psd(rng, 5, 3)
    back = pseudo_inverse(pseudo_inverse(m))
    w, v = hermitian_eigen(m)
    keep = w > 1e-9 * w[0]
    proj = v[:, keep] @ v[:, keep].conj().T
    assert np.max(np.abs(back - proj @ m @ proj)) < 1e-7


def test_pinv_rejects_negative():
    with pytest.raises(NegativeEigenvalue):
        pseudo_inverse([[1, 2], [2, 1]])


def test_psd_check_examples():
    assert psd_check(np.zeros((3, 3))) == (True, 0)
    assert psd_check([[1, 1], [1, 1]]) == (True, 1)
    is_psd, _ = psd_check([[1, 2], [2, 1]])
    assert not is_psd


def test_psd_check_relative_rank_cutoff():
    # a scaled-down degenerate matrix keeps its rank under the relative policy
    m = np.diag([1.0, 1e-30, 0.0])
    assert psd_check(m) == (True, 1)
    assert psd_check(1e-12 * np.diag([1.0, 0.5, 0.0])) == (True, 2)
    assert psd_check(1e-13 * np.diag([1e-30, 1.0])) == (True, 1)


def test_psd_rank_cutoff_relative_to_a_given_scale():
    values = np.array([1e-30])
    assert psd_rank(values) == (True, 1)
    assert psd_rank(values, scale=1.0) == (True, 0)
    assert psd_rank(np.array([2.0, 1e-10]), scale=1.0) == (True, 1)


def test_policy_rejects_negative_tolerances():
    with pytest.raises(ValueError):
        TolerancePolicy(rel_rank_tol=-1.0)
