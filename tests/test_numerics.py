"""Tests for the shared linear-algebra kit."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starrep import (
    TolerancePolicy,
    gns_construct,
    hermitian_eigen,
    pseudo_inverse,
    psd_check,
)
from starrep import numerics
from starrep.numerics import ValidationReport, psd_rank
from starrep.errors import (
    NegativeEigenvalue,
    NoConvergence,
    NonFiniteScalar,
    NonSquare,
    NotHermitian,
)

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


def test_an_infinite_residual_fails_the_entrywise_rule():
    # inf <= match_tol * inf holds; the rule fails an infinite residual as
    # it fails a NaN one, so a matrix with an infinite entry is not hermitian
    assert not numerics.within_tol(np.inf, np.inf)
    assert not numerics.within_tol(np.nan, 1.0)
    assert numerics.within_tol(np.array([0.0, 1e-9, np.inf, np.nan]), 1.0).tolist() == [
        True, True, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([[0, np.inf], [0, 0]], [[0, np.inf], [np.inf, 0]], [[np.inf, 0], [0, 1]]):
            assert not numerics.within_tol(*numerics.entrywise_gap(np.array(m), np.array(m).T))


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
    for value in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            TolerancePolicy(rel_rank_tol=value)


@pytest.mark.parametrize("order", [("a", "nan", "b"), ("nan", "a", "b"), ("a", "b", "nan")])
def test_a_nan_violation_fails_the_report(order):
    # Python's max drops a NaN that is not listed first
    values = {"a": 0.0, "b": 1e-12, "nan": float("nan")}
    report = ValidationReport({law: values[law] for law in order}, tolerance=1e-8)
    assert np.isnan(report.max_violation)
    assert report.worst == "nan"
    assert not report.passed and report.as_dict()["passed"] is False


def canonical_columns_oracle(values, vectors):
    """The per-column form of ``numerics._canonical_columns`` that the array form replaced."""
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]

    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        idx = int(np.argmax(np.abs(col)))
        z = col[idx]
        if abs(z) > 0.0:
            vectors[:, k] = col * (np.conj(z) / abs(z))

    n = values.size
    tie_tol = numerics._TIE_REL_TOL * (np.max(np.abs(values)) if n else 0.0)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop - 1] - values[stop] <= tie_tol:
            stop += 1
        if stop - start > 1:
            block = np.round(vectors[:, start:stop], numerics._KEY_DECIMALS)
            keys = np.stack([block.real, block.imag], axis=1).reshape(2 * n, -1)
            perm = start + np.lexsort(-keys[::-1])
            values[start:stop] = values[perm]
            vectors[:, start:stop] = vectors[:, perm]
        start = stop
    return values, vectors


def oracle_matrix(seed: int, n: int, kind: str, is_complex: bool, scale: float) -> np.ndarray:
    """A hermitian n x n matrix of the given kind, times scale ("kron-m": at most n x n)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if is_complex:
        g = g + 1j * rng.standard_normal((n, n))
    if kind == "random":
        m = g + g.conj().T
    elif kind == "rank-deficient":
        b = g[:, : int(rng.integers(0, n + 1))]
        m = b @ b.conj().T
    elif kind == "kron":  # for even n each eigenvalue of the PSD h exactly twice
        h = g[: (n + 1) // 2, : (n + 1) // 2]
        m = np.kron(np.eye(2), h @ h.conj().T)[:n, :n]
    elif kind == "kron-m":
        # I_m (x) H, the Gram form I_m (x) D^T of a state on M_m: each
        # eigenvalue of the complex PSD H, possibly rank-deficient, m times
        copies = int(rng.integers(2, 9))
        k = max(1, n // copies)
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        b = b[:, : int(rng.integers(0, k + 1))]
        m = np.kron(np.eye(copies), b @ b.conj().T)
    elif kind == "cluster":  # one cluster of near ties among well-separated singletons
        values = np.cumsum(1.0 + rng.random(n))
        start = int(rng.integers(0, n))
        values[start : start + int(rng.integers(2, n + 2))] = values[start]
        q, _ = np.linalg.qr(g)
        m = (q * values) @ q.conj().T
    elif kind == "integer":  # small integer entries: many near and exact ties
        m = np.round(g.real / 2)
        m = m + m.T
    elif kind == "identity":
        m = np.eye(n)
    else:
        m = np.zeros((n, n))
    return scale * m


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 64),
    kind=st.sampled_from(
        ["random", "rank-deficient", "kron", "kron-m", "integer", "identity", "cluster", "zero"]
    ),
    is_complex=st.booleans(),
    scale=st.sampled_from([1e-12, 1.0, 1e9, -1.0]),
)
@example(seed=0, n=1, kind="random", is_complex=False, scale=1.0)
@example(seed=0, n=64, kind="kron", is_complex=True, scale=1e9)
@example(seed=0, n=8, kind="kron", is_complex=False, scale=1e-12)
@example(seed=0, n=12, kind="kron", is_complex=True, scale=-1.0)
@example(seed=0, n=5, kind="identity", is_complex=False, scale=1.0)
@example(seed=0, n=7, kind="zero", is_complex=True, scale=1.0)
@example(seed=3, n=33, kind="rank-deficient", is_complex=True, scale=1e-12)
@example(seed=1, n=64, kind="kron-m", is_complex=True, scale=1.0)
@example(seed=2, n=36, kind="identity", is_complex=True, scale=1e9)
@example(seed=4, n=36, kind="cluster", is_complex=True, scale=1.0)
def test_canonical_columns_match_the_per_column_oracle(seed, n, kind, is_complex, scale):
    m = oracle_matrix(seed, n, kind, is_complex, scale)
    w, v = hermitian_eigen(m)
    values, vectors = np.linalg.eigh(numerics._require_square_hermitian(m, TolerancePolicy()))
    w0, v0 = canonical_columns_oracle(values, vectors)
    assert w.tobytes() == w0.tobytes()
    assert v.tobytes() == v0.tobytes()


@pytest.mark.parametrize("size", [1e-290, 1e-12, 1.0, 1e9, 1.5 * 2.0**1022])
def test_hermitization_is_the_plain_mean(size):
    # halving before adding, as entries above 2**1022 are, changes nothing
    # while the entries and their halves are normal floats
    rng = np.random.default_rng(7)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a = g + g.conj().T + 1e-10 * g  # asymmetric within match_tol
    a = a * (size / np.abs(a).max())
    h = numerics._require_square_hermitian(a, TolerancePolicy())
    assert h.tobytes() == ((a + a.conj().T) / 2.0).tobytes()
    assert numerics._hermitized(a, a.conj().T, np.abs(a).max()).tobytes() == h.tobytes()


@pytest.mark.parametrize(
    "m", [1e308 * np.eye(3), np.array([[1e308, 5e307j], [-5e307j, 1e308]])], ids=["diag", "full"]
)
def test_hermitization_does_not_overflow(m):
    # (A + A^H) / 2 overflows above about 9e307; the halves do not
    h = numerics._require_square_hermitian(m, TolerancePolicy())
    assert np.array_equal(h, m)
    w, _ = hermitian_eigen(m)
    assert np.all(np.isfinite(w))
    assert psd_check(m) == (True, m.shape[0])


SOLVERS = [hermitian_eigen, numerics.hermitian_eigvals]


@pytest.mark.parametrize("solve", SOLVERS, ids=["eigen", "eigvals"])
def test_the_asymmetry_test_does_not_overflow(solve):
    # A - A^H overflows for entries of opposite sign past about 9e307; the
    # halves do not, and the verdict is the same either side of 2**1022
    far = np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
    near = np.array([[1e308, 5e307j], [-5e307j * (1 + 1e-10), 1e308]])
    off = np.array([[1e308, 5e307j], [-5e307j * (1 + 1e-6), 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match="^asymmetry inf exceeds"):
            solve(far)
        with pytest.raises(NotHermitian):
            solve(off)
        solve(near)
        assert [bool(numerics.within_tol(*numerics.entrywise_gap(m, m.conj().T)))
                for m in (far, off, near)] == [False, False, True]


def test_the_tie_test_does_not_overflow():
    # the gap between eigenvalues 1e308 and -1e308 is past the float range;
    # tier 1 turns the overflow warning of the tie test into an error
    values, vectors = hermitian_eigen(np.diag([1e308, -1e308]))
    assert values.tolist() == [1e308, -1e308]
    assert np.array_equal(vectors, np.eye(2))


@pytest.mark.parametrize("solve", SOLVERS, ids=["eigen", "eigvals"])
def test_an_eigenvalue_past_the_float_range_is_a_typed_error(solve):
    # finite entries, and an eigenvalue 2e308: both solvers refuse the matrix
    # rather than return inf (which psd_rank would read as rank 0)
    p = np.full((2, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (p, -p, np.array([[1e308, -1e308], [-1e308, 1e308]])):
            with pytest.raises(NonFiniteScalar, match="^an eigenvalue lies beyond the float range$"):
                solve(m)
    with pytest.raises(NonFiniteScalar):
        psd_check(p)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_eigvals_are_the_full_spectrum_descending(n, scale):
    rng = np.random.default_rng(n)
    for m in (scale * random_hermitian(rng, n), scale * random_psd(rng, n, max(1, n // 2))):
        values = numerics.hermitian_eigvals(m)
        full, _ = hermitian_eigen(m)
        assert values.shape == (n,) and np.all(np.diff(values) <= 0)
        assert np.abs(values - full).max() <= 4 * n * np.finfo(float).eps * np.abs(full).max()
        assert psd_check(m) == psd_rank(full)
