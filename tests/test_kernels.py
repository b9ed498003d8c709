"""Tests for reproducing operators and the cone calculus on them."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starrep import (
    DEFAULT_POLICY,
    Kernel,
    TolerancePolicy,
    chain_limit,
    kernel_difference,
    kernel_leq,
    kernel_scale,
    kernel_sum,
    make_kernel,
    membership,
    min_dominating_scale,
    mutually_excluding,
    ordinary_subrep_check,
    psd_check,
    pseudo_inverse,
    weighted_kernel_sum,
)
from starrep.errors import (
    MonotonicityViolation,
    NegativeEigenvalue,
    NegativeScalar,
    NegativeWeight,
    NoConvergence,
    NonFiniteScalar,
    NotDominated,
    NotMajorized,
    ZeroKernel,
)

from conftest import count_eigensolves, infimum_norm_oracle, random_psd, random_unitary

IDENTITY2 = np.eye(2)
ONES2 = np.array([[1.0, 1.0], [1.0, 1.0]])


def kernel(matrix):
    return make_kernel(matrix)


def test_overflowing_difference_is_a_typed_error():
    # a loose psd_tol admits the indefinite a = diag(1e308, -1e308); the
    # entries of -a - a overflow
    pol = TolerancePolicy(psd_tol=1.0)
    a = make_kernel(np.diag([1e308, -1e308]), pol)
    b = make_kernel(np.diag([-1e308, 1e308]), pol)
    for operation in (kernel_leq, kernel_difference, ordinary_subrep_check):
        with pytest.raises(NonFiniteScalar, match="^the kernel difference overflows$"):
            operation(a, b, pol)


def test_overflowing_sum_is_a_typed_error():
    # 1e308·I is a finite PSD kernel; the entries of its double overflow
    huge = kernel(1e308 * IDENTITY2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for operation in (kernel_sum, mutually_excluding):
            with pytest.raises(NonFiniteScalar, match="^the kernel sum overflows$"):
                operation(huge, huge)
        # finite entries whose sum has an eigenvalue past the float range
        near = kernel(np.full((2, 2), 0.6e308))
        for operation in (kernel_sum, mutually_excluding):
            with pytest.raises(NonFiniteScalar, match="beyond the float range"):
                operation(near, near)


def test_mutually_excluding_rejects_a_sum_that_is_not_psd():
    # as make_kernel would; only a Kernel built by hand can give such a sum
    negative = Kernel(-IDENTITY2, -np.ones(2), np.eye(2, dtype=complex), 0)
    with pytest.raises(NegativeEigenvalue, match="must be PSD"):
        mutually_excluding(negative, negative)


def test_make_kernel_rejects_indefinite():
    with pytest.raises(NegativeEigenvalue):
        make_kernel([[1, 2], [2, 1]])


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_make_kernel_rejects_negative_multiples_of_the_identity(scale):
    with pytest.raises(NegativeEigenvalue):
        make_kernel(-scale * np.eye(3))


def test_membership_identity_kernel():
    member = membership(kernel(IDENTITY2), [3.0, 4.0])
    assert member is not None
    assert member.norm_sq == pytest.approx(25.0)


def test_membership_outside_range():
    assert membership(kernel(np.diag([1.0, 0.0])), [0.0, 1.0]) is None


def test_membership_rank_one():
    member = membership(kernel(ONES2), [1.0, 1.0])
    assert member is not None
    assert member.norm_sq == pytest.approx(1.0)


def test_membership_zero_kernel():
    zero = kernel(np.zeros((2, 2)))
    assert membership(zero, [0.0, 0.0]).norm_sq == 0.0
    assert membership(zero, [1.0, 0.0]) is None


def test_kernel_sum():
    k = kernel(np.diag([1.0, 0.0]))
    z = kernel(np.zeros((2, 2)))
    assert np.array_equal(kernel_sum(k, z).matrix, k.matrix)
    total = kernel_sum(kernel(np.diag([1.0, 0.0])), kernel(np.diag([0.0, 1.0])))
    assert np.allclose(total.matrix, IDENTITY2)
    combined = kernel_sum(kernel(ONES2), kernel([[1, -1], [-1, 1]]))
    assert np.allclose(combined.matrix, 2 * IDENTITY2)


def test_kernel_scale():
    k = kernel(IDENTITY2)
    assert np.allclose(kernel_scale(1.0, k).matrix, IDENTITY2)
    scaled = kernel_scale(4.0, k)
    assert membership(scaled, [1.0, 0.0]).norm_sq == pytest.approx(0.25)
    zero = kernel_scale(0.0, k)
    assert zero.rank == 0
    with pytest.raises(NegativeScalar):
        kernel_scale(-1.0, k)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteScalar):
            kernel_scale(bad, k)
    # a positive factor scales the cached eigenvalues; the matrix is the
    # one make_kernel would build
    k = split_family(seed=50, n=6)["ac"]
    scaled = kernel_scale(3.0, k)
    assert scaled.vectors is k.vectors and scaled.rank == k.rank
    assert np.array_equal(scaled.values, 3.0 * k.values)
    assert np.array_equal(scaled.matrix, make_kernel(3.0 * k.matrix).matrix)


@pytest.mark.parametrize("size", [1e300, 1e308])
def test_overflowing_scale_or_weighted_sum_is_a_typed_error(size):
    # a finite factor or weight whose product with a finite kernel overflows
    big = kernel(size * IDENTITY2)
    assert np.array_equal(big.matrix, size * IDENTITY2)
    with pytest.raises(NonFiniteScalar, match="overflows the kernel"):
        kernel_scale(1e10, big)
    with pytest.raises(NonFiniteScalar, match="weighted sum overflows"):
        weighted_kernel_sum([(1e10, big)])
    with pytest.raises(NonFiniteScalar, match="weighted sum overflows"):
        weighted_kernel_sum([(1e308 / size, big), (1e308 / size, big)])
    # zero weights and factors, and ones that stay finite, still work
    assert kernel_scale(0.0, big).rank == 0
    assert np.array_equal(kernel_scale(0.5, big).matrix, 0.5 * size * IDENTITY2)
    combined, direct = weighted_kernel_sum([(0.0, big), (1.0, kernel(ONES2))])
    assert np.array_equal(combined.matrix, ONES2) and direct


def test_scaling_law_is_exact():
    rng = np.random.default_rng(41)
    h = random_psd(rng, 4, 3)
    k = kernel(h)
    phi = h @ (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    base = membership(k, phi).norm_sq
    for lam in (0.5, 2.0, 10.0):
        scaled = membership(kernel_scale(lam, k), phi).norm_sq
        assert abs(scaled - base / lam) <= 1e-12 * (1 + base / lam)


def test_kernel_leq():
    assert kernel_leq(kernel(IDENTITY2), kernel(IDENTITY2))
    assert kernel_leq(kernel(np.diag([1.0, 0.0])), kernel(IDENTITY2))
    assert not kernel_leq(kernel(ONES2), kernel(IDENTITY2))


def test_order_consistency_elementwise():
    rng = np.random.default_rng(42)
    for _ in range(10):
        h1 = random_psd(rng, 3, 2)
        h2 = h1 + random_psd(rng, 3)
        k1, k2 = kernel(h1), kernel(h2)
        assert kernel_leq(k1, k2)
        for _ in range(5):
            phi = h1 @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            inside_small = membership(k1, phi)
            inside_big = membership(k2, phi)
            assert inside_big is not None
            assert inside_big.norm_sq <= inside_small.norm_sq + 1e-8


def test_kernel_difference():
    k = kernel(ONES2)
    zero = kernel(np.zeros((2, 2)))
    assert np.array_equal(kernel_difference(k, zero).matrix, k.matrix)
    diff = kernel_difference(kernel(IDENTITY2), kernel(np.diag([1.0, 0.0])))
    assert np.allclose(diff.matrix, np.diag([0.0, 1.0]))
    diff = kernel_difference(kernel([[2, 1], [1, 2]]), kernel(ONES2))
    assert np.allclose(diff.matrix, IDENTITY2)
    with pytest.raises(NotDominated):
        kernel_difference(kernel(np.diag([1.0, 0.0])), kernel(IDENTITY2))


def test_difference_reassembles_exactly():
    rng = np.random.default_rng(43)
    h1 = random_psd(rng, 4, 2)
    h2 = random_psd(rng, 4, 3)
    total = kernel_sum(kernel(h1), kernel(h2))
    complement = kernel_difference(total, kernel(h1))
    rebuilt = kernel_sum(kernel(h1), complement)
    assert np.max(np.abs(rebuilt.matrix - total.matrix)) < 1e-14


def test_mutually_excluding():
    assert mutually_excluding(kernel(np.diag([1.0, 0.0])), kernel(np.diag([0.0, 1.0])))
    assert not mutually_excluding(kernel(ONES2), kernel(ONES2))
    assert mutually_excluding(kernel(ONES2), kernel([[1, -1], [-1, 1]]))


def test_min_dominating_scale():
    assert min_dominating_scale(kernel(IDENTITY2), kernel(IDENTITY2)) == pytest.approx(1.0)
    lam = min_dominating_scale(kernel(np.diag([4.0, 0.0])), kernel(IDENTITY2))
    assert lam == pytest.approx(4.0)
    assert min_dominating_scale(kernel(np.diag([0.0, 1.0])), kernel(np.diag([1.0, 0.0]))) is None
    with pytest.raises(ZeroKernel):
        min_dominating_scale(kernel(np.zeros((2, 2))), kernel(IDENTITY2))


def test_min_dominating_scale_certificate():
    rng = np.random.default_rng(44)
    for _ in range(10):
        h2 = random_psd(rng, 4, 3)
        h1 = h2 @ random_psd(rng, 4) @ h2  # range(h1) inside range(h2)
        h1 = (h1 + h1.conj().T) / 2
        h1 = h1 / np.linalg.norm(h1, 2)
        h2 = h2 / np.linalg.norm(h2, 2)
        k1, k2 = kernel(h1), kernel(h2)
        lam = min_dominating_scale(k1, k2)
        assert lam is not None
        assert kernel_leq(k1, kernel_scale(lam, k2))
        shrunk = lam - 10 * 1e-9 * (1 + lam)
        assert not kernel_leq(k1, kernel_scale(shrunk, k2))


def test_ordinary_subrep_check():
    assert ordinary_subrep_check(kernel(np.diag([1.0, 0.0])), kernel(IDENTITY2))
    assert not ordinary_subrep_check(kernel(0.5 * IDENTITY2), kernel(IDENTITY2))
    assert ordinary_subrep_check(kernel(ONES2), kernel(2 * IDENTITY2))


def test_chain_constant():
    k = kernel(ONES2)
    limit = chain_limit(lambda i: k, "decreasing")
    assert np.array_equal(limit.matrix, k.matrix)


def test_chain_geometric_decreasing():
    limit = chain_limit(lambda i: kernel(0.5**i * IDENTITY2), "decreasing")
    assert np.max(np.abs(limit.matrix)) < 2e-8


def test_chain_geometric_increasing():
    limit = chain_limit(lambda i: kernel((1 - 0.5**i) * IDENTITY2), "increasing")
    assert np.max(np.abs(limit.matrix - IDENTITY2)) < 1e-8


def test_chain_convergence_is_scale_free():
    # (1 - 0.5^i) c I stops at the same step for every scale c
    def steps(c):
        calls = []

        def gen(i):
            calls.append(i)
            return kernel((1 - 0.5**i) * c * IDENTITY2)

        limit = chain_limit(gen, "increasing")
        assert np.max(np.abs(limit.matrix - c * IDENTITY2)) < 1e-8 * c
        return len(calls)

    # majorization reads growth over the first nonzero term, not the diagonal's size
    assert steps(1e13) == steps(1e9) == steps(1.0) == steps(1e-6) == steps(1e-12)


def test_chain_unbounded_raises():
    with pytest.raises(NotMajorized):
        chain_limit(lambda i: kernel(2.0**i * IDENTITY2), "increasing", max_steps=50)


def test_chain_monotonicity_enforced():
    seq = [IDENTITY2, 2 * IDENTITY2, IDENTITY2]
    with pytest.raises(MonotonicityViolation):
        chain_limit(lambda i: kernel(seq[min(i, 2)]), "increasing")


def test_chain_no_convergence():
    with pytest.raises(NoConvergence):
        chain_limit(lambda i: kernel((1 + 1 / (i + 1)) * IDENTITY2), "decreasing", max_steps=10)


@pytest.mark.parametrize("max_steps", [1, 0, -3])
def test_chain_needs_a_step(max_steps):
    # a bad argument, raised before the generator runs, not a chain that fails to
    # converge: the chain compares consecutive terms, so it needs two
    def generator(step):
        raise AssertionError("the chain ran")

    with pytest.raises(ValueError, match=f"^max_steps must be at least 2, got {max_steps}$"):
        chain_limit(generator, "decreasing", max_steps=max_steps)


def test_weighted_sum_basic():
    k = kernel(ONES2)
    total, direct = weighted_kernel_sum([(1.0, k)])
    assert np.array_equal(total.matrix, k.matrix)
    assert direct

    total, direct = weighted_kernel_sum(
        [(1.0, kernel(np.diag([1.0, 0.0]))), (1.0, kernel(np.diag([0.0, 1.0])))]
    )
    assert np.allclose(total.matrix, IDENTITY2)
    assert direct

    with pytest.raises(NegativeWeight):
        weighted_kernel_sum([(-0.5, k)])
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteScalar):
            weighted_kernel_sum([(1.0, k), (bad, k)])


def test_weighted_sum_trapezoid_quadrature():
    # trapezoid rule is exact for the linear integrand diag(s, 1 - s)
    nodes = np.linspace(0.0, 1.0, 11)
    weights = np.full(11, 0.1)
    weights[0] = weights[-1] = 0.05
    terms = [(w, kernel(np.diag([s, 1 - s]))) for w, s in zip(weights, nodes)]
    total, direct = weighted_kernel_sum(terms)
    assert np.allclose(total.matrix, 0.5 * IDENTITY2, atol=1e-12)
    assert not direct


def test_sup_formula_sampling():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        h = random_psd(rng, n, int(rng.integers(1, n + 1)))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi = h @ x
        if np.linalg.norm(phi) < 1e-9:
            continue
        target = membership(make_kernel(h), phi).norm_sq
        dirs = rng.standard_normal((2000, n)) + 1j * rng.standard_normal((2000, n))
        num = np.abs(dirs.conj() @ phi) ** 2
        den = np.einsum("ij,jk,ik->i", dirs.conj(), h, dirs).real
        keep = den > 1e-9 * np.max(den)
        ratios = num[keep] / den[keep]
        assert np.max(ratios) <= target + 1e-7
        attained = np.abs(np.vdot(x, phi)) ** 2 / np.vdot(x, h @ x).real
        assert attained >= (1 - 1e-6) * target


def test_infimum_norm_against_oracle():
    rng = np.random.default_rng(46)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        h1 = random_psd(rng, n, int(rng.integers(1, n + 1)))
        h2 = random_psd(rng, n, int(rng.integers(1, n + 1)))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi = (h1 + h2) @ x
        if np.linalg.norm(xi) < 1e-9:
            continue
        direct = float(np.real(np.vdot(xi, pseudo_inverse(h1 + h2) @ xi)))
        reference = infimum_norm_oracle(h1, h2, xi)
        assert abs(direct - reference) <= 1e-6 * (1 + abs(reference))


def assert_spectrum(k: Kernel) -> None:
    """k's cached spectrum reproduces its matrix, and its rank is psd_check's."""
    rebuilt = (k.vectors * k.values) @ k.vectors.conj().T
    size = np.max(np.abs(k.matrix))
    assert np.max(np.abs(rebuilt - k.matrix)) <= DEFAULT_POLICY.match_tol * size
    assert k.rank == psd_check(k.matrix)[1]


def split_family(seed: int, n: int, scale: float = 1.0) -> dict:
    """Kernels A, C on a random range of rank r < n, B on its complement, all times scale.

    Their eigenvalues on the range lie in [0.5, 2], so every order and
    membership verdict below has a margin of order one against the
    tolerances.  Also returns vectors of range(A) and off it, times scale.
    """
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    u = random_unitary(rng, n)
    q, q_perp = u[:, :r], u[:, r:]

    def psd_on(basis):
        return (basis * rng.uniform(0.5, 2.0, basis.shape[1])) @ basis.conj().T

    a, c, b = psd_on(q), psd_on(q), psd_on(q_perp)
    phi_in = a @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    phi_off = phi_in + q_perp @ random_unitary(rng, n - r)[:, 0]
    return {
        "r": r,
        "a": make_kernel(scale * a),
        "ac": make_kernel(scale * (a + c)),
        "ab": make_kernel(scale * (a + b)),
        "b": make_kernel(scale * b),
        "phi_in": scale * phi_in,
        "phi_off": scale * phi_off,
    }


@pytest.mark.parametrize(
    "operation,solves",
    [
        (lambda f: make_kernel(f["ab"].matrix), 1),
        (lambda f: membership(f["a"], f["phi_in"]), 0),
        (lambda f: membership(f["a"], f["phi_off"]), 0),
        (lambda f: kernel_scale(2.5, f["a"]), 0),
        (lambda f: min_dominating_scale(f["a"], f["ac"]), 1),
        (lambda f: min_dominating_scale(f["a"], f["b"]), 0),
        (lambda f: kernel_difference(f["ab"], f["a"]), 1),
        (lambda f: ordinary_subrep_check(f["a"], f["ab"]), 1),
        (lambda f: ordinary_subrep_check(f["a"], f["ac"]), 1),
    ],
    ids=[
        "make_kernel", "membership_in", "membership_off", "kernel_scale",
        "min_dominating_scale", "min_dominating_scale_none", "kernel_difference",
        "ordinary_subrep_check", "ordinary_subrep_check_false",
    ],
)
def test_eigensolves_per_operation(monkeypatch, operation, solves):
    # the operands' spectra are cached, so an operation eigensolves only
    # the matrices it makes
    family = split_family(seed=47, n=6)
    result, sizes = count_eigensolves(monkeypatch, lambda: operation(family))
    assert len(sizes) == solves
    if isinstance(result, Kernel):
        assert_spectrum(result)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_cone_operations_return_their_spectrum(scale):
    f = split_family(seed=49, n=7, scale=scale)
    results = [
        f["a"],
        kernel_sum(f["a"], f["b"]),
        kernel_scale(2.5, f["a"]),
        kernel_scale(0.0, f["a"]),
        kernel_difference(f["ab"], f["a"]),
        kernel_difference(f["a"], f["a"]),
        weighted_kernel_sum([(0.5, f["a"]), (2.0, f["b"])])[0],
        chain_limit(lambda i: kernel_scale(1.0 - 0.5**i, f["ac"]), "increasing"),
    ]
    for k in results:
        assert_spectrum(k)
        for array in (k.matrix, k.values, k.vectors):
            assert not array.flags.writeable


def verdicts(f: dict) -> dict:
    a, ac, ab, b = f["a"], f["ac"], f["ab"], f["b"]
    return {
        "leq": (kernel_leq(a, ac), kernel_leq(ac, a), kernel_leq(a, ab), kernel_leq(ab, a)),
        "member": (membership(a, f["phi_in"]) is not None,
                   membership(a, f["phi_off"]) is not None),
        "excluding": (mutually_excluding(a, b), mutually_excluding(a, ac)),
        "subrep": (ordinary_subrep_check(a, ab), ordinary_subrep_check(a, ac)),
        "ranks": (a.rank, ac.rank, ab.rank, b.rank),
        "dominated": min_dominating_scale(a, b) is not None,
    }


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16))
def test_verdicts_do_not_depend_on_scale(seed, n):
    expected = None
    for scale in (1e-12, 1.0, 1e9):
        f = split_family(seed, n, scale)
        r = f["r"]
        assert verdicts(f) == {
            "leq": (True, False, True, False),
            "member": (True, False),
            "excluding": (True, False),
            "subrep": (True, False),
            "ranks": (r, r, n, n - r),
            "dominated": False,
        }
        scales = (min_dominating_scale(f["a"], f["ac"]), min_dominating_scale(f["ac"], f["a"]))
        if expected is None:
            expected = scales
        assert scales == pytest.approx(expected, rel=1e-9)
