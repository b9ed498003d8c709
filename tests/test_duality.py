"""Tests for functionals, Gram forms, positivity, and the dual action."""

import numpy as np
import pytest

from starrep import (
    GNSRepresentation,
    StarHomomorphism,
    TolerancePolicy,
    build_matrix_algebra,
    cone_morphism_audit,
    dual_regular_action,
    evaluate,
    functional_to_kernel,
    gns_construct,
    gram_matrix,
    hilbert_bound,
    is_positive,
    make_kernel,
    membership,
)
from starrep.errors import DimMismatch, NotPositive, ShapeMismatch

from conftest import (
    random_algebra,
    random_element,
    random_positive_functional,
    z2_algebra,
)


def test_evaluate():
    z2 = z2_algebra()
    assert evaluate(z2, [1, 0], z2.unit) == 1
    assert evaluate(z2, [1, 0], [0, 1]) == 0
    m2 = build_matrix_algebra(2)
    assert evaluate(m2, [1, 0, 0, 1], [1, 0, 0, 1]) == 2
    with pytest.raises(DimMismatch):
        evaluate(z2, [1, 0], [1, 0, 0])


# the entry points that take a functional; at match_tol 0.5 the blocks of
# M_2 do not resolve, and gns_construct takes the Gram form
FUNCTIONAL_ENTRIES = {
    "functional_to_kernel": lambda rho: functional_to_kernel(z2_algebra(), rho),
    "is_positive": lambda rho: is_positive(z2_algebra(), rho),
    "gns_construct": lambda rho: gns_construct(z2_algebra(), rho),
    "gns_construct-gram-form": lambda rho: gns_construct(
        build_matrix_algebra(2), rho, TolerancePolicy(match_tol=0.5)),
    "cone_morphism_audit": lambda rho: cone_morphism_audit(z2_algebra(), rho, [1, 0], 0.5),
}


@pytest.mark.parametrize("entry", list(FUNCTIONAL_ENTRIES))
@pytest.mark.parametrize("functional", ["x", [[1], [1, 2]], [1, "x"], object()],
                         ids=["string", "ragged", "string-entry", "object"])
def test_a_malformed_functional_is_one_typed_error(entry, functional):
    # not a verdict on positivity: every entry point refuses a value that is
    # not an array of numbers the same way, before any Gram matrix is formed
    with pytest.raises(ShapeMismatch, match="^functional is not an array of numbers: "):
        FUNCTIONAL_ENTRIES[entry](functional)


# the other entry points that take an array, and the name each gives it
ARRAY_ENTRIES = {
    "GNSRepresentation": ("matrices", lambda x: GNSRepresentation(
        z2_algebra(), x, [1, 0], [1, 0], [[1, 0], [0, 1]])),
    "StarHomomorphism": ("homomorphism matrix",
                         lambda x: StarHomomorphism(z2_algebra(), z2_algebra(), x)),
    "membership": ("vector", lambda x: membership(make_kernel(np.eye(2)), x)),
}


@pytest.mark.parametrize("entry", list(ARRAY_ENTRIES))
@pytest.mark.parametrize("array", ["x", [[1], [1, 2]], [1, "x"], object()],
                         ids=["string", "ragged", "string-entry", "object"])
def test_a_malformed_array_is_one_typed_error(entry, array):
    # as for a functional: a value that is not an array of numbers is
    # refused before its shape is read
    what, call = ARRAY_ENTRIES[entry]
    with pytest.raises(ShapeMismatch, match=f"^{what} is not an array of numbers: "):
        call(array)


@pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_gram_on_group_algebra(t):
    g = gram_matrix(z2_algebra(), [1, t])
    assert np.allclose(g, [[1, t], [t, 1]])


def test_gram_of_matrix_trace_is_identity():
    m2 = build_matrix_algebra(2)
    assert np.allclose(gram_matrix(m2, [1, 0, 0, 1]), np.eye(4))


def test_gram_scalar_case():
    c1 = build_matrix_algebra(1)
    assert np.allclose(gram_matrix(c1, [0.7]), [[0.7]])


def test_is_positive_boundary_cases():
    z2 = z2_algebra()
    assert is_positive(z2, [1, 0.5]) == (True, 2)
    assert is_positive(z2, [1, 1.0]) == (True, 1)
    positive, _ = is_positive(z2, [1, 2.0])
    assert not positive
    # a functional that is not hermitian cannot be positive
    positive, _ = is_positive(z2, [1, 1j])
    assert not positive


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_is_positive_hermiticity_is_relative(scale):
    # the trace on M_2 plus an anti-hermitian part of relative size 1e-9 is
    # hermitian within match_tol, one of relative size 1e-6 is not; at any scale
    m2 = build_matrix_algebra(2)
    assert is_positive(m2, scale * np.array([1, 1e-9j, 0, 1])) == (True, 4)
    assert is_positive(m2, scale * np.array([1, 1e-6j, 0, 1])) == (False, 0)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
def test_is_positive_floor_is_relative(scale):
    # -delta_11 + delta_22 on M_2 is indefinite at every scale; no absolute
    # floor lets a small multiple pass, and the zero functional stays positive
    m2 = build_matrix_algebra(2)
    assert is_positive(m2, scale * np.array([-1.0, 0, 0, 1.0])) == (False, 2)
    assert is_positive(m2, scale * np.zeros(4)) == (True, 0)


def test_hilbert_bound():
    z2 = z2_algebra()
    for t in (-1.0, 0.0, 1.0):
        assert hilbert_bound(z2, [1, t]) == pytest.approx(1.0)
    m2 = build_matrix_algebra(2)
    assert hilbert_bound(m2, [1, 0, 0, 1]) == pytest.approx(2.0)
    assert hilbert_bound(z2, [0, 0]) == 0.0
    with pytest.raises(NotPositive):
        hilbert_bound(z2, [1, 2.0])


def test_dual_regular_action_examples():
    z2 = z2_algebra()
    assert np.allclose(dual_regular_action(z2, z2.unit), np.eye(2))
    pi_g = dual_regular_action(z2, [0, 1])
    assert np.allclose(pi_g, [[0, 1], [1, 0]])
    assert np.allclose(pi_g @ pi_g, np.eye(2))


def test_dual_action_defining_bracket():
    # <y | pi(x) phi> equals <x* y | phi> for random data
    a, _ = random_algebra(np.random.default_rng(11))
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = random_element(a, rng)
        y = random_element(a, rng)
        phi = random_element(a, rng)
        lhs = np.vdot(y, dual_regular_action(a, x) @ phi)
        rhs = np.vdot(a.multiply(a.involute(x), y), phi)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_dual_action_is_multiplicative():
    rng = np.random.default_rng(13)
    a, _ = random_algebra(rng)
    for _ in range(20):
        x = random_element(a, rng)
        y = random_element(a, rng)
        lhs = dual_regular_action(a, x) @ dual_regular_action(a, y)
        rhs = dual_regular_action(a, a.multiply(x, y))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.max(np.abs(rhs)))


def test_positive_functionals_are_hermitian():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        x = random_element(a, rng)
        lhs = evaluate(a, rho, a.involute(x))
        rhs = np.conj(evaluate(a, rho, x))
        assert abs(lhs - rhs) < 1e-10


def test_cauchy_schwarz_and_hilbert_bound_sampled():
    rng = np.random.default_rng(22)
    for _ in range(200):
        a, _ = random_algebra(rng)
        rho = random_positive_functional(a, rng)
        bound = evaluate(a, rho, a.unit).real
        for _ in range(5):
            x = random_element(a, rng)
            y = random_element(a, rng)
            xsx = evaluate(a, rho, a.multiply(a.involute(x), x)).real
            ysy = evaluate(a, rho, a.multiply(a.involute(y), y)).real
            xsy = evaluate(a, rho, a.multiply(a.involute(x), y))
            scale = 1 + abs(xsy) ** 2
            assert abs(xsy) ** 2 <= xsx * ysy + 1e-9 * scale
            assert abs(evaluate(a, rho, x)) ** 2 <= bound * xsx + 1e-9


def test_positive_cone_is_closed_under_sum_and_scale():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, _ = random_algebra(rng)
        rho1 = random_positive_functional(a, rng)
        rho2 = random_positive_functional(a, rng)
        lam = float(rng.uniform(0, 5))
        assert is_positive(a, rho1 + rho2)[0]
        assert is_positive(a, lam * rho1)[0]
