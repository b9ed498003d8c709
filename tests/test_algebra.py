"""Tests for structure-constant algebras and the standard builders."""

import itertools
import re

import numpy as np
import pytest

from starrep import (
    FiniteStarAlgebra,
    build_group_algebra,
    build_matrix_algebra,
    direct_sum_algebra,
    validate_algebra,
)
from starrep.errors import DimMismatch, NotAGroup, ShapeMismatch

from conftest import (
    cyclic_group_table,
    random_element,
    s3_algebra,
    symmetric_group_table,
    z2_algebra,
    z3_algebra,
)

E11, E12, E21, E22 = np.eye(4)


def test_one_dimensional_algebra_validates():
    a = FiniteStarAlgebra(
        structure_constants=np.ones((1, 1, 1)),
        involution=np.ones((1, 1)),
        unit=np.ones(1),
    )
    report = validate_algebra(a)
    assert report.passed
    assert report.max_violation == 0.0


@pytest.mark.parametrize(
    "make",
    [
        z2_algebra,
        z3_algebra,
        s3_algebra,
        lambda: build_matrix_algebra(2),
        lambda: build_matrix_algebra(3),
        lambda: direct_sum_algebra(build_matrix_algebra(1), build_matrix_algebra(1)),
        lambda: direct_sum_algebra(build_matrix_algebra(1), build_matrix_algebra(2)),
        lambda: direct_sum_algebra(build_matrix_algebra(2), build_matrix_algebra(2)),
    ],
)
def test_builders_validate_exactly(make):
    report = validate_algebra(make())
    assert report.passed
    assert report.max_violation == 0.0


def test_nonstandard_involution_on_z2_is_still_valid():
    # g -> -g squares to the identity and respects the (abelian) product
    a = FiniteStarAlgebra(
        structure_constants=z2_algebra().structure_constants,
        involution=np.diag([1.0, -1.0]),
        unit=np.array([1.0, 0.0]),
    )
    assert validate_algebra(a).passed


def test_validate_flags_corrupted_table():
    c = np.array(z2_algebra().structure_constants, copy=True)
    c[0, 1, 1] = 2.0  # e.g becomes 2g
    a = FiniteStarAlgebra(
        structure_constants=c, involution=np.eye(2), unit=np.array([1.0, 0.0])
    )
    report = validate_algebra(a)
    assert not report.passed
    # e.g = 2g against g: |2 - 1| over the larger side, 2
    assert report.violations["unit"] == pytest.approx(0.5)
    # (e.e).g = 2g against e.(e.g) = 4g: |4 - 2| over 4
    assert report.violations["associativity"] == pytest.approx(0.5)


def test_multiply_unit_law_and_group_law():
    z2 = z2_algebra()
    rng = np.random.default_rng(0)
    x = random_element(z2, rng)
    assert np.allclose(z2.multiply(z2.unit, x), x)
    assert np.allclose(z2.multiply(x, z2.unit), x)
    assert np.allclose(z2.multiply([0, 1], [0, 1]), [1, 0])


def test_multiply_matrix_units():
    m2 = build_matrix_algebra(2)
    assert np.allclose(m2.multiply(E12, E21), E11)
    assert np.allclose(m2.multiply(E12, E12), np.zeros(4))
    with pytest.raises(DimMismatch):
        m2.multiply(E12, [1, 0])


def test_involute():
    z2 = z2_algebra()
    m2 = build_matrix_algebra(2)
    assert np.allclose(z2.involute(z2.unit), z2.unit)
    assert np.allclose(m2.involute(E12), E21)
    assert np.allclose(z2.involute(1j * z2.unit), -1j * z2.unit)


def test_left_mult_matrix():
    z2 = z2_algebra()
    m2 = build_matrix_algebra(2)
    assert np.allclose(z2.left_mult_matrix(z2.unit), np.eye(2))
    assert np.allclose(z2.left_mult_matrix([0, 1]), [[0, 1], [1, 0]])
    assert np.allclose(m2.left_mult_matrix(E11), np.diag([1.0, 1, 0, 0]))


@pytest.mark.parametrize("make", [z2_algebra, z3_algebra, s3_algebra, lambda: build_matrix_algebra(2)])
def test_left_mult_is_multiplicative(make):
    a = make()
    rng = np.random.default_rng(a.dim)
    for _ in range(10):
        x = random_element(a, rng)
        y = random_element(a, rng)
        lhs = a.left_mult_matrix(a.multiply(x, y))
        rhs = a.left_mult_matrix(x) @ a.left_mult_matrix(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_left_mult_of_involution_matches_product():
    a = s3_algebra()
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = random_element(a, rng)
        y = random_element(a, rng)
        assert np.max(np.abs(
            a.left_mult_matrix(a.involute(x)) @ y - a.multiply(a.involute(x), y)
        )) < 1e-12


def test_build_group_algebra_small_groups():
    z2 = build_group_algebra([[0, 1], [1, 0]])
    assert z2.dim == 2 and validate_algebra(z2).passed

    z3 = build_group_algebra(cyclic_group_table(3))
    # inverse of g is g^2
    assert np.allclose(z3.involute([0, 1, 0]), [0, 0, 1])

    s3 = s3_algebra()
    assert s3.dim == 6 and validate_algebra(s3).passed


def test_build_group_algebra_accepts_consistent_inverses():
    build_group_algebra(cyclic_group_table(3), inverses=[0, 2, 1])
    with pytest.raises(NotAGroup):
        build_group_algebra(cyclic_group_table(3), inverses=[0, 1, 2])


def test_build_group_algebra_rejects_non_groups():
    with pytest.raises(NotAGroup):
        build_group_algebra([[0, 1], [1, 1]])  # no inverse for element 1
    with pytest.raises(NotAGroup):
        build_group_algebra([[1, 0], [0, 0]])  # no identity
    # non-associative quasigroup table
    with pytest.raises(NotAGroup) as info:
        build_group_algebra(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
    assert "triple" in str(info.value)


def test_build_matrix_algebra():
    c1 = build_matrix_algebra(1)
    assert c1.dim == 1
    m2 = build_matrix_algebra(2)
    assert m2.dim == 4 and validate_algebra(m2).passed
    m3 = build_matrix_algebra(3)
    assert np.allclose(m3.left_mult_matrix(m3.unit), np.eye(9))


def group_algebra_oracle(table: list[list[int]]):
    """``(c, s, unit)`` of the group algebra of ``table``, or the NotAGroup message, by loops.

    The checks run in the builder's order (identity, associativity over
    the triples in (i, j, k) order, inverses), one element at a time.
    """
    n = len(table)
    identity = next((e for e in range(n)
                     if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if identity is None:
        return "no identity element"
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return f"associativity fails at triple ({i}, {j}, {k})"
    inv = []
    for i in range(n):
        hits = [j for j in range(n) if table[i][j] == identity]
        if len(hits) != 1 or table[hits[0]][i] != identity:
            return f"element {i} has no two-sided inverse"
        inv.append(hits[0])
    c = np.zeros((n, n, n), dtype=complex)
    s = np.zeros((n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    for i in range(n):
        s[i, inv[i]] = unit[identity] = 1.0
        for j in range(n):
            c[i, j, table[i][j]] = 1.0
    return c, s, unit


def matrix_algebra_oracle(m: int):
    """``(c, s, unit)`` of M_m in the matrix-unit basis, by loops over the units."""
    n = m * m
    c = np.zeros((n, n, n), dtype=complex)
    s = np.zeros((n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    for p, q in itertools.product(range(m), repeat=2):
        s[p * m + q, q * m + p] = 1.0
        unit[p * m + p] = 1.0
        for r in range(m):
            c[p * m + q, q * m + r, p * m + r] = 1.0
    return c, s, unit


def assert_bit_identical(algebra, want) -> None:
    got = (algebra.structure_constants, algebra.involution, algebra.unit)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("m", range(1, 7))
def test_build_matrix_algebra_matches_the_loop_oracle(m):
    assert_bit_identical(build_matrix_algebra(m), matrix_algebra_oracle(m))


@pytest.mark.parametrize("seed", range(6))
def test_build_group_algebra_matches_the_loop_oracle(seed):
    # the tables of Z_1 .. Z_8, S_3 and S_4, and copies with up to three
    # entries overwritten, which break the identity, associativity or the
    # inverses, each time naming the first failure the loops find
    rng = np.random.default_rng(seed)
    tables = [cyclic_group_table(k) for k in range(1, 9)]
    tables += [symmetric_group_table(3), symmetric_group_table(4)]
    for table in tables:
        n = len(table)
        for trial in range(12):
            broken = np.array(table)
            for _ in range(trial % 4):
                broken[rng.integers(n), rng.integers(n)] = rng.integers(n)
            want = group_algebra_oracle(broken.tolist())
            if isinstance(want, str):
                with pytest.raises(NotAGroup, match=f"^{re.escape(want)}$"):
                    build_group_algebra(broken)
            else:
                assert_bit_identical(build_group_algebra(broken), want)


def test_direct_sum():
    c1 = build_matrix_algebra(1)
    cc = direct_sum_algebra(c1, c1)
    # idempotent basis: each summand's unit squares to itself
    assert np.allclose(cc.multiply([1, 0], [1, 0]), [1, 0])
    assert np.allclose(cc.multiply([1, 0], [0, 1]), [0, 0])

    m2 = build_matrix_algebra(2)
    five = direct_sum_algebra(c1, m2)
    assert five.dim == 5 and validate_algebra(five).passed

    eight = direct_sum_algebra(m2, m2)
    assert np.allclose(eight.unit, [1, 0, 0, 1, 1, 0, 0, 1])


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        FiniteStarAlgebra(
            structure_constants=np.ones((2, 2, 2)),
            involution=np.eye(3),
            unit=np.array([1.0, 0]),
        )
