"""The law checks' verdicts do not depend on the scale or the conditioning of the basis.

Every law residual is measured against the two sides it compares
(``numerics.entrywise_gap``), so writing an algebra in the basis s e, for
a scalar s, changes no verdict of ``validate_algebra``, ``block_data`` or
``validate_star_homomorphism``.  A broken law fails at every scale, and a
valid algebra passes and builds its blocks at every scale.  The family of
algebras in complex Gaussian bases of condition 100 is fixed: 100 draws of
``random_algebra(rng, max_dim=12)`` from ``default_rng(1)``, each written
in ``gaussian_basis(rng, n, 100)`` from the same generator.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from starrep import (
    FiniteStarAlgebra,
    StarHomomorphism,
    block_data,
    build_matrix_algebra,
    decompose,
    gns_construct,
    validate_algebra,
    validate_star_homomorphism,
    verify_star_rep,
)
from starrep.numerics import relative_gap

from conftest import change_basis, gaussian_basis, random_algebra, s3_algebra, z2_algebra


def broken_s3():
    """S_3 with one product broken: e_5 e_5 = (e_0 + e_1) / 2."""
    a = s3_algebra()
    c = a.structure_constants.copy()
    c[5, 5] = 0.0
    c[5, 5, :2] = 0.5
    return FiniteStarAlgebra(c, a.involution, a.unit)


def test_a_broken_product_fails_at_every_basis_scale():
    # (e_5 e_5) e_5 against e_5 (e_5 e_5): the same relative gap at each scale
    for scale in (1e-6, 1.0, 1e6):
        report = validate_algebra(change_basis(broken_s3(), scale * np.eye(6)))
        assert not report.passed, scale
        assert report.violations["associativity"] == pytest.approx(0.5), scale


def test_m4_in_a_gaussian_basis_loads_and_builds_its_blocks_at_every_scale():
    s = gaussian_basis(np.random.default_rng(4), 16, 10.0)
    for scale in (1e-3, 1.0, 1e3):
        a = change_basis(build_matrix_algebra(4), scale * s)
        report = validate_algebra(a)
        assert report.passed, (scale, dict(report.violations))
        assert block_data(a).sizes == (4,)


def test_a_map_that_breaks_both_laws_fails_at_every_basis_scale():
    # e -> I, g -> i diag(1, -1) from Z_2 into M_2 (matrix-unit coordinates):
    # pi(g)^2 = -I and pi(g)^* = -pi(g), against g^2 = e and g^* = g
    m = np.array([[1.0, 1j], [0.0, 0.0], [0.0, 0.0], [1.0, -1j]])
    for scale in (1e-10, 1.0):
        source = change_basis(z2_algebra(), scale * np.eye(2))
        report = validate_star_homomorphism(
            StarHomomorphism(source, build_matrix_algebra(2), scale * m))
        assert not report.passed, scale
        assert report.violations["multiplicativity"] == pytest.approx(2.0), scale
        assert report.violations["star_compatibility"] == pytest.approx(2.0), scale


@functools.cache
def condition_100_family() -> tuple:
    """(algebra, faithful state, block sizes in the builders' basis) for each of the 100 draws."""
    rng = np.random.default_rng(1)
    family = []
    for _ in range(100):
        a, trace = random_algebra(rng, max_dim=12)
        s = gaussian_basis(rng, a.dim, 100.0)
        family.append((change_basis(a, s), s.T @ trace, sorted(block_data(a).sizes)))
    return tuple(family)


@pytest.mark.parametrize("case", range(100))
def test_the_condition_100_family_builds_and_checks_its_blocks(case):
    a, rho, sizes = condition_100_family()[case]
    assert sorted(block_data(a).sizes) == sizes
    # the trace is faithful: every block density has full rank
    rep = gns_construct(a, rho)
    assert rep.rep_dim == a.dim
    report = verify_star_rep(rep)
    assert report.passed, dict(report.violations)
    parts = decompose(a, rho).components
    assert len(parts) == sum(sizes)
    assert relative_gap(sum(p.weight * p.functional for p in parts), rho) < 1e-8
