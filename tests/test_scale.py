"""The verdicts of the bijections do not depend on the scale of the functional.

Each identity is checked on a faithful state rho = tr(D .) of M_2, M_3 and
M_4 times 1e-12, 1 and 1e9, in the matrix-unit basis and after a change to a
random unitary basis (``change_basis``), where the arithmetic is inexact.
The entrywise identities (``within_tol``) measure their residuals against
the operands, so scaling rho by a positive factor changes no verdict.
"""

from __future__ import annotations

from argparse import Namespace

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    build_matrix_algebra,
    chain_limit,
    cone_morphism_audit,
    functional_to_kernel,
    gns_construct,
    intertwiner,
    is_star_invariant,
    kernel_scale,
    kernel_to_functional,
    make_kernel,
    rep_to_kernel,
    verify_star_rep,
)
from starrep import cli
from starrep.errors import NotMajorized, NotStarInvariant
from starrep.gns import _multiplicities
from starrep.numerics import relative_gap

from conftest import change_basis, random_psd, random_unitary

SCALES = (1e-12, 1.0, 1e9)
CASES = [(m, scrambled) for m in (2, 3, 4) for scrambled in (False, True)]


def faithful_state(m: int, scrambled: bool):
    """M_m, possibly in a random unitary basis, and tr(D .) for a random D > 0."""
    rng = np.random.default_rng(100 * m + scrambled)
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    density = b @ b.conj().T + np.eye(m)
    algebra, rho = build_matrix_algebra(m), density.T.reshape(-1)  # rho(E_pq) = D[q, p]
    if scrambled:
        s = random_unitary(rng, m * m)
        algebra, rho = change_basis(algebra, s), s.T @ rho
    return algebra, rho


@pytest.mark.parametrize("m, scrambled", CASES)
@pytest.mark.parametrize("scale", SCALES)
def test_triple_bijection_at_every_scale(m, scrambled, scale):
    algebra, rho = faithful_state(m, scrambled)
    rho = scale * rho
    assert is_star_invariant(algebra, functional_to_kernel(algebra, rho))
    kernel = rep_to_kernel(gns_construct(algebra, rho))
    assert relative_gap(kernel_to_functional(algebra, kernel), rho) < 1e-12


@pytest.mark.parametrize("m, scrambled", CASES)
def test_the_roundtrip_error_is_relative(m, scrambled):
    # the roundtrip verb reports max|recovered - rho| over max|rho|, so
    # scaling rho leaves it at roundoff
    algebra, rho = faithful_state(m, scrambled)
    for scale in SCALES:
        args = Namespace(algebra=algebra, functional=scale * rho)
        assert cli._roundtrip(args, DEFAULT_POLICY)["max_error"] < 1e-13


@pytest.mark.parametrize("m, scrambled", CASES)
@pytest.mark.parametrize("scale", SCALES)
def test_cone_morphism_audit_at_every_scale(m, scrambled, scale):
    algebra, rho = faithful_state(m, scrambled)
    rho = scale * rho
    report = cone_morphism_audit(algebra, rho / 2, rho, 0.5)
    assert report.passed, dict(report.violations)
    assert report.violations["order_agreement"] == 0.0
    # the reverse order fails in both pictures alike
    assert cone_morphism_audit(algebra, rho, rho / 2, 0.5).passed


@pytest.mark.parametrize("m, scrambled", CASES)
@pytest.mark.parametrize("scale", SCALES)
def test_intertwiner_tolerates_roundoff_at_every_scale(m, scrambled, scale):
    algebra, rho = faithful_state(m, scrambled)
    rho = scale * rho
    u = intertwiner(gns_construct(algebra, rho), gns_construct(algebra, rho * (1 + 1e-15)))
    assert np.allclose(u.conj().T @ u, np.eye(m * m), atol=1e-10)


@pytest.mark.parametrize("m, scrambled", CASES)
def test_law_checks_and_multiplicities_at_every_scale(m, scrambled):
    # their inputs do not scale with rho, so they keep an absolute tolerance
    algebra, rho = faithful_state(m, scrambled)
    for scale in SCALES:
        rep = gns_construct(algebra, scale * rho)
        report = verify_star_rep(rep)
        assert report.passed, dict(report.violations)
        assert _multiplicities(rep, DEFAULT_POLICY).tolist() == [m]


@pytest.mark.parametrize("scrambled", (False, True))
@pytest.mark.parametrize("scale", SCALES)
def test_a_non_invariant_kernel_stays_non_invariant_at_every_scale(scrambled, scale):
    algebra, _ = faithful_state(2, scrambled)
    rng = np.random.default_rng(7)
    kernel = make_kernel(scale * random_psd(rng, 4))
    assert not is_star_invariant(algebra, kernel)
    with pytest.raises(NotStarInvariant):
        kernel_to_functional(algebra, kernel)


@pytest.mark.parametrize("m, scrambled", CASES)
@pytest.mark.parametrize("scale", SCALES)
def test_chain_verdicts_on_a_state_kernel_at_every_scale(m, scrambled, scale):
    algebra, rho = faithful_state(m, scrambled)
    base = functional_to_kernel(algebra, rho)
    kernel = kernel_scale(scale, base)
    # geometric-increasing starts at the zero kernel and converges
    limit = chain_limit(lambda k: kernel_scale(1 - 0.5**k, kernel), "increasing")
    assert relative_gap(limit.matrix, kernel.matrix) < 1e-8
    # doubling grows without bound and is caught at the same step at every scale
    for k in (kernel, base):
        with pytest.raises(NotMajorized) as caught:
            chain_limit(lambda step: kernel_scale(2.0**step, k), "increasing")
        assert "at step 40;" in str(caught.value)
