"""The products the package solves as hermitian go through one guard.

T T^H (the cyclicity of ``verify_star_rep``'s full check and
``intertwiner``), T^H T (``rep_to_kernel``) and the compression of
``min_dominating_scale`` are each computed, checked for overflow and
hermitized by one call of ``numerics._hermitian_product``.  It reads the
product's finiteness off the max|P| its hermitization takes, so its
result must be, bit for bit, that of the two-step guard it replaces:
``_finite_product``, then ``_hermitized`` at ``_maxabs``.
"""

from __future__ import annotations

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    GNSRepresentation,
    TolerancePolicy,
    build_matrix_algebra,
    correspondence,
    gns,
    gns_construct,
    intertwiner,
    kernels,
    make_kernel,
    min_dominating_scale,
    rep_to_kernel,
    verify_star_rep,
)
from starrep.errors import NonFiniteScalar
from starrep.numerics import _finite_product, _hermitian_product, _hermitized, _maxabs

from conftest import z2_algebra

MESSAGE = "the product overflows"


def two_step(t: np.ndarray) -> np.ndarray:
    """T T^H guarded and hermitized as the package did before the one guard."""
    gram = _finite_product(lambda: t @ t.conj().T, MESSAGE, t)
    return _hermitized(gram, gram.conj().T, _maxabs(gram))


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e153], ids=["tiny", "unit", "halves"])
def test_the_guard_keeps_the_bits_of_the_two_step_guard(scale):
    # at 1e153 max|T T^H| is past 2**1022, where the hermitization adds halves
    rng = np.random.default_rng(29)
    for shape in ((4, 16), (6, 6), (1, 3)):
        t = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        got = _hermitian_product(lambda: t @ t.conj().T, MESSAGE, t)
        assert got.tobytes() == two_step(t).tobytes()
        assert np.array_equal(got, got.conj().T)


def test_the_empty_product_is_empty():
    t = np.zeros((0, 4), dtype=complex)
    assert _hermitian_product(lambda: t @ t.conj().T, MESSAGE, t).shape == (0, 0)


def test_an_overflow_of_finite_operands_raises_and_a_bad_operand_gives_none():
    t = np.full((2, 3), 1e200, dtype=complex)
    for operands in ((t,), ()):
        with pytest.raises(NonFiniteScalar, match=f"^{MESSAGE}$"):
            _hermitian_product(lambda: t @ t.conj().T, MESSAGE, *operands)
    # an overflow in BLAS threads sets no flag numpy sees: the max reads it
    unseen = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NonFiniteScalar, match=f"^{MESSAGE}$"):
        _hermitian_product(lambda: unseen, MESSAGE, t)
    for bad in (np.nan, np.inf, -np.inf):
        u = np.eye(2, 3, dtype=complex)
        u[1, 2] = bad
        with np.errstate(invalid="ignore"):  # inf * 0 in the product reads NaN
            assert _hermitian_product(lambda: u @ u.conj().T, MESSAGE, u) is None


def spy(monkeypatch, module, name: str) -> list:
    """The calls ``module.name`` gets from here on, each as the exception it raised or None."""
    calls = []
    real = getattr(module, name)

    def recorded(*args):
        try:
            result = real(*args)
        except Exception as exc:
            calls.append(exc)
            raise
        calls.append(None)
        return result

    monkeypatch.setattr(module, name, recorded)
    return calls


# Each site's module and a call of it.  The full check runs at a policy
# other than the one the representation was built and certified with.
OTHER_POLICY = TolerancePolicy(match_tol=1e-7)
SITES = {
    "verify_star_rep": (gns, lambda rep: verify_star_rep(rep, OTHER_POLICY)),
    "intertwiner": (gns, lambda rep: intertwiner(rep, rep)),
    "rep_to_kernel": (correspondence, rep_to_kernel),
    "min_dominating_scale": (kernels, lambda rep: min_dominating_scale(
        make_kernel(np.diag([1.0, 2.0, 0.0])), make_kernel(np.diag([1.0, 1.0, 0.0])))),
}


@pytest.mark.parametrize("site", list(SITES))
def test_each_site_makes_one_guarded_product(monkeypatch, site):
    module, run = SITES[site]
    m2 = build_matrix_algebra(2)
    rep = gns_construct(m2, np.array([1.0, 0.5j, -0.5j, 1.0]))  # rho(E_pq) = D[q, p], D > 0
    gns.block_data(m2, OTHER_POLICY)  # the block build has products of its own
    guarded = spy(monkeypatch, module, "_hermitian_product")
    unguarded = [spy(monkeypatch, module, name) for name in ("_finite_product", "_hermitized")
                 if hasattr(module, name)]
    run(rep)
    assert guarded == [None]
    assert all(calls == [] for calls in unguarded)


def test_the_full_check_types_an_overflowing_orbit_gram(monkeypatch):
    # pi(e) = c I and pi(g) = c X on C^2, c = 1e155, with xi = (1, 0): the
    # orbit and the reproduced functional are finite, T T^H is past the
    # range, and it is the first of the check's products to be taken
    z2 = z2_algebra()
    c = 1e155
    mats = c * np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    rep = GNSRepresentation(z2, mats, np.array([1.0, 0.0]), np.array([c, 0.0]), np.eye(2))
    guarded = spy(monkeypatch, gns, "_hermitian_product")
    with pytest.raises(NonFiniteScalar,
                       match="^the representation's law checks overflow the float range$"):
        verify_star_rep(rep, DEFAULT_POLICY)
    assert len(guarded) == 1 and isinstance(guarded[0], NonFiniteScalar)

