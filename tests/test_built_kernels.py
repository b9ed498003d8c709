"""Kernels the package builds are hermitian bit for bit, and go to the solver unchecked.

Hermiticity is checked where a matrix enters (``make_kernel``'s argument,
a functional's Gram matrix); a sum, a difference or a weighted sum of
kernels, and T^H T of a representation, is hermitian by construction and
is solved as it is.  So every kernel an operation returns must be a fixed
point of the hermitization (A + A^H) / 2, byte for byte, and every verdict
read off such a solve must be, bit for bit, the one the checked path
(``hermitian_eigvals``, then ``psd_rank``) gives.  The operations run on
M_3 in its builder's basis, a scrambled unitary one and a complex Gaussian
one of condition number 10, at scales from 1e-12 to 1e300.
"""

from __future__ import annotations

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    Kernel,
    StarHomomorphism,
    build_matrix_algebra,
    chain_limit,
    functional_to_kernel,
    gns_construct,
    hermitian_eigvals,
    kernel_difference,
    kernel_leq,
    kernel_scale,
    kernel_sum,
    make_kernel,
    min_dominating_scale,
    mutually_excluding,
    ordinary_subrep_check,
    pullback,
    rep_to_kernel,
    weighted_kernel_sum,
)
from starrep.errors import NotDominated
from starrep.numerics import _hermitized, _maxabs, _require_square_hermitian, psd_rank

from conftest import change_basis, gaussian_basis, random_unitary

BASES = ("builder", "scrambled", "gaussian")
SCALES = (1e-12, 1.0, 1e9, 1e300)


def m3_setting(basis: str, scale: float) -> dict:
    """M_3 in ``basis``, two states at ``scale`` and their kernels, a representation and a map.

    One state's density has the tied, rank-deficient spectrum (1, 1, 0),
    the other is faithful.  The map is conjugation by a unitary in the
    builder's basis, and the change of basis to it in the others.
    """
    rng = np.random.default_rng(BASES.index(basis))
    m3 = build_matrix_algebra(3)
    u = random_unitary(rng, 3)
    tied = (u * [1.0, 1.0, 0.0]) @ u.conj().T
    faithful = (u * rng.uniform(0.5, 2.0, 3)) @ u.conj().T
    states = [scale * d.T.ravel() for d in (tied, faithful)]  # rho(E_ab) = D[b, a]
    if basis == "builder":
        algebra, s = m3, np.eye(9)
        hom = StarHomomorphism(source=m3, target=m3, matrix=np.kron(u, np.conj(u)))
    else:
        s = random_unitary(rng, 9) if basis == "scrambled" else gaussian_basis(rng, 9)
        algebra = change_basis(m3, s)
        hom = StarHomomorphism(source=algebra, target=m3, matrix=s.astype(complex))
    rho1, rho2 = (s.T @ rho for rho in states)
    return {
        "algebra": algebra,
        "rho1": rho1,
        "k1": functional_to_kernel(algebra, rho1),
        "k12": functional_to_kernel(algebra, rho1 + rho2),
        "rep": gns_construct(algebra, rho1),
        "hom": hom,
        "target": functional_to_kernel(m3, states[0] + states[1]),
    }


def decreasing_chain(f: dict) -> Kernel:
    return chain_limit(lambda step: kernel_scale(1.0 + 1e-3**step, f["k12"]), "decreasing")


OPERATIONS = {
    "sum": lambda f: kernel_sum(f["k1"], f["k12"]),
    "difference": lambda f: kernel_difference(f["k12"], f["k1"]),
    "multiple": lambda f: kernel_scale(1.5, f["k12"]),
    "weighted_sum": lambda f: weighted_kernel_sum([(0.75, f["k1"]), (2.5, f["k12"])])[0],
    "chain_limit": decreasing_chain,
    "rep_to_kernel": lambda f: rep_to_kernel(f["rep"]),
    "pullback": lambda f: pullback(f["hom"], f["target"]),
    "functional_to_kernel": lambda f: functional_to_kernel(f["algebra"], f["rho1"]),
}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("operation", list(OPERATIONS))
def test_every_kernel_an_operation_returns_is_hermitian_bit_for_bit(operation, basis, scale):
    m = OPERATIONS[operation](m3_setting(basis, scale)).matrix
    assert _hermitized(m, m.conj().T, _maxabs(m)).tobytes() == m.tobytes()


def split_family(seed: int, n: int, scale: float) -> list[Kernel]:
    """PSD kernels A, A + C on one range and B, A + B on a range and its complement, times scale."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    u = random_unitary(rng, n)

    def psd_on(basis):
        return (basis * rng.uniform(0.5, 2.0, basis.shape[1])) @ basis.conj().T

    a, c, b = psd_on(u[:, :r]), psd_on(u[:, :r]), psd_on(u[:, r:])
    return [make_kernel(scale * m) for m in (a, a + c, b, a + b)]


def top(k1: Kernel, k2: Kernel) -> float:
    return max(k1.top, k2.top, 0.0)


def leq_oracle(k1, k2) -> bool:
    return psd_rank(hermitian_eigvals(k2.matrix - k1.matrix), scale=top(k1, k2))[0]


def subrep_oracle(k1, kernel) -> bool:
    values = hermitian_eigvals(kernel.matrix - k1.matrix)
    return (psd_rank(values, scale=top(k1, kernel))[0]
            and k1.rank + psd_rank(values)[1] == kernel.rank)


def excluding_oracle(k1, k2) -> bool:
    is_psd, rank = psd_rank(hermitian_eigvals(k1.matrix + k2.matrix))
    assert is_psd
    return k1.rank + k2.rank == rank


def difference_oracle(kernel, k1):
    """``(matrix bytes, top, rank)`` of kernel - k1 by the checked path, or None below the order."""
    diff = kernel.matrix - k1.matrix
    values = hermitian_eigvals(diff)
    if not psd_rank(values, scale=top(k1, kernel))[0]:
        return None
    return (_require_square_hermitian(diff, DEFAULT_POLICY).tobytes(), float(values[0]),
            psd_rank(values)[1])


def min_scale_oracle(k1, k2):
    """The least dominating scale, its compression solved by the checked path."""
    basis2, basis1 = k2.vectors[:, : k2.rank], k1.vectors[:, : k1.rank]
    residuals = np.linalg.norm(basis1 - basis2 @ (basis2.conj().T @ basis1), axis=0)
    if np.any(residuals >= 2.0 * DEFAULT_POLICY.rel_rank_tol):
        return None
    inv_sqrt = basis2 / np.sqrt(k2.values[: k2.rank])[None, :]
    return float(hermitian_eigvals(inv_sqrt.conj().T @ k1.matrix @ inv_sqrt)[0])


def difference(kernel, k1):
    try:
        result = kernel_difference(kernel, k1)
    except NotDominated:
        return None
    return result.matrix.tobytes(), result.top, result.rank


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", range(3))
def test_the_verdicts_are_those_of_the_checked_path(seed, scale):
    family = split_family(seed, 7, scale)
    family += [kernel_scale(0.5, family[1]), kernel_sum(family[0], family[2])]
    pairs = [(k1, k2) for k1 in family for k2 in family]
    got = {
        "leq": [kernel_leq(k1, k2) for k1, k2 in pairs],
        "subrep": [ordinary_subrep_check(k1, k2) for k1, k2 in pairs],
        "excluding": [mutually_excluding(k1, k2) for k1, k2 in pairs],
        "difference": [difference(k2, k1) for k1, k2 in pairs],
        "min_scale": [min_dominating_scale(k1, k2) for k1, k2 in pairs],
    }
    want = {
        "leq": [leq_oracle(k1, k2) for k1, k2 in pairs],
        "subrep": [subrep_oracle(k1, k2) for k1, k2 in pairs],
        "excluding": [excluding_oracle(k1, k2) for k1, k2 in pairs],
        "difference": [difference_oracle(k2, k1) for k1, k2 in pairs],
        "min_scale": [min_scale_oracle(k1, k2) for k1, k2 in pairs],
    }
    assert got == want
    # both outcomes of each verdict are reached
    for name in ("leq", "subrep", "excluding"):
        assert set(got[name]) == {True, False}, name
    assert None in got["difference"] and None in got["min_scale"]
    assert any(d is not None for d in got["difference"])
