"""Kernels are built by a value-only solve and make their eigenvectors on first read.

Every kernel-producing operation runs on M_3, in its matrix-unit basis and
in a complex Gaussian basis of condition number 10, at the scales 1e-12, 1
and 1e9.  The operands are Gram kernels of two states: one whose density
has the tied, rank-deficient spectrum (1, 1, 0), and a faithful one.  The
eigendecomposition a kernel makes on its first read must be, bit for bit,
``hermitian_eigen`` of the matrix the operation solved, the spectrum the
kernel was once built with; a multiple is built with no solve and makes
its own on first read, like any other kernel.  The rank must be the one
read off that spectrum.
"""

from __future__ import annotations

import numpy as np
import pytest

from starrep import (
    DEFAULT_POLICY,
    StarHomomorphism,
    block_data,
    build_matrix_algebra,
    chain_limit,
    functional_to_kernel,
    gns_construct,
    gram_matrix,
    hermitian_eigen,
    kernel_difference,
    kernel_scale,
    kernel_sum,
    make_kernel,
    pullback,
    rep_to_kernel,
    weighted_kernel_sum,
)
from starrep.numerics import _require_square_hermitian, psd_rank

from conftest import change_basis, count_eigensolves, gaussian_basis, random_unitary

BASES = ("units", "gaussian")
SCALES = (1e-12, 1.0, 1e9)
CHAIN_RATIO = 1e-3
WEIGHTS = (0.75, 2.5)
FACTOR = 3.5


def setting(basis: str, scale: float) -> dict:
    """M_3 in ``basis`` with two states at ``scale``, their kernels, a GNS representation and a map.

    The map is an automorphism of M_3 (conjugation by a unitary) in the
    matrix-unit basis, and the change of basis itself, from the Gaussian
    coordinates to the matrix units, in the Gaussian one.
    """
    rng = np.random.default_rng(BASES.index(basis))
    m3 = build_matrix_algebra(3)
    u = random_unitary(rng, 3)
    tied = (u * [1.0, 1.0, 0.0]) @ u.conj().T
    faithful = (u * rng.uniform(0.5, 2.0, 3)) @ u.conj().T
    # rho(E_ab) = D[b, a]
    states = [scale * d.T.ravel() for d in (tied, faithful)]
    if basis == "units":
        algebra, s = m3, np.eye(9)
        hom = StarHomomorphism(source=m3, target=m3, matrix=np.kron(u, np.conj(u)))
    else:
        s = gaussian_basis(rng, 9)
        algebra = change_basis(m3, s)
        hom = StarHomomorphism(source=algebra, target=m3, matrix=s.astype(complex))
    rho1, rho2 = (s.T @ rho for rho in states)
    block_data(algebra)  # built once, with full solves of its own
    return {
        "algebra": algebra,
        "rho1": rho1,
        "k1": functional_to_kernel(algebra, rho1),
        "k12": functional_to_kernel(algebra, rho1 + rho2),
        "rep": gns_construct(algebra, rho1),
        "hom": hom,
        "target": functional_to_kernel(m3, states[0] + states[1]),
    }


def chain(f: dict):
    """``chain_limit`` of the decreasing chain (1 + q^s) k12, and the matrix of its last term."""
    terms = []

    def gen(step):
        terms.append((1.0 + CHAIN_RATIO**step) * f["k12"].matrix)
        return make_kernel(terms[-1])

    return chain_limit(gen, "decreasing"), terms[-1]


def weighted(f: dict):
    (w1, k1), (w2, k2) = terms = [(WEIGHTS[0], f["k1"]), (WEIGHTS[1], f["k12"])]
    # summed onto zeros, as weighted_kernel_sum sums, for the same signed zeros
    return weighted_kernel_sum(terms)[0], np.zeros((9, 9)) + w1 * k1.matrix + w2 * k2.matrix


def orbit_gram(rep) -> np.ndarray:
    t = rep.orbit_matrix()
    return t.conj().T @ t


def pulled(f: dict) -> np.ndarray:
    """The Gram matrix of rho o alpha: alpha^T r, r = conj(e) H the target kernel's functional."""
    hom, k = f["hom"], f["target"].matrix
    return gram_matrix(hom.source, hom.matrix.T @ (np.conj(hom.target.unit) @ k))


# Each operation, as (the kernel it makes, the matrix it solves).
OPERATIONS = {
    "make_kernel": lambda f: (make_kernel(f["k12"].matrix), f["k12"].matrix),
    "kernel_sum": lambda f: (kernel_sum(f["k1"], f["k12"]), f["k1"].matrix + f["k12"].matrix),
    "kernel_difference": lambda f: (kernel_difference(f["k12"], f["k1"]),
                                    f["k12"].matrix - f["k1"].matrix),
    "weighted_kernel_sum": weighted,
    "kernel_scale_zero": lambda f: (kernel_scale(0.0, f["k1"]), 0.0 * f["k1"].matrix),
    "chain_limit": chain,
    "pullback": lambda f: (pullback(f["hom"], f["target"]), pulled(f)),
    "functional_to_kernel": lambda f: (functional_to_kernel(f["algebra"], f["rho1"]),
                                       gram_matrix(f["algebra"], f["rho1"])),
    "rep_to_kernel": lambda f: (rep_to_kernel(f["rep"]), orbit_gram(f["rep"])),
}


def assert_lazy(monkeypatch, kernel, values, vectors, rank: int) -> None:
    """The first read of the vectors makes one full solve, and gives ``(values, vectors)``."""
    assert kernel.rank == rank
    (got_values, got_vectors), sizes = count_eigensolves(
        monkeypatch, lambda: (kernel.values, kernel.vectors))
    assert sizes == [kernel.dim]
    assert np.array_equal(got_values, values)
    assert np.array_equal(got_vectors, vectors)
    for array in (kernel.matrix, kernel.values, kernel.vectors):
        assert not array.flags.writeable
    # kept: a second read makes no eigensolve
    second, sizes = count_eigensolves(monkeypatch, lambda: (kernel.values, kernel.vectors))
    assert sizes == []
    assert second[0] is got_values and second[1] is got_vectors


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("operation", list(OPERATIONS))
def test_vectors_come_later_and_are_the_eager_ones(monkeypatch, operation, basis, scale):
    f = setting(basis, scale)
    (kernel, solved), sizes = count_eigensolves(
        monkeypatch, lambda: OPERATIONS[operation](f), full_only=True)
    assert sizes == []  # built by value-only solves alone
    assert np.array_equal(kernel.matrix, _require_square_hermitian(solved, DEFAULT_POLICY))
    values, vectors = hermitian_eigen(solved)
    assert_lazy(monkeypatch, kernel, values, vectors, psd_rank(values, DEFAULT_POLICY)[1])


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("basis", BASES)
def test_a_multiple_solves_its_own_matrix(monkeypatch, basis, scale):
    f = setting(basis, scale)
    parent = f["k12"]
    scaled, sizes = count_eigensolves(monkeypatch, lambda: kernel_scale(FACTOR, parent))
    assert sizes == []
    assert np.array_equal(scaled.matrix, FACTOR * parent.matrix)
    assert scaled.top == FACTOR * parent.top
    # the first read solves the multiple's own matrix, as for any kernel,
    # and its values are FACTOR times the parent's to a few ulps of the top
    values, vectors = hermitian_eigen(scaled.matrix)
    assert_lazy(monkeypatch, scaled, values, vectors, parent.rank)
    gap = np.abs(scaled.values - FACTOR * parent.values).max()
    assert gap <= 8 * np.finfo(float).eps * scaled.top
