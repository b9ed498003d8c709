"""Functionals on an algebra, Gram forms, positivity, and the dual action.

Convention fixed once for the whole package: the pairing between an algebra
element x and a dual-space vector phi is ``<x|phi> = sum_i conj(x_i) phi_i``
(antilinear in x), while a functional is stored by its linear values
``r_i = rho(e_i)``.  The Gram matrix ``G[i, j] = rho(e_i^* e_j)`` then
satisfies ``rho(x) = <e|G x>`` with e the unit, which is the orientation the
correspondence module relies on.
"""

from __future__ import annotations

import numpy as np

from .algebra import FiniteStarAlgebra
from .errors import DimMismatch, NonRealUnitValue, NotPositive
from .numerics import DEFAULT_POLICY, TolerancePolicy, is_hermitian, psd_check

__all__ = [
    "evaluate",
    "gram_matrix",
    "hermitian_gram",
    "is_positive",
    "hilbert_bound",
    "dual_regular_action",
]


def _check_vector(algebra: FiniteStarAlgebra, v, what: str) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.shape != (algebra.dim,):
        raise DimMismatch(f"{what} has shape {a.shape}, algebra dim {algebra.dim}")
    return a


def evaluate(algebra: FiniteStarAlgebra, functional, x) -> complex:
    """Value of the functional on the element x (linear extension)."""
    r = _check_vector(algebra, functional, "functional")
    xv = _check_vector(algebra, x, "element")
    return complex(np.dot(xv, r))


def gram_matrix(algebra: FiniteStarAlgebra, functional) -> np.ndarray:
    """Matrix G[i, j] = rho(e_i^* e_j) of the sesquilinear form induced by rho."""
    r = _check_vector(algebra, functional, "functional")
    n = algebra.dim
    products = algebra.structure_constants.reshape(n * n, n) @ r  # rho(e_p e_j)
    return algebra.involution @ products.reshape(n, n)


def is_positive(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[bool, int]:
    """Positivity of rho, decided by its Gram matrix being hermitian PSD.

    Returns ``(positive, gram_rank)``; the rank is the dimension of the
    quotient by the null space of the Gram form (the degenerate directions).
    """
    g = hermitian_gram(algebra, functional, pol)
    if g is None:
        return False, 0
    return psd_check(g, pol)


def hermitian_gram(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray | None:
    """The Gram matrix of rho, or None when it is not hermitian (``is_hermitian``).

    The Gram matrix of a positive functional is hermitian, so None already
    rules positivity out.
    """
    g = gram_matrix(algebra, functional)
    return g if is_hermitian(g, pol) else None


def hilbert_bound(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> float:
    """The best constant B with |rho(x)|^2 <= B rho(x^*x); equals rho(e)."""
    positive, _ = is_positive(algebra, functional, pol)
    if not positive:
        raise NotPositive("hilbert_bound requires a positive functional")
    value = evaluate(algebra, functional, algebra.unit)
    if abs(value.imag) > pol.match_tol * (1.0 + abs(value)):
        raise NonRealUnitValue(f"rho(e) = {value} is not real")
    return float(value.real)


def dual_regular_action(algebra: FiniteStarAlgebra, x) -> np.ndarray:
    """Matrix of the action on dual coordinates with <y|pi(x) phi> = <x^* y|phi>.

    Concretely the conjugate transpose of left multiplication by x^*; it is
    multiplicative, pi(x) pi(y) = pi(xy).
    """
    xs = algebra.involute(x)
    return algebra.left_mult_matrix(xs).conj().T
