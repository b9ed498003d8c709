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
from .errors import NegativeEigenvalue, NonRealUnitValue, NotHermitian, NotPositive
from .kernels import Kernel, make_kernel
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _finite_product,
    _overflow_checked,
    psd_check,
    within_tol,
)

__all__ = [
    "evaluate",
    "gram_matrix",
    "functional_to_kernel",
    "is_positive",
    "hilbert_bound",
    "dual_regular_action",
]


def evaluate(algebra: FiniteStarAlgebra, functional, x) -> complex:
    """Value of the functional on the element x (linear extension)."""
    r = algebra._check_element(functional, "functional")
    return complex(np.dot(algebra._check_element(x), r))


def gram_matrix(algebra: FiniteStarAlgebra, functional) -> np.ndarray:
    """Matrix G[i, j] = rho(e_i^* e_j) of the sesquilinear form induced by rho.

    NonFiniteScalar is raised when a finite rho has products
    rho(e_i^* e_j) past the float range (``_finite_product``).
    """
    r = algebra._check_element(functional, "functional")
    n = algebra.dim

    def gram() -> np.ndarray:
        products = algebra.structure_constants.reshape(n * n, n) @ r  # rho(e_p e_j)
        return algebra.involution @ products.reshape(n, n)

    return _finite_product(gram, "the Gram matrix overflows", r)


def functional_to_kernel(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> Kernel:
    """Reproducing operator of the subspace attached to a positive functional.

    This is the Gram matrix itself, read as an operator on dual coordinates;
    it satisfies the orientation identity rho(x) = <e | H x>.  One
    value-only eigensolve (``make_kernel``) decides hermiticity and
    positivity and gives the rank; a Gram matrix that is not hermitian, not
    PSD or has NaN entries raises NotPositive, and one that overflows
    raises NonFiniteScalar (``gram_matrix``).  The rank is ``psd_rank``'s
    cut on the Gram matrix's spectrum, so near the cutoff it can depend on
    the basis and differ from the dimension of ``gns_construct``, which
    reads the ranks of the algebra's blocks.
    """
    try:
        return make_kernel(gram_matrix(algebra, functional), pol)
    except (NotHermitian, NegativeEigenvalue, ValueError):
        raise NotPositive("functional_to_kernel requires a positive functional") from None


def is_positive(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[bool, int]:
    """Positivity of rho, decided by its Gram matrix being hermitian PSD.

    Returns ``(positive, gram_rank)``; the rank is the dimension of the
    quotient by the null space of the Gram form (the degenerate directions).
    The eigensolve checks hermiticity, and the Gram matrix of a positive
    functional is hermitian, so NotHermitian rules positivity out, as does
    the ValueError of a Gram matrix with NaN entries.  A Gram matrix that
    overflows raises NonFiniteScalar (``gram_matrix``).
    """
    try:
        return psd_check(gram_matrix(algebra, functional), pol)
    except (NotHermitian, ValueError):
        return False, 0


def hilbert_bound(
    algebra: FiniteStarAlgebra, functional, pol: TolerancePolicy = DEFAULT_POLICY
) -> float:
    """The best constant B with |rho(x)|^2 <= B rho(x^*x); equals rho(e).

    NonFiniteScalar is raised when rho(e) lies beyond the float range.
    """
    positive, _ = is_positive(algebra, functional, pol)
    if not positive:
        raise NotPositive("hilbert_bound requires a positive functional")
    value = _overflow_checked(lambda: evaluate(algebra, functional, algebra.unit),
                              "rho(e) lies beyond the float range")
    if not within_tol(abs(value.imag), abs(value), pol):
        raise NonRealUnitValue(f"rho(e) = {value} is not real")
    return float(value.real)


def dual_regular_action(algebra: FiniteStarAlgebra, x) -> np.ndarray:
    """Matrix of the action on dual coordinates with <y|pi(x) phi> = <x^* y|phi>.

    Concretely the conjugate transpose of left multiplication by x^*; it is
    multiplicative, pi(x) pi(y) = pi(xy).
    """
    xs = algebra.involute(x)
    return algebra.left_mult_matrix(xs).conj().T
