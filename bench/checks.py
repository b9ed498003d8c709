"""Checks of starrep's outputs against numpy and scipy computations.

A failed check raises CheckFailed. The expected values come from the
algebras' own products (algebras.py), from np.linalg.eigvalsh, pinv and
scipy.linalg.eigh, and from character theory; none is a stored copy of
starrep's output.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Rank cutoff of the checks, relative to the largest eigenvalue. Inputs are
# generated with eigenvalues in [1, 2] on their range, far from it.
RANK_TOL = 1e-9
MATCH_TOL = 1e-8


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(actual, expected, what: str, tol: float = MATCH_TOL) -> None:
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    scale = 1.0 + (float(np.max(np.abs(expected))) if expected.size else 0.0)
    err = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    require(err <= tol * scale, f"{what}: off by {err:.3e} (scale {scale:.3e})")


def spectrum(h) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    return np.linalg.eigvalsh((h + h.conj().T) / 2.0)


def rank(h) -> int:
    w = spectrum(h)
    return int(np.count_nonzero(w > RANK_TOL * max(float(w[-1]), 0.0)))


def is_psd(h) -> bool:
    w = spectrum(h)
    return bool(w[0] >= -RANK_TOL * (1.0 + max(float(w[-1]), 0.0)))


def subspace_norm_sq(h, phi) -> float:
    """phi^H H^+ phi, with the pseudo-inverse from np.linalg.pinv."""
    return float(np.real(np.vdot(phi, np.linalg.pinv(h, rcond=RANK_TOL, hermitian=True) @ phi)))


def dominating_scale(h1, h2, range2: np.ndarray) -> float:
    """Least lam with h1 <= lam h2, for range(h1) inside range(h2) = span(range2).

    The largest eigenvalue of the pencil (h1, h2) compressed to range(h2),
    from scipy.linalg.eigh.
    """
    q = range2
    a = q.conj().T @ h1 @ q
    b = q.conj().T @ h2 @ q
    return float(scipy.linalg.eigh((a + a.conj().T) / 2, (b + b.conj().T) / 2, eigvals_only=True)[-1])


def kernel(k, matrix, what: str) -> None:
    """A starrep Kernel against the expected matrix and its eigvalsh rank."""
    close(k.matrix, matrix, f"{what} matrix")
    require(k.rank == rank(matrix), f"{what}: rank {k.rank} != {rank(matrix)}")


def representation(alg, state, rep, rng) -> None:
    """The GNS representation of a state, checked with the algebra's own product.

    Its dimension is the one theory gives; pi is multiplicative and
    *-preserving on random elements; the cyclic vector reproduces rho and
    is cyclic.
    """
    d = rep.rep_dim
    require(d == state.gns_dim, f"GNS dim {d} != {state.gns_dim}")
    mats = np.asarray(rep.matrices)

    def pi(x):
        return np.tensordot(x, mats, axes=1)

    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    close(pi(x) @ pi(y), pi(alg.mul(x, y)), "pi(x) pi(y) = pi(xy)")
    close(pi(alg.star(x)), pi(x).conj().T, "pi(x*) = pi(x)^H")
    xi = np.asarray(rep.cyclic_vector)
    close(np.vdot(xi, pi(x) @ xi), state.values @ x, "<xi, pi(x) xi> = rho(x)")
    orbit = (mats @ xi).T
    require(np.linalg.matrix_rank(orbit, tol=1e-8) == d, "cyclic vector is not cyclic")


def characters(rep) -> np.ndarray:
    return np.trace(np.asarray(rep.matrices), axis1=1, axis2=2)


def same_character(rep1, rep2) -> bool:
    """Irreducible representations are equivalent exactly when their characters agree."""
    if rep1.rep_dim != rep2.rep_dim:
        return False
    return bool(np.max(np.abs(characters(rep1) - characters(rep2))) < 1e-6)


def decomposition(state, dec) -> None:
    """Components against character theory, weights, reassembly and Burnside."""
    comps = dec.components
    dims = tuple(sorted(c.representation.rep_dim for c in comps))
    require(dims == state.component_dims, f"component dims {dims} != {state.component_dims}")
    require(len(dec.multiplicity_classes) == state.classes,
            f"{len(dec.multiplicity_classes)} classes != {state.classes}")
    weights = np.array([c.weight for c in comps])
    if state.weights is not None:
        close(np.sort(weights), np.array(state.weights), "component weights")
    close(sum(w * np.asarray(c.functional) for w, c in zip(weights, comps)),
          state.values, "weighted components sum to rho")
    for k, c in enumerate(comps):
        d = c.representation.rep_dim
        span = np.asarray(c.representation.matrices).reshape(-1, d * d)
        require(np.linalg.matrix_rank(span, tol=1e-8) == d * d,
                f"component {k} fails Burnside: span of pi(e_i) below {d * d}")
    by_char: list[list[int]] = []
    for k, c in enumerate(comps):
        for cls in by_char:
            if same_character(comps[cls[0]].representation, c.representation):
                cls.append(k)
                break
        else:
            by_char.append([k])
    require(sorted(map(tuple, by_char)) == sorted(map(tuple, dec.multiplicity_classes)),
            f"classes {dec.multiplicity_classes} != character classes {by_char}")
