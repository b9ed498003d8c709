"""The benchmark's algebras and states, built from their defining data.

Every algebra is made here with plain numpy from matrix units or a group
table, and each carries its own product, involution and Gram matrix. The
checks compare starrep's answers with these, so no expected value goes
through starrep's structure-constant code or is a stored copy of its output.

Each state knows what theory says about it: the dimension of its GNS space,
and the dimensions, multiplicity classes and (where they are fixed) weights
of its irreducible components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Eigenvalues of generated densities and kernels are drawn from [1, 2]
# before normalisation, so every rank decision has a margin of orders of
# magnitude over the 1e-9 cutoffs.
SPECTRUM = (1.0, 2.0)


@dataclass(frozen=True)
class State:
    """A positive functional with the facts theory gives about it."""

    kind: str
    values: np.ndarray  # rho(e_i)
    gns_dim: int
    component_dims: tuple[int, ...]  # sorted
    classes: int
    weights: tuple[float, ...] | None  # sorted, when theory fixes them


class Algebra:
    """A finite *-algebra with its own product, used as the checking oracle."""

    name: str
    dim: int

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def star(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def unit(self) -> np.ndarray:
        raise NotImplementedError

    def state(self, kind: str, rng: np.random.Generator) -> State:
        raise NotImplementedError

    def basis(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def structure_constants(self) -> np.ndarray:
        e = self.basis()
        return np.array([[self.mul(a, b) for b in e] for a in e])

    def involution(self) -> np.ndarray:
        """Row i holds the coordinates of e_i^*."""
        return np.array([self.star(a) for a in self.basis()])

    def gram(self, r: np.ndarray) -> np.ndarray:
        """G[i, j] = rho(e_i^* e_j), from the algebra's own product."""
        e = self.basis()
        return np.array([[r @ self.mul(self.star(a), b) for b in e] for a in e])

    def to_starrep(self, sr):
        return sr.FiniteStarAlgebra(
            self.structure_constants(), self.involution(), self.unit()
        )


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng: np.random.Generator, basis: np.ndarray, lo=SPECTRUM[0], hi=SPECTRUM[1]):
    """Hermitian PSD matrix with range spanned by the orthonormal columns of basis."""
    lam = rng.uniform(lo, hi, basis.shape[1])
    return (basis * lam) @ basis.conj().T


class MatrixAlgebra(Algebra):
    """M_m in the matrix-unit basis E_pq, index p*m + q."""

    def __init__(self, m: int):
        self.m = m
        self.dim = m * m
        self.name = f"M{m}"

    def _mat(self, x):
        return np.asarray(x, dtype=complex).reshape(self.m, self.m)

    def mul(self, x, y):
        return (self._mat(x) @ self._mat(y)).reshape(-1)

    def star(self, x):
        return self._mat(x).conj().T.reshape(-1)

    def unit(self):
        return np.eye(self.m, dtype=complex).reshape(-1)

    def density(self, kind: str, rng) -> np.ndarray:
        m = self.m
        if kind == "trace":
            return np.eye(m, dtype=complex) / m
        rank = {"faithful": m, "vector": 1, "rank2": 2, "rank3": 3}[kind]
        d = random_psd(rng, random_unitary(rng, m)[:, :rank])
        return d / np.trace(d).real

    def state(self, kind, rng):
        d = self.density(kind, rng)
        rank = int(np.sum(np.linalg.eigvalsh(d) > 1e-9))
        return State(
            kind=kind,
            values=d.T.reshape(-1).copy(),  # rho(E_pq) = tr(D E_pq) = D[q, p]
            gns_dim=self.m * rank,
            component_dims=(self.m,) * rank,
            classes=1,
            weights=(1.0 / self.m,) * self.m if kind == "trace" else None,
        )


class GroupAlgebra(Algebra):
    """C[G] for a group given by its table; irrep_dims come from character theory."""

    def __init__(self, name, table, sign, irrep_dims):
        self.name = name
        self.table = np.asarray(table, dtype=int)
        self.dim = self.table.shape[0]
        self.identity = int(np.nonzero(np.all(self.table == np.arange(self.dim), axis=1))[0][0])
        self.inverse = np.argmax(self.table == self.identity, axis=1)
        self.sign = np.asarray(sign, dtype=complex)
        self.irrep_dims = tuple(irrep_dims)
        if sum(d * d for d in self.irrep_dims) != self.dim:
            raise ValueError(f"{name}: irrep dimensions do not square-sum to |G|")
        if len(self.irrep_dims) != self._class_count():
            raise ValueError(f"{name}: irrep count differs from the class count")

    def _class_count(self) -> int:
        t, inv = self.table, self.inverse
        classes = {frozenset(int(t[t[g, x], inv[g]]) for g in range(self.dim)) for x in range(self.dim)}
        return len(classes)

    def mul(self, x, y):
        out = np.zeros(self.dim, dtype=complex)
        np.add.at(out, self.table, np.outer(x, y))
        return out

    def star(self, x):
        out = np.empty(self.dim, dtype=complex)
        out[self.inverse] = np.conj(x)
        return out

    def unit(self):
        e = np.zeros(self.dim, dtype=complex)
        e[self.identity] = 1.0
        return e

    def state(self, kind, rng):
        n = self.dim
        regular = (
            sorted(d for d in self.irrep_dims for _ in range(d)),
            len(self.irrep_dims),
        )
        if kind == "trace":  # delta_e
            weights = tuple(sorted(d / n for d in self.irrep_dims for _ in range(d)))
            return State(kind, self.unit(), n, tuple(regular[0]), regular[1], weights)
        if kind == "faithful":  # t delta_e + (1 - t) <v, lambda(.) v>, Gram >= t I
            t = rng.uniform(0.3, 0.7)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            # <v, lambda(g) v> = sum_h conj(v[g h]) v[h]
            pdf = np.array([np.vdot(v[self.table[g]], v) for g in range(n)])
            values = t * self.unit() + (1 - t) * pdf
            return State(kind, values, n, tuple(regular[0]), regular[1], None)
        trivial = np.ones(n, dtype=complex)
        if kind == "vector":
            return State(kind, trivial, 1, (1,), 1, (1.0,))
        if kind == "rank2":
            t = rng.uniform(0.3, 0.7)
            return State(kind, t * trivial + (1 - t) * self.sign, 2, (1, 1), 2,
                         tuple(sorted((t, 1 - t))))
        raise ValueError(f"{self.name} has no {kind} state")


class DirectSum(Algebra):
    def __init__(self, a: Algebra, b: Algebra):
        self.a, self.b = a, b
        self.dim = a.dim + b.dim
        self.name = f"{a.name}+{b.name}"

    def _split(self, x):
        return x[: self.a.dim], x[self.a.dim:]

    def mul(self, x, y):
        (xa, xb), (ya, yb) = self._split(x), self._split(y)
        return np.concatenate([self.a.mul(xa, ya), self.b.mul(xb, yb)])

    def star(self, x):
        xa, xb = self._split(x)
        return np.concatenate([self.a.star(xa), self.b.star(xb)])

    def unit(self):
        return np.concatenate([self.a.unit(), self.b.unit()])

    def state(self, kind, rng):
        sa = self.a.state(kind, rng)
        if kind == "vector":  # a vector state of the first summand
            return State(kind, np.concatenate([sa.values, np.zeros(self.b.dim)]),
                         sa.gns_dim, sa.component_dims, sa.classes, sa.weights)
        sb = self.b.state(kind, rng)
        t = rng.uniform(0.3, 0.7)
        weights = None
        if sa.weights is not None and sb.weights is not None:
            weights = tuple(sorted([t * w for w in sa.weights] + [(1 - t) * w for w in sb.weights]))
        return State(
            kind,
            np.concatenate([t * sa.values, (1 - t) * sb.values]),
            sa.gns_dim + sb.gns_dim,
            tuple(sorted(sa.component_dims + sb.component_dims)),
            sa.classes + sb.classes,
            weights,
        )


def z2() -> GroupAlgebra:
    return GroupAlgebra("Z2", [[0, 1], [1, 0]], [1, -1], (1, 1))


def symmetric_group(k: int) -> GroupAlgebra:
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]
    sign = [np.linalg.det(np.eye(k)[list(p)]) for p in perms]
    irrep_dims = {3: (1, 1, 2), 4: (1, 1, 2, 3, 3)}[k]
    return GroupAlgebra(f"S{k}", table, np.round(sign), irrep_dims)


def by_name(name: str) -> Algebra:
    """Algebras by their names: M2 ... M6, Z2, S3, S4 and sums like M2+S3.

    Z_k for k >= 3 is left out: decompose cannot split its complex-conjugate
    characters (see the FOUND lines of CHANGES.md).
    """
    if "+" in name:
        left, right = name.split("+", 1)
        return DirectSum(by_name(left), by_name(right))
    kind, k = name[0], int(name[1:])
    if kind == "M":
        return MatrixAlgebra(k)
    if name == "Z2":
        return z2()
    if kind == "S":
        return symmetric_group(k)
    raise ValueError(f"unknown algebra {name!r}")
