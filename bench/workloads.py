"""The in-process workloads: bijection, decompose and cone.

A workload has a timed ``setup`` that builds its inputs from the seed, an
untimed ``prepare`` that computes the expected values, and ``pipelines``,
which lists the round's work as generators, one per input: each runs one
operation, checks its result and yields. ``interleave`` runs one round,
advancing the pipelines in a random order, so that a stretch of time in
which the machine runs slower is spread over all inputs instead of falling
on one. Every round runs the same operations.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

import checks
from algebras import by_name, random_psd, random_unitary
from checks import CheckFailed, require


class OperationFailed(Exception):
    pass


class Recorder:
    """Times each operation and keeps the verdicts of the run.

    After an operation, once ``probe_every`` seconds have passed since the
    last probe, it times one run of ``probe`` (see ``reference.py``), so the
    machine's speed is sampled all through the run, between operations.
    """

    def __init__(self, probe=None, probe_every: float = 0.0):
        self.samples: list[tuple[int, float]] = []  # (input size n, seconds)
        self.probes: list[float] = []  # seconds per probe run
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.probe = probe
        self.probe_every = probe_every
        self.last_probe = float("-inf")

    def call(self, n: int, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the operation boundary: count it and go on
            self.failed += 1
            raise OperationFailed(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc
        t1 = time.perf_counter()
        self.samples.append((n, t1 - t0))
        if self.probe is not None and t1 - self.last_probe >= self.probe_every:
            self.probes.append(self.probe())
            self.last_probe = time.perf_counter()
        return out


def interleave(pipelines, rec: Recorder, rng: random.Random) -> None:
    """One round: advance the pipelines one operation at a time, in random order.

    A failed operation or a wrong result ends its pipeline and is recorded.
    """
    live = list(pipelines)
    while live:
        i = rng.randrange(len(live))
        label, steps = live[i]
        try:
            next(steps)
            continue
        except StopIteration:
            pass
        except OperationFailed as exc:
            rec.failures.append(f"{label}: {exc}")
        except CheckFailed as exc:
            rec.wrong.append(f"{label}: {exc}")
        live.pop(i)


def case_rng(seed: int, label: str) -> np.random.Generator:
    """A generator for one input, independent of the order inputs are built in."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


@dataclass
class Case:
    label: str
    oracle: object  # algebras.Algebra
    algebra: object  # starrep.FiniteStarAlgebra
    states: list
    expected: dict = field(default_factory=dict)


def build_cases(sr, seed, spec) -> list[Case]:
    cases = []
    for name, kinds in spec:
        oracle = by_name(name)
        rng = case_rng(seed, name)
        states = [oracle.state(kind, rng) for kind in kinds]
        cases.append(Case(name, oracle, oracle.to_starrep(sr), states))
    return cases


class Bijection:
    """validate_algebra, then one round trip Cycl(A) -> kernel -> functional per state."""

    name = "bijection"
    STATES = ("trace", "faithful", "vector", "rank2")
    LADDER = ("M2", "M3", "M4", "M5", "M6", "Z2", "S3", "S4", "M2+S3", "M3+Z2")
    SMOKE = ("M2", "Z2", "S3", "M2+Z2")

    def setup(self, sr, seed, smoke):
        return build_cases(sr, seed, [(n, self.STATES) for n in (self.SMOKE if smoke else self.LADDER)])

    def prepare(self, cases, seed):
        for case in cases:
            case.expected["gram"] = [case.oracle.gram(s.values) for s in case.states]
            case.expected["rng"] = case_rng(seed, "check " + case.label)

    def pipelines(self, sr, cases, rec: Recorder):
        for case in cases:
            yield case.label, self._validate(sr, case, rec)
            for st, gram in zip(case.states, case.expected["gram"]):
                yield f"{case.label} {st.kind}", self._round_trip(sr, case, st, gram, rec)

    def _validate(self, sr, case, rec):
        report = rec.call(case.oracle.dim, sr.validate_algebra, case.algebra)
        require(report.passed and report.max_violation <= 1e-12,
                f"validate_algebra: {report.violations}")
        yield

    def _round_trip(self, sr, case, st, gram, rec):
        a, n = case.algebra, case.oracle.dim
        positive, gram_rank = rec.call(n, sr.is_positive, a, st.values)
        require(positive and gram_rank == st.gns_dim,
                f"is_positive -> {positive, gram_rank}, want (True, {st.gns_dim})")
        yield
        rep = rec.call(n, sr.gns_construct, a, st.values)
        checks.representation(case.oracle, st, rep, case.expected["rng"])
        yield
        report = rec.call(n, sr.verify_star_rep, rep)
        require(report.passed, f"verify_star_rep: {report.violations}")
        yield
        k = rec.call(n, sr.rep_to_kernel, rep)
        checks.kernel(k, gram, "rep_to_kernel")
        yield
        values = rec.call(n, sr.kernel_to_functional, a, k)
        checks.close(values, st.values, "kernel_to_functional")
        yield
        require(rec.call(n, sr.is_star_invariant, a, k) is True,
                "is_star_invariant is False on a GNS kernel")
        yield
        checks.kernel(rec.call(n, sr.functional_to_kernel, a, st.values),
                      gram, "functional_to_kernel")
        yield


class Decompose:
    """decompose, is_extremal and representations_equivalent on reducible states."""

    name = "decompose"
    CASES = (
        ("M2", ("trace", "faithful", "rank2")),
        ("M3", ("trace", "faithful", "rank2")),
        ("M4", ("trace", "faithful", "rank2")),
        ("M5", ("rank2", "rank3")),
        ("S3", ("trace",)),
        ("S4", ("trace",)),
        ("M2+S3", ("trace",)),
        ("M2+Z2", ("faithful",)),
    )
    # The trace on M3+S3 is left out: decompose fails on it for about one
    # seed in twenty (see FOUND in CHANGES.md), and a run's failures must not
    # depend on its seed.
    SMOKE = (("M2", ("trace", "faithful")), ("S3", ("trace",)), ("M2+Z2", ("faithful",)))
    # is_extremal of the whole state solves the same d^2 x d^2 commutant
    # system as decompose's first step, so it runs only up to this d.
    EXTREMAL_MAX_DIM = 10

    def setup(self, sr, seed, smoke):
        cases = build_cases(sr, seed, self.SMOKE if smoke else self.CASES)
        for case in cases:
            draws = case_rng(seed, "draws " + case.label).integers(0, 2**31, len(case.states))
            case.expected["seeds"] = [int(s) for s in draws]
        return cases

    def prepare(self, cases, seed):
        pass

    def pipelines(self, sr, cases, rec: Recorder):
        for case in cases:
            for st, draw_seed in zip(case.states, case.expected["seeds"]):
                yield f"{case.label} {st.kind}", self._analyse(sr, case, st, draw_seed, rec)

    def _analyse(self, sr, case, st, draw_seed, rec):
        a, n = case.algebra, case.oracle.dim
        dec = rec.call(n, sr.decompose, a, st.values, seed=draw_seed)
        checks.decomposition(st, dec)
        yield
        if st.gns_dim <= self.EXTREMAL_MAX_DIM:
            require(rec.call(n, sr.is_extremal, a, st.values) is False,
                    "is_extremal is True on a reducible state")
            yield
        comps = sorted(dec.components, key=lambda c: c.representation.rep_dim)
        for k, c in enumerate(comps):
            require(rec.call(n, sr.is_extremal, a, c.functional) is True,
                    f"is_extremal is False on component {k}")
            yield
        # neighbours of equal dimension; unequal ones are told apart by d alone
        for c1, c2 in zip(comps, comps[1:]):
            if c1.representation.rep_dim != c2.representation.rep_dim:
                continue
            want = checks.same_character(c1.representation, c2.representation)
            got = rec.call(n, sr.representations_equivalent, c1.representation, c2.representation)
            require(got == want, f"representations_equivalent -> {got}, characters say {want}")
            yield


@dataclass
class Family:
    """Kernels of one size: A (range R), C on R, and B on the complement of R.

    For a full-rank family R is everything and B is absent. All spectra lie
    in [1, 2] on their ranges, so no order or rank verdict is borderline.
    """

    n: int
    rank: int
    chains: bool
    range_basis: np.ndarray
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray | None
    phi_in: np.ndarray
    phi_out: np.ndarray | None
    lam: float
    weights: tuple[float, float]
    k: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"n={self.n} rank={self.rank}"

    @property
    def other(self) -> np.ndarray:
        """The second summand: B when the family has one, else C."""
        return self.c if self.b is None else self.b


class Cone:
    """The kernels calculus: queries on existing kernels and operations that build new ones."""

    name = "cone"
    # (n, rank, with chains); chains cost ten eigensolves each and stop at n = 16.
    FAMILIES = (
        (4, 4, True), (4, 2, True), (6, 3, True), (9, 9, True), (9, 4, True),
        (16, 16, True), (16, 8, False), (25, 12, False), (36, 36, False),
    )
    SMOKE = ((4, 4, True), (4, 2, True))
    # Chains (1 -+ q^s) A converge when q^s max|A| < 1e-8; with q = 1e-3 and
    # max|A| in [0.5, 2] that happens at s = 4 for every seed.
    CHAIN_RATIO = 1e-3

    def setup(self, sr, seed, smoke):
        families = []
        for n, r, chains in self.SMOKE if smoke else self.FAMILIES:
            rng = case_rng(seed, f"cone {n} {r}")
            u = random_unitary(rng, n)
            q, q_perp = u[:, :r], u[:, r:]
            a, c = random_psd(rng, q), random_psd(rng, q)
            b = random_psd(rng, q_perp) if r < n else None
            phi_in = a @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            phi_out = None if b is None else phi_in + q_perp @ random_unitary(rng, n - r)[:, 0]
            fam = Family(n, r, chains, q, a, c, b, phi_in, phi_out,
                         lam=float(rng.uniform(0.5, 2.0)),
                         weights=tuple(float(w) for w in rng.uniform(0.5, 2.0, 2)))
            fam.k = {"a": sr.make_kernel(a), "ac": sr.make_kernel(a + c),
                     "other": sr.make_kernel(fam.other)}
            if b is not None:
                fam.k["ab"] = sr.make_kernel(a + b)
            families.append(fam)
        return families

    def prepare(self, families, seed):
        for f in families:
            f.expected = {
                "norm_sq": checks.subspace_norm_sq(f.a, f.phi_in),
                "scale_a_ac": checks.dominating_scale(f.a, f.a + f.c, f.range_basis),
                "scale_ac_a": checks.dominating_scale(f.a + f.c, f.a, f.range_basis),
                "excl_other": checks.rank(f.a) + checks.rank(f.other) == checks.rank(f.a + f.other),
            }

    def pipelines(self, sr, families, rec: Recorder):
        for f in families:
            yield f"{f.label} queries", self._queries(sr, f, rec)
            yield f"{f.label} builds", self._builds(sr, f, rec)
            if f.chains:
                for direction, sign in (("increasing", -1.0), ("decreasing", 1.0)):
                    yield f"{f.label} chain", self._chain(sr, f, direction, sign, rec)

    def _queries(self, sr, f: Family, rec: Recorder):
        n, k, e = f.n, f.k, f.expected
        require(rec.call(n, sr.kernel_leq, k["a"], k["ac"]) is True, "kernel_leq(A, A+C) is False")
        yield
        require(rec.call(n, sr.kernel_leq, k["ac"], k["a"]) is False, "kernel_leq(A+C, A) is True")
        yield
        member = rec.call(n, sr.membership, k["a"], f.phi_in)
        require(member is not None, "membership rejects a vector of range(A)")
        checks.close(member.norm_sq, e["norm_sq"], "membership norm", tol=1e-6)
        yield
        if f.phi_out is not None:
            require(rec.call(n, sr.membership, k["a"], f.phi_out) is None,
                    "membership accepts a vector off range(A)")
            yield
            require(rec.call(n, sr.min_dominating_scale, k["a"], k["other"]) is None,
                    "min_dominating_scale(A, B) is finite with range(A) outside range(B)")
            yield
        lam = rec.call(n, sr.min_dominating_scale, k["a"], k["ac"])
        checks.close(lam, e["scale_a_ac"], "min_dominating_scale(A, A+C)", tol=1e-6)
        yield
        lam = rec.call(n, sr.min_dominating_scale, k["ac"], k["a"])
        checks.close(lam, e["scale_ac_a"], "min_dominating_scale(A+C, A)", tol=1e-6)
        yield
        require(rec.call(n, sr.mutually_excluding, k["a"], k["other"]) == e["excl_other"],
                "mutually_excluding(A, other) disagrees with the eigvalsh ranks")
        yield
        require(rec.call(n, sr.mutually_excluding, k["a"], k["ac"]) is False,
                "mutually_excluding(A, A+C) is True")
        yield
        if f.b is not None:
            require(rec.call(n, sr.ordinary_subrep_check, k["a"], k["ab"]) is True,
                    "A is not a direct summand of A+B")
            yield
        require(rec.call(n, sr.ordinary_subrep_check, k["a"], k["ac"]) is False,
                "A is a direct summand of A+C")
        yield

    def _builds(self, sr, f: Family, rec: Recorder):
        n, k = f.n, f.k
        checks.kernel(rec.call(n, sr.kernel_sum, k["a"], k["other"]), f.a + f.other, "kernel_sum")
        yield
        checks.kernel(rec.call(n, sr.kernel_scale, f.lam, k["a"]), f.lam * f.a, "kernel_scale")
        yield
        checks.kernel(rec.call(n, sr.kernel_difference, k["ac"], k["a"]), f.c, "kernel_difference")
        yield
        w1, w2 = f.weights
        total, direct = rec.call(n, sr.weighted_kernel_sum, [(w1, k["a"]), (w2, k["other"])])
        checks.kernel(total, w1 * f.a + w2 * f.other, "weighted_kernel_sum")
        require(direct == (f.b is not None), f"weighted_kernel_sum direct -> {direct}")
        yield

    def _chain(self, sr, f: Family, direction: str, sign: float, rec: Recorder):
        q = self.CHAIN_RATIO

        def gen(step):
            return sr.make_kernel((1.0 + sign * q**step) * f.a)

        checks.kernel(rec.call(f.n, sr.chain_limit, gen, direction), f.a, f"chain_limit {direction}")
        yield
