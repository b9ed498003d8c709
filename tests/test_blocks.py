"""The Wedderburn block data and what is read off it, in scrambled bases too.

``decompose``, ``is_extremal``, ``commutant``, ``is_irreducible`` and
``representations_equivalent`` answer from the algebra's block data.  Their
answers must not depend on the basis the algebra is written in: a random
unitary change of basis keeps every dimension, class and verdict.  An
algebra without a faithful trace has no block data; it is still a valid
*-algebra for every Gram-form operation.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starrep import (
    FiniteStarAlgebra,
    block_data,
    build_matrix_algebra,
    commutant,
    decompose,
    direct_sum_algebra,
    functional_to_kernel,
    gns_construct,
    is_extremal,
    is_irreducible,
    is_positive,
    kernel_to_rep,
    representations_equivalent,
    validate_algebra,
    verify_star_rep,
)
from starrep.errors import NoConvergence, NotSemisimple
from starrep.numerics import TolerancePolicy
from starrep.workspace import parse_workspace

from conftest import (
    _blocks,
    change_basis,
    gram_represent_oracle,
    random_algebra,
    random_positive_functional,
    random_unitary,
    s3_algebra,
    s4_algebra,
)


def dual_numbers() -> FiniteStarAlgebra:
    """C[eps]/eps^2 with eps^* = eps: a *-algebra whose radical is C eps."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    return FiniteStarAlgebra(c, np.eye(2), np.array([1.0, 0.0]))


def characters(rep) -> np.ndarray:
    return np.trace(rep.matrices, axis1=1, axis2=2)


def test_block_sizes_of_the_builders():
    assert sorted(block_data(s4_algebra()).sizes) == [1, 1, 2, 3, 3]
    assert block_data(build_matrix_algebra(4)).sizes == (4,)
    both = direct_sum_algebra(build_matrix_algebra(3), s3_algebra())
    assert sorted(block_data(both).sizes) == [1, 1, 2, 3]


def test_fixtures_and_builder_blocks_are_semisimple():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    algebras = [make() for make, _, _ in _blocks()]
    for path in sorted(fixtures.glob("*.json")):
        algebras.extend(parse_workspace(path).algebras.values())
    for a in algebras:
        assert sum(k * k for k in block_data(a).sizes) == a.dim


def test_matrix_units_multiply_as_matrix_units():
    a = direct_sum_algebra(build_matrix_algebra(2), s3_algebra())
    data = block_data(a)
    units = [data.units[:, s].T.reshape(k, k, a.dim) for s, k in zip(data.slices, data.sizes)]
    for j, ej in enumerate(units):
        for l, el in enumerate(units):
            for p in range(data.sizes[j]):
                for q in range(data.sizes[j]):
                    for r in range(data.sizes[l]):
                        for s in range(data.sizes[l]):
                            want = ej[p, s] if (j, q) == (l, r) else 0.0
                            assert np.allclose(a.multiply(ej[p, q], el[r, s]), want, atol=1e-12)
            for p in range(data.sizes[j]):
                for q in range(data.sizes[j]):
                    assert np.allclose(a.involute(ej[p, q]), ej[q, p], atol=1e-12)


def test_dual_numbers_are_valid_but_not_semisimple():
    dual = dual_numbers()
    assert validate_algebra(dual).passed
    # the Gram-form operations work: rho(a + b eps) = a is a positive functional
    rep = gns_construct(dual, [1.0, 0.0])
    assert rep.rep_dim == 1 and verify_star_rep(rep).passed
    assert is_positive(dual, [1.0, 0.0]) == (True, 1)
    for call in (
        lambda: block_data(dual),
        lambda: decompose(dual, [1.0, 0.0]),
        lambda: is_extremal(dual, [1.0, 0.0]),
        lambda: commutant(rep),
        lambda: is_irreducible(rep),
        lambda: representations_equivalent(rep, rep),
    ):
        with pytest.raises(NotSemisimple, match="degenerate"):
            call()


def test_a_failed_build_is_kept(monkeypatch):
    # the build fails once per algebra and policy; later calls raise the
    # kept error again without repeating its eigensolves
    import starrep.gns

    builds = []
    build = starrep.gns._build_block_data

    def counted(algebra, pol):
        builds.append(pol)
        return build(algebra, pol)

    monkeypatch.setattr(starrep.gns, "_build_block_data", counted)
    dual = dual_numbers()
    reps = [gns_construct(dual, [1.0, 0.0]) for _ in range(3)]
    assert all(verify_star_rep(rep).passed for rep in reps)
    for call in (lambda: block_data(dual), lambda: decompose(dual, [1.0, 0.0])):
        with pytest.raises(NotSemisimple, match="degenerate"):
            call()
    m2, exact = build_matrix_algebra(2), TolerancePolicy(match_tol=0.0)
    for _ in range(2):
        with pytest.raises(NoConvergence, match="miss the algebra"):
            block_data(m2, exact)
    assert len(builds) == 2


@pytest.mark.parametrize("match_tol", [0.0, 0.5])
@pytest.mark.parametrize("name", ["M2", "M3", "S3"])
def test_a_policy_that_cannot_resolve_the_blocks_keeps_the_gram_path(name, match_tol):
    # at match_tol = 0 the blocks cannot pass their own check, and at 0.5
    # the eigenspaces of the generic element merge: block_data raises
    # NoConvergence, and gns_construct (kernel_to_rep through it) and
    # verify_star_rep fall back to the Gram form and the orbit over the basis
    a = {"M2": lambda: build_matrix_algebra(2), "M3": lambda: build_matrix_algebra(3),
         "S3": s3_algebra}[name]()
    pol = TolerancePolicy(match_tol=match_tol)
    rho = a.unit.conj() / a.dim if name != "S3" else np.eye(6)[0]
    with pytest.raises(NoConvergence):
        block_data(a, pol)
    rep = gns_construct(a, rho, pol)
    mats, xi, q = gram_represent_oracle(a, rho, pol)
    assert rep.matrices.tobytes() == mats.tobytes()
    assert rep.cyclic_vector.tobytes() == xi.tobytes()
    assert rep.embedding.tobytes() == q.tobytes()
    from_kernel = kernel_to_rep(a, functional_to_kernel(a, rho, pol), pol)
    assert np.array_equal(from_kernel.matrices, rep.matrices)
    for r in (rep, from_kernel, gns_construct(a, rho)):
        report = verify_star_rep(r, pol)
        assert report.tolerance == match_tol
        assert report.violations["cyclicity"] == 0.0
        assert report.max_violation < 1e-12
        assert report.passed == (match_tol > 0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_answers_do_not_depend_on_the_basis(seed):
    rng = np.random.default_rng(seed)
    a, _ = random_algebra(rng, max_dim=12)
    rho = random_positive_functional(a, rng)
    if not np.any(np.abs(rho) > 1e-9):
        return
    s = random_unitary(rng, a.dim)
    scrambled, rho_s = change_basis(a, s), s.T @ rho
    assert validate_algebra(scrambled).passed

    dec, dec_s = decompose(a, rho), decompose(scrambled, rho_s)

    def shape(d):
        return (sorted(c.representation.rep_dim for c in d.components),
                sorted(len(c) for c in d.multiplicity_classes))

    assert shape(dec_s) == shape(dec)
    assert commutant(gns_construct(scrambled, rho_s))[1] == commutant(gns_construct(a, rho))[1]
    rebuilt = sum(c.weight * c.functional for c in dec_s.components)
    assert np.max(np.abs(rebuilt - rho_s)) <= 1e-8
    comps = dec_s.components
    for c in comps:
        assert is_extremal(scrambled, c.functional)
    for i, c1 in enumerate(comps):
        for c2 in comps[i:]:
            same = (c1.representation.rep_dim == c2.representation.rep_dim
                    and np.allclose(characters(c1.representation),
                                    characters(c2.representation), atol=1e-6))
            assert representations_equivalent(c1.representation, c2.representation) == same


@pytest.mark.parametrize(
    "make,rho,dims,classes",
    [
        (s4_algebra, np.eye(24)[0], [1, 1, 2, 2] + [3] * 6, [1, 1, 2, 3, 3]),
        (lambda: build_matrix_algebra(5), np.diag([3.0, 2, 1, 0, 0]).ravel() / 6,
         [5, 5, 5], [3]),
    ],
    ids=["S4-delta", "M5-rank3"],
)
def test_decompose_in_a_scrambled_basis(make, rho, dims, classes):
    a = make()
    s = random_unitary(np.random.default_rng(38), a.dim)
    scrambled = change_basis(a, s)
    dec = decompose(scrambled, s.T @ rho)
    assert sorted(c.representation.rep_dim for c in dec.components) == dims
    assert sorted(len(c) for c in dec.multiplicity_classes) == classes
    assert sorted(block_data(scrambled).sizes) == sorted(block_data(a).sizes)


def test_faithful_commutant_at_n_64():
    # M_8 with a faithful state: the GNS space is 8 copies of C^8, so the
    # commutant is M_8 again; the d^2 system had 4096 unknowns here
    m8 = build_matrix_algebra(8)
    weights = np.arange(1.0, 9.0) / 36
    rep = gns_construct(m8, np.diag(weights).ravel())
    basis, dim = commutant(rep)
    assert dim == 64 and basis.shape == (64, 64, 64)
    x = np.random.default_rng(39).standard_normal(64)
    pi_x = np.tensordot(x, rep.matrices, axes=1)
    assert np.max(np.abs(basis @ pi_x - pi_x @ basis)) < 1e-10
    rows = basis.reshape(64, -1)
    assert np.max(np.abs(rows @ rows.conj().T - np.eye(64))) < 1e-10
