"""Functionals, kernels and products near the float range: a finite answer or a typed error.

The functional -> kernel -> representation maps are cone morphisms, so a
sum, a multiple or a product must behave alike in all three pictures: where
the result is finite the operation succeeds, and where it overflows it
raises ``NonFiniteScalar``.  Tier 1 turns numpy's overflow warnings into
errors (``filterwarnings = error``), so an untyped overflow fails here too.
Most cases run on M_2 in the matrix-unit basis and in a scrambled one; the
Gram matrix and the densities overflow in the bases 2·E_pq and E_pq/2.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from starrep import (
    build_matrix_algebra,
    cone_morphism_audit,
    decompose,
    functional_to_kernel,
    gns_construct,
    hilbert_bound,
    intertwiner,
    is_extremal,
    is_positive,
    make_kernel,
    min_dominating_scale,
    pullback,
    rep_to_kernel,
    verify_star_rep,
)
from starrep import cli
from starrep.errors import NonFiniteScalar
from starrep.numerics import _overflow_checked
from starrep.workspace import parse_workspace

from conftest import change_basis, random_unitary

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BIG = 1e308
TRACE = np.array([1.0, 0.0, 0.0, 1.0])  # tr on M_2: tr(E_pq) = delta_pq
VECTOR = np.array([1.0, 0.0, 0.0, 0.0])  # x -> x_11


def m2_in(basis: str, *functionals):
    """M_2 and the functionals given in matrix-unit coordinates, in the named basis."""
    algebra = build_matrix_algebra(2)
    if basis == "units":
        return (algebra, *functionals)
    s = random_unitary(np.random.default_rng(2007), 4)
    return (change_basis(algebra, s), *(s.T @ f for f in functionals))


BASES = pytest.mark.parametrize("basis", ["units", "scrambled"])


def test_an_overflow_in_the_helper_is_a_typed_error():
    big = np.array([BIG, -BIG])
    with pytest.raises(NonFiniteScalar, match="^it overflows$"):
        _overflow_checked(lambda: 2.0 * big, "it overflows")
    assert np.array_equal(_overflow_checked(lambda: big / 2.0, "it overflows"), big / 2.0)


@BASES
def test_decompose_and_extremality_at_1e308(basis):
    algebra, rho, vector = m2_in(basis, BIG * TRACE, BIG * VECTOR)
    dec = decompose(algebra, rho)
    assert [c.representation.rep_dim for c in dec.components] == [2, 2]
    assert np.allclose([c.weight for c in dec.components], BIG, rtol=1e-12, atol=0)
    rebuilt = sum(c.weight * c.functional for c in dec.components)
    assert np.max(np.abs(rebuilt - rho)) <= 1e-12 * BIG
    assert not is_extremal(algebra, rho)
    assert is_extremal(algebra, vector)
    assert verify_star_rep(gns_construct(algebra, rho)).passed


def weights(algebra, rho) -> list[float]:
    return [c.weight for c in decompose(algebra, rho).components]


def test_an_overflowing_gram_matrix_is_a_typed_error():
    # In the basis 2 E_pq, rho = 1.2e308 (1, 0, 0, 1), that is 0.6e308 tr,
    # has Gram entries rho(e_i^* e_j) = 2.4e308 and finite densities 0.6e308
    algebra = change_basis(build_matrix_algebra(2), 2.0 * np.eye(4))
    rho = 1.2e308 * TRACE
    for check in (functional_to_kernel, is_positive):
        with pytest.raises(NonFiniteScalar, match="^the Gram matrix overflows$"):
            check(algebra, rho)
    assert np.allclose(weights(algebra, rho), 0.6e308, rtol=1e-12, atol=0)
    assert verify_star_rep(gns_construct(algebra, rho)).passed
    assert is_positive(algebra, rho / 2) == (True, 4)


def test_overflowing_densities_are_a_typed_error():
    # In the basis E_pq / 2, rho = 1e308 (1, 0, 0, 1), that is 2e308 tr, has
    # densities D = 2e308 I and finite Gram entries 0.5e308
    algebra = change_basis(build_matrix_algebra(2), 0.5 * np.eye(4))
    rho = BIG * TRACE
    for check in (decompose, is_extremal, gns_construct):
        with pytest.raises(NonFiniteScalar, match="^the densities of the functional overflow$"):
            check(algebra, rho)
    assert is_positive(algebra, rho) == (True, 4)
    assert np.allclose(weights(algebra, rho / 4), 0.5e308, rtol=1e-12, atol=0)


@BASES
def test_the_audit_at_1e308(basis):
    algebra, rho, half = m2_in(basis, BIG * TRACE, BIG * TRACE / 2)
    assert cone_morphism_audit(algebra, half, half, 0.5).passed
    with pytest.raises(NonFiniteScalar, match="^the functional sum overflows$"):
        cone_morphism_audit(algebra, rho, rho, 0.5)
    with pytest.raises(NonFiniteScalar, match="^scaling by 10.0 overflows the functional$"):
        cone_morphism_audit(algebra, half / 2, half / 2, 10.0)


def test_the_audit_types_an_overflowing_difference():
    # In the basis t (E_11 - E_22), E_12, E_21, (E_11 + E_22) / 2 with t = 0.6,
    # the vector states c x_11 and c x_22 with c = 1.7e308, their sum and
    # their Gram matrices stay finite, but their difference at the first
    # basis element is 2 t c = 2.04e308.
    t, c = 0.6, 1.7e308
    s = np.array([[t, 0, 0, 0.5], [0, 1, 0, 0], [0, 0, 1, 0], [-t, 0, 0, 0.5]])
    algebra = change_basis(build_matrix_algebra(2), s)
    rho1, rho2 = s.T @ (c * VECTOR), s.T @ (c * np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(NonFiniteScalar, match="^the functional difference overflows$"):
        cone_morphism_audit(algebra, rho1, rho2, 0.5)


@BASES
def test_the_hilbert_bound_at_1e308(basis):
    algebra, rho, half = m2_in(basis, BIG * TRACE, BIG * TRACE / 2)
    assert hilbert_bound(algebra, half) == pytest.approx(BIG, rel=1e-12)
    with pytest.raises(NonFiniteScalar, match=r"^rho\(e\) lies beyond the float range$"):
        hilbert_bound(algebra, rho)


def test_an_overflowing_pullback_is_a_typed_error():
    ws = parse_workspace(FIXTURES / "homs.json")
    hom = ws.homomorphism("embed_z2_m2").hom
    trace_kernel = ws.kernel("gram_trace").kernel
    assert pullback(hom, make_kernel(trace_kernel.matrix * 1e300)).rank == 2
    with pytest.raises(NonFiniteScalar, match="^the pulled-back kernel overflows$"):
        pullback(hom, make_kernel(trace_kernel.matrix * BIG))


def test_the_cli_at_1e308(tmp_path, capsys):
    doc = json.loads((FIXTURES / "m2.json").read_text())
    doc["functionals"]["big"] = {"algebra": "m2", "values": [[BIG, 0.0], [0.0, 0.0],
                                                             [0.0, 0.0], [BIG, 0.0]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))

    def run(*args):
        code = cli.main(["--workspace", str(path), *args])
        return code, json.loads(capsys.readouterr().out)

    code, report = run("decompose", "m2", "big")
    assert code == 0
    weights = [c["weight"] for c in report["outputs"]["components"]]
    assert np.allclose(weights, BIG, rtol=1e-12, atol=0)
    code, report = run("audit", "m2", "big", "big", "0.5")
    assert code == 1
    assert (report["error"], report["detail"]) == ("NonFiniteScalar", "the functional sum overflows")


def test_built_products_that_overflow_are_typed_errors(tmp_path, capsys):
    # In the basis 2 E_pq, rho = 1.2e308 (1, 0, 0, 1) has finite densities,
    # so its representation is built; T^H T of its orbit, the kernel
    # roundtrip recovers, and T T^H, which equiv inverts, are past the range
    doc = json.loads((FIXTURES / "m2.json").read_text())
    m2 = doc["algebras"]["m2"]  # c' = 2 c and e' = e / 2; the involution stays
    m2["structure_constants"] = (2.0 * np.array(m2["structure_constants"])).tolist()
    m2["unit"] = (0.5 * np.array(m2["unit"])).tolist()
    doc["functionals"] = {"big": {"algebra": "m2", "values": [[1.2e308, 0.0], [0.0, 0.0],
                                                              [0.0, 0.0], [1.2e308, 0.0]]}}
    doc["kernels"] = {}
    path = tmp_path / "m2_basis_2.json"
    path.write_text(json.dumps(doc))
    algebra = change_basis(build_matrix_algebra(2), 2.0 * np.eye(4))
    rep = gns_construct(algebra, 1.2e308 * TRACE)
    with pytest.raises(NonFiniteScalar, match="^the representation's kernel overflows$"):
        rep_to_kernel(rep)
    with pytest.raises(NonFiniteScalar, match="^the orbit's Gram matrix overflows$"):
        intertwiner(rep, rep)
    for args, detail in ((("roundtrip", "m2", "big"), "the representation's kernel overflows"),
                         (("equiv", "m2", "big", "big"), "the orbit's Gram matrix overflows")):
        code = cli.main(["--workspace", str(path), *args])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert (report["error"], report["detail"]) == ("NonFiniteScalar", detail)


def test_an_overflowing_compression_is_a_typed_error():
    # the least lam with 1e308 I <= lam 1e-10 I is 1e318, past the range
    big, small = make_kernel(BIG * np.eye(2)), make_kernel(1e-10 * np.eye(2))
    assert min_dominating_scale(big, make_kernel(1e10 * np.eye(2))) == pytest.approx(1e298)
    with pytest.raises(NonFiniteScalar, match="^the compression overflows$"):
        min_dominating_scale(big, small)
