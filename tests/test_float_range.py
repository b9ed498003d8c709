"""Functionals, kernels and products near the float range: a finite answer or a typed error.

The functional -> kernel -> representation maps are cone morphisms, so a
sum, a multiple or a product must behave alike in all three pictures: where
the result is finite the operation succeeds, and where it overflows it
raises ``NonFiniteScalar``.  Tier 1 turns numpy's overflow warnings into
errors (``filterwarnings = error``), so an untyped overflow fails here too.
Each case runs on M_2 in the matrix-unit basis and in a scrambled one.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from starrep import (
    build_matrix_algebra,
    cone_morphism_audit,
    decompose,
    gns_construct,
    hilbert_bound,
    is_extremal,
    make_kernel,
    pullback,
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
