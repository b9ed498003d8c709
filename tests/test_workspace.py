"""Tests for the workspace array codec: the decoder's diagnostics and round trips."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from starrep.errors import ParseError, ValidationError
from starrep.workspace import encode_matrix, parse_workspace, workspace_to_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def z2_doc() -> dict:
    return json.loads((FIXTURES / "z2.json").read_text())


def parse_error(tmp_path, doc_or_text) -> str:
    path = tmp_path / "bad.json"
    path.write_text(doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text))
    with pytest.raises(ParseError) as info:
        parse_workspace(path)
    return str(info.value)


def test_a_kernel_near_the_float_limit_loads(tmp_path):
    # the hermitization (A + A^H) / 2 of 1e308·I would overflow to inf
    doc = z2_doc()
    doc["kernels"]["huge"] = {
        "algebra": "z2", "matrix": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    huge = parse_workspace(path).kernel("huge").kernel
    assert np.array_equal(huge.matrix, 1e308 * np.eye(2))
    assert np.array_equal(huge.values, [1e308, 1e308]) and huge.rank == 2


def test_a_kernel_whose_top_eigenvalue_overflows_does_not_load(tmp_path):
    # finite entries, PSD, rank 1, but its eigenvalue 2e308 is not a float
    doc = z2_doc()
    doc["kernels"]["p"] = {"algebra": "z2", "matrix": [[[1e308, 0.0]] * 2] * 2}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="eigenvalue lies beyond the float range"):
        parse_workspace(path)


def set_at(doc: dict, keys: tuple, value) -> dict:
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


SC = ("algebras", "z2", "structure_constants")
INV = ("algebras", "z2", "involution")
UNIT = ("algebras", "z2", "unit")
RHO = ("functionals", "rho_t0", "values")
K = ("kernels", "k_t1", "matrix")

# (keys down to the replaced value, the value, the ParseError text)
MALFORMED = [
    (SC, None, "algebras.z2.structure_constants: expected a nonempty 3-d array"),
    (SC, [], "algebras.z2.structure_constants: expected a nonempty 3-d array"),
    ((*SC, 0), [], "algebras.z2.structure_constants[0]: expected a nonempty 2-d array"),
    ((*SC, 1), [[[0.0, 0.0], [1.0, 0.0]]], "algebras.z2.structure_constants: ragged slabs"),
    ((*SC, 1, 1), [[1.0, 0.0]], "algebras.z2.structure_constants[1]: ragged rows"),
    ((*SC, 1, 1, 0), [1.0, 0.0, 0.0],
     "algebras.z2.structure_constants[1][1][0]: expected a [re, im] pair, got [1.0, 0.0, 0.0]"),
    (INV, [[]], "algebras.z2.involution[0]: expected a nonempty array"),
    ((*INV, 0), [[1.0, 0.0]], "algebras.z2.involution: ragged rows"),
    ((*INV, 1, 1), None, "algebras.z2.involution[1][1]: expected a [re, im] pair, got None"),
    (UNIT, "e", "algebras.z2.unit: expected a nonempty array"),
    (UNIT, {"re": 1}, "algebras.z2.unit: expected a nonempty array"),
    ((*UNIT, 1), [[0.0, 0.0]], "algebras.z2.unit[1]: expected a [re, im] pair, got [[0.0, 0.0]]"),
    (RHO, [], "functionals.rho_t0.values: expected a nonempty array"),
    (RHO, 1.0, "functionals.rho_t0.values: expected a nonempty array"),
    ((*RHO, 1), "oops", "functionals.rho_t0.values[1]: expected a [re, im] pair, got 'oops'"),
    ((*RHO, 0), ["1", 0], "functionals.rho_t0.values[0]: expected a [re, im] pair, got ['1', 0]"),
    ((*RHO, 0), [1.0], "functionals.rho_t0.values[0]: expected a [re, im] pair, got [1.0]"),
    ((*RHO, 0), [None, 0], "functionals.rho_t0.values[0]: expected a [re, im] pair, got [None, 0]"),
    (K, [[1.0, 0.0], [0.0, 0.0]], "kernels.k_t1.matrix[0][0]: expected a [re, im] pair, got 1.0"),
    ((*K, 0), [[1.0, 0.0]], "kernels.k_t1.matrix: ragged rows"),
    ((*K, 1), [], "kernels.k_t1.matrix[1]: expected a nonempty array"),
    (("homomorphisms",), {"h": {"source": "z2", "target": "z2", "matrix": [[[1, 0]], "x"]}},
     "homomorphisms.h.matrix[1]: expected a nonempty array"),
    # sections and the fields other than arrays
    (("algebras",), [1], "algebras: expected an object"),
    (("kernels",), [1, 2], "kernels: expected an object"),
    (("homomorphisms",), [1], "homomorphisms: expected an object"),
    (("functionals",), "x", "functionals: expected an object"),
    (("functionals", "rho_t0", "algebra"), [1],
     "functionals.rho_t0.algebra: expected an algebra name"),
    (("homomorphisms",), {"h": {"source": [1], "target": "z2", "matrix": [[[1, 0]]]}},
     "homomorphisms.h.source: expected an algebra name"),
    (("homomorphisms",), {"h": {"source": "z2", "target": None, "matrix": [[[1, 0]]]}},
     "homomorphisms.h.target: expected an algebra name"),
    (("algebras", "z2", "labels"), 5, "algebras.z2.labels: expected an array of strings"),
    (("algebras", "z2", "labels"), "ab", "algebras.z2.labels: expected an array of strings"),
    (("algebras", "z2", "labels"), ["e", 1], "algebras.z2.labels: expected an array of strings"),
]


@pytest.mark.parametrize("keys,value,detail", MALFORMED)
def test_malformed_arrays_name_the_first_bad_field(tmp_path, keys, value, detail):
    assert parse_error(tmp_path, set_at(z2_doc(), keys, value)) == detail


@pytest.mark.parametrize(
    "keys,value,detail",
    [
        ((*RHO, 0), [float("nan"), 0.0],
         "functionals.rho_t0.values[0]: expected finite numbers, got [nan, 0.0]"),
        ((*RHO, 1), [0.0, float("-inf")],
         "functionals.rho_t0.values[1]: expected finite numbers, got [0.0, -inf]"),
        ((*K, 1, 0), [float("inf"), 0.0],
         "kernels.k_t1.matrix[1][0]: expected finite numbers, got [inf, 0.0]"),
        ((*RHO, 0), [10**400, 0],
         f"functionals.rho_t0.values[0]: expected finite numbers, got [{10**400}, 0]"),
    ],
    ids=["nan", "-inf", "inf-in-matrix", "int-10**400"],
)
def test_non_finite_numbers_are_parse_errors(tmp_path, keys, value, detail):
    assert parse_error(tmp_path, set_at(z2_doc(), keys, value)) == detail


def test_a_nan_homomorphism_entry_is_a_parse_error(tmp_path):
    # it used to load: a NaN dropped out of the law check's running maximum
    doc = json.loads((FIXTURES / "homs.json").read_text())
    doc["homomorphisms"]["embed_z2_m2"]["matrix"][0][0] = [float("nan"), 0.0]
    assert parse_error(tmp_path, doc) == (
        "homomorphisms.embed_z2_m2.matrix[0][0]: expected finite numbers, got [nan, 0.0]"
    )


@pytest.mark.parametrize(
    "literal,detail",
    [
        ("1e400", "functionals.rho_t0.values[0]: expected finite numbers, got [inf, 0.0]"),
        ("1" * 5000, "{path}: Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["float-literal-overflow", "integer-past-the-digit-limit"],
)
def test_out_of_range_literals_are_parse_errors(tmp_path, literal, detail):
    # json reads 1e400 as inf, and refuses an integer of over 4300 digits
    text = json.dumps(set_at(z2_doc(), (*RHO, 0), ["X", 0.0])).replace('"X"', literal)
    got = parse_error(tmp_path, text)
    assert got.startswith(detail.format(path=tmp_path / "bad.json"))


# JSON numbers the decoder reads: floats at the edges of the range, -0.0,
# subnormals, and integers on both sides of 2**64, which numpy types as
# int64, uint64 or object
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 2**64, -(2**64) - 1, 2**70]),
    st.integers(-(2**80), 2**80),
    st.booleans(),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(NUMBERS, NUMBERS).map(list), min_size=6, max_size=6))
def test_workspace_round_trip_is_bit_exact(tmp_path, pairs):
    doc = json.loads((FIXTURES / "s3.json").read_text())
    doc = {"algebras": doc["algebras"],
           "functionals": {"f": {"algebra": "s3", "values": pairs}}}
    first = tmp_path / "first.json"
    first.write_text(json.dumps(doc))
    ws = parse_workspace(first)
    want = np.array([complex(re, im) for re, im in pairs])
    assert ws.functionals["f"].values.tobytes() == want.tobytes()

    text = workspace_to_json(ws)
    second = tmp_path / "second.json"
    second.write_text(text)
    again = parse_workspace(second)
    assert again.functionals["f"].values.tobytes() == want.tobytes()
    for name, a in ws.algebras.items():
        b = again.algebras[name]
        for field in ("structure_constants", "involution", "unit"):
            assert getattr(b, field).tobytes() == getattr(a, field).tobytes()
    assert workspace_to_json(again) == text


def recursive_encode(m) -> list:
    """The encoder the ``tolist`` one replaced: one Python call per scalar."""
    a = np.asarray(m)
    if a.ndim == 1:
        return [[float(np.real(z)), float(np.imag(z))] for z in a]
    return [recursive_encode(row) for row in a]


SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=st.one_of(
    hnp.arrays(np.complex128, SHAPES),
    hnp.arrays(np.float64, SHAPES),
    hnp.arrays(np.int64, SHAPES),
))
def test_encoder_matches_the_recursive_encoder(a):
    # compared as JSON text, so that NaN entries compare equal
    for indent in (None, 2):
        assert json.dumps(encode_matrix(a), indent=indent) == json.dumps(
            recursive_encode(a), indent=indent
        )


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3), (2, 0, 2), (2, 2, 0)])
def test_encoder_on_empty_arrays(shape):
    a = np.zeros(shape, dtype=complex)
    assert encode_matrix(a) == recursive_encode(a)
