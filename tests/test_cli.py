"""Tests for workspace parsing and the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starrep import cli
from starrep.errors import IoError, ParseError, UnknownEntity, ValidationError
from starrep.workspace import parse_workspace, workspace_to_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, workspace, env=None):
    return subprocess.run(
        [sys.executable, "-m", "starrep", "--workspace", str(workspace), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_parse_bundled_z2():
    ws = parse_workspace(FIXTURES / "z2.json")
    assert list(ws.algebras) == ["z2"]
    assert len(ws.functionals) == 3
    assert {f.algebra for f in ws.functionals.values()} == {"z2"}
    assert np.allclose(ws.functionals["rho_tm1"].values, [1, -1])


def test_parse_all_bundled_fixtures():
    for name in ("z2", "z3", "s3", "m2", "m2_states", "homs"):
        parse_workspace(FIXTURES / f"{name}.json")


def test_parse_missing_file():
    with pytest.raises(IoError):
        parse_workspace(FIXTURES / "nope.json")


def test_parse_empty_file(tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text("")
    with pytest.raises(ParseError):
        parse_workspace(bad)


def test_parse_rejects_corrupted_structure_constants(tmp_path):
    doc = json.loads((FIXTURES / "z2.json").read_text())
    doc["algebras"]["z2"]["structure_constants"][0][0][0] = [2.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        parse_workspace(bad)
    assert "unit" in str(info.value) or "associativity" in str(info.value)


def test_parse_reports_field_location(tmp_path):
    doc = json.loads((FIXTURES / "z2.json").read_text())
    doc["functionals"]["rho_t0"]["values"][1] = "oops"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        parse_workspace(bad)
    assert "functionals.rho_t0.values[1]" in str(info.value)


def test_parse_unresolved_reference(tmp_path):
    doc = json.loads((FIXTURES / "z2.json").read_text())
    doc["functionals"]["rho_t0"]["algebra"] = "ghost"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        parse_workspace(bad)


def test_workspace_serialization_round_trip(tmp_path):
    ws = parse_workspace(FIXTURES / "homs.json")
    encoded = workspace_to_json(ws)
    copy = tmp_path / "copy.json"
    copy.write_text(encoded)
    ws2 = parse_workspace(copy)
    assert set(ws2.algebras) == set(ws.algebras)
    for name in ws.algebras:
        assert np.array_equal(
            ws2.algebras[name].structure_constants, ws.algebras[name].structure_constants
        )
    for name in ws.kernels:
        assert np.array_equal(ws2.kernels[name].kernel.matrix, ws.kernels[name].kernel.matrix)
    for name in ws.homomorphisms:
        assert np.array_equal(ws2.homomorphisms[name].hom.matrix, ws.homomorphisms[name].hom.matrix)


def test_unknown_entity_lookup():
    ws = parse_workspace(FIXTURES / "z2.json")
    with pytest.raises(UnknownEntity):
        ws.functional("missing")


def test_cli_gns_report():
    result = run_cli("gns", "z2", "rho_t0", workspace=FIXTURES / "z2.json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "ok"
    assert report["outputs"]["rep_dim"] == 2
    assert report["outputs"]["verification"]["passed"]
    assert report["outputs"]["verification"]["violations"]["reproduction"] < 1e-12


def test_cli_decompose_m2():
    result = run_cli("decompose", "m2", "trace", "--seed", "7", workspace=FIXTURES / "m2.json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    comps = report["outputs"]["components"]
    assert len(comps) == 2
    assert report["outputs"]["multiplicity_classes"] == [[0, 1]]


def test_cli_cone_leq_reflexive():
    result = run_cli("cone-leq", "k_t1", "k_t1", workspace=FIXTURES / "z2.json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["outputs"]["leq"] is True


def test_cli_exit_code_on_domain_error():
    result = run_cli("cone-diff", "k_t1", "k_sum", workspace=FIXTURES / "z2.json")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["status"] == "error"
    assert report["error"] == "NotDominated"


def test_cli_exit_code_on_usage_errors(tmp_path):
    result = run_cli("gns", "z2", "missing", workspace=FIXTURES / "z2.json")
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"] == "UnknownEntity"

    result = run_cli("frobnicate", "z2", workspace=FIXTURES / "z2.json")
    assert result.returncode == 2

    empty = tmp_path / "empty.json"
    empty.write_text("")
    result = run_cli("validate", "z2", workspace=empty)
    assert result.returncode == 2
    assert json.loads(result.stdout)["error"] == "ParseError"


def test_cli_tolerance_flags_are_echoed():
    result = run_cli(
        "validate", "z2", "--tol-match", "1e-6", workspace=FIXTURES / "z2.json"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["tolerances"]["match_tol"] == 1e-6


def run_in_process(capsys, *args, workspace):
    code = cli.main(["--workspace", str(workspace), *args])
    return code, json.loads(capsys.readouterr().out)


def test_cli_every_verb_runs(capsys):
    z2 = FIXTURES / "z2.json"
    homs = FIXTURES / "homs.json"
    # functional values echo as [re, im] pairs: rho_t0 = (1, 0), rho_t1 = (1, 1)
    t0 = [[1.0, 0.0], [0.0, 0.0]]
    t1 = [[1.0, 0.0], [1.0, 0.0]]
    kernel_out = {"matrix", "rank"}
    report_out = {"violations", "tolerance", "passed"}
    cases = [
        (z2, ["validate", "z2"], {"algebra": "z2"}, report_out),
        (z2, ["gns", "z2", "rho_t1"], {"algebra": "z2", "functional": t1},
         {"rep_dim", "cyclic_vector", "matrices", "verification"}),
        (z2, ["kernel", "z2", "rho_t0"], {"algebra": "z2", "functional": t0}, kernel_out),
        (z2, ["functional", "z2", "k_t1"], {"algebra": "z2", "kernel": "k_t1"}, {"values"}),
        (z2, ["cone-sum", "k_t1", "k_tm1"], {"k1": "k_t1", "k2": "k_tm1"}, kernel_out),
        (z2, ["cone-scale", "2.0", "k_t1"], {"factor": 2.0, "kernel": "k_t1"}, kernel_out),
        (z2, ["cone-leq", "k_t1", "k_sum"], {"k1": "k_t1", "k2": "k_sum"}, {"leq"}),
        (z2, ["cone-diff", "k_sum", "k_t1"], {"kernel": "k_sum", "k1": "k_t1"}, kernel_out),
        (z2, ["exclude", "k_t1", "k_tm1"], {"k1": "k_t1", "k2": "k_tm1"},
         {"mutually_excluding"}),
        (z2, ["min-scale", "k_t1", "k_sum"], {"k1": "k_t1", "k2": "k_sum"},
         {"dominating_scale"}),
        (z2, ["subrep", "k_t1", "k_sum"], {"k1": "k_t1", "kernel": "k_sum"},
         {"ordinary_subrepresentation"}),
        (z2, ["chain", "k_id", "--rule", "geometric-decreasing"],
         {"kernel": "k_id", "rule": "geometric-decreasing", "ratio": 0.5, "max_steps": 50},
         kernel_out),
        (z2, ["weighted-sum", "1", "k_t1", "1", "k_tm1"],
         {"terms": [{"weight": 1.0, "kernel": "k_t1"}, {"weight": 1.0, "kernel": "k_tm1"}]},
         kernel_out | {"is_direct"}),
        (z2, ["decompose", "z2", "rho_t0"], {"algebra": "z2", "functional": t0},
         {"components", "multiplicity_classes"}),
        (z2, ["equiv", "z2", "rho_t1", "rho_t1"], {"algebra": "z2", "f1": "rho_t1", "f2": "rho_t1"},
         {"equivalent", "unitary"}),
        (homs, ["pullback", "embed_z2_m2", "gram_trace"],
         {"homomorphism": "embed_z2_m2", "kernel": "gram_trace"}, kernel_out),
        (z2, ["audit", "z2", "rho_t1", "rho_tm1", "0.5"],
         {"algebra": "z2", "f1": "rho_t1", "f2": "rho_tm1", "factor": 0.5}, report_out),
        (z2, ["roundtrip", "z2", "rho_t0"], {"algebra": "z2", "functional": t0},
         {"recovered", "max_error"}),
    ]
    assert sorted(cmd[0] for _, cmd, _, _ in cases) == sorted(cli.VERBS)
    reports = {}
    for fixture, cmd, inputs, outputs in cases:
        code, report = run_in_process(capsys, *cmd, workspace=fixture)
        assert code == 0, (cmd, report)
        assert report["status"] == "ok"
        assert report["verb"] == cmd[0]
        assert report["inputs"] == inputs, cmd
        assert set(report["outputs"]) == outputs, cmd
        reports[cmd[0]] = report
    # spot checks on a few outputs
    assert reports["roundtrip"]["outputs"]["max_error"] < 1e-8
    assert reports["min-scale"]["outputs"]["dominating_scale"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "cmd,error,detail",
    [
        # the algebra is looked up before the kernel checked against it ...
        (["functional", "nope", "k_t1"], "UnknownEntity", "no algebra named 'nope'"),
        # ... but a functional before the algebra it is checked against
        (["gns", "nope", "rho_t0"], "ValidationError",
         "functional 'rho_t0' lives on 'z2', not 'nope'"),
    ],
)
def test_cli_reports_the_first_failed_lookup(capsys, cmd, error, detail):
    code, report = run_in_process(capsys, *cmd, workspace=FIXTURES / "z2.json")
    assert code == 2
    assert (report["error"], report["detail"]) == (error, detail)


@pytest.mark.parametrize(
    "cmd,detail",
    [
        (["--tol-match", "-1", "validate", "z2"], "match_tol must be nonnegative"),
        (["validate", "z2", "--tol-rank=-1e-3"], "rel_rank_tol must be nonnegative"),
        (["weighted-sum", "x", "k_t1"], "bad weight 'x'"),
        (["weighted-sum", "1", "k_t1", "1"],
         "weighted-sum expects alternating WEIGHT KERNEL pairs"),
        (["--tol-match", "nan", "validate", "z2"], "match_tol must be nonnegative"),
        (["cone-scale", "nan", "k_t1"], "factor must be finite, got nan"),
        (["cone-scale", "inf", "k_t1"], "factor must be finite, got inf"),
        (["weighted-sum", "nan", "k_t1"], "bad weight 'nan'"),
        (["weighted-sum", "1", "k_t1", "inf", "k_t1"], "bad weight 'inf'"),
        (["chain", "k_t1", "--rule", "geometric-decreasing", "--ratio", "nan"],
         "ratio must be finite, got nan"),
        (["audit", "z2", "rho_t0", "rho_t1", "nan"], "factor must be finite, got nan"),
        # numbers are read by the verb, not by argparse, which takes a token
        # that starts with "-" and is not a plain decimal for an option
        (["cone-scale", "x", "k_t1"], "bad factor 'x'"),
        (["weighted-sum", "1", "k_t1", "-inf", "k_t1"], "bad weight '-inf'"),
        (["chain", "k_t1", "--rule", "doubling", "--ratio", "-inf"],
         "ratio must be finite, got -inf"),
        (["chain", "k_t1", "--rule", "doubling", "--ratio", "x"], "bad ratio 'x'"),
        (["chain", "k_t1", "--rule", "doubling", "--max-steps", "x"], "bad max_steps 'x'"),
        # chain_limit's own ValueError, not a chain that fails to converge
        (["chain", "k_id", "--rule", "constant", "--max-steps", "1"],
         "max_steps must be at least 2, got 1"),
        (["chain", "k_id", "--rule", "constant", "--max-steps", "0"],
         "max_steps must be at least 2, got 0"),
        (["chain", "k_id", "--rule", "constant", "--max-steps", "-3"],
         "max_steps must be at least 2, got -3"),
    ],
    ids=["negative-tol-match", "negative-tol-rank", "bad-weight", "odd-terms", "nan-tol-match",
         "nan-factor", "inf-factor", "nan-weight", "inf-weight", "nan-ratio", "nan-audit-factor",
         "bad-factor", "minus-inf-weight", "minus-inf-ratio", "bad-ratio", "bad-max-steps",
         "one-max-step", "zero-max-steps", "negative-max-steps"],
)
def test_cli_bad_arguments_are_typed_errors(capsys, cmd, detail):
    code, report = run_in_process(capsys, *cmd, workspace=FIXTURES / "z2.json")
    assert code == 2
    assert report["status"] == "error"
    assert (report["error"], report["detail"]) == ("BadArgument", detail)


@pytest.mark.parametrize(
    "fixture,keys,value,detail",
    [
        ("z2", ("algebras",), [1], "algebras: expected an object"),
        ("z2", ("kernels",), [1, 2], "kernels: expected an object"),
        ("homs", ("homomorphisms",), [1], "homomorphisms: expected an object"),
        ("z2", ("functionals",), "x", "functionals: expected an object"),
        ("z2", ("functionals", "rho_t0", "algebra"), [1],
         "functionals.rho_t0.algebra: expected an algebra name"),
        ("homs", ("homomorphisms", "flip_z2", "source"), [1],
         "homomorphisms.flip_z2.source: expected an algebra name"),
        ("z2", ("algebras", "z2", "labels"), 5, "algebras.z2.labels: expected an array of strings"),
        ("z2", ("algebras", "z2", "labels"), "ab",
         "algebras.z2.labels: expected an array of strings"),
    ],
    ids=["algebras-array", "kernels-array", "homomorphisms-array", "functionals-string",
         "algebra-reference-array", "source-reference-array", "labels-number", "labels-string"],
)
def test_cli_malformed_sections_are_parse_errors(tmp_path, capsys, fixture, keys, value, detail):
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run_in_process(capsys, "validate", "z2", workspace=path)
    assert code == 2
    assert (report["status"], report["error"], report["detail"]) == ("error", "ParseError", detail)


@pytest.mark.parametrize("cmd", [["validate", "z2"], ["cone-sum", "k_t1", "k_t1"]],
                         ids=["validate", "cone-sum"])
def test_cli_misspelt_section_is_a_parse_error(tmp_path, capsys, cmd):
    # a misspelt "kernels" does not load as a workspace without kernels
    doc = json.loads((FIXTURES / "z2.json").read_text())
    doc["kernals"] = doc.pop("kernels")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run_in_process(capsys, *cmd, workspace=path)
    assert code == 2
    assert (report["error"], report["detail"]) == (
        "ParseError",
        f"{path}: unknown section 'kernals'; the sections are algebras, functionals, kernels, "
        "homomorphisms",
    )


@pytest.mark.parametrize(
    "cmd,error,detail",
    [
        (["weighted-sum", "-1e-3", "k_t1"], "NegativeWeight",
         "weights must be nonnegative, got -0.001"),
        (["weighted-sum", "1", "k_t1", "-1E3", "k_t1"], "NegativeWeight",
         "weights must be nonnegative, got -1000.0"),
        (["cone-scale", "-1e-3", "k_t1"], "NegativeScalar",
         "scale factor must be nonnegative, got -0.001"),
    ],
    ids=["exponent-weight", "second-weight", "exponent-factor"],
)
def test_cli_negative_numbers_reach_the_verb(capsys, cmd, error, detail):
    code, report = run_in_process(capsys, *cmd, workspace=FIXTURES / "z2.json")
    assert code == 1
    assert (report["error"], report["detail"]) == (error, detail)


def test_cli_overflow_is_a_typed_error(tmp_path):
    # big = 1e300·I and huge = 1e308·I are finite PSD kernels, and load
    doc = json.loads((FIXTURES / "z2.json").read_text())
    for name, size in (("big", 1e300), ("huge", 1e308)):
        doc["kernels"][name] = {
            "algebra": "z2", "matrix": [[[size, 0.0], [0.0, 0.0]], [[0.0, 0.0], [size, 0.0]]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for cmd in (["cone-scale", "1e10", "big"], ["weighted-sum", "1e10", "big"]):
        result = run_cli(*cmd, workspace=path)
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"] == "NonFiniteScalar"
        assert result.stderr == f"error: NonFiniteScalar: {json.loads(result.stdout)['detail']}\n"
    result = run_cli("cone-scale", "1", "huge", workspace=path)
    assert result.returncode == 0 and result.stderr == ""
    assert json.loads(result.stdout)["outputs"]["matrix"][0][0] == [1e308, 0.0]
    for cmd in (["cone-sum", "huge", "huge"], ["exclude", "huge", "huge"]):
        result = run_cli(*cmd, workspace=path)
        assert result.returncode == 1
        assert json.loads(result.stdout)["error"] == "NonFiniteScalar"
        assert result.stderr == "error: NonFiniteScalar: the kernel sum overflows\n"


def test_cli_overflowing_difference_is_a_typed_error(tmp_path):
    # --tol-psd 1 loads the indefinite a = diag(1e308, -1e308) and b = -a
    doc = json.loads((FIXTURES / "z2.json").read_text())
    for name, sign in (("a", 1.0), ("b", -1.0)):
        doc["kernels"][name] = {"algebra": "z2", "matrix": [
            [[sign * 1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-sign * 1e308, 0.0]]]}
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(doc))
    result = run_cli("--tol-psd", "1", "cone-diff", "a", "b", workspace=path)
    assert result.returncode == 1
    assert json.loads(result.stdout)["error"] == "NonFiniteScalar"
    assert result.stderr == "error: NonFiniteScalar: the kernel difference overflows\n"


def test_cli_refuses_a_workspace_with_an_overflowing_eigenvalue(tmp_path):
    # P and M are finite and PSD, but each has the eigenvalue 2e308
    doc = json.loads((FIXTURES / "z2.json").read_text())
    for name, sign in (("p", 1.0), ("m", -1.0)):
        doc["kernels"][name] = {"algebra": "z2", "matrix": [
            [[1e308, 0.0], [sign * 1e308, 0.0]], [[sign * 1e308, 0.0], [1e308, 0.0]]]}
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(doc))
    for cmd in (["cone-scale", "1", "p"], ["cone-leq", "p", "m"], ["subrep", "p", "m"],
                ["cone-diff", "p", "m"]):
        result = run_cli(*cmd, workspace=path)
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"] == "ValidationError"
        assert "eigenvalue lies beyond the float range" in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr


def test_cli_reports_are_byte_identical():
    commands = [
        ("gns", "z2", "rho_t0"),
        ("decompose", "z2", "rho_t0", "--seed", "3"),
        ("kernel", "z2", "rho_t1"),
        ("exclude", "k_t1", "k_tm1"),
    ]
    for cmd in commands:
        first = run_cli(*cmd, workspace=FIXTURES / "z2.json")
        second = run_cli(*cmd, workspace=FIXTURES / "z2.json")
        assert first.returncode == 0
        assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "fixture,cmd",
    [("s3", ("gns", "s3", "std_character")), ("m2", ("decompose", "m2", "trace"))],
)
def test_reports_do_not_depend_on_the_blas_thread_count(fixture, cmd):
    # both have tied eigenvalues, where the eigenspace basis is LAPACK's
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        result = run_cli(*cmd, workspace=FIXTURES / f"{fixture}.json", env=env)
        assert result.returncode == 0
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_validate_runs_the_algebra_checks_once(capsys, monkeypatch):
    # the verb prints the report the algebra passed when the workspace loaded
    import starrep.algebra
    import starrep.workspace

    calls = []
    check = starrep.algebra.validate_algebra

    def counted(algebra, pol):
        calls.append(algebra.dim)
        return check(algebra, pol)

    for module in (starrep.algebra, starrep.workspace, cli):
        monkeypatch.setattr(module, "validate_algebra", counted, raising=False)
    code, report = run_in_process(capsys, "validate", "s3", "--tol-match", "1e-6",
                                  workspace=FIXTURES / "s3.json")
    assert code == 0 and calls == [6]
    s3 = parse_workspace(FIXTURES / "s3.json").algebras["s3"]
    from starrep import TolerancePolicy
    assert report["outputs"] == check(s3, TolerancePolicy(match_tol=1e-6)).as_dict()


def test_not_semisimple_exits_with_its_own_status(tmp_path, capsys):
    # C[eps]/eps^2, eps^* = eps: loads and validates, has GNS representations,
    # but no Wedderburn blocks
    c = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
         [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    doc = {
        "algebras": {"dual": {
            "structure_constants": c,
            "involution": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "unit": [[1.0, 0.0], [0.0, 0.0]],
        }},
        "functionals": {"point": {"algebra": "dual", "values": [[1.0, 0.0], [0.0, 0.0]]}},
    }
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(doc))
    code, report = run_in_process(capsys, "validate", "dual", workspace=path)
    assert code == 0 and report["outputs"]["passed"] is True
    code, report = run_in_process(capsys, "gns", "dual", "point", workspace=path)
    assert code == 0 and report["outputs"]["rep_dim"] == 1
    code, report = run_in_process(capsys, "decompose", "dual", "point", workspace=path)
    assert code == 3
    assert (report["status"], report["error"]) == ("error", "NotSemisimple")


def test_byte_comparison_covers_every_verb():
    listing = subprocess.run(
        [sys.executable, "tools/bytes.py", ".", ".", "--list"],
        cwd=FIXTURES.parent, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    verbs = set()
    for line in listing:
        tokens = iter(line.split())
        for token in tokens:
            if not token.startswith("-"):
                verbs.add(token)
                break
            if "=" not in token:
                next(tokens)  # the option's value
    assert set(cli.VERBS) <= verbs
    for scale in ("1e-12", "1e+09"):
        assert any(f"m2_kernels_{scale}.json cone-leq" in line for line in listing)
