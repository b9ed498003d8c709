"""Tests of the benchmark itself: ``python -m pytest bench -q``.

The smoke runs put every workload through its smallest inputs with all
checks on; the other tests show that the checks reject a wrong answer and
that the traced counts repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import cliwork
import run
import spans
import workloads
from algebras import by_name

sr = run.import_starrep()
from starrep import cli as sr_cli, workspace as sr_workspace  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_passes(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", trace],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 100


def test_traced_cli_run_reports_every_layer():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(spans.metric_units())
    for name in ("workspace.parse_workspace.calls", "workspace.parse_workspace.bytes",
                 "cli.run_command.calls", "algebra.validate_algebra.calls"):
        assert metrics[name]["value"] > 0, name


def test_benchmark_json_lists_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    rec = workloads.Recorder()
    rec.samples = [(4, 0.001), (16, 0.002)]
    rec.probes = [0.001]
    assert {m["name"] for m in doc["end_to_end"]} == set(run.end_to_end(rec, 0.1, 0.1, False))
    units = spans.metric_units()
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == units


def test_checks_reject_wrong_answers():
    rng = np.random.default_rng(0)
    oracle = by_name("M2+S3")
    algebra = oracle.to_starrep(sr)
    state = oracle.state("trace", rng)
    rep = sr.gns_construct(algebra, state.values)
    checks.representation(oracle, state, rep, rng)
    broken = sr.GNSRepresentation(algebra, rep.matrices * 1.001, rep.cyclic_vector,
                                  rep.source_functional, rep.embedding)
    with pytest.raises(checks.CheckFailed):
        checks.representation(oracle, state, broken, rng)

    k = sr.functional_to_kernel(algebra, state.values)
    gram = oracle.gram(state.values)
    checks.kernel(k, gram, "kernel")
    with pytest.raises(checks.CheckFailed):
        checks.kernel(k, gram + 1e-6 * np.eye(oracle.dim), "kernel")

    dec = sr.decompose(algebra, state.values, seed=1)
    checks.decomposition(state, dec)
    wrong = sr.Decomposition(dec.components, (tuple(range(len(dec.components))),))
    with pytest.raises(checks.CheckFailed):
        checks.decomposition(state, wrong)


def test_cli_check_rejects_a_changed_report(tmp_path):
    path = tmp_path / "M4.json"
    facts = cliwork.write_large_workspace(sr, path, "M4", seed=3)
    ws = cliwork.read_workspace(path)
    for cmd in cliwork.large_commands(path, "M4", 16, facts, seed=3):
        args = sr_cli.build_parser().parse_args(["-w", str(path), *cmd.argv])
        report = sr_cli.run_command(sr_workspace.parse_workspace(str(path)), args,
                                    sr.TolerancePolicy())
        report = json.loads(json.dumps(report))
        cliwork.check_report(ws, cmd, report)
        if "matrix" in report["outputs"]:
            report["outputs"]["matrix"][0][0][0] += 1e-3
            with pytest.raises(checks.CheckFailed):
                cliwork.check_report(ws, cmd, report)


def test_traced_counts_repeat_exactly():
    wl = workloads.Cone()
    results = []
    for _ in range(2):
        tracer = spans.Tracer()
        rec, rounds, _, _ = run.run_workload(sr, wl, 5, 0.0, smoke=True, tracer=tracer)
        assert not rec.wrong
        metrics = tracer.metrics(rounds)
        for name, start, end, parent in tracer.spans:
            assert end >= start and (parent < 0 or tracer.spans[parent][1] <= start)
        results.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert results[0] == results[1]
    assert results[0]["kernels.chain_limit.steps"] > 0
    assert results[0]["numerics.hermitian_eigen.work_n3"] > 0
    assert sr.make_kernel.__module__ == "starrep.kernels" and not hasattr(sr.make_kernel, "__wrapped__")
