"""Compare the command-line reports of two source trees, byte for byte.

    python tools/bytes.py OLD_TREE NEW_TREE [--list]

Runs a fixed list of ``python -m starrep`` commands once against each
tree's ``src`` and prints every command whose stdout or exit status
differs, then a one-line summary.  The exit status is 0 when every command
matches, 1 otherwise.  ``--list`` only prints the commands.

The list is built from the workspace files in OLD_TREE's ``fixtures``
directory, so both trees read the same inputs.  It covers every verb on
every entity of every fixture it applies to (``decompose`` at seeds 0, 1
and 7), ``--output text``, a tolerance override, and the error paths:
unknown entities, entities on the wrong algebra, bad and non-finite
arguments, a ``chain --max-steps`` of 1, 0 and -3, and broken workspace
files (written to a temporary directory).  Those include arrays with ragged
rows, a string entry, a short pair, no entries, the integer 2**70 (which
loads), 10**400 and NaN, and sections and fields of the wrong JSON type:
sections that are arrays or strings, an ``algebra`` or ``source`` reference
that is an array, and ``labels`` that are a number or a string.  The commands
that name a kernel also run on copies of ``m2.json`` whose kernels are
scaled by 1e-12 and by 1e9, and the commands that name a functional on
copies whose functionals are scaled by the same factors (written there
too), where a verdict that depends on scale shows.  The same commands run
on a copy of ``m2.json`` moved to the basis of a fixed seeded random
unitary, where the arithmetic is inexact, scaled by 1e-12, 1 and 1e9.
Copies of ``z2.json`` with a kernel 1e300·I or 1e308·I exercise overflow in
the cone operations, and one with the finite PSD kernels
[[1, ±1], [±1, 1]]·1e308, whose top eigenvalue 2e308 is past the float
range, a workspace that does not load.  One with the indefinite kernels
a = diag(1e308, -1e308) and b = -a, loaded under ``--tol-psd 1``, has a
spectrum whose gaps and a kernel difference whose entries overflow.  A copy
of ``m2.json`` with the functional 1e308·tr, in the matrix-unit and the
scrambled basis, runs ``gns``, ``decompose`` and ``audit``, whose sum
overflows; a copy of ``homs.json`` with a kernel 1e308 times
``gram_trace`` runs ``pullback``, whose product overflows; and a copy of
``z2.json`` whose ``kernels`` section is misspelt ``kernals`` does not load.

The fixtures stop at n = 9, so an M_4 workspace (n = 16) is written there
too, with the trace, a faithful state with a complex density and a vector
state, and their Gram matrices as kernels.  Their Gram matrices have tied
eigenvalues: one cluster of 16, four clusters of 4, and two clusters.
``validate``, ``gns``, ``kernel``, ``functional``, ``roundtrip``,
``decompose``, ``equiv`` and ``audit`` run on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

CHAIN_RULES = ("constant", "geometric-decreasing", "geometric-increasing", "doubling")
DECOMPOSE_SEEDS = (0, 1, 7)
SCALES = (1e-12, 1e9)
SCRAMBLED_SCALES = (1e-12, 1.0, 1e9)
SCRAMBLE_SEED = 2007
M4_VERBS = ("validate", "gns", "kernel", "functional", "roundtrip", "decompose", "equiv", "audit")
WORKERS = 2


def fixture_commands(paths: list[Path]) -> list[list[str]]:
    """Every verb on every entity of each workspace it applies to, as ``-w FILE VERB ARGS``."""
    cmds: list[list[str]] = []
    for path in paths:
        ws = ["-w", str(path)]
        doc = json.loads(path.read_text(encoding="utf-8"))
        funcs = doc.get("functionals") or {}
        kerns = doc.get("kernels") or {}
        homs = doc.get("homomorphisms") or {}
        for alg in doc.get("algebras") or {}:
            cmds.append(ws + ["validate", alg])
            on_alg = [f for f, spec in funcs.items() if spec["algebra"] == alg]
            for f in on_alg:
                cmds.append(ws + ["gns", alg, f])
                cmds.append(ws + ["kernel", alg, f])
                cmds.append(ws + ["roundtrip", alg, f])
                for seed in DECOMPOSE_SEEDS:
                    cmds.append(ws + ["decompose", alg, f, "--seed", str(seed)])
            for f1 in on_alg:
                for f2 in on_alg:
                    cmds.append(ws + ["equiv", alg, f1, f2])
                    cmds.append(ws + ["audit", alg, f1, f2, "0.5"])
            for k, spec in kerns.items():
                if spec["algebra"] == alg:
                    cmds.append(ws + ["functional", alg, k])
        for k in kerns:
            cmds.append(ws + ["cone-scale", "2.5", k])
            cmds.append(ws + ["cone-scale", "0", k])
            for rule in CHAIN_RULES:
                cmds.append(ws + ["chain", k, "--rule", rule])
        for k1, s1 in kerns.items():
            for k2, s2 in kerns.items():
                if s1["algebra"] != s2["algebra"]:
                    continue
                for verb in ("cone-sum", "cone-leq", "cone-diff", "exclude", "min-scale",
                             "subrep"):
                    cmds.append(ws + [verb, k1, k2])
                cmds.append(ws + ["weighted-sum", "0.5", k1, "2", k2])
                cmds.append(ws + ["weighted-sum", "0", k1, "1", k2])
        for h, spec in homs.items():
            for k, ks in kerns.items():
                if ks["algebra"] == spec["target"]:
                    cmds.append(ws + ["pullback", h, k])
    return cmds


def _scaled(value, factor: float):
    """An encoded array (nested lists of numbers) times factor."""
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    return value * factor


def scaled_commands(source: Path, scratch: Path, section: str, key: str,
                    scales=SCALES) -> list[list[str]]:
    """The commands naming an entry of ``source``'s ``section``, with its ``key`` times scales."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    paths = []
    for factor in scales:
        copy = {**doc, section: {
            name: {**spec, key: _scaled(spec[key], factor)}
            for name, spec in doc[section].items()
        }}
        path = scratch / f"{source.stem}_{section}_{factor:g}.json"
        path.write_text(json.dumps(copy), encoding="utf-8")
        paths.append(path)
    return [cmd for cmd in fixture_commands(paths) if set(cmd) & set(doc[section])]


def _decode(value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _encode(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def scrambled_m2(source: Path, scratch: Path) -> Path:
    """A copy of an M_2 workspace in the basis e'_i = sum_j s[j, i] e_j, s a seeded random unitary.

    c' = (s (x) s) c s^-1, the involution becomes s^H S s^-T and the unit
    s^-1 e; a functional rho becomes s^T rho and a kernel H becomes s^H H s.
    """
    doc = json.loads(source.read_text(encoding="utf-8"))
    rng = np.random.default_rng(SCRAMBLE_SEED)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    s = q * (np.diag(r) / np.abs(np.diag(r)))
    s_inv = np.linalg.inv(s)
    alg = doc["algebras"]["m2"]
    c = np.einsum("ji,ml,jmp,kp->ilk", s, s, _decode(alg["structure_constants"]), s_inv)
    doc["algebras"]["m2"] = {
        **alg,
        "structure_constants": _encode(c),
        "involution": _encode(s.conj().T @ _decode(alg["involution"]) @ s_inv.T),
        "unit": _encode(s_inv @ _decode(alg["unit"])),
    }
    for spec in doc["functionals"].values():
        spec["values"] = _encode(s.T @ _decode(spec["values"]))
    for spec in doc["kernels"].values():
        spec["matrix"] = _encode(s.conj().T @ _decode(spec["matrix"]) @ s)
    path = scratch / f"{source.stem}_scrambled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def m4_commands(scratch: Path) -> list[list[str]]:
    """The functional and kernel verbs on an M_4 workspace (n = 16), written with numpy.

    M_4 is in the matrix-unit basis.  Its three states are the trace, whose
    Gram matrix I_16 is one tie cluster of 16; tr(D .) with a seeded complex
    D > 0, whose Gram matrix I_4 (x) D^T has four clusters of 4; and a
    vector state.  Each kernel is its state's Gram matrix.
    """
    m, n = 4, 16
    c, s = np.zeros((n, n, n)), np.zeros((n, n))
    for p in range(m):
        for q in range(m):
            s[p * m + q, q * m + p] = 1.0
            for r in range(m):
                c[p * m + q, q * m + r, p * m + r] = 1.0
    rng = np.random.default_rng(SCRAMBLE_SEED)
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    densities = {
        "trace": np.eye(m),
        "faithful": b @ b.conj().T + np.eye(m),
        "vector": np.outer(v, v.conj()) / np.vdot(v, v).real,
    }
    doc = {"algebras": {"m4": {
        "structure_constants": _encode(c.astype(complex)),
        "involution": _encode(s.astype(complex)),
        "unit": _encode(np.eye(m, dtype=complex).ravel()),
    }}, "functionals": {}, "kernels": {}}
    for name, density in densities.items():
        rho = density.T.ravel()  # rho(E_pq) = D[q, p]
        gram = np.einsum("ip,pjk,k->ij", s, c, rho)  # rho(e_i^* e_j)
        doc["functionals"][name] = {"algebra": "m4", "values": _encode(rho)}
        doc["kernels"][f"gram_{name}"] = {"algebra": "m4", "matrix": _encode(gram)}
    path = scratch / "m4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return [cmd for cmd in fixture_commands([path]) if cmd[2] in M4_VERBS]


def malformed_arrays(fixtures: Path, scratch: Path) -> list[list[str]]:
    """A command on each copy of a fixture with one array, section or field broken."""
    rho = ("functionals", "rho_t0", "values")
    gns = ["gns", "z2", "rho_t0"]
    validate = ["validate", "z2"]
    # (fixture, the keys down to the replaced value, the value, the command)
    cases = [
        ("z2", ("kernels", "k_t1", "matrix", 0), [[1.0, 0.0]], ["cone-scale", "2", "k_t1"]),
        ("z2", (*rho, 0), ["1", 0], gns),
        ("z2", (*rho, 0), [1.0], gns),
        ("z2", rho, [], gns),
        ("z2", (*rho, 0), [2**70, 0], gns),
        ("z2", (*rho, 0), [10**400, 0], gns),
        ("z2", (*rho, 0), [float("nan"), 0], gns),
        ("homs", ("homomorphisms", "embed_z2_m2", "matrix", 0, 0), [float("nan"), 0.0],
         ["pullback", "embed_z2_m2", "gram_trace"]),
        ("z2", ("algebras",), [1], validate),
        ("z2", ("kernels",), [1, 2], validate),
        ("homs", ("homomorphisms",), [1], validate),
        ("z2", ("functionals",), "x", validate),
        ("z2", ("functionals", "rho_t0", "algebra"), [1], validate),
        ("homs", ("homomorphisms", "flip_z2", "source"), [1], validate),
        ("z2", ("algebras", "z2", "labels"), 5, validate),
        ("z2", ("algebras", "z2", "labels"), "ab", validate),
    ]
    cmds = []
    for i, (fixture, keys, value, cmd) in enumerate(cases):
        doc = json.loads((fixtures / f"{fixture}.json").read_text(encoding="utf-8"))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = scratch / f"malformed_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cmds.append(["-w", str(path), *cmd])
    return cmds


def huge_kernels(fixtures: Path, scratch: Path) -> list[list[str]]:
    """Cone commands on copies of z2.json with a kernel 1e300·I and one 1e308·I.

    Both load; scaling or summing them can overflow.  A third copy holds
    P = [[1, 1], [1, 1]]·1e308 and M = [[1, -1], [-1, 1]]·1e308, finite and
    PSD, whose eigenvalue 2e308 overflows, so it does not load.  A fourth
    holds a = diag(1e308, -1e308) and b = -a, which load under
    ``--tol-psd 1``: the gap 2e308 in a's spectrum and the entries of b - a
    are past the float range.
    """
    cmds = []
    for name, size in (("big", 1e300), ("huge", 1e308)):
        doc = json.loads((fixtures / "z2.json").read_text(encoding="utf-8"))
        doc["kernels"][name] = {"algebra": "z2", "matrix": [
            [[size, 0.0], [0.0, 0.0]], [[0.0, 0.0], [size, 0.0]]]}
        path = scratch / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ws = ["-w", str(path)]
        cmds += [
            ws + ["cone-scale", "0", name],
            ws + ["cone-scale", "0.5", name],
            ws + ["cone-scale", "1e10", name],
            ws + ["weighted-sum", "0", name, "1", "k_t1"],
            ws + ["weighted-sum", "0.5", name, "1", "k_t1"],
            ws + ["weighted-sum", "1e10", name],
            ws + ["cone-leq", "k_t1", name],
        ]
    cmds += [ws + ["cone-sum", "huge", "huge"], ws + ["exclude", "huge", "huge"]]
    doc = json.loads((fixtures / "z2.json").read_text(encoding="utf-8"))
    for name, sign in (("p", 1.0), ("m", -1.0)):
        doc["kernels"][name] = {"algebra": "z2", "matrix": [
            [[1e308, 0.0], [sign * 1e308, 0.0]], [[sign * 1e308, 0.0], [1e308, 0.0]]]}
    path = scratch / "pm.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ws = ["-w", str(path)]
    cmds += [ws + ["cone-scale", "1", "p"], ws + ["cone-leq", "p", "m"],
             ws + ["subrep", "p", "m"], ws + ["cone-diff", "p", "m"]]
    doc = json.loads((fixtures / "z2.json").read_text(encoding="utf-8"))
    for name, sign in (("a", 1.0), ("b", -1.0)):
        doc["kernels"][name] = {"algebra": "z2", "matrix": [
            [[sign * 1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-sign * 1e308, 0.0]]]}
    path = scratch / "indefinite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ws = ["-w", str(path), "--tol-psd", "1"]
    cmds += [ws + ["cone-scale", "1", "a"], ws + ["cone-diff", "a", "b"]]
    return cmds


def float_range_commands(fixtures: Path, scratch: Path) -> list[list[str]]:
    """Commands whose sums, multiples or products reach past the float range, and a misspelt section.

    A copy of m2.json with the functional big = 1e308·tr, also moved to the
    scrambled basis (``scrambled_m2``): ``gns``, ``decompose`` and ``audit
    big trace`` work on big, and ``audit big big`` overflows in big + big.
    A copy of homs.json with the kernel huge = 1e308 times ``gram_trace``,
    whose pullback overflows.  A copy of z2.json whose ``kernels`` section
    is spelt ``kernals``, which does not load.
    """
    doc = json.loads((fixtures / "m2.json").read_text(encoding="utf-8"))
    doc["functionals"]["big"] = {"algebra": "m2", "values": _scaled(
        doc["functionals"]["trace"]["values"], 1e308)}
    big = scratch / "m2_big.json"
    big.write_text(json.dumps(doc), encoding="utf-8")
    cmds = []
    for path in (big, scrambled_m2(big, scratch)):
        ws = ["-w", str(path)]
        cmds += [ws + ["gns", "m2", "big"], ws + ["decompose", "m2", "big"],
                 ws + ["audit", "m2", "big", "big", "0.5"],
                 ws + ["audit", "m2", "big", "trace", "0.5"]]
    doc = json.loads((fixtures / "homs.json").read_text(encoding="utf-8"))
    kernels = doc["kernels"]
    kernels["huge"] = {**kernels["gram_trace"],
                       "matrix": _scaled(kernels["gram_trace"]["matrix"], 1e308)}
    path = scratch / "homs_huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cmds.append(["-w", str(path), "pullback", "embed_z2_m2", "huge"])
    doc = json.loads((fixtures / "z2.json").read_text(encoding="utf-8"))
    doc["kernals"] = doc.pop("kernels")
    path = scratch / "kernals.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cmds += [["-w", str(path), "validate", "z2"], ["-w", str(path), "cone-sum", "k_t1", "k_t1"]]
    return cmds


def variant_commands(fixtures: Path, scratch: Path) -> list[list[str]]:
    """Text output, a tolerance override and the error paths."""
    z2 = ["-w", str(fixtures / "z2.json")]
    m2 = ["-w", str(fixtures / "m2.json")]
    empty = scratch / "empty.json"
    empty.write_text("", encoding="utf-8")
    not_object = scratch / "list.json"
    not_object.write_text("[]", encoding="utf-8")
    doc = json.loads((fixtures / "z2.json").read_text(encoding="utf-8"))
    doc["algebras"]["z2"]["structure_constants"][0][0][0] = [2.0, 0.0]
    broken = scratch / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    return [
        z2 + ["--output", "text", "gns", "z2", "rho_t0"],
        z2 + ["--output", "text", "validate", "z2"],
        z2 + ["decompose", "z2", "rho_t0", "--output", "text"],
        m2 + ["--output", "text", "decompose", "m2", "trace"],
        z2 + ["--tol-match", "1e-6", "validate", "z2"],
        z2 + ["--tol-rank", "1e-6", "--tol-psd", "1e-6", "gns", "z2", "rho_t1"],
        z2 + ["--seed", "3", "decompose", "z2", "rho_t0"],
        z2 + ["gns", "z2", "missing"],
        z2 + ["gns", "nope", "rho_t0"],
        z2 + ["validate", "nope"],
        z2 + ["cone-sum", "k_t1", "missing"],
        z2 + ["pullback", "missing", "k_t1"],
        m2 + ["gns", "m2", "trace", "--tol-match", "-1"],
        z2 + ["--tol-match", "-1", "validate", "z2"],
        z2 + ["validate", "z2", "--tol-rank=-1e-3"],
        z2 + ["weighted-sum", "x", "k_t1"],
        z2 + ["weighted-sum", "1", "k_t1", "1"],
        z2 + ["weighted-sum", "nan", "k_t1"],
        z2 + ["cone-scale", "nan", "k_t1"],
        z2 + ["cone-scale", "inf", "k_t1"],
        z2 + ["cone-scale", "x", "k_t1"],
        z2 + ["cone-scale", "-1e-3", "k_t1"],
        z2 + ["weighted-sum", "1", "k_t1", "-inf", "k_t1"],
        z2 + ["weighted-sum", "-1e-3", "k_t1"],
        z2 + ["chain", "k_t1", "--rule", "doubling", "--max-steps", "x"],
        z2 + ["chain", "k_id", "--rule", "constant", "--max-steps", "1"],
        z2 + ["chain", "k_id", "--rule", "constant", "--max-steps", "0"],
        z2 + ["chain", "k_id", "--rule", "constant", "--max-steps", "-3"],
        z2 + ["chain", "k_t1", "--rule", "geometric-decreasing", "--ratio", "nan"],
        z2 + ["audit", "z2", "rho_t0", "rho_t1", "nan"],
        z2 + ["--tol-match", "nan", "validate", "z2"],
        z2 + ["cone-diff", "k_t1", "k_sum"],
        z2 + ["gns", "z2", "rho_t0", "--tol-psd", "1e-300"],
        z2 + ["frobnicate", "z2"],
        z2 + ["chain", "k_t1", "--rule", "sideways"],
        ["validate", "z2"],
        ["-w", str(scratch / "absent.json"), "validate", "z2"],
        ["-w", str(empty), "validate", "z2"],
        ["-w", str(not_object), "validate", "z2"],
        ["-w", str(broken), "validate", "z2"],
        ["-w", str(fixtures / "homs.json"), "pullback", "embed_z2_m2", "k_t1"],
        ["-w", str(fixtures / "homs.json"), "functional", "m2", "k_t1"],
        *malformed_arrays(fixtures, scratch),
        *huge_kernels(fixtures, scratch),
        *float_range_commands(fixtures, scratch),
    ]


def run(tree: Path, argv: list[str]) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "starrep", *argv], capture_output=True,
                          text=True, env=env, cwd=tree)
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--list", action="store_true", help="print the commands and stop")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    with tempfile.TemporaryDirectory() as scratch:
        fixtures, scratch = old / "fixtures", Path(scratch)
        m2, scrambled = fixtures / "m2.json", scrambled_m2(fixtures / "m2.json", scratch)
        cmds = (fixture_commands(sorted(fixtures.glob("*.json")))
                + variant_commands(fixtures, scratch)
                + scaled_commands(m2, scratch, "kernels", "matrix")
                + scaled_commands(m2, scratch, "functionals", "values")
                + scaled_commands(scrambled, scratch, "kernels", "matrix", SCRAMBLED_SCALES)
                + scaled_commands(scrambled, scratch, "functionals", "values",
                                  SCRAMBLED_SCALES)
                + m4_commands(scratch))
        if args.list:
            for cmd in cmds:
                print(" ".join(cmd))
            return 0
        with ThreadPoolExecutor(WORKERS) as pool:
            before = list(pool.map(lambda cmd: run(old, cmd), cmds))
            after = list(pool.map(lambda cmd: run(new, cmd), cmds))
    differ = 0
    for cmd, (code0, out0), (code1, out1) in zip(cmds, before, after):
        if (code0, out0) != (code1, out1):
            differ += 1
            status = "" if code0 == code1 else f" (exit {code0} -> {code1})"
            print(f"DIFFERS{status}: starrep {' '.join(cmd)}")
    print(f"{differ} of {len(cmds)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
