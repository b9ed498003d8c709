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
arguments, a negative and a zero ``--tol-match``, a zero ``--tol-rank``
on ``min-scale``, a ``chain --max-steps``
of 1, 0 and -3, and broken workspace files (written to a temporary
directory).  Those include arrays with ragged rows, a string entry, a
short pair, no entries, the integer 2**70 (which loads), 10**400 and NaN,
and sections and fields of the wrong JSON type: sections that are arrays
or strings, an ``algebra`` or ``source`` reference
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
overflows; copies of ``m2.json`` in the bases 2·E_pq and E_pq/2, with
functionals whose Gram matrix and whose densities overflow, run ``gns``,
``validate``, ``kernel``, ``decompose``, ``roundtrip`` and ``equiv``, where
in the first the orbit's T^H T and T T^H overflow; a copy of ``homs.json`` with a kernel 1e308 times
``gram_trace`` runs ``pullback``, whose pulled-back functional overflows; and a copy of
``z2.json`` whose ``kernels`` section is misspelt ``kernals`` does not load.

``validate`` reads associativity off a product table when each product of
two basis elements is a real multiple of one basis element, and checks it
with matmuls otherwise.  Besides the fixtures and the M_4 workspace, which
take the table, a copy of ``m2.json`` in a seeded random-phase basis
e'_i = phase_i e_i, whose products are single terms but complex, runs
``validate``, ``gns``, ``kernel`` and ``roundtrip``; and two copies of
``s3.json`` that do not load run ``validate``, their messages carrying the
associativity violation: one with e_5 e_3 = (5/4) e_5 planted, still a
single term, and one with e_5 e_1 = e_4 + (5/4) e_1, two terms.  A third
copy of ``s3.json``, its structure constants times 1e200, runs ``validate``:
its law checks overflow, which raises ``NonFiniteScalar`` (exit 1).

The verbs that test a kernel's *-invariance run where it fails or is
inexact: ``functional`` on a kernel of M_2 that is not invariant (exit 1,
``NotStarInvariant``); ``pullback`` of a vector state's kernel along a
skewed copy of ``homs.json``'s ``embed_z2_m2``, its matrix times a small
power of a seeded random unitary, loaded under a ``--tol-match`` that
passes the map's laws (a whole random unitary would break them, and the
workspace would not load).  ``pullback`` returns the kernel of the
functional rho o alpha, whatever alpha is, and along this map that
functional is not positive: its Gram matrix has the eigenvalue -3.3e-3
(exit 1, ``NotPositive``); and ``functional``, ``pullback`` and ``roundtrip`` on copies of
``m2.json`` and ``homs.json`` in the Gaussian basis below.

A copy of ``m2.json`` in a seeded complex Gaussian basis of condition
number 10, with the state tr(D·), D of eigenvalues 1 and 1e-8, runs ``gns``,
``roundtrip``, ``decompose`` and ``kernel``: there a rank cut on the Gram
matrix's spectrum and one on the block densities can disagree.

A copy of ``s3.json`` holds two states that are hermitian in every block
but one, run by ``gns``, ``decompose`` and ``roundtrip``: one whose 2 x 2
density is far from hermitian (exit 1, ``NotPositive``), and one whose
2 x 2 density's asymmetry passes the hermiticity rule at the scale of its
largest density value, 1e3, the one scale at which all blocks are checked,
and would fail it at the scale of its own values.

Two inputs take the Gram form of a representation, which algebras without
block data keep: a workspace of the dual numbers C[eps]/eps^2, which are not
semisimple, runs ``gns``, ``roundtrip``, ``kernel`` and ``decompose`` (the
last exits 3), and ``m2.json`` under ``--tol-match 0.5``, where the blocks
of M_2 do not resolve, runs ``gns`` and ``roundtrip``.

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
PROBE_VERBS = ("gns", "roundtrip", "decompose", "kernel")
PROBE_EPS, PROBE_COND = 1e-8, 10.0
FALLBACK_VERBS = ("gns", "roundtrip", "kernel", "decompose")
PHASE_VERBS = ("validate", "gns", "kernel", "roundtrip")
INVARIANCE_VERBS = ("functional", "pullback", "roundtrip")
DENSITY_VERBS = ("gns", "decompose", "roundtrip")
MATCH_TOL = 1e-8  # starrep's default
# the one_scale state's largest density value, and the skew of its 2 x 2
# density in units of MATCH_TOL times that value (``density_commands``)
ONE_SCALE_TOP, ONE_SCALE_SKEW = 1e3, 0.5
SKEW_POWER, SKEW_TOL = 1e-3, 6e-3
# (the entries of s3.json's structure constants set, [index, value])
S3_PLANTED = {
    "redirected": [((5, 3, 2), 0.0), ((5, 3, 5), 1.25)],
    "two_term": [((5, 1, 1), 1.25)],
}
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


def rebased_m2(doc: dict, s: np.ndarray) -> dict:
    """A workspace document with its algebra ``m2`` moved to the basis e'_i = sum_j s[j, i] e_j.

    c' = (s (x) s) c s^-1, the involution becomes s^H S s^-T and the unit
    s^-1 e; a functional rho on m2 becomes s^T rho and a kernel H on m2
    becomes s^H H s.  A homomorphism's matrix M becomes s^-1 M when m2 is
    its target and M s when m2 is its source.  The document is changed in
    place and returned.
    """
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
        if spec["algebra"] == "m2":
            spec["values"] = _encode(s.T @ _decode(spec["values"]))
    for spec in doc["kernels"].values():
        if spec["algebra"] == "m2":
            spec["matrix"] = _encode(s.conj().T @ _decode(spec["matrix"]) @ s)
    for spec in (doc.get("homomorphisms") or {}).values():
        matrix = _decode(spec["matrix"])
        if spec["target"] == "m2":
            matrix = s_inv @ matrix
        if spec["source"] == "m2":
            matrix = matrix @ s
        spec["matrix"] = _encode(matrix)
    return doc


def scrambled_m2(source: Path, scratch: Path) -> Path:
    """A copy of an M_2 workspace in the basis of a seeded random unitary (``rebased_m2``)."""
    rng = np.random.default_rng(SCRAMBLE_SEED)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    doc = rebased_m2(json.loads(source.read_text(encoding="utf-8")),
                     q * (np.diag(r) / np.abs(np.diag(r))))
    path = scratch / f"{source.stem}_scrambled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def gaussian_basis(rng) -> np.ndarray:
    """A complex Gaussian 4 x 4 matrix, its singular values spaced geometrically from ``PROBE_COND`` to 1."""
    u, _, vh = np.linalg.svd(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return (u * np.geomspace(PROBE_COND, 1.0, 4)) @ vh


def probe_commands(fixtures: Path, scratch: Path) -> list[list[str]]:
    """``PROBE_VERBS`` on a nearly singular state of M_2 in a badly conditioned basis.

    The basis is a seeded complex Gaussian matrix with its singular values
    spaced geometrically from ``PROBE_COND`` down to 1 (``rebased_m2``); the
    state is tr(D .) with D of eigenvalues 1 and ``PROBE_EPS`` in a seeded
    random eigenbasis.
    """
    rng = np.random.default_rng(SCRAMBLE_SEED)
    basis = gaussian_basis(rng)
    w, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    density = (w * np.array([1.0, PROBE_EPS])) @ w.conj().T
    doc = json.loads((fixtures / "m2.json").read_text(encoding="utf-8"))
    doc["functionals"] = {"probe": {"algebra": "m2", "values": _encode(density.T.ravel())}}
    doc["kernels"] = {}
    path = scratch / "m2_probe.json"
    path.write_text(json.dumps(rebased_m2(doc, basis)), encoding="utf-8")
    return [["-w", str(path), verb, "m2", "probe"] for verb in PROBE_VERBS]


def fallback_commands(fixtures: Path, scratch: Path) -> list[list[str]]:
    """The representation verbs where ``gns_construct`` falls back to the Gram form.

    The dual numbers C[eps]/eps^2 with eps^* = eps have no block data
    (NotSemisimple): ``FALLBACK_VERBS`` run on the state rho = (1, 0).  On
    ``m2.json`` at ``--tol-match 0.5`` the eigenspaces of a generic element
    merge (NoConvergence): ``gns`` and ``roundtrip`` run on the trace.
    """
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    doc = {"algebras": {"dual": {
        "structure_constants": _encode(c),
        "involution": _encode(np.eye(2, dtype=complex)),
        "unit": _encode(np.array([1.0, 0.0], dtype=complex)),
    }}, "functionals": {"rho": {"algebra": "dual",
                                "values": _encode(np.array([1.0, 0.0], dtype=complex))}}}
    path = scratch / "dual.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loose = ["-w", str(fixtures / "m2.json"), "--tol-match", "0.5"]
    return ([["-w", str(path), verb, "dual", "rho"] for verb in FALLBACK_VERBS]
            + [loose + [verb, "m2", "trace"] for verb in ("gns", "roundtrip")])


def single_term_commands(fixtures: Path, scratch: Path) -> list[list[str]]:
    """The associativity check on single-term products: complex ones and broken ones.

    ``PHASE_VERBS`` on a copy of ``m2.json`` in the basis of a seeded
    diagonal of random phases (``rebased_m2``), and ``validate`` on the
    copies of ``s3.json`` with the entries of ``S3_PLANTED`` set.
    """
    rng = np.random.default_rng(SCRAMBLE_SEED)
    phases = np.exp(2j * np.pi * rng.random(4))
    doc = rebased_m2(json.loads((fixtures / "m2.json").read_text(encoding="utf-8")),
                     np.diag(phases))
    path = scratch / "m2_phased.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cmds = [cmd for cmd in fixture_commands([path]) if cmd[2] in PHASE_VERBS]
    for name, entries in S3_PLANTED.items():
        doc = json.loads((fixtures / "s3.json").read_text(encoding="utf-8"))
        c = doc["algebras"]["s3"]["structure_constants"]
        for (i, j, k), value in entries:
            c[i][j][k] = [value, 0.0]
        path = scratch / f"s3_{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cmds.append(["-w", str(path), "validate", "s3"])
    doc = json.loads((fixtures / "s3.json").read_text(encoding="utf-8"))
    alg = doc["algebras"]["s3"]
    alg["structure_constants"] = _scaled(alg["structure_constants"], 1e200)
    path = scratch / "s3_huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cmds.append(["-w", str(path), "validate", "s3"])
    return cmds


def invariance_commands(fixtures: Path, scratch: Path) -> list[list[str]]:
    """The verbs that test a kernel's *-invariance, on inputs where it fails or is inexact.

    ``functional`` on a copy of ``m2.json`` with the kernel diag(1, 0, 0, 0),
    which is not invariant.  ``pullback`` of the Gram matrix of the vector
    state on E_11 along a skewed copy of ``homs.json``'s ``embed_z2_m2``:
    its matrix times U^t, U a seeded random unitary and t = ``SKEW_POWER``,
    loaded under ``--tol-match`` ``SKEW_TOL``, above the map's largest law
    violation, so it loads.  The pulled-back functional rho o alpha, whose
    kernel ``pullback`` returns, is not positive along it, and the command
    exits 1 with ``NotPositive``.  ``INVARIANCE_VERBS`` on copies of
    ``m2.json`` and ``homs.json`` in the Gaussian basis of
    ``probe_commands``.
    """
    doc = json.loads((fixtures / "m2.json").read_text(encoding="utf-8"))
    doc["kernels"]["skew"] = {"algebra": "m2", "matrix": _encode(np.diag([1.0, 0, 0, 0]) + 0j)}
    path = scratch / "m2_not_invariant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cmds = [["-w", str(path), "functional", "m2", "skew"]]

    doc = json.loads((fixtures / "homs.json").read_text(encoding="utf-8"))
    alg = doc["algebras"]["m2"]
    c, s = _decode(alg["structure_constants"]), _decode(alg["involution"])
    rho = np.array([1.0, 0, 0, 0], dtype=complex)  # rho(E_pq) = delta_p1 delta_q1
    doc["kernels"]["vector"] = {"algebra": "m2",
                                "matrix": _encode(np.einsum("ip,pjk,k->ij", s, c, rho))}
    rng = np.random.default_rng(SCRAMBLE_SEED)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    w, v = np.linalg.eig(q * (np.diag(r) / np.abs(np.diag(r))))
    power = (v * np.exp(SKEW_POWER * np.log(w))) @ np.linalg.inv(v)
    homs = doc["homomorphisms"]
    homs["skewed"] = {**homs["embed_z2_m2"],
                      "matrix": _encode(_decode(homs["embed_z2_m2"]["matrix"]) @ power)}
    path = scratch / "homs_skewed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cmds.append(["-w", str(path), "--tol-match", str(SKEW_TOL), "pullback", "skewed", "vector"])

    paths = []
    for name in ("m2", "homs"):
        rng = np.random.default_rng(SCRAMBLE_SEED)
        doc = rebased_m2(json.loads((fixtures / f"{name}.json").read_text(encoding="utf-8")),
                         gaussian_basis(rng))
        path = scratch / f"{name}_gaussian.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return cmds + [cmd for cmd in fixture_commands(paths) if cmd[2] in INVARIANCE_VERBS]


def density_commands(fixtures: Path, scratch: Path) -> list[list[str]]:
    """``DENSITY_VERBS`` on a copy of ``s3.json`` with two states hermitian but in one block.

    A state rho(g) = a + b sign(g) + tr(D pi(g)), pi the standard
    representation of S_3 on the complement of (1, 1, 1) in C^3, has the
    densities a, b and D.  In ``skewed`` a = b = 1 and D = [[1, 1/2],
    [0, 1]], which is not hermitian: the verbs exit 1 with NotPositive.  In
    ``one_scale`` a = ``ONE_SCALE_TOP``, b = 1 and D = I + t [[0, 1], [0, 0]],
    t = ``ONE_SCALE_SKEW`` times ``MATCH_TOL`` times a.  Hermiticity is
    decided at one scale for all blocks, the largest density value, where
    D's asymmetry passes; at the scale of D's own values it would fail.
    """
    doc = json.loads((fixtures / "s3.json").read_text(encoding="utf-8"))
    labels = doc["algebras"]["s3"]["labels"]  # the permutations x -> label[x]
    perms = [np.eye(3)[:, [int(x) for x in label]] for label in labels]
    frame = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = ONE_SCALE_SKEW * MATCH_TOL * ONE_SCALE_TOP
    states = {"skewed": (1.0, np.eye(2) + skew / 2),
              "one_scale": (ONE_SCALE_TOP, np.eye(2) + t * skew)}
    doc["functionals"] = {}
    for name, (a, d) in states.items():
        # rho(g) = a + sign(g) + tr(D pi(g)), sign(g) = det(g)
        values = [a + np.linalg.det(g) + np.trace(d @ frame.T @ g @ frame) for g in perms]
        doc["functionals"][name] = {"algebra": "s3", "values": _encode(np.array(values) + 0j)}
    path = scratch / "s3_densities.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return [["-w", str(path), verb, "s3", name] for name in states for verb in DENSITY_VERBS]


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
    Copies of m2.json in the bases 2·E_pq and E_pq/2 (``rebased_m2``), each
    with a functional big whose coordinates there are 1.2e308·(1, 0, 0, 1)
    and 1e308·(1, 0, 0, 1): in the first its Gram matrix overflows and its
    densities do not, in the second the reverse; ``gns``, ``kernel``,
    ``decompose``, ``roundtrip`` and ``equiv big big`` run on both.  In the
    first the representation is built, and the kernel roundtrip recovers
    from it (T^H T of its orbit T) and the T T^H that equiv inverts
    overflow.  A copy of homs.json with the kernel huge =
    1e308 times ``gram_trace``, whose pullback overflows.  A copy of z2.json
    whose ``kernels`` section is spelt ``kernals``, which does not load.
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
    for factor, big in ((2.0, 1.2e308), (0.5, 1e308)):
        doc = rebased_m2(json.loads((fixtures / "m2.json").read_text(encoding="utf-8")),
                         factor * np.eye(4))
        doc["functionals"]["big"] = {"algebra": "m2",
                                     "values": _encode(big * np.array([1.0, 0.0, 0.0, 1.0]))}
        path = scratch / f"m2_basis_{factor:g}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cmds.append(["-w", str(path), "validate", "m2"])
        cmds += [["-w", str(path), verb, "m2", "big"]
                 for verb in ("gns", "kernel", "decompose", "roundtrip")]
        cmds.append(["-w", str(path), "equiv", "m2", "big", "big"])
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
        m2 + ["--tol-match", "0", "gns", "m2", "trace"],
        z2 + ["--tol-rank", "0", "min-scale", "k_t1", "k_t1"],
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
                + probe_commands(fixtures, scratch)
                + m4_commands(scratch)
                + fallback_commands(fixtures, scratch)
                + single_term_commands(fixtures, scratch)
                + invariance_commands(fixtures, scratch)
                + density_commands(fixtures, scratch))
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
