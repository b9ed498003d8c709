"""The cli workload: every verb as a fresh ``python -m starrep`` process.

The small inputs are the bundled fixtures; the large ones are M_4, S_4 and
M_5 workspaces written by the benchmark, each with two states, three
kernels and one unital *-homomorphism from a smaller algebra, so that a
load pays for JSON decoding, validate_algebra, make_kernel and
validate_star_homomorphism. Each report is checked against numpy results
computed from the workspace file. Every fixture command, and the seeded
``decompose`` on a generated workspace, runs twice in a round and must print
the same bytes both times; every command must also match its bytes from the
round before.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from algebras import by_name, random_psd, random_unitary
from checks import require
from workloads import Recorder, case_rng

LARGE = ("M4", "S4", "M5")


@dataclass
class Command:
    workspace: Path
    argv: list[str]
    n: int  # dimension of the largest algebra the command works on
    expect: dict = field(default_factory=dict)
    runs: int = 2  # per round; every run must print the same bytes
    last_output: bytes | None = None

    @property
    def label(self) -> str:
        return f"{self.workspace.name}: {' '.join(self.argv)}"


def fixture_commands(root: Path) -> list[Command]:
    z2, homs = root / "fixtures" / "z2.json", root / "fixtures" / "homs.json"
    rows = [
        ["validate", "z2"],
        ["gns", "z2", "rho_t1"],
        ["kernel", "z2", "rho_t0"],
        ["functional", "z2", "k_t1"],
        ["cone-sum", "k_t1", "k_tm1"],
        ["cone-scale", "2.0", "k_t1"],
        ["cone-leq", "k_t1", "k_sum"],
        ["cone-diff", "k_sum", "k_t1"],
        ["exclude", "k_t1", "k_tm1"],
        ["min-scale", "k_t1", "k_sum"],
        ["subrep", "k_t1", "k_sum"],
        ["chain", "k_id", "--rule", "geometric-decreasing"],
        ["weighted-sum", "1", "k_t1", "1", "k_tm1"],
        ["decompose", "z2", "rho_t0"],
        ["equiv", "z2", "rho_t1", "rho_t1"],
        ["roundtrip", "z2", "rho_t0"],
        ["audit", "z2", "rho_t1", "rho_tm1", "0.5"],
    ]
    cmds = [Command(z2, argv, 2) for argv in rows]
    # rho_t0 = delta_e on Z_2: two characters of weight 1/2
    cmds[13].expect = {"dims": (1, 1), "weights": (0.5, 0.5)}
    cmds.append(Command(homs, ["pullback", "embed_z2_m2", "gram_trace"], 4))
    return cmds


def _encode(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _embedding(target: str) -> tuple[str, np.ndarray]:
    """A unital *-homomorphism into the target, as (source name, matrix)."""
    if target == "M4":  # x -> x (x) I_2
        cols = [np.kron(e.reshape(2, 2), np.eye(2)).reshape(-1) for e in np.eye(4)]
        return "M2", np.array(cols).T
    if target == "S4":  # S_3 as the stabiliser of the last point
        index = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        m = np.zeros((24, 6))
        for j, p in enumerate(itertools.permutations(range(3))):
            m[index[p + (3,)], j] = 1.0
        return "S3", m
    if target == "M5":  # (x, y) -> diag(x, y)
        cols = []
        for e in np.eye(13):
            z = np.zeros((5, 5))
            z[:2, :2] = e[:4].reshape(2, 2)
            z[2:, 2:] = e[4:].reshape(3, 3)
            cols.append(z.reshape(-1))
        return "M2+M3", np.array(cols).T
    raise ValueError(target)


def write_large_workspace(sr, path: Path, name: str, seed: int) -> dict:
    """Write one generated workspace; returns the oracle facts its checks need."""
    oracle = by_name(name)
    n = oracle.dim
    rng = case_rng(seed, "cli " + name)
    f1, f2 = oracle.state("faithful", rng), oracle.state("rank2", rng)
    u = random_unitary(rng, n)
    k1 = random_psd(rng, u[:, : n // 2])
    k2 = k1 + random_psd(rng, u[:, n // 2:])
    source_name, hom = _embedding(name)
    source = by_name(source_name)
    algebras = {"A": oracle, "B": source}
    doc = {
        "algebras": {
            key: {
                "structure_constants": _encode(alg.structure_constants()),
                "involution": _encode(alg.involution()),
                "unit": _encode(alg.unit()),
            }
            for key, alg in algebras.items()
        },
        "functionals": {
            "f1": {"algebra": "A", "values": _encode(f1.values)},
            "f2": {"algebra": "A", "values": _encode(f2.values)},
        },
        "kernels": {
            "kg": {"algebra": "A", "matrix": _encode(oracle.gram(f1.values))},
            "k1": {"algebra": "A", "matrix": _encode(k1)},
            "k2": {"algebra": "A", "matrix": _encode(k2)},
        },
        "homomorphisms": {"h": {"source": "B", "target": "A", "matrix": _encode(hom)}},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return {"f2": f2}


def large_commands(path: Path, name: str, n: int, facts: dict, seed: int) -> list[Command]:
    f2 = facts["f2"]
    rows = [
        ["validate", "A"],
        ["gns", "A", "f2"],
        ["kernel", "A", "f1"],
        ["functional", "A", "kg"],
        ["cone-sum", "k1", "k2"],
        ["cone-scale", "2.5", "k1"],
        ["cone-leq", "k1", "k2"],
        ["cone-diff", "k2", "k1"],
        ["exclude", "k1", "k2"],
        ["min-scale", "k2", "kg"],
        ["subrep", "k1", "k2"],
        ["chain", "k1", "--rule", "geometric-increasing", "--ratio", "0.001"],
        ["weighted-sum", "0.5", "k1", "2", "kg"],
        ["decompose", "A", "f2", "--seed", str(seed)],
        ["equiv", "A", "f1", "f1"],
        ["pullback", "h", "kg"],
        ["audit", "A", "f1", "f2", "0.5"],
        ["roundtrip", "A", "f1"],
    ]
    cmds = [Command(path, argv, n, runs=1) for argv in rows]
    cmds[13].expect = {"dims": f2.component_dims, "weights": f2.weights}
    cmds[13].runs = 2
    return cmds


def _complex(value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def read_workspace(path: Path) -> dict:
    raw = json.loads(path.read_text(encoding="utf-8"))
    ws = {"algebras": {}, "functionals": {}, "kernels": {}, "homomorphisms": {}}
    for name, spec in raw.get("algebras", {}).items():
        ws["algebras"][name] = tuple(
            _complex(spec[key]) for key in ("structure_constants", "involution", "unit")
        )
    for name, spec in raw.get("functionals", {}).items():
        ws["functionals"][name] = (spec["algebra"], _complex(spec["values"]))
    for name, spec in raw.get("kernels", {}).items():
        ws["kernels"][name] = (spec["algebra"], _complex(spec["matrix"]))
    for name, spec in raw.get("homomorphisms", {}).items():
        ws["homomorphisms"][name] = (spec["source"], spec["target"], _complex(spec["matrix"]))
    return ws


def _gram(ws, alg: str, values) -> np.ndarray:
    c, s, _ = ws["algebras"][alg]
    return np.einsum("ip,pjk,k->ij", s, c, values, optimize=True)


def _range(h) -> np.ndarray:
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return v[:, w > checks.RANK_TOL * max(w[-1], 0.0)]


def check_report(ws: dict, cmd: Command, report: dict) -> None:
    """Compare one CLI report with numpy results computed from the workspace file."""
    argv = cmd.argv
    verb = argv[0]
    require(report.get("status") == "ok" and report.get("verb") == verb, f"report {report}")
    out = report["outputs"]
    kern = {name: m for name, (_, m) in ws["kernels"].items()}
    func = {name: v for name, (_, v) in ws["functionals"].items()}

    def matrix_and_rank(expected):
        checks.close(_complex(out["matrix"]), expected, f"{verb} matrix")
        require(out["rank"] == checks.rank(expected), f"{verb} rank {out['rank']}")

    if verb == "validate":
        c, s, e = ws["algebras"][argv[1]]
        assoc = np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c)
        require(float(np.max(np.abs(assoc))) <= 1e-12, "workspace algebra is not associative")
        require(out["passed"] is True and max(out["violations"].values()) <= 1e-12,
                f"validate: {out}")
    elif verb in ("gns", "kernel", "roundtrip"):
        values = func[argv[2]]
        g = _gram(ws, argv[1], values)
        if verb == "kernel":
            matrix_and_rank(g)
        elif verb == "roundtrip":
            checks.close(_complex(out["recovered"]), values, "roundtrip")
            require(out["max_error"] < 1e-8, f"roundtrip max_error {out['max_error']}")
        else:
            mats, xi = _complex(out["matrices"]), _complex(out["cyclic_vector"])
            require(out["rep_dim"] == checks.rank(g), f"gns rep_dim {out['rep_dim']}")
            checks.close(np.einsum("a,iab,b->i", xi.conj(), mats, xi), values, "gns reproduction")
            require(out["verification"]["passed"] is True, "gns verification failed")
    elif verb == "functional":
        _, _, e = ws["algebras"][argv[1]]
        checks.close(_complex(out["values"]), e.conj() @ kern[argv[2]], "functional")
    elif verb == "cone-sum":
        matrix_and_rank(kern[argv[1]] + kern[argv[2]])
    elif verb == "cone-scale":
        matrix_and_rank(float(argv[1]) * kern[argv[2]])
    elif verb == "cone-diff":
        matrix_and_rank(kern[argv[1]] - kern[argv[2]])
    elif verb == "cone-leq":
        require(out["leq"] == checks.is_psd(kern[argv[2]] - kern[argv[1]]), "cone-leq")
    elif verb == "exclude":
        k1, k2 = kern[argv[1]], kern[argv[2]]
        want = checks.rank(k1) + checks.rank(k2) == checks.rank(k1 + k2)
        require(out["mutually_excluding"] == want, "exclude")
    elif verb == "min-scale":
        k1, k2 = kern[argv[1]], kern[argv[2]]
        basis = _range(k2)
        inside = np.linalg.norm(_range(k1) - basis @ (basis.conj().T @ _range(k1))) < 1e-6
        if inside:
            checks.close(out["dominating_scale"], checks.dominating_scale(k1, k2, basis),
                         "min-scale", tol=1e-6)
        else:
            require(out["dominating_scale"] is None, "min-scale finite off range")
    elif verb == "subrep":
        k1, k = kern[argv[1]], kern[argv[2]]
        want = checks.is_psd(k - k1) and checks.rank(k1) + checks.rank(k - k1) == checks.rank(k)
        require(out["ordinary_subrepresentation"] == want, "subrep")
    elif verb == "chain":
        k, limit = kern[argv[1]], _complex(out["matrix"])
        if argv[3] == "geometric-increasing":
            matrix_and_rank(k)
        else:  # ratio^s K with max|ratio^s K| below the convergence tolerance
            s = round(np.log(np.trace(limit).real / np.trace(k).real) / np.log(0.5))
            checks.close(limit, 0.5**s * k, "chain limit", tol=1e-6)
            require(float(np.max(np.abs(limit))) < 1e-7, "chain stopped early")
    elif verb == "weighted-sum":
        terms = [(float(w), kern[name]) for w, name in zip(argv[1::2], argv[2::2])]
        total = sum(w * k for w, k in terms)
        matrix_and_rank(total)
        ranks = sum(checks.rank(k) for w, k in terms if w > 0)
        require(out["is_direct"] == (ranks == checks.rank(total)), "weighted-sum is_direct")
    elif verb == "decompose":
        values = func[argv[2]]
        comps = out["components"]
        weights = np.array([c["weight"] for c in comps])
        total = sum(w * _complex(c["functional"]) for w, c in zip(weights, comps))
        checks.close(total, values, "decompose reassembly")
        dims = tuple(sorted(c["rep_dim"] for c in comps))
        require(dims == tuple(cmd.expect["dims"]), f"decompose dims {dims}")
        if cmd.expect["weights"] is not None:
            checks.close(np.sort(weights), np.array(cmd.expect["weights"]), "decompose weights")
    elif verb == "equiv":
        u = _complex(out["unitary"])
        require(out["equivalent"] is True, "equiv")
        checks.close(u.conj().T @ u, np.eye(u.shape[0]), "equiv unitary")
    elif verb == "pullback":
        _, _, m = ws["homomorphisms"][argv[1]]
        matrix_and_rank(m.conj().T @ kern[argv[2]] @ m)
    elif verb == "audit":
        require(out["passed"] is True, f"audit: {out}")
    else:
        raise ValueError(f"no check for verb {verb!r}")


class Cli:
    """Each of the 18 verbs, on a fixture and on a generated workspace, per round."""

    name = "cli"

    def __init__(self, root: Path, out_dir: Path, in_process: bool):
        self.root = root
        self.out_dir = out_dir
        self.in_process = in_process
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def setup(self, sr, seed, smoke):
        cmds = fixture_commands(self.root)
        if not smoke:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            large = []
            for name in LARGE:
                path = self.out_dir / f"{name}.json"
                facts = write_large_workspace(sr, path, name, seed)
                large.append(large_commands(path, name, by_name(name).dim, facts, seed))
            # verb k of the large set runs on workspace k mod 3
            cmds += [large[k % len(LARGE)][k] for k in range(len(large[0]))]
        return cmds

    def prepare(self, cmds, seed):
        files = {c.workspace for c in cmds}
        self.workspaces = {p: read_workspace(p) for p in files}

    def _run(self, cmd: Command) -> bytes:
        """One command from start to exit; a nonzero exit status is a failure."""
        argv = ["-w", str(cmd.workspace), *cmd.argv]
        if self.in_process:
            from starrep import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            stdout = buf.getvalue().encode()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "starrep", *argv],
                cwd=self.root, env=self.env, capture_output=True, timeout=150,
            )
            code, stdout = proc.returncode, proc.stdout
        if code != 0:
            raise RuntimeError(f"exit status {code}: {stdout[-300:]!r}")
        return stdout

    def pipelines(self, sr, cmds, rec: Recorder):
        for cmd in cmds:
            yield cmd.label, self._command(cmd, rec)

    def _command(self, cmd: Command, rec: Recorder):
        for _ in range(cmd.runs):
            stdout = rec.call(cmd.n, self._run, cmd)
            check_report(self.workspaces[cmd.workspace], cmd, json.loads(stdout))
            require(cmd.last_output in (None, stdout), "report bytes differ from the last run")
            cmd.last_output = stdout
            yield
