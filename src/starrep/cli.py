"""Command-line front end: load a workspace, run one operation, emit a report.

Reports are machine-readable JSON on stdout (or a flat text rendering with
``--output text``); diagnostics go to stderr.  Exit status is 0 on success,
1 when an operation fails for a domain reason (e.g. a difference that is not
dominated), 2 on usage or workspace errors, and 3 when an operation needs
the Wedderburn blocks of an algebra that is not semisimple
(``errors.StarRepError.exit_status``).  Given the same workspace,
command, and seed, the emitted report is byte-identical across runs.

Every verb is one entry of ``VERBS``: the names of its arguments and the
function that computes its outputs.  An argument's name fixes how it is
parsed (``_ARG_OPTIONS``), looked up in the workspace (``_resolve``) and
echoed in the report (``_echo``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from . import correspondence as corr
from . import gns, kernels
from .errors import BadArgument, StarRepError, ValidationError
from .kernels import Kernel
from .numerics import TolerancePolicy, relative_gap
from .workspace import WorkspaceFile, encode_matrix, parse_workspace

__all__ = ["main", "run_command", "build_parser"]

# Each chain rule: the chain's direction, and the factor on the base kernel
# at a step given the ratio.
_CHAIN_RULES: dict[str, tuple[str, Callable[[float, int], float]]] = {
    "constant": ("decreasing", lambda ratio, step: 1.0),
    "geometric-decreasing": ("decreasing", lambda ratio, step: ratio**step),
    "geometric-increasing": ("increasing", lambda ratio, step: 1.0 - ratio**step),
    "doubling": ("increasing", lambda ratio, step: 2.0**step),
}

# argparse settings of the verb arguments that are not plain strings.
_ARG_OPTIONS: dict[str, dict] = {
    "terms": {"nargs": "+", "help": "alternating WEIGHT KERNEL pairs"},
    "--rule": {"choices": tuple(_CHAIN_RULES), "required": True},
    "--ratio": {"default": 0.5},
    "--max-steps": {"default": 50},
}

# The arguments that are numbers, and the type each is read as.  ``_resolve``
# reads them, so that a bad one gets a report and not a usage error.
_NUMBER_ARGS: dict[str, type] = {"factor": float, "ratio": float, "max_steps": int}

_FUNCTIONAL_ARGS = ("functional", "f1", "f2")
_KERNEL_ARGS = ("kernel", "k1", "k2")


def _matrix_rank(k: Kernel) -> dict:
    return {"matrix": encode_matrix(k.matrix), "rank": k.rank}


def _gns(v: argparse.Namespace, pol: TolerancePolicy) -> dict:
    rep = gns.gns_construct(v.algebra, v.functional, pol)
    report = gns.verify_star_rep(rep, pol)
    return {
        "rep_dim": rep.rep_dim,
        "cyclic_vector": encode_matrix(rep.cyclic_vector),
        "matrices": encode_matrix(rep.matrices),
        "verification": report.as_dict(),
    }


def _decompose(v: argparse.Namespace, pol: TolerancePolicy) -> dict:
    result = gns.decompose(v.algebra, v.functional, pol)
    return {
        "components": [
            {
                "weight": float(c.weight),
                "functional": encode_matrix(c.functional),
                "rep_dim": c.representation.rep_dim,
            }
            for c in result.components
        ],
        "multiplicity_classes": [list(c) for c in result.multiplicity_classes],
    }


def _roundtrip(v: argparse.Namespace, pol: TolerancePolicy) -> dict:
    rep = gns.gns_construct(v.algebra, v.functional, pol)
    recovered = corr.kernel_to_functional(v.algebra, corr.rep_to_kernel(rep, pol), pol)
    return {
        "recovered": encode_matrix(recovered),
        "max_error": relative_gap(recovered, v.functional),
    }


def _chain(v: argparse.Namespace, pol: TolerancePolicy) -> dict:
    direction, factor = _CHAIN_RULES[v.rule]

    def gen(step: int) -> Kernel:
        return kernels.kernel_scale(factor(v.ratio, step), v.kernel, pol)

    try:
        return _matrix_rank(kernels.chain_limit(gen, direction, pol, max_steps=v.max_steps))
    except ValueError as exc:  # a max_steps below 2; the rules fix the direction
        raise BadArgument(str(exc)) from None


def _weighted_sum(v: argparse.Namespace, pol: TolerancePolicy) -> dict:
    combined, direct = kernels.weighted_kernel_sum(v.terms, pol)
    return {**_matrix_rank(combined), "is_direct": direct}


def _equiv(v: argparse.Namespace, pol: TolerancePolicy) -> dict:
    rep1 = gns.gns_construct(v.algebra, v.f1, pol)
    rep2 = gns.gns_construct(v.algebra, v.f2, pol)
    return {"equivalent": True, "unitary": encode_matrix(gns.intertwiner(rep1, rep2, pol))}


class Verb(NamedTuple):
    """A verb's argument names, in command-line order, and its output builder.

    ``run(v, pol)`` gets the parsed command with every argument replaced by
    what it names in the workspace (see ``_resolve``), and the workspace
    itself as ``v.ws``.
    """

    args: tuple[str, ...]
    run: Callable[[argparse.Namespace, TolerancePolicy], dict]


_ON_FUNCTIONAL = ("algebra", "functional")
_KERNEL_PAIR = ("k1", "k2")

# Listed in the order ``starrep --help`` shows them.
VERBS: dict[str, Verb] = {
    "validate": Verb(("algebra",), lambda v, pol: v.ws.validation(v.algebra).as_dict()),
    "gns": Verb(_ON_FUNCTIONAL, _gns),
    "kernel": Verb(_ON_FUNCTIONAL, lambda v, pol: _matrix_rank(
        corr.functional_to_kernel(v.algebra, v.functional, pol))),
    "decompose": Verb(_ON_FUNCTIONAL, _decompose),
    "roundtrip": Verb(_ON_FUNCTIONAL, _roundtrip),
    "functional": Verb(("algebra", "kernel"), lambda v, pol: {
        "values": encode_matrix(corr.kernel_to_functional(v.algebra, v.kernel, pol))}),
    "cone-sum": Verb(_KERNEL_PAIR, lambda v, pol: _matrix_rank(
        kernels.kernel_sum(v.k1, v.k2, pol))),
    "cone-leq": Verb(_KERNEL_PAIR, lambda v, pol: {
        "leq": kernels.kernel_leq(v.k1, v.k2, pol)}),
    "exclude": Verb(_KERNEL_PAIR, lambda v, pol: {
        "mutually_excluding": kernels.mutually_excluding(v.k1, v.k2, pol)}),
    "min-scale": Verb(_KERNEL_PAIR, lambda v, pol: {
        "dominating_scale": kernels.min_dominating_scale(v.k1, v.k2, pol)}),
    "cone-scale": Verb(("factor", "kernel"), lambda v, pol: _matrix_rank(
        kernels.kernel_scale(v.factor, v.kernel, pol))),
    "cone-diff": Verb(("kernel", "k1"), lambda v, pol: _matrix_rank(
        kernels.kernel_difference(v.kernel, v.k1, pol))),
    "subrep": Verb(("k1", "kernel"), lambda v, pol: {
        "ordinary_subrepresentation": kernels.ordinary_subrep_check(v.k1, v.kernel, pol)}),
    "chain": Verb(("kernel", "--rule", "--ratio", "--max-steps"), _chain),
    "weighted-sum": Verb(("terms",), _weighted_sum),
    "equiv": Verb(("algebra", "f1", "f2"), _equiv),
    "pullback": Verb(("homomorphism", "kernel"), lambda v, pol: _matrix_rank(
        corr.pullback(v.homomorphism.hom, v.kernel, pol))),
    "audit": Verb(("algebra", "f1", "f2", "factor"), lambda v, pol: corr.cone_morphism_audit(
        v.algebra, v.f1, v.f2, v.factor, pol).as_dict()),
}


def _dest(arg: str) -> str:
    """The attribute argparse stores an argument under: ``--max-steps`` -> ``max_steps``."""
    return arg.lstrip("-").replace("-", "_")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every token ``float`` accepts as a value.

    argparse takes a token that starts with ``-`` for an option unless it is
    a plain decimal such as ``-1`` or ``-0.5``, so ``-1e-3`` and ``-inf``
    would be usage errors; as values they reach ``_resolve``.
    """

    def _parse_optional(self, arg_string):
        return None if _is_number(arg_string) else super()._parse_optional(arg_string)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workspace", "-w", help="workspace JSON file")
    parser.add_argument("--tol-rank", type=float)
    parser.add_argument("--tol-psd", type=float)
    parser.add_argument("--tol-match", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", choices=("json", "text"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="starrep",
        description="Operations on finite-dimensional *-algebras, functionals, "
        "kernels, and their representations.",
    )
    # The same flags are accepted before and after the verb.  Only the top
    # level has defaults; a verb's parser suppresses them, so that they never
    # clobber a value given up front.
    _add_common_options(parser)
    pol = TolerancePolicy()
    parser.set_defaults(
        workspace=None, tol_rank=pol.rel_rank_tol, tol_psd=pol.psd_tol,
        tol_match=pol.match_tol, seed=0, output="json",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        _add_common_options(p)
        for arg in verb.args:
            p.add_argument(arg, **_ARG_OPTIONS.get(arg, {}))
    return parser


def _weighted_terms(ws: WorkspaceFile, args: argparse.Namespace) -> list[tuple[float, Kernel]]:
    terms = args.terms
    if len(terms) % 2 != 0:
        raise BadArgument(f"{args.verb} expects alternating WEIGHT KERNEL pairs")
    resolved = []
    for weight, name in zip(terms[::2], terms[1::2]):
        try:
            w = float(weight)
        except ValueError:
            w = math.nan
        if not math.isfinite(w):
            raise BadArgument(f"bad weight {weight!r}")
        resolved.append((w, _at_home(ws, args, "kernel", name, ws.kernel(name))))
    return resolved


def _number(name: str, raw, kind: type):
    """The finite number ``raw`` reads as, or BadArgument."""
    try:
        value = kind(raw)
    except ValueError:
        raise BadArgument(f"bad {name} {raw!r}") from None
    if not math.isfinite(value):
        raise BadArgument(f"{name} must be finite, got {value}")
    return value


def _resolve(ws: WorkspaceFile, args: argparse.Namespace, name: str):
    """What the argument ``name`` of a parsed command names in the workspace.

    A functional or kernel must live on the command's algebra
    (``_at_home``).  A number (``_NUMBER_ARGS``) must be finite.  Other
    arguments that name nothing (the chain rule) come back as parsed.
    """
    raw = getattr(args, name)
    if name in _NUMBER_ARGS:
        return _number(name, raw, _NUMBER_ARGS[name])
    if name == "algebra":
        return ws.algebra(raw)
    if name == "homomorphism":
        return ws.homomorphism(raw)
    if name == "terms":
        return _weighted_terms(ws, args)
    if name in _FUNCTIONAL_ARGS:
        return _at_home(ws, args, "functional", raw, ws.functional(raw))
    if name in _KERNEL_ARGS:
        return _at_home(ws, args, "kernel", raw, ws.kernel(raw))
    return raw


def _at_home(ws: WorkspaceFile, args: argparse.Namespace, kind: str, raw: str, entry):
    """An entry's functional values or kernel; ValidationError off the command's algebra.

    The command's algebra is its ``algebra`` argument, else its
    homomorphism's target, else the algebra of the first kernel it names.
    """
    if "algebra" in args:
        home, where = args.algebra, f"not {args.algebra!r}"
    elif "homomorphism" in args:
        home = ws.homomorphism(args.homomorphism).target
        where = f"but the homomorphism targets {home!r}"
    else:
        first = args.terms[1] if "terms" in args else getattr(
            args, next(arg for arg in VERBS[args.verb].args if arg in _KERNEL_ARGS))
        home = ws.kernel(first).algebra
        where = f"but {first!r} lives on {home!r}"
    if entry.algebra != home:
        raise ValidationError(f"{kind} {raw!r} lives on {entry.algebra!r}, {where}")
    return entry.values if kind == "functional" else entry.kernel


def _echo(name: str, raw, value):
    """How the report's ``inputs`` shows an argument.

    A verb's ``functional`` shows the functional's values; numbers and the
    weights of a weighted sum show as parsed; every other argument shows as
    given.
    """
    if name == "functional":
        return encode_matrix(value)
    if name == "terms":
        return [{"weight": w, "kernel": k} for (w, _), k in zip(value, raw[1::2])]
    if name in _NUMBER_ARGS:
        return value
    return raw


def run_command(ws: WorkspaceFile, args: argparse.Namespace, pol: TolerancePolicy) -> dict:
    """Run one parsed command against a workspace and build its report."""
    verb = VERBS[args.verb]
    # Functionals are looked up, and checked against the algebra's name,
    # before the algebra itself: `gns nope rho` reports where rho lives, not
    # that there is no algebra `nope`.
    names = sorted(map(_dest, verb.args), key=lambda name: name not in _FUNCTIONAL_ARGS)
    values = {name: _resolve(ws, args, name) for name in names}
    outputs = verb.run(argparse.Namespace(**{**vars(args), **values, "ws": ws}), pol)
    return {
        "verb": args.verb,
        "inputs": {name: _echo(name, getattr(args, name), values[name]) for name in names},
        "outputs": outputs,
        "seed": args.seed,
        "status": "ok",
        "tolerances": {
            "rel_rank_tol": pol.rel_rank_tol,
            "psd_tol": pol.psd_tol,
            "match_tol": pol.match_tol,
        },
    }


def _render_text(report: dict, stream) -> None:
    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            stream.write(f"{prefix} = {json.dumps(value, sort_keys=True)}\n")

    walk("", report)


def _policy(args: argparse.Namespace) -> TolerancePolicy:
    """The policy the flags give, or BadArgument.

    ``--tol-match`` must be positive: a law check passes below its
    tolerance (``ValidationReport.passed``), so at 0 not even an exact
    algebra would load.  ``--tol-rank`` must be positive too: a rank cutoff
    of 0 has no margin, so a roundoff eigenvalue counts toward a rank and
    a kernel is not dominated by any multiple of itself.
    """
    try:
        pol = TolerancePolicy(
            rel_rank_tol=args.tol_rank, psd_tol=args.tol_psd, match_tol=args.tol_match
        )
    except ValueError as exc:
        raise BadArgument(str(exc)) from exc
    for flag, value in (("--tol-match", args.tol_match), ("--tol-rank", args.tol_rank)):
        if value == 0:
            raise BadArgument(f"{flag} must be positive, got {value}")
    return pol


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workspace is None:
        parser.error("--workspace is required")
    try:
        pol = _policy(args)
        ws = parse_workspace(args.workspace, pol)
        report = run_command(ws, args, pol)
    except StarRepError as exc:
        failure = {
            "verb": args.verb,
            "status": "error",
            "error": type(exc).__name__,
            "detail": str(exc),
            "seed": args.seed,
        }
        print(json.dumps(failure, indent=2, sort_keys=True))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_status

    if args.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _render_text(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
