"""Workspace files: named algebras, functionals, kernels, and homomorphisms.

The on-disk format is JSON.  Complex scalars are two-element arrays
``[re, im]``, matrices are row-major nested arrays, and structure constants
are n x n x n nested arrays.  Every named entry that refers to an algebra
does so by name; all references must resolve, and every algebra must pass
validation at load time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import FiniteStarAlgebra, validate_algebra
from .correspondence import StarHomomorphism, validate_star_homomorphism
from .errors import IoError, ParseError, StarRepError, UnknownEntity, ValidationError
from .kernels import Kernel, make_kernel
from .numerics import DEFAULT_POLICY, TolerancePolicy

__all__ = [
    "FunctionalEntry",
    "KernelEntry",
    "HomomorphismEntry",
    "WorkspaceFile",
    "parse_workspace",
    "workspace_to_json",
    "encode_complex",
    "encode_matrix",
]


@dataclass(frozen=True)
class FunctionalEntry:
    algebra: str
    values: np.ndarray


@dataclass(frozen=True)
class KernelEntry:
    algebra: str
    kernel: Kernel


@dataclass(frozen=True)
class HomomorphismEntry:
    source: str
    target: str
    hom: StarHomomorphism


@dataclass
class WorkspaceFile:
    algebras: dict[str, FiniteStarAlgebra] = field(default_factory=dict)
    functionals: dict[str, FunctionalEntry] = field(default_factory=dict)
    kernels: dict[str, KernelEntry] = field(default_factory=dict)
    homomorphisms: dict[str, HomomorphismEntry] = field(default_factory=dict)

    def algebra(self, name: str) -> FiniteStarAlgebra:
        if name not in self.algebras:
            raise UnknownEntity(f"no algebra named {name!r}")
        return self.algebras[name]

    def functional(self, name: str) -> FunctionalEntry:
        if name not in self.functionals:
            raise UnknownEntity(f"no functional named {name!r}")
        return self.functionals[name]

    def kernel(self, name: str) -> KernelEntry:
        if name not in self.kernels:
            raise UnknownEntity(f"no kernel named {name!r}")
        return self.kernels[name]

    def homomorphism(self, name: str) -> HomomorphismEntry:
        if name not in self.homomorphisms:
            raise UnknownEntity(f"no homomorphism named {name!r}")
        return self.homomorphisms[name]


def _decode_complex(value, path: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise ParseError(f"{path}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _decode_pairs(value, ndim: int) -> np.ndarray | None:
    """The complex ndim-d array of nested [re, im] pairs in one numpy step.

    None when ``value`` is not a nonempty, rectangular nest of numeric
    pairs of that depth; the entry-by-entry decoders below then say where it
    goes wrong.  The pairs are reinterpreted, not recomputed, as complex
    numbers, so the result is bit for bit what ``complex(re, im)`` gives.
    """
    try:
        a = np.array(value)
    except (ValueError, TypeError):
        return None
    if a.dtype.kind not in "biuf" or a.ndim != ndim + 1 or a.shape[-1] != 2 or a.size == 0:
        return None
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _decode_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{path}: expected a nonempty array")
    fast = _decode_pairs(value, 1)
    if fast is not None:
        return fast
    return np.array([_decode_complex(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _decode_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{path}: expected a nonempty 2-d array")
    fast = _decode_pairs(value, 2)
    if fast is not None:
        return fast
    rows = [_decode_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    widths = {row.shape[0] for row in rows}
    if len(widths) != 1:
        raise ParseError(f"{path}: ragged rows")
    return np.stack(rows)


def _decode_tensor(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{path}: expected a nonempty 3-d array")
    fast = _decode_pairs(value, 3)
    if fast is not None:
        return fast
    slabs = [_decode_matrix(slab, f"{path}[{i}]") for i, slab in enumerate(value)]
    shapes = {slab.shape for slab in slabs}
    if len(shapes) != 1:
        raise ParseError(f"{path}: ragged slabs")
    return np.stack(slabs)


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def encode_matrix(m: np.ndarray) -> list:
    a = np.asarray(m)
    if a.ndim == 1:
        return [encode_complex(z) for z in a]
    return [encode_matrix(row) for row in a]


def parse_workspace(path: str, pol: TolerancePolicy = DEFAULT_POLICY) -> WorkspaceFile:
    """Load and validate a workspace file, with field-precise diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read workspace {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")

    ws = WorkspaceFile()

    for name, spec in (raw.get("algebras") or {}).items():
        base = f"algebras.{name}"
        if not isinstance(spec, dict):
            raise ParseError(f"{base}: expected an object")
        tensor = _decode_tensor(
            spec.get("structure_constants"), f"{base}.structure_constants"
        )
        involution = _decode_matrix(spec.get("involution"), f"{base}.involution")
        unit = _decode_vector(spec.get("unit"), f"{base}.unit")
        try:
            algebra = FiniteStarAlgebra(
                structure_constants=tensor,
                involution=involution,
                unit=unit,
                labels=tuple(spec["labels"]) if "labels" in spec else None,
            )
        except (ValueError, StarRepError) as exc:
            raise ParseError(f"{base}: {exc}") from exc
        report = validate_algebra(algebra, pol)
        if not report.passed:
            worst = max(report.violations, key=report.violations.get)
            raise ValidationError(
                f"{base}: algebra axioms violated "
                f"({worst} deviates by {report.violations[worst]:.3e})"
            )
        ws.algebras[name] = algebra

    for name, spec in (raw.get("functionals") or {}).items():
        base = f"functionals.{name}"
        if not isinstance(spec, dict) or "algebra" not in spec:
            raise ParseError(f"{base}: expected an object with an 'algebra' field")
        algebra_name = spec["algebra"]
        if algebra_name not in ws.algebras:
            raise ValidationError(f"{base}: unresolved algebra {algebra_name!r}")
        values = _decode_vector(spec.get("values"), f"{base}.values")
        if values.shape != (ws.algebras[algebra_name].dim,):
            raise ValidationError(
                f"{base}: values length {values.shape[0]} mismatches algebra dim"
            )
        ws.functionals[name] = FunctionalEntry(algebra=algebra_name, values=values)

    for name, spec in (raw.get("kernels") or {}).items():
        base = f"kernels.{name}"
        if not isinstance(spec, dict) or "algebra" not in spec:
            raise ParseError(f"{base}: expected an object with an 'algebra' field")
        algebra_name = spec["algebra"]
        if algebra_name not in ws.algebras:
            raise ValidationError(f"{base}: unresolved algebra {algebra_name!r}")
        matrix = _decode_matrix(spec.get("matrix"), f"{base}.matrix")
        dim = ws.algebras[algebra_name].dim
        if matrix.shape != (dim, dim):
            raise ValidationError(f"{base}: matrix shape {matrix.shape} mismatches dim")
        try:
            kernel = make_kernel(matrix, pol)
        except (ValueError, StarRepError) as exc:
            raise ValidationError(f"{base}: not a reproducing operator: {exc}") from exc
        ws.kernels[name] = KernelEntry(algebra=algebra_name, kernel=kernel)

    for name, spec in (raw.get("homomorphisms") or {}).items():
        base = f"homomorphisms.{name}"
        if not isinstance(spec, dict) or "source" not in spec or "target" not in spec:
            raise ParseError(f"{base}: expected an object with 'source' and 'target'")
        src, tgt = spec["source"], spec["target"]
        for ref in (src, tgt):
            if ref not in ws.algebras:
                raise ValidationError(f"{base}: unresolved algebra {ref!r}")
        matrix = _decode_matrix(spec.get("matrix"), f"{base}.matrix")
        try:
            hom = StarHomomorphism(
                source=ws.algebras[src], target=ws.algebras[tgt], matrix=matrix
            )
        except (ValueError, StarRepError) as exc:
            raise ValidationError(f"{base}: {exc}") from exc
        report = validate_star_homomorphism(hom, pol)
        if not report.passed:
            worst = max(report.violations, key=report.violations.get)
            raise ValidationError(
                f"{base}: not a *-homomorphism "
                f"({worst} deviates by {report.violations[worst]:.3e})"
            )
        ws.homomorphisms[name] = HomomorphismEntry(source=src, target=tgt, hom=hom)

    return ws


def workspace_to_json(ws: WorkspaceFile) -> str:
    """Serialize a workspace back to its JSON form (stable key order)."""
    doc = {
        "algebras": {
            name: {
                "structure_constants": encode_matrix(a.structure_constants),
                "involution": encode_matrix(a.involution),
                "unit": encode_matrix(a.unit),
                **({"labels": list(a.labels)} if a.labels is not None else {}),
            }
            for name, a in ws.algebras.items()
        },
        "functionals": {
            name: {"algebra": f.algebra, "values": encode_matrix(f.values)}
            for name, f in ws.functionals.items()
        },
        "kernels": {
            name: {"algebra": k.algebra, "matrix": encode_matrix(k.kernel.matrix)}
            for name, k in ws.kernels.items()
        },
        "homomorphisms": {
            name: {
                "source": h.source,
                "target": h.target,
                "matrix": encode_matrix(h.hom.matrix),
            }
            for name, h in ws.homomorphisms.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
