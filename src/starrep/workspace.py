"""Workspace files: named algebras, functionals, kernels, and homomorphisms.

The on-disk format is JSON: an object whose keys are among the four
sections ``algebras``, ``functionals``, ``kernels`` and ``homomorphisms``,
so that a misspelt section is an error, not an empty one.  Complex scalars
are two-element arrays ``[re, im]``, matrices are row-major nested arrays,
and structure constants are n x n x n nested arrays.  Each ``re`` and
``im`` is a number, integer or float (``true`` and ``false`` read as 1 and
0), that is finite as a float: ``NaN``, ``Infinity`` and integers beyond
the float range are rejected, as are strings, ``null``, pairs of another
length, empty arrays and ragged rows, each with the path of the field.
Every named entry that refers to an algebra does so by name; all
references must resolve, and every algebra must pass validation at load
time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import FiniteStarAlgebra, validate_algebra
from .correspondence import StarHomomorphism, validate_star_homomorphism
from .errors import IoError, ParseError, StarRepError, UnknownEntity, ValidationError
from .kernels import Kernel, make_kernel
from .numerics import DEFAULT_POLICY, TolerancePolicy, ValidationReport

__all__ = [
    "FunctionalEntry",
    "KernelEntry",
    "HomomorphismEntry",
    "WorkspaceFile",
    "parse_workspace",
    "workspace_to_json",
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
    # the report each algebra passed at load, by name
    validations: dict[str, ValidationReport] = field(default_factory=dict)

    def algebra(self, name: str) -> FiniteStarAlgebra:
        if name not in self.algebras:
            raise UnknownEntity(f"no algebra named {name!r}")
        return self.algebras[name]

    def validation(self, algebra: FiniteStarAlgebra) -> ValidationReport:
        """The report one of this workspace's algebras passed at load."""
        name = next(name for name, a in self.algebras.items() if a is algebra)
        return self.validations[name]

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


def _decode_array(value, ndim: int, path: str):
    """The complex ndim-d array (a scalar for 0) a nest of [re, im] pairs encodes.

    A well-formed nest is read in one numpy step, its pairs reinterpreted,
    not recomputed, as complex numbers, so the result is bit for bit what
    ``complex(re, im)`` gives.  Anything else is decoded part by part, which
    names the first bad field and reads integers numpy keeps as objects
    (2**64 and up).  Numbers must be finite as floats.
    """
    try:
        a = np.array(value)
    except (ValueError, TypeError):  # a ragged nest
        a = np.array(None)
    if a.dtype.kind in "biuf" and a.ndim == ndim + 1 and a.shape[-1] == 2 and np.isfinite(a).all():
        return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    if ndim == 0:
        if not (isinstance(value, list) and len(value) == 2
                and all(isinstance(v, (int, float)) for v in value)):
            raise ParseError(f"{path}: expected a [re, im] pair, got {value!r}")
        try:
            if np.isfinite(z := complex(*value)):
                return z
        except OverflowError:  # an integer beyond the float range
            pass
        raise ParseError(f"{path}: expected finite numbers, got {value!r}")
    if not isinstance(value, list) or not value:
        raise ParseError(f"{path}: expected a nonempty {'' if ndim == 1 else f'{ndim}-d '}array")
    parts = [_decode_array(v, ndim - 1, f"{path}[{i}]") for i, v in enumerate(value)]
    if len({np.shape(p) for p in parts}) != 1:
        raise ParseError(f"{path}: ragged {'rows' if ndim == 2 else 'slabs'}")
    return np.array(parts)


def encode_matrix(m) -> list:
    """A complex array as nested [re, im] pairs, the form ``_decode_array`` reads."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


# Each section's fields that name an algebra, and what its entries must be.
_SECTIONS = {
    "algebras": ((), "an object"),
    "functionals": (("algebra",), "an object with an 'algebra' field"),
    "kernels": (("algebra",), "an object with an 'algebra' field"),
    "homomorphisms": (("source", "target"), "an object with 'source' and 'target'"),
}


def _entries(raw: dict, section: str, ws: WorkspaceFile):
    """(name, path, spec) per entry of an object section; each reference names a loaded algebra."""
    entries = raw.get(section)
    if not isinstance(entries, (dict, type(None))):
        raise ParseError(f"{section}: expected an object")
    refs, expected = _SECTIONS[section]
    for name, spec in (entries or {}).items():
        base = f"{section}.{name}"
        if not isinstance(spec, dict) or not all(ref in spec for ref in refs):
            raise ParseError(f"{base}: expected {expected}")
        for ref in refs:
            if not isinstance(spec[ref], str):
                raise ParseError(f"{base}.{ref}: expected an algebra name")
            if spec[ref] not in ws.algebras:
                raise ValidationError(f"{base}: unresolved algebra {spec[ref]!r}")
        yield name, base, spec


def _passed(report: ValidationReport, failure: str) -> ValidationReport:
    """The report, or ValidationError: ``failure`` and the worst violation."""
    if not report.passed:
        worst = report.worst
        raise ValidationError(f"{failure} ({worst} deviates by {report.violations[worst]:.3e})")
    return report


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
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in raw:
        if key not in _SECTIONS:
            raise ParseError(f"{path}: unknown section {key!r}; the sections are "
                             f"{', '.join(_SECTIONS)}")

    ws = WorkspaceFile()

    for name, base, spec in _entries(raw, "algebras", ws):
        labels = spec.get("labels")
        if labels is not None and not (
                isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ParseError(f"{base}.labels: expected an array of strings")
        tensor = _decode_array(spec.get("structure_constants"), 3, f"{base}.structure_constants")
        involution = _decode_array(spec.get("involution"), 2, f"{base}.involution")
        unit = _decode_array(spec.get("unit"), 1, f"{base}.unit")
        try:
            algebra = FiniteStarAlgebra(
                tensor, involution, unit, None if labels is None else tuple(labels))
        except (ValueError, StarRepError) as exc:
            raise ParseError(f"{base}: {exc}") from exc
        ws.algebras[name] = algebra
        ws.validations[name] = _passed(
            validate_algebra(algebra, pol), f"{base}: algebra axioms violated")

    for name, base, spec in _entries(raw, "functionals", ws):
        values = _decode_array(spec.get("values"), 1, f"{base}.values")
        if values.shape != (ws.algebras[spec["algebra"]].dim,):
            raise ValidationError(f"{base}: values length {values.shape[0]} mismatches algebra dim")
        ws.functionals[name] = FunctionalEntry(algebra=spec["algebra"], values=values)

    for name, base, spec in _entries(raw, "kernels", ws):
        matrix = _decode_array(spec.get("matrix"), 2, f"{base}.matrix")
        dim = ws.algebras[spec["algebra"]].dim
        if matrix.shape != (dim, dim):
            raise ValidationError(f"{base}: matrix shape {matrix.shape} mismatches dim")
        try:
            kernel = make_kernel(matrix, pol)
        except (ValueError, StarRepError) as exc:
            raise ValidationError(f"{base}: not a reproducing operator: {exc}") from exc
        ws.kernels[name] = KernelEntry(algebra=spec["algebra"], kernel=kernel)

    for name, base, spec in _entries(raw, "homomorphisms", ws):
        src, tgt = spec["source"], spec["target"]
        matrix = _decode_array(spec.get("matrix"), 2, f"{base}.matrix")
        try:
            hom = StarHomomorphism(ws.algebras[src], ws.algebras[tgt], matrix)
        except (ValueError, StarRepError) as exc:
            raise ValidationError(f"{base}: {exc}") from exc
        _passed(validate_star_homomorphism(hom, pol), f"{base}: not a *-homomorphism")
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
