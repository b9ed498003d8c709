"""Spans around starrep's public functions, for the traced run.

``Tracer.install`` replaces each listed function by a timing wrapper, in its
home module and under every name another starrep module (or the package)
imported it by, so internal calls are caught too. Spans are kept in memory
as (name, start, end, parent) and written out when the run ends. A span's
self time is its length minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = {
    "numerics": ("hermitian_eigen", "psd_check", "pseudo_inverse"),
    "algebra": ("validate_algebra",),
    "duality": ("gram_matrix", "is_positive"),
    "gns": ("gns_construct", "verify_star_rep", "commutant",
            "representations_equivalent", "intertwiner", "decompose"),
    "kernels": ("make_kernel", "kernel_leq", "membership", "min_dominating_scale", "chain_limit"),
    "correspondence": ("functional_to_kernel", "kernel_to_functional", "is_star_invariant",
                       "rep_to_kernel", "pullback", "cone_morphism_audit",
                       "validate_star_homomorphism"),
    "workspace": ("parse_workspace",),
    "cli": ("run_command",),
}

# Counters beyond calls and self time: name -> (counter, unit).
EXTRA = {
    "numerics.hermitian_eigen": ("work_n3", "count"),  # sum of n^3, a computed operation count
    "gns.commutant": ("unknowns_max", "count"),  # largest d^2 solved for
    "kernels.chain_limit": ("steps", "count"),  # generator calls
    "workspace.parse_workspace": ("bytes", "B"),  # file bytes decoded
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, funcs in LAYERS.items():
        for fn in funcs:
            name = f"{module}.{fn}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
            if name in EXTRA:
                counter, unit = EXTRA[name]
                units[f"{name}.{counter}"] = unit
    units["process.import_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self._replaced: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        # Load every home module first, so that no module binds a wrapper by
        # importing it after the replacement (uninstall could not undo that).
        homes = {module: importlib.import_module(f"{package.__name__}.{module}") for module in LAYERS}
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for module, funcs in LAYERS.items():
            home = homes[module]
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._replaced.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._replaced):
            setattr(m, attr, original)
        self._replaced.clear()

    def _count(self, name: str, args: tuple) -> tuple:
        if name == "numerics.hermitian_eigen":
            n = len(args[0])
            self.counters[f"{name}.work_n3"] += n**3
        elif name == "gns.commutant":
            d = args[0].rep_dim
            self.maxima[f"{name}.unknowns_max"] = max(self.maxima[f"{name}.unknowns_max"], d * d)
        elif name == "workspace.parse_workspace":
            self.counters[f"{name}.bytes"] += os.path.getsize(args[0])
        elif name == "kernels.chain_limit":
            generator = args[0]

            def counted(step):
                self.counters[f"{name}.steps"] += 1
                return generator(step)

            args = (counted,) + tuple(args[1:])
        return args

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = self._count(name, args)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round (every round runs the same operations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - covered
        out: dict[str, float] = {}
        for metric in metric_units():
            layer, counter = metric.rsplit(".", 1)
            if metric == "process.import_s":
                continue
            if counter == "unknowns_max":
                out[metric] = self.maxima[metric]
            elif counter == "self_s":
                out[metric] = self_s[layer] / rounds
            else:
                total = calls[layer] if counter == "calls" else self.counters[metric]
                out[metric] = total // rounds if total % rounds == 0 else total / rounds
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start - t0,
                                         "end": end - t0, "parent": parent}) + "\n")
