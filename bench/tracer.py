"""Span tracer that times each `cayint` layer from outside.

`install` wraps every public function of the layer modules, plus
`SpectrumReport.residual_factors`, and rebinds each wrapper in every
`cayint.*` namespace that holds the original under some name, so calls made
through `from .linalg import charpoly` are traced too. Spans stay in memory
as (name, start, end, parent, op, attrs) records; `layer_metrics` turns them
into per-layer self times and work counts. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable

LAYERS = ("groups", "catalog", "linalg", "chartable", "spectra", "classify", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Work counts recorded on selected spans, from the call's arguments and result.
ANNOTATE: dict[str, Callable[[tuple, object], dict]] = {
    "linalg.charpoly": lambda args, res: {"n": args[0].n},
    "linalg.residual_factors": lambda args, res: {"degree": max(args[0].residual.degree, 0)},
    "spectra.spectrum_matrix": lambda args, res: {
        "class_function": args[1].class_function,
        "integral": res.is_integral,
    },
    "groups.build_group": lambda args, res: {"elements": res.n},
    "chartable.character_table": lambda args, res: {"classes": res.k},
    "classify.fcci_report": lambda args, res: {"spectra_count": res.spectra_count},
    "classify.cci_report": lambda args, res: {"candidates_tried": res.candidates_tried},
    "classify.ci_report": lambda args, res: {"subsets_tried": res.subsets_tried},
}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATE.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = annotate(args, result) if annotate is not None and result is not None else {}
                spans[idx] = Span(name, start, end, parent, self.op, attrs)

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        modules = {layer: importlib.import_module(f"cayint.{layer}") for layer in LAYERS}
        namespaces = [m for k, m in sys.modules.items() if k == "cayint" or k.startswith("cayint.")]
        for layer, module in modules.items():
            for fname, fn in list(vars(module).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, attr, wrapper)
        report = modules["linalg"].SpectrumReport
        self._rebind(
            report,
            "residual_factors",
            self.wrap("linalg.residual_factors", report.residual_factors),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def total_time(spans: list[Span], name: str) -> float:
    """Inclusive time of `name`, counting only outermost calls."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def layer_metrics(spans: list[Span], wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    by_name: dict[str, list[int]] = {}
    self_by_name: dict[str, float] = {}
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        by_name.setdefault(s.name, []).append(i)
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own

    def self_of(prefix: str) -> float:
        return sum(t for name, t in self_by_name.items() if name == prefix or name.startswith(prefix + "."))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_values(name: str, key: str) -> list:
        return [spans[i].attrs[key] for i in by_name.get(name, ()) if key in spans[i].attrs]

    def share(name: str, key: str) -> float:
        vals = attr_values(name, key)
        return fmean(bool(v) for v in vals) if vals else 0.0

    dims = attr_values("linalg.charpoly", "n")
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_of(layer), "s")
    m.update({
        "linalg.charpoly.self_s": (self_of("linalg.charpoly"), "s"),
        "linalg.charpoly.calls": (calls("linalg.charpoly"), "count"),
        "linalg.charpoly.dim_max": (max(dims, default=0), "count"),
        "linalg.charpoly.work_n4": (sum(d**4 for d in dims), "count"),
        "linalg.integer_spectrum.self_s": (self_of("linalg.integer_spectrum"), "s"),
        "linalg.integer_spectrum.calls": (calls("linalg.integer_spectrum"), "count"),
        "linalg.residual_factors.total_s": (total_time(spans, "linalg.residual_factors"), "s"),
        "linalg.residual_factors.calls": (calls("linalg.residual_factors"), "count"),
        "linalg.residual_factors.degree_sum": (sum(attr_values("linalg.residual_factors", "degree")), "count"),
        "spectra.spectrum_matrix.calls": (calls("spectra.spectrum_matrix"), "count"),
        "spectra.spectrum_matrix.class_function_share": (share("spectra.spectrum_matrix", "class_function"), "ratio"),
        "spectra.spectrum_matrix.integral_share": (share("spectra.spectrum_matrix", "integral"), "ratio"),
        "spectra.adjacency.self_s": (self_of("spectra.adjacency"), "s"),
    })
    for route in ("normal_set_survey", "nci_report", "fcci_report", "cci_report", "ci_report"):
        m[f"classify.{route}.total_s"] = (total_time(spans, f"classify.{route}"), "s")
    m.update({
        "classify.fcci_report.spectra_count": (sum(attr_values("classify.fcci_report", "spectra_count")), "count"),
        "classify.cci_report.candidates_tried": (sum(attr_values("classify.cci_report", "candidates_tried")), "count"),
        "classify.ci_report.subsets_tried": (sum(attr_values("classify.ci_report", "subsets_tried")), "count"),
        "chartable.character_table.self_s": (self_of("chartable.character_table"), "s"),
        "chartable.character_table.classes_sum": (sum(attr_values("chartable.character_table", "classes")), "count"),
        "chartable.class_matrices.self_s": (self_of("chartable.class_matrices"), "s"),
        "groups.build_group.self_s": (self_of("groups.build_group"), "s"),
        "groups.build_group.calls": (calls("groups.build_group"), "count"),
        "groups.build_group.elements_sum": (sum(attr_values("groups.build_group", "elements")), "count"),
        "groups.conjugacy_classes.self_s": (self_of("groups.conjugacy_classes"), "s"),
        "groups.is_nilpotent.self_s": (self_of("groups.is_nilpotent"), "s"),
        "groups.direct_product.self_s": (self_of("groups.direct_product"), "s"),
        "catalog.resolve_group.total_s": (total_time(spans, "catalog.resolve_group"), "s"),
    })
    roots = sum(s.duration for s in spans if s.parent < 0)
    m["trace.wall_s"] = (wall, "s")
    m["trace.outside_s"] = (wall - roots, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    return m
