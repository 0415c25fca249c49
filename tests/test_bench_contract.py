"""The names the benchmark's tracer reads off the program.

`bench/tracer.py` wraps public functions by name and reads work counts off
their results. A rename in `src/` would not fail the benchmark; its metric
would just read 0. These tests load the tracer by path and check each name
it relies on.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from cayint.cli import main
from cayint.linalg import SpectrumReport

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
CLASSIFY_ROUTES = ("normal_set_survey", "nci_report", "fcci_report", "cci_report", "ci_report")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _wrapped_by_install(layer: str, name: str) -> bool:
    """What `Tracer.install` wraps: public functions defined in the module."""
    module = importlib.import_module(f"cayint.{layer}")
    fn = vars(module).get(name)
    return not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_annotated_names_are_public_functions(tracer):
    for key in tracer.ANNOTATE:
        layer, name = key.split(".")
        if key == "linalg.residual_factors":  # install wraps the method itself
            assert inspect.isfunction(SpectrumReport.residual_factors)
        else:
            assert _wrapped_by_install(layer, name), key
    for route in CLASSIFY_ROUTES:
        assert _wrapped_by_install("classify", route), route


def test_classify_annotations_on_s3(tracer, tmp_path):
    out = tmp_path / "s3.json"
    t = tracer.Tracer()
    t.install()
    try:
        assert main(["classify", "--catalog", "s3", "--format", "json", "--out", str(out)]) == 0
    finally:
        t.uninstall()
    names = {s.name for s in t.spans}
    assert {f"classify.{route}" for route in CLASSIFY_ROUTES} <= names
    metrics = tracer.layer_metrics(t.spans, 1.0, 1.0)
    routes = json.loads(out.read_text(encoding="utf-8"))["routes"]
    counts = {
        "classify.fcci_report.spectra_count": routes["fcci"]["spectra_count"],
        "classify.cci_report.candidates_tried": routes["cci"]["candidates_tried"],
        "classify.ci_report.subsets_tried": routes["ci"]["subsets_tried"],
    }
    for key, want in counts.items():
        assert want > 0 and metrics[key][0] == want, key
