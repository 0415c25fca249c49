"""Self-tests of the benchmark's tracer, checker and input generator.

Run from the repository root: `python3 -m pytest -q bench/selftest.py`.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from check import Checker, det_mod, is_non_integral, load_reference, parse_poly  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times, total_time  # noqa: E402
from workloads import Op, build_ops  # noqa: E402

import numpy as np  # noqa: E402


class FakeClock:
    """Each reading advances time by one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_of_nested_calls():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap("linalg.charpoly", lambda: None)
    mid = tracer.wrap("spectra.adjacency", lambda: (leaf(), leaf()))
    top = tracer.wrap("cli.main", lambda: (mid(), leaf()))
    top()
    spans = tracer.spans
    # Clock readings: main 1..10, adjacency 2..7, charpolys 3..4, 5..6, 8..9.
    assert [s.name for s in spans] == [
        "cli.main", "spectra.adjacency", "linalg.charpoly", "linalg.charpoly", "linalg.charpoly",
    ]
    assert [s.parent for s in spans] == [-1, 0, 1, 1, 0]
    assert self_times(spans) == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]
    m = layer_metrics(spans, wall=13.0, untraced_wall=12.5)
    assert m["linalg.self_s"][0] == 3
    assert m["spectra.self_s"][0] == 3
    assert m["cli.self_s"][0] == 3
    assert m["linalg.charpoly.calls"][0] == 3
    assert sum(m[f"{layer}.self_s"][0] for layer in ("linalg", "spectra", "cli")) + m["trace.outside_s"][0] == 13
    assert m["trace.overhead_s"][0] == 0.5


def test_total_time_counts_outermost_calls_only():
    spans = [
        Span("classify.cci_report", 0.0, 10.0, -1, 0),
        Span("classify.cci_report", 2.0, 5.0, 0, 0),
        Span("classify.cci_report", 11.0, 12.0, -1, 0),
    ]
    assert total_time(spans, "classify.cci_report") == 11.0


def test_install_rebinds_imported_names_and_uninstall_restores():
    import cayint.classify
    import cayint.linalg
    import cayint.spectra

    original = cayint.linalg.charpoly
    tracer = Tracer()
    tracer.install()
    try:
        assert cayint.spectra.charpoly is cayint.linalg.charpoly is not original
        assert cayint.classify.spectrum_matrix is cayint.spectra.spectrum_matrix
        g = cayint.classify.catalog("s3")
        f = cayint.spectra.ConnectionFunction(g, (0, 1, 1, 0, 0, 1))
        cayint.classify.spectrum_matrix(g, f).residual_factors()
    finally:
        tracer.uninstall()
    assert cayint.spectra.charpoly is original
    names = {s.name for s in tracer.spans}
    assert {"spectra.spectrum_matrix", "linalg.charpoly", "linalg.integer_spectrum", "spectra.adjacency"} <= names
    assert all(s is not None for s in tracer.spans)


def test_generator_is_deterministic_per_seed(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    ops_a, _ = build_ops("spectrum", 5, tmp_path / "a")
    ops_b, _ = build_ops("spectrum", 5, tmp_path / "b")
    ops_c, _ = build_ops("spectrum", 6, tmp_path / "c")
    assert len(ops_a) == 100
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    assert all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(files_a, files_b))
    assert [op.label for op in ops_a] == [op.label for op in ops_b]
    assert [op.label for op in ops_a] != [op.label for op in ops_c]
    assert build_ops("structure", 1, tmp_path)[0] == build_ops("structure", 2, tmp_path)[0]


def test_exact_helpers():
    assert parse_poly("x^3 - 2x^2 + x - 7") == [-7, 1, -2, 1]
    assert parse_poly("1") == [1]
    assert parse_poly("-x + 12") == [12, -1]
    assert det_mod(np.array([[2, 1], [1, 2]])) == 3
    assert not is_non_integral(np.array([[0, 1], [1, 0]]))       # eigenvalues +-1
    assert is_non_integral(np.array([[1, 1], [1, 0]]))           # golden ratio


@pytest.fixture(scope="module")
def spectrum_case(tmp_path_factory):
    import cayint.cli

    workdir = tmp_path_factory.mktemp("spectrum")
    ops, functions = build_ops("spectrum", 0, workdir)
    op = next(o for o in ops if o.group == ("dihedral", "24") and "colour" in o.label)
    out = workdir / "out.json"
    rc = cayint.cli.main([*op.argv, "--format", "json", "--out", str(out)])
    import json

    return Checker(load_reference(), functions), op, rc, json.loads(out.read_text())


def test_checker_accepts_true_spectrum(spectrum_case):
    checker, op, rc, doc = spectrum_case
    assert checker.errors(op, rc, doc) == []


@pytest.mark.parametrize("tamper", ["eigenvalue", "multiplicity", "residual", "flag", "exit_code"])
def test_checker_flags_tampered_spectrum(spectrum_case, tamper):
    checker, op, rc, doc = spectrum_case
    doc = copy.deepcopy(doc)
    if tamper == "eigenvalue":
        doc["integer_eigenvalues"][0][0] += 1
    elif tamper == "multiplicity":
        doc["integer_eigenvalues"][0][1] += 1
    elif tamper == "residual":
        doc["residual"] = doc["residual"].replace(" + ", " - ", 1) if " + " in doc["residual"] else "x^2 + 1"
    elif tamper == "flag":
        doc["is_integral"] = not doc["is_integral"]
    else:
        rc = 1 - rc
    assert checker.errors(op, rc, doc)


def test_checker_flags_tampered_chartable_and_audit_witness():
    import json

    checker = Checker(load_reference())
    ref = load_reference()
    key = "alternating 6"
    op = Op(("chartable", "--catalog", *key.split()), "chartable", tuple(key.split()))
    want = ref["chartable"][key]
    good = {"group": want["group"], "degrees": list(want["degrees"]), "class_sizes": list(want["class_sizes"]),
            "rows": [[]] * len(want["degrees"])}
    assert checker.errors(op, 0, good) == []
    bad = copy.deepcopy(good)
    bad["degrees"][-1] += 1
    assert checker.errors(op, 0, bad)
    assert checker.errors(op, 2, good)

    # An integral colour function passed off as the S3 CCI witness is caught.
    from check import witness_errors

    s3 = checker.suite_groups()["S3"]
    doc = next(g for g in json.loads(json.dumps(ref["audit"]["groups"])) if g["name"] == "S3")
    doc["evidence"] = {"cci_witness_values": [0, 1, 3, 7, 7, 4]}
    assert witness_errors(s3, doc) == []
    doc["evidence"] = {"cci_witness_values": [0, 1, 1, 1, 1, 1]}
    assert witness_errors(s3, doc)


def test_per_layer_names_match_benchmark_json():
    import json

    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    produced = {name: unit for name, (_, unit) in layer_metrics([], 1.0, 1.0).items()}
    assert produced == units


def test_malformed_output_fails_the_op(tmp_path):
    from worker import check_round

    op = Op(("chartable", "--catalog", "alternating", "6"), "chartable", ("alternating", "6"))
    out = tmp_path / "out.json"
    out.write_text('{"degrees": [1]}', encoding="utf-8")
    errors: list[str] = []
    assert check_round(Checker(load_reference()), [op], [(0, 0.1, out, None)], errors) == 1
    assert errors
