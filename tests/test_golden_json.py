"""Byte-for-byte regression of the structured CLI output.

The files under `tests/golden/` were written by the command lines below.
Any change to a verdict, witness, count, residual factor or key order
shows up here as a byte difference. Regenerate a file only when its change
is intended, with the same command line and `--out tests/golden/<name>.json`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from cayint.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "classify_s3": (["classify", "--catalog", "s3", "--seed", "0"], 0),
    "classify_q8": (["classify", "--catalog", "q8", "--seed", "0"], 0),
    "classify_d4": (["classify", "--catalog", "d4", "--seed", "0"], 0),
    "classify_dicyclic12": (["classify", "--catalog", "dicyclic12", "--seed", "0"], 0),
    "classify_a4": (["classify", "--catalog", "a4", "--seed", "0"], 0),
    "classify_cyclic_12": (["classify", "--catalog", "cyclic", "12", "--seed", "0"], 0),
    "classify_z2z4_1_1": (["classify", "--catalog", "z2z4", "1", "1", "--seed", "0"], 0),
    "spectrum_alpha": (["spectrum", "--fixture", "alpha"], 1),
    "spectrum_beta": (["spectrum", "--fixture", "beta"], 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, tmp_path):
    argv, want_code = CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == want_code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
