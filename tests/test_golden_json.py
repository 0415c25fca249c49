"""Byte-for-byte regression of the CLI output.

The files under `tests/golden/` were written by the command lines below:
`CASES` with `--format json`, `TEXT_CASES` as the default text report.
Any change to a verdict, witness, count, residual factor, character-table
cell string or key order shows up here as a byte difference. Regenerate a
file only when its change is intended, with the same command line and
`--out tests/golden/<name>.json` (or `.txt`).
`audit_seed_0.json` is `cayint audit --seed 0 --format json`; it is compared
in `tests/test_classify.py::TestAudit`, which already holds that audit.
`DIGESTS` pins the `--format json` output of two larger tables, five
classify reports and one spectrum by its sha256 instead of a file.
"""

from __future__ import annotations

import hashlib
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
    # CI brute force in sampled mode
    "classify_dihedral_7": (["classify", "--catalog", "dihedral", "7", "--seed", "0"], 0),
    # spectral witnesses above order 24; the CI brute force skipped
    "classify_dihedral_13": (["classify", "--catalog", "dihedral", "13", "--seed", "0"], 0),
    "spectrum_alpha": (["spectrum", "--fixture", "alpha"], 1),
    "spectrum_beta": (["spectrum", "--fixture", "beta"], 1),
    # character tables with irrational cells: the cell strings byte for byte
    "chartable_alternating_5": (["chartable", "--catalog", "alternating", "5"], 0),
    "chartable_cyclic_5": (["chartable", "--catalog", "cyclic", "5"], 0),
    "chartable_q8z3": (["chartable", "--catalog", "q8z3"], 0),
    # the benchmark's structure tables and an abelian one with k = 48
    "chartable_symmetric_6": (["chartable", "--catalog", "symmetric", "6"], 0),
    "chartable_alternating_6": (["chartable", "--catalog", "alternating", "6"], 0),
    "chartable_q8_x_symmetric_4": (["chartable", "--catalog", "q8", "x", "symmetric", "4"], 0),
    "chartable_dicyclic_15": (["chartable", "--catalog", "dicyclic", "15"], 0),
    "chartable_dihedral_40": (["chartable", "--catalog", "dihedral", "40"], 0),
    "chartable_cyclic_48": (["chartable", "--catalog", "cyclic", "48"], 0),
}

# Outputs too large to keep as files, pinned by the sha256 of their JSON,
# with the exit code: the character tables of Z120 (k = 120, phi = 32) and
# Z2^3 x Z3^3 (k = 216, phi = 2); two classify reports whose normal-set
# surveys decide 60 and 19 orbits; two whose sampled CI brute force finds
# all 1000 sets integral; S5's, whose CCI witness and its residual come from
# the minimal-polynomial read-out; and one Cayley graph on A6 (n = 360),
# integer eigenvalues 9 and 3 and a residual of degree 354 in four
# squarefree parts, of multiplicities 5, 8, 9 and 10.
DIGESTS = {
    "chartable_cyclic_120": (
        ["chartable", "--catalog", "cyclic", "120"],
        0,
        "a9715d3c0a786f426e4044c71731136efb34d3676f5bf979f73a34611b3d05df",
    ),
    "chartable_z2z3_3_3": (
        ["chartable", "--catalog", "z2z3", "3", "3"],
        0,
        "b06633d16d6702473e9caafc399413a7715bc9b75251b1fd8ccaaf4b4abf7c2c",
    ),
    "classify_cyclic_120": (
        ["classify", "--catalog", "cyclic", "120"],
        0,
        "271e10f0dfc30ff73780e62aec2e3c1e244d5f59a4204fcd0b6d6a66de215294",
    ),
    "classify_z2z3_2_2": (
        ["classify", "--catalog", "z2z3", "2", "2"],
        0,
        "0d5821332e156c6acb438b31a6190d6fc4c0416a81b472c96e2ae3c4f7e80a60",
    ),
    "classify_z2z4_0_2": (
        ["classify", "--catalog", "z2z4", "0", "2"],
        0,
        "bdc5539e4b99f1cd103887cf74b677b8754d6eb24c0d4397601cdad826662f2b",
    ),
    "classify_z2z3_3_1": (
        ["classify", "--catalog", "z2z3", "3", "1"],
        0,
        "8d231049b4f2ce51c5cb0cc6f4fd01ab82cac0a9950e7ec54ecf101365d4b8a8",
    ),
    "classify_s5": (
        ["classify", "--catalog", "s5"],
        0,
        "983127b8dd6a377c1b7592f0640598c125762136f7f55c902a3a7194013fad8a",
    ),
    "spectrum_alternating_6_set": (
        ["spectrum", "--catalog", "alternating", "6", "--set", "110,111,131,184,236,319,334,341,354"],
        1,
        "844707f63bcabc31515b31fe14b8d7ec9a5bdc8799295bc393d128be4887daae",
    ),
}

# The text reports read the same report dictionaries as the JSON, through
# their own formatting; these pin it.
TEXT_CASES = {
    "classify_s3": (["classify", "--catalog", "s3", "--seed", "0"], 0),
    "classify_cyclic_12": (["classify", "--catalog", "cyclic", "12", "--seed", "0"], 0),
    # the evidence lines of both spectral witnesses, and a skip note
    "classify_dihedral_13": (["classify", "--catalog", "dihedral", "13", "--seed", "0"], 0),
    "audit_seed_0": (["audit", "--seed", "0"], 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, tmp_path):
    argv, want_code = CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == want_code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_json_output_matches_digest(name, tmp_path):
    argv, want_code, digest = DIGESTS[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == want_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_output_matches_golden(name, tmp_path):
    argv, want_code = TEXT_CASES[name]
    out = tmp_path / f"{name}.txt"
    assert main(argv + ["--out", str(out)]) == want_code
    assert out.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()
