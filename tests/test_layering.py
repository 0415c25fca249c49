"""Representations stay behind their modules. The multiplication table
stays behind `groups`: no other module of `cayint` except `catalog`, which
builds and saves tables, reads an attribute named `table`. The integer
matrix array stays behind `linalg`, which alone chooses between int64 and
Python ints: no other module reads an attribute named `entries`."""

from __future__ import annotations

import ast
from pathlib import Path

import cayint

TABLE_OWNERS = {"groups.py", "catalog.py"}


def _reads(attr: str, owners: set[str]) -> list[str]:
    """Every read of attribute `attr` in a `cayint` module outside `owners`."""
    src = Path(cayint.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert {p.name for p in modules} >= owners | {"spectra.py", "chartable.py", "classify.py"}
    return [
        f"{path.name}:{node.lineno}"
        for path in modules
        if path.name not in owners
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_only_groups_and_catalog_read_the_table():
    assert _reads("table", TABLE_OWNERS) == []


def test_only_linalg_reads_matrix_entries():
    assert _reads("entries", {"linalg.py"}) == []
