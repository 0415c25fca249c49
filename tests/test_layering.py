"""Representations stay behind their modules. The multiplication table
stays behind `groups`: no other module of `cayint` except `catalog`, which
builds and saves tables, reads an attribute named `table`. The integer
matrix array stays behind `linalg`, which alone chooses between int64 and
Python ints: no other module reads an attribute named `entries`. Character
tables stay on the integer path: `chartable` and `classify` never name
`Fraction`."""

from __future__ import annotations

import ast
from pathlib import Path

import cayint

TABLE_OWNERS = {"groups.py", "catalog.py"}
SRC = Path(cayint.__file__).parent


def _reads(attr: str, owners: set[str]) -> list[str]:
    """Every read of attribute `attr` in a `cayint` module outside `owners`."""
    modules = sorted(SRC.glob("*.py"))
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


def test_table_path_never_names_fraction():
    uses = []
    for name in ("chartable.py", "classify.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id == "Fraction")
                or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                or (isinstance(node, ast.alias) and "Fraction" in (node.name, node.asname))
            )
            if named:
                uses.append(f"{name}:{node.lineno}")
    assert uses == []
