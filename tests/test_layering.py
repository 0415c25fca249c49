"""The multiplication table stays behind `groups`: no other module of
`cayint` except `catalog`, which builds and saves tables, reads an
attribute named `table`."""

from __future__ import annotations

import ast
from pathlib import Path

import cayint

TABLE_OWNERS = {"groups.py", "catalog.py"}


def test_only_groups_and_catalog_read_the_table():
    src = Path(cayint.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert {p.name for p in modules} >= TABLE_OWNERS | {"spectra.py", "chartable.py", "classify.py"}
    reads = [
        f"{path.name}:{node.lineno}"
        for path in modules
        if path.name not in TABLE_OWNERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "table"
    ]
    assert reads == []
