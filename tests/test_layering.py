"""Representations stay behind their modules. The multiplication table
stays behind `groups`: no other module of `cayint` except `catalog`, which
builds and saves tables, reads an attribute named `table`. The integer
matrix array stays behind `linalg`, which alone chooses between int64 and
Python ints: no other module reads an attribute named `entries`. Character
tables stay on the integer path: `chartable` and `classify` never name
`Fraction`. There is one charpoly path: `linalg._charpoly_stack`, the
kernel, is called only from `charpolys` and `charpoly_mod`."""

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


def _referrers(name: str) -> set[str]:
    """`module:function` for every reference to `name` in a `cayint` module,
    by innermost enclosing function (`<module>` outside any)."""
    found: set[str] = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.add(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def test_charpoly_kernel_has_one_batched_entry():
    assert _referrers("_charpoly_stack") == {"linalg.py:charpolys", "linalg.py:charpoly_mod"}
