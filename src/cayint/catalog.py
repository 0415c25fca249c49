"""Constructors for named groups and a small text format for arbitrary ones.

File format (UTF-8, `#` starts a comment line):

    group <name> <n>
    table
    <n rows of n integers>

or

    group <name> <n>
    perms <d>
    <one generator per line: d integers, a permutation of 0..d-1>

With `perms`, the group is the closure of the generators under composition
and n must equal the closure size. In both forms n is at most the element
cap, DEFAULT_ELEMENT_CAP.
"""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

from .groups import FiniteGroup, build_group, direct_product

DEFAULT_ELEMENT_CAP = 5040


class UnknownName(ValueError):
    """Catalog name is not recognized."""


class ParamOutOfRange(ValueError):
    """Catalog parameters are missing, malformed, or exceed the element cap."""


class ParseError(ValueError):
    """Group/function file is malformed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def cyclic_group(m: int) -> FiniteGroup:
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return build_group(table, name=f"Z{m}")


def dihedral_group(m: int) -> FiniteGroup:
    """<a, b | a^m = b^2 = 1, b a b = a^-1>, order 2m; index = i + m*j for a^i b^j."""
    n = 2 * m

    def mul(x: int, y: int) -> int:
        i, j = x % m, x // m
        k, l = y % m, y // m
        return ((i + k) % m if j == 0 else (i - k) % m) + m * ((j + l) % 2)

    return build_group([[mul(x, y) for y in range(n)] for x in range(n)], name=f"D{m}")


def dicyclic_group(m: int) -> FiniteGroup:
    """<a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>, order 4m; index = i + 2m*j."""
    mm = 2 * m
    n = 2 * mm

    def mul(x: int, y: int) -> int:
        i, j = x % mm, x // mm
        k, l = y % mm, y // mm
        i2 = (i + k) % mm if j == 0 else (i - k) % mm
        j2 = j + l
        if j2 == 2:
            return (i2 + m) % mm
        return i2 + mm * j2

    name = "Q8" if m == 2 else f"Dic{4 * m}"
    return build_group([[mul(x, y) for y in range(n)] for x in range(n)], name=name)


def _perm_group(perms: list[tuple[int, ...]], name: str, limit: int, line: int) -> FiniteGroup:
    """Closure of the generators; a ParseError at `line` as soon as it has
    more than `limit` elements."""
    d = len(perms[0])
    ident = tuple(range(d))
    elems = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for q in perms:
                r = tuple(p[q[i]] for i in range(d))
                if r not in elems:
                    elems.add(r)
                    fresh.append(r)
                    if len(elems) > limit:
                        raise ParseError(line, f"closure exceeds the {limit} elements the header declares")
        frontier = fresh
    order = sorted(elems)  # identity is lexicographically least
    pos = {p: i for i, p in enumerate(order)}
    table = [
        [pos[tuple(p[q[i]] for i in range(d))] for q in order]
        for p in order
    ]
    return build_group(table, name=name)


def symmetric_group(m: int) -> FiniteGroup:
    order = list(permutations(range(m)))
    pos = {p: i for i, p in enumerate(order)}
    table = [[pos[tuple(p[q[i]] for i in range(m))] for q in order] for p in order]
    return build_group(table, name=f"S{m}")


def alternating_group(m: int) -> FiniteGroup:
    def parity(p: tuple[int, ...]) -> int:
        seen, out = [False] * len(p), 0
        for i in range(len(p)):
            if not seen[i]:
                j, ln = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    ln += 1
                out += ln - 1
        return out % 2

    order = [p for p in permutations(range(m)) if parity(p) == 0]
    pos = {p: i for i, p in enumerate(order)}
    table = [[pos[tuple(p[q[i]] for i in range(m))] for q in order] for p in order]
    return build_group(table, name=f"A{m}")


def elementary_product(base_a: int, na: int, base_b: int, nb: int) -> FiniteGroup:
    g = cyclic_group(1)
    for _ in range(na):
        g = direct_product(g, cyclic_group(base_a))
    for _ in range(nb):
        g = direct_product(g, cyclic_group(base_b))
    return FiniteGroup(g.table, g.inv, g.ord, f"Z{base_a}^{na}xZ{base_b}^{nb}", g.validation)


_FIXED = {
    "q8": lambda: dicyclic_group(2),
    "dicyclic12": lambda: dicyclic_group(3),
    "dic12": lambda: dicyclic_group(3),
    "q8z3": lambda: direct_product(dicyclic_group(2), cyclic_group(3), name="Q8xZ3"),
}

_ALIASES = {
    "s3": ("symmetric", (3,)),
    "s4": ("symmetric", (4,)),
    "s5": ("symmetric", (5,)),
    "a4": ("alternating", (4,)),
    "a5": ("alternating", (5,)),
    "d4": ("dihedral", (4,)),
    "d8": ("dihedral", (8,)),
}


def _factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def catalog(name: str, *params: int, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Build a named group; raises UnknownName / ParamOutOfRange."""
    key = name.lower()
    if len(params) == 1 and isinstance(params[0], (tuple, list)):
        params = tuple(params[0])
    params = tuple(int(p) for p in params)
    if key in _FIXED:
        if params:
            raise ParamOutOfRange(f"{name} takes no parameters")
        return _FIXED[key]()
    if key in _ALIASES:
        if params:
            raise ParamOutOfRange(f"{name} takes no parameters")
        key, params = _ALIASES[key]
    if key.startswith("z") and key[1:].isdigit() and not params:
        key, params = "cyclic", (int(key[1:]),)
    if key.startswith("c") and key[1:].isdigit() and not params:
        key, params = "cyclic", (int(key[1:]),)

    def need(count: int) -> tuple[int, ...]:
        if len(params) != count:
            raise ParamOutOfRange(f"{name} needs {count} integer parameter(s), got {len(params)}")
        return params

    def check(order: int) -> int:
        if order < 1 or order > cap:
            raise ParamOutOfRange(f"{name}{params} has order {order}, outside 1..{cap}")
        return order

    if key == "cyclic":
        (m,) = need(1)
        check(m)
        return cyclic_group(m)
    if key == "dihedral":
        (m,) = need(1)
        if m < 1:
            raise ParamOutOfRange("dihedral needs m >= 1")
        check(2 * m)
        return dihedral_group(m)
    if key == "dicyclic":
        (m,) = need(1)
        if m < 2:
            raise ParamOutOfRange("dicyclic needs m >= 2")
        check(4 * m)
        return dicyclic_group(m)
    if key == "symmetric":
        (m,) = need(1)
        if m < 1:
            raise ParamOutOfRange("symmetric needs m >= 1")
        check(_factorial(m))
        return symmetric_group(m)
    if key == "alternating":
        (m,) = need(1)
        if m < 3:
            raise ParamOutOfRange("alternating needs m >= 3")
        check(_factorial(m) // 2)
        return alternating_group(m)
    if key == "z2z3":
        a, b = need(2)
        check(2**a * 3**b)
        return elementary_product(2, a, 3, b)
    if key == "z2z4":
        a, b = need(2)
        check(2**a * 4**b)
        return elementary_product(2, a, 4, b)
    raise UnknownName(f"unknown catalog group {name!r}")


def resolve_group(tokens: list[str], *, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Resolve CLI-style tokens: a name with integer params, with `x` or `*`
    separating direct-product factors, e.g. ["q8", "x", "cyclic", "3"]."""
    factors: list[list[str]] = [[]]
    for tok in tokens:
        for piece in tok.replace("*", " x ").split():
            if piece == "x" and factors[-1]:
                factors.append([])
            else:
                factors[-1].append(piece)
    built: list[FiniteGroup] = []
    for factor in factors:
        if not factor:
            raise ParamOutOfRange("empty group factor")
        name, rest = factor[0], factor[1:]
        if not all(p.lstrip("-").isdigit() for p in rest):
            raise ParamOutOfRange(f"parameters for {name} must be integers: {rest}")
        built.append(catalog(name, tuple(int(p) for p in rest), cap=cap))
    out = built[0]
    for g in built[1:]:
        out = direct_product(out, g)
        if out.n > cap:
            raise ParamOutOfRange(f"product order {out.n} exceeds cap {cap}")
    return out


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def load_group(path: str | Path) -> FiniteGroup:
    lines = _content_lines(Path(path).read_text(encoding="utf-8"))
    if not lines:
        raise ParseError(1, "empty file")
    ln, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "group":
        raise ParseError(ln, f"expected 'group <name> <n>', got {header!r}")
    name = fields[1]
    try:
        n = int(fields[2])
    except ValueError:
        raise ParseError(ln, f"order must be an integer, got {fields[2]!r}") from None
    if n > DEFAULT_ELEMENT_CAP:
        raise ParseError(ln, f"order {n} exceeds the element cap {DEFAULT_ELEMENT_CAP}")
    if len(lines) < 2:
        raise ParseError(ln, "missing 'table' or 'perms' section")
    ln2, kind = lines[1]
    body = lines[2:]
    if kind == "table":
        if len(body) != n:
            raise ParseError(ln2, f"expected {n} table rows, found {len(body)}")
        rows = []
        for ln3, line in body:
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise ParseError(ln3, f"non-integer table entry in {line!r}") from None
            if len(row) != n:
                raise ParseError(ln3, f"row has {len(row)} entries, expected {n}")
            rows.append(row)
        return build_group(rows, name=name)
    if kind.startswith("perms"):
        fields = kind.split()
        if len(fields) != 2 or not fields[1].isdigit():
            raise ParseError(ln2, f"expected 'perms <d>', got {kind!r}")
        d = int(fields[1])
        gens = []
        for ln3, line in body:
            try:
                p = tuple(int(x) for x in line.split())
            except ValueError:
                raise ParseError(ln3, f"non-integer permutation entry in {line!r}") from None
            if len(p) != d or sorted(p) != list(range(d)):
                raise ParseError(ln3, f"not a permutation of 0..{d - 1}: {line!r}")
            gens.append(p)
        if not gens:
            raise ParseError(ln2, "no permutation generators given")
        g = _perm_group(gens, name, n, ln)
        if g.n != n:
            raise ParseError(ln, f"closure has {g.n} elements but header declares {n}")
        return g
    raise ParseError(ln2, f"expected 'table' or 'perms <d>', got {kind!r}")


def save_group(g: FiniteGroup, path: str | Path) -> None:
    out = [f"group {g.name.replace(' ', '_')} {g.n}", "table"]
    out.extend(" ".join(str(v) for v in row) for row in g.table)
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
