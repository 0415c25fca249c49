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

Permutation groups (`symmetric_group`, `alternating_group`, the `perms`
form) have one table builder, `_perm_table`. Its elements are the
permutations in ascending lexicographic order, so the identity is element
0 and a group's labels do not depend on how it was generated; the product
of elements a and b is the permutation i -> p_a[p_b[i]]. Each constructor
hands it generators: the file's, (0 1) and the m-cycle for S_m, and
(0 1 2) with the m-cycle (odd m) or (1 2 ... m-1) (even m) for A_m; they
are also the generating set `build_group` runs Light's test over, as are
1 for Z_m and a, b for the dihedral and dicyclic groups. Only
the generators' rows are ranked by binary search; every other row is a
gather of rows already built, row(s c) = row(s)[row(c)], taken in layers
out from the identity, so S7 needs 2 searched rows instead of 5,040.

Every constructor writes row blocks into the one (n, n) int32 table it
hands `build_group`: the dihedral and dicyclic tables are filled a block
of rows at a time (`groups.table_by_blocks`), a layer of `_perm_table`
gathers its rows a block at a time, and a `table` file is parsed row by
row straight into the table. So building holds the table and one block of
rows of temporaries, as the axiom scans do.
"""

from __future__ import annotations

from itertools import chain, permutations, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groups import FiniteGroup, NotAGroup, _row_blocks, build_group, check_row, direct_product, table_by_blocks

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


def _rotation_parts(x: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """For the rows x = i + m*j (j in {0, 1}) of a table of order n, x down
    and y = k + m*l across: the arrays i ± k (+ when j = 0) and j + l."""
    y = np.arange(n, dtype=np.int32)
    i, j, k, l = x % m, x // m, y % m, y // m
    return i[:, None] + (1 - 2 * j)[:, None] * k, j[:, None] + l


def cyclic_group(m: int) -> FiniteGroup:
    """Z_m; row a is a, a+1, ..., a+m-1 mod m, a window of 0..m-1 written twice."""
    twice = np.tile(np.arange(m, dtype=np.int32), 2)
    table = np.lib.stride_tricks.sliding_window_view(twice, m)[:m].copy()
    return build_group(table, name=f"Z{m}", gens=[1 % m])


def dihedral_group(m: int) -> FiniteGroup:
    """<a, b | a^m = b^2 = 1, b a b = a^-1>, order 2m; index = i + m*j for a^i b^j."""

    def rows_of(x: np.ndarray) -> np.ndarray:  # a^(i2 mod m) b^(j2 mod 2), in place
        i2, j2 = _rotation_parts(x, 2 * m, m)
        i2 %= m
        j2 %= 2
        j2 *= m
        i2 += j2
        return i2

    return build_group(table_by_blocks(2 * m, rows_of), name=f"D{m}", gens=[1 % m, m])


def dicyclic_group(m: int) -> FiniteGroup:
    """<a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>, order 4m; index = i + 2m*j."""
    mm = 2 * m

    def rows_of(x: np.ndarray) -> np.ndarray:  # a^i2 b^j2 with b^2 = a^m, in place
        i2, j2 = _rotation_parts(x, 2 * mm, mm)
        i2[j2 == 2] += m
        i2 %= mm
        j2 %= 2
        j2 *= mm
        i2 += j2
        return i2

    name = "Q8" if m == 2 else f"Dic{4 * m}"
    return build_group(table_by_blocks(2 * mm, rows_of), name=name, gens=[1, mm])


def _perm_table(perms: np.ndarray, gens: Sequence[Sequence[int]]) -> tuple[np.ndarray, list[int]]:
    """The (n, n) int32 table of the group whose elements are the rows of
    `perms`, an (n, d) integer array of permutations of 0..d-1 listed in
    ascending lexicographic order (so the identity is row 0), and which the
    permutations `gens` generate, with the generators' row indices;
    table[a, b] is the row index of the composite i -> p_a[p_b[i]].

    Only the generators' rows are searched: their composites with every
    element are formed by fancy indexing and ranked by binary search over
    the rows read as big-endian unsigned byte strings, whose byte order is
    the lexicographic order at any degree d. Every other row is gathered,
    layer by layer out from the identity: (s c) b = s (c b), so row(s c) =
    row(s)[row(c)] for a generator s and an element c already reached.
    Every element is a word in the generators, so every row is reached.
    """
    n, d = perms.shape
    perms = perms.astype(np.min_scalar_type(d - 1))
    key_type = perms.dtype.newbyteorder(">")
    word = np.dtype((np.void, d * key_type.itemsize))

    def keys(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(a, dtype=key_type).view(word)[..., 0]

    ranks = keys(perms)
    gen_perms = np.array(gens, dtype=perms.dtype).reshape(-1, d)
    gen_rows = np.searchsorted(ranks, keys(gen_perms))
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n, dtype=np.int32)
    table[gen_rows] = np.searchsorted(ranks, keys(gen_perms[:, perms]))
    # the walk runs on Python lists, so a layer costs one numpy gather per generator
    gen_tables = [(table[s], table[s].tolist()) for s in gen_rows.tolist()]
    reached = [True] + [False] * (n - 1)
    layer = [0]
    while layer:
        fresh = []
        for row_s, products in gen_tables:
            targets, sources = [], []
            for c in layer:
                x = products[c]  # s c
                if not reached[x]:
                    reached[x] = True
                    targets.append(x)
                    sources.append(c)
            for rows in _row_blocks(len(targets), n):
                table[targets[rows]] = row_s[table[sources[rows]]]
            fresh += targets
        layer = fresh
    assert all(reached), "the generators do not generate every row"
    return table, gen_rows.tolist()


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
    table, rows = _perm_table(np.array(sorted(elems)), perms)
    return build_group(table, name=name, gens=rows)


def _all_perms(m: int) -> np.ndarray:
    """Every permutation of 0..m-1 as an (m!, m) array, in lexicographic order."""
    return np.array(list(permutations(range(m))))


def _cycle(m: int, points: Sequence[int]) -> tuple[int, ...]:
    """The permutation of 0..m-1 sending each of `points` to the next, the last to the first."""
    p = list(range(m))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


def symmetric_group(m: int) -> FiniteGroup:
    """S_m, generated by (0 1) and (0 1 ... m-1)."""
    gens = [_cycle(m, [0, 1]), _cycle(m, list(range(m)))] if m >= 2 else []
    table, rows = _perm_table(_all_perms(m), gens)
    return build_group(table, name=f"S{m}", gens=rows)


def alternating_group(m: int) -> FiniteGroup:
    """A_m, generated by (0 1 2) and (0 1 ... m-1) for odd m, (1 2 ... m-1) for even m."""
    perms = _all_perms(m)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    long_cycle = list(range(m)) if m % 2 else list(range(1, m))
    gens = [_cycle(m, [0, 1, 2]), _cycle(m, long_cycle)] if m >= 3 else []
    table, rows = _perm_table(perms[inversions % 2 == 0], gens)
    return build_group(table, name=f"A{m}", gens=rows)


def elementary_product(base_a: int, na: int, base_b: int, nb: int) -> FiniteGroup:
    g = cyclic_group(1)
    for _ in range(na):
        g = direct_product(g, cyclic_group(base_a))
    for _ in range(nb):
        g = direct_product(g, cyclic_group(base_b))
    return FiniteGroup(g.table, g.inv, g.ord, g.gens, f"Z{base_a}^{na}xZ{base_b}^{nb}")


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


# Each parametrised family: its parameters' names, their least value, the
# factors whose product is the order, and the constructor.
_FAMILIES = {
    "cyclic": (("m",), 1, lambda m: (m,), cyclic_group),
    "dihedral": (("m",), 1, lambda m: (2, m), dihedral_group),
    "dicyclic": (("m",), 2, lambda m: (4, m), dicyclic_group),
    "symmetric": (("m",), 1, lambda m: range(2, m + 1), symmetric_group),
    "alternating": (("m",), 3, lambda m: range(3, m + 1), alternating_group),
    "z2z3": (
        ("a", "b"), 0, lambda a, b: chain(repeat(2, a), repeat(3, b)), lambda a, b: elementary_product(2, a, 3, b)
    ),
    "z2z4": (
        ("a", "b"), 0, lambda a, b: chain(repeat(2, a), repeat(4, b)), lambda a, b: elementary_product(2, a, 4, b)
    ),
}


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

    if key not in _FAMILIES:
        raise UnknownName(f"unknown catalog group {name!r}")
    names, least, factors, build = _FAMILIES[key]
    if len(params) != len(names):
        raise ParamOutOfRange(f"{name} needs {len(names)} integer parameter(s), got {len(params)}")
    if min(params) < least:
        raise ParamOutOfRange(f"{key} needs {', '.join(names)} >= {least}")
    order = 1
    for factor in factors(*params):  # stopped past the cap, as the order of S_2000 has 5,736 digits
        order *= factor
        if order > cap:
            raise ParamOutOfRange(f"{name}{params} has order above the cap {cap}")
    return build(*params)


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
        if out.n * g.n > cap:  # before the product's (n, n) table is built
            raise ParamOutOfRange(f"product order {out.n * g.n} exceeds cap {cap}")
        out = direct_product(out, g)
    return out


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def _content_lines(f: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The stripped lines of a text file `f` that are neither blank nor
    comments, read one at a time, with their 1-based numbers as
    `str.splitlines` counts the lines of the whole text."""
    number = 0
    for physical in f:
        for raw in physical.splitlines():
            number += 1
            line = raw.strip()
            if line and not line.startswith("#"):
                yield number, line


def _table_rows(body: Iterator[tuple[int, str]], n: int, ln: int) -> np.ndarray:
    """The (n, n) int32 table of a `table` section, each row parsed
    straight into it. The errors are those of parsing every row first and
    then validating the rows as `build_group` does: a row count other than
    n, named at the section line `ln`, then the first malformed row, then
    the first row with an entry out of range."""
    table = np.empty((max(n, 0),) * 2, dtype=np.int32)
    count, malformed, out_of_range = 0, None, None
    for ln3, line in body:
        count += 1
        if malformed is not None or count > n:
            continue
        try:
            row = [int(x) for x in line.split()]
        except ValueError:
            malformed = ParseError(ln3, f"non-integer table entry in {line!r}")
            continue
        if len(row) != n:
            malformed = ParseError(ln3, f"row has {len(row)} entries, expected {n}")
            continue
        try:
            check_row(count - 1, row, n)
        except NotAGroup as err:
            out_of_range = out_of_range or err
            continue
        table[count - 1] = row
    if count != n:
        raise ParseError(ln, f"expected {n} table rows, found {count}")
    if malformed is not None:
        raise malformed
    if out_of_range is not None:
        raise out_of_range
    return table


def load_group(path: str | Path) -> FiniteGroup:
    with open(path, encoding="utf-8") as f:
        return _read_group(_content_lines(f))


def _read_group(lines: Iterator[tuple[int, str]]) -> FiniteGroup:
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "empty file")
    ln, header = first
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
    second = next(lines, None)
    if second is None:
        raise ParseError(ln, "missing 'table' or 'perms' section")
    ln2, kind = second
    if kind == "table":
        return build_group(_table_rows(lines, n, ln2), name=name)
    if kind.startswith("perms"):
        fields = kind.split()
        d = int(fields[1]) if len(fields) == 2 and fields[1].isdecimal() else 0
        if d < 1:
            raise ParseError(ln2, f"expected 'perms <d>', got {kind!r}")
        gens = []
        for ln3, line in lines:
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
    """Write g in the `table` form, one row at a time."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"group {g.name.replace(' ', '_')} {g.n}\ntable\n")
        for row in g.table:
            f.write(" ".join(map(str, row.tolist())) + "\n")
