"""Cayley and Cayley colour graph spectra, decided exactly by two routes.

Route one builds the integer adjacency matrix [f(g h^-1)] and factors its
exact characteristic polynomial. Route two, available when the colour
function is constant on conjugacy classes, evaluates the closed-form
eigenvalues (1/chi(1)) sum_g f(g) chi(g) over the irreducible characters,
each with multiplicity chi(1)^2. The two are compared by expanding the
character-route product polynomial in Q(zeta_e)[x].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable, Sequence

from .chartable import CharacterTable
from .groups import Atom, ConjugacyPartition, FiniteGroup, atom, conjugacy_classes
from .linalg import Cyclotomic, IntMatrix, IntPolynomial, SpectrumReport, charpoly, integer_spectrum


class NotSymmetricFunction(ValueError):
    """Colour function has f(g) != f(g^-1) somewhere."""


class NotAClassFunction(ValueError):
    """Colour function is not constant on conjugacy classes."""


class ConnectionFunction:
    """Integer colour function on a group; flags are recomputed, never trusted."""

    __slots__ = ("group", "values", "symmetric", "class_function", "zero_at_identity")

    def __init__(self, group: FiniteGroup, values: Sequence[int], part: ConjugacyPartition | None = None):
        if len(values) != group.n:
            raise ValueError(f"need {group.n} values, got {len(values)}")
        self.group = group
        self.values = tuple(int(v) for v in values)
        self.symmetric = all(self.values[g] == self.values[group.inv[g]] for g in group.elements())
        part = part or conjugacy_classes(group)
        self.class_function = all(
            self.values[x] == self.values[cls[0]] for cls in part.classes for x in cls
        )
        self.zero_at_identity = self.values[0] == 0

    @property
    def in_f(self) -> bool:
        """Membership in the integer symmetric class functions."""
        return self.symmetric and self.class_function

    @classmethod
    def delta(cls, group: FiniteGroup, subset: Iterable[int], part: ConjugacyPartition | None = None) -> "ConnectionFunction":
        marks = [0] * group.n
        for s in subset:
            marks[s] = 1
        return cls(group, marks, part)

    @classmethod
    def from_class_values(
        cls, group: FiniteGroup, part: ConjugacyPartition, class_values: Sequence[int]
    ) -> "ConnectionFunction":
        vals = [0] * group.n
        for j, c in enumerate(part.classes):
            for x in c:
                vals[x] = int(class_values[j])
        return cls(group, vals, part)

    def __repr__(self) -> str:
        return f"ConnectionFunction({self.group.name}, {list(self.values)})"


class ConnectionSet:
    """Inverse-closed, identity-free subset of a group."""

    __slots__ = ("group", "elements", "normal", "eulerian")

    def __init__(self, group: FiniteGroup, elements: Iterable[int], part: ConjugacyPartition | None = None):
        elems = frozenset(int(x) for x in elements)
        if 0 in elems:
            raise ValueError("connection set must not contain the identity")
        for s in elems:
            if group.inv[s] not in elems:
                raise ValueError(f"connection set is not inverse-closed at {s}")
        self.group = group
        self.elements = elems
        t, inv = group.table, group.inv
        self.normal = all(
            t[t[x][s]][inv[x]] in elems for s in elems for x in group.elements()
        )
        self.eulerian = eulerian_check(group, elems)[0]

    def delta(self) -> ConnectionFunction:
        return ConnectionFunction.delta(self.group, self.elements)


def eulerian_check(g: FiniteGroup, subset: Iterable[int]) -> tuple[bool, tuple[Atom, ...] | Atom]:
    """Is the subset a union of atoms? Returns the atom decomposition, or the
    first atom that escapes the subset."""
    elems = set(subset)
    seen: set[int] = set()
    decomposition: list[Atom] = []
    for s in sorted(elems):
        if s in seen:
            continue
        a = atom(g, s)
        if any(x not in elems for x in a.members):
            return False, a
        seen.update(a.members)
        decomposition.append(a)
    return True, tuple(decomposition)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def adjacency(g: FiniteGroup, f: ConnectionFunction) -> IntMatrix:
    """The matrix [f(a b^-1)] over all ordered pairs; symmetric iff f is."""
    t, inv, vals = g.table, g.inv, f.values
    return IntMatrix(tuple(tuple(vals[t[a][inv[b]]] for b in g.elements()) for a in g.elements()))


def spectrum_matrix(g: FiniteGroup, f: ConnectionFunction) -> SpectrumReport:
    """Exact spectrum via the characteristic polynomial of the adjacency matrix."""
    if not f.symmetric:
        raise NotSymmetricFunction(f"f({_asym_witness(f)}) differs on an inverse pair")
    m = adjacency(g, f)
    return integer_spectrum(charpoly(m), bound=m.gershgorin_bound())


def _asym_witness(f: ConnectionFunction) -> int:
    return next(g for g in f.group.elements() if f.values[g] != f.values[f.group.inv[g]])


def spectrum_characters(
    g: FiniteGroup, f: ConnectionFunction, table: CharacterTable
) -> tuple[tuple[Cyclotomic, int], ...]:
    """Closed-form eigenvalues for a class function: one per irreducible
    character chi, value (1/chi(1)) sum_g f(g) chi(g), multiplicity chi(1)^2."""
    if not f.class_function:
        raise NotAClassFunction("character-route spectrum needs a class function")
    if table.group is not g and table.group.table != g.table:
        raise ValueError("character table does not belong to this group")
    part = table.partition
    sizes = part.sizes()
    reps = part.reps()
    out = []
    for d, row in zip(table.degrees, table.values):
        acc = Cyclotomic.rational(0)
        for j in range(table.k):
            w = f.values[reps[j]] * sizes[j]
            if w:
                acc = acc + w * row[j]
        out.append((acc * Fraction(1, d), d * d))
    return tuple(out)


def expand_character_poly(pairs: Sequence[tuple[Cyclotomic, int]]) -> list[Cyclotomic]:
    """Expand prod (x - lambda)^mult as ascending coefficients in Q(zeta)."""
    coeffs: list[Cyclotomic] = [Cyclotomic.rational(1)]
    for lam, mult in pairs:
        for _ in range(mult):
            nxt = [(-lam) * coeffs[0]]
            for i in range(1, len(coeffs)):
                nxt.append(coeffs[i - 1] + (-lam) * coeffs[i])
            nxt.append(coeffs[-1])
            coeffs = nxt
    return coeffs


def routes_agree(g: FiniteGroup, f: ConnectionFunction, table: CharacterTable) -> bool:
    """Exact dual-route check: the character-route product polynomial must
    equal the matrix-route characteristic polynomial coefficient by coefficient."""
    pairs = spectrum_characters(g, f, table)
    expanded = expand_character_poly(pairs)
    p = charpoly(adjacency(g, f))
    if len(expanded) != len(p.coeffs):
        return False
    return all(c == want for c, want in zip(expanded, p.coeffs))


def integrality_by_criterion(
    g: FiniteGroup, f: ConnectionFunction
) -> tuple[bool, tuple[int, int] | None]:
    """Power-map fixedness test: the colour graph of an integer symmetric
    class function is integral iff f(g^h) = f(g) for every unit h mod |G|.
    Returns (verdict, witness (g, h)) with the first failing pair."""
    if not f.class_function:
        raise NotAClassFunction("criterion applies to class functions")
    if not f.symmetric:
        raise NotSymmetricFunction(f"f({_asym_witness(f)}) differs on an inverse pair")
    n = g.n
    vals = f.values
    for h in range(2, n):
        if gcd(h, n) != 1:
            continue
        for x in g.elements():
            if vals[g.power(x, h)] != vals[x]:
                return False, (x, h)
    return True, None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_function(f: ConnectionFunction, path: str | Path) -> None:
    body = "\n".join(str(v) for v in f.values)
    Path(path).write_text(f"f {f.group.n}\n{body}\n", encoding="utf-8")


def load_function(path: str | Path, g: FiniteGroup) -> ConnectionFunction:
    """Read the `f <n>` format: n integers indexed by element, any whitespace."""
    from .catalog import ParseError

    tokens: list[tuple[int, str]] = []
    for i, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.extend((i, tok) for tok in line.split())
    if len(tokens) < 2 or tokens[0][1] != "f":
        raise ParseError(tokens[0][0] if tokens else 1, "expected header 'f <n>'")
    try:
        n = int(tokens[1][1])
    except ValueError:
        raise ParseError(tokens[1][0], f"order must be an integer, got {tokens[1][1]!r}") from None
    if n != g.n:
        raise ParseError(tokens[1][0], f"function is on {n} elements, group has {g.n}")
    body = tokens[2:]
    if len(body) != n:
        raise ParseError(body[-1][0] if body else tokens[1][0], f"expected {n} values, found {len(body)}")
    values = []
    for ln, tok in body:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(ln, f"non-integer value {tok!r}") from None
    return ConnectionFunction(g, values)


def parse_set_tokens(spec: str, g: FiniteGroup) -> ConnectionSet:
    """Parse a comma-separated element index list into a ConnectionSet."""
    try:
        idx = [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"set specification must be integers: {spec!r}") from None
    for x in idx:
        if not 0 <= x < g.n:
            raise ValueError(f"element {x} out of range for |G| = {g.n}")
    return ConnectionSet(g, idx)
