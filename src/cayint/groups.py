"""Finite group engine on dense 0-based multiplication tables.

Elements are indices 0..n-1 with 0 always the identity; every higher layer
works with indices only. Groups are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np


class NotAGroup(ValueError):
    """Table fails a group axiom; carries a violating witness where possible."""

    def __init__(self, reason: str, witness: tuple | None = None):
        super().__init__(reason if witness is None else f"{reason} (witness {witness})")
        self.reason = reason
        self.witness = witness


class NotNormal(ValueError):
    """Subset is not conjugation-invariant; carries (g, x, conjugate)."""

    def __init__(self, witness: tuple[int, int, int]):
        g, x, y = witness
        super().__init__(f"not normal: {g}*{x}*{g}^-1 = {y} escapes the subset")
        self.witness = witness


class FiniteGroup:
    """Finite group as an n x n index table; identity is element 0."""

    __slots__ = ("n", "table", "inv", "ord", "name", "validation")

    def __init__(
        self,
        table: tuple[tuple[int, ...], ...],
        inv: tuple[int, ...],
        ord_map: tuple[int, ...],
        name: str,
        validation: str,
    ):
        self.n = len(table)
        self.table = table
        self.inv = inv
        self.ord = ord_map
        self.name = name
        self.validation = validation

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugate(self, x: int, g: int) -> int:
        """x g x^-1."""
        t = self.table
        return t[t[x][g]][self.inv[x]]

    def power(self, g: int, k: int) -> int:
        o = self.ord[g]
        k %= o
        acc, base = 0, g
        while k:
            if k & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            k >>= 1
        return acc

    def elements(self) -> range:
        return range(self.n)

    def exponent(self) -> int:
        return lcm(*self.ord) if self.n else 1

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(a))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, n={self.n})"


def _generating_set(arr: np.ndarray) -> list[int]:
    """Greedy generators: each element outside the closure so far (under
    right multiplication by the generators, from the identity) joins them."""
    n = arr.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    gens: list[int] = []
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        frontier = np.flatnonzero(inside)
        while frontier.size:
            products = np.unique(arr[np.ix_(frontier, gens)])
            frontier = products[~inside[products]]
            inside[frontier] = True
    return gens


def _check_associativity(arr: np.ndarray) -> tuple | None:
    """Light's test: a witness (x, a, y) with (x a) y != x (a y), or None.

    Only the middle factor a runs over a generating set. That is exact: the
    elements a with (x a) y = x (a y) for all x, y are closed under the
    product, so if they include a generating set they are everything.
    """
    n = arr.shape[0]
    step = max(1, (1 << 20) // n)  # rows per chunk: about 2^20 cells, so memory stays O(n)
    for a in _generating_set(arr):
        col_a, row_a = arr[:, a], arr[a, :]
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            left = arr[col_a[rows]]          # (x, y) -> (x a) y
            right = arr[rows][:, row_a]      # (x, y) -> x (a y)
            bad = np.argwhere(left != right)
            if bad.size:
                x, y = map(int, bad[0])
                return lo + x, a, y
    return None


def build_group(table: list[list[int]] | tuple, name: str = "G") -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Every axiom is checked exactly at every order; associativity by Light's
    test over a generating set, recorded on the group as validation "full".
    The identity is relocated to index 0 if found elsewhere. The searches
    run in numpy on one int32 copy of the table; each failure names the
    first violating element, as a scan in index order would.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    for g, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup("table is not square", (g, len(row), n))
        if min(row) < 0 or max(row) >= n:
            h = next(h for h, v in enumerate(row) if not 0 <= v < n)
            raise NotAGroup("entry out of range", (g, h, int(row[h])))
    arr = np.array(table, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)

    two_sided = (arr == idx).all(axis=1) & (arr == idx[:, None]).all(axis=0)
    if not two_sided.any():
        raise NotAGroup("no two-sided identity")
    ident = int(np.argmax(two_sided))
    if ident != 0:
        # swap labels 0 and ident: the relabelled product of perm[a], perm[b] is perm[a b]
        perm = idx.copy()
        perm[0], perm[ident] = ident, 0
        arr = perm[arr[np.ix_(perm, perm)]]

    is_e = arr == 0
    inv = np.argmax(is_e, axis=1)  # the first h with g h = e
    good = is_e.any(axis=1) & (arr[inv, idx] == 0)
    if not good.all():
        raise NotAGroup("missing two-sided inverse", (int(np.argmin(good)),))

    witness = _check_associativity(arr)
    if witness is not None:
        raise NotAGroup("associativity fails", witness)

    # x holds g^k for every g at once; an element stays live until its power is e
    ords = np.ones(n, dtype=np.int64)
    x, live = idx, idx != 0
    while live.any():
        x = arr[x, idx]
        ords += live
        live &= x != 0
    bad = n % ords != 0
    if bad.any():
        g = int(np.argmax(bad))
        raise NotAGroup("element order does not divide group order", (g, int(ords[g])))

    # the caller's int objects are shared when no relabelling was needed
    rows = table if ident == 0 else arr.tolist()
    return FiniteGroup(
        tuple(tuple(map(int, row)) for row in rows),
        tuple(inv.tolist()),
        tuple(ords.tolist()),
        name,
        "full",
    )


# ---------------------------------------------------------------------------
# Conjugacy structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyPartition:
    """Conjugacy classes, ordered by least member; class 0 is the identity's."""

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    inverse_class: tuple[int, ...]
    real_classes: tuple[tuple[int, ...], ...]  # orbits of class indices under inversion

    @property
    def k(self) -> int:
        return len(self.classes)

    def reps(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def conjugacy_classes(g: FiniteGroup) -> ConjugacyPartition:
    n, t, inv = g.n, g.table, g.inv
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        orbit = sorted({t[t[x][a]][inv[x]] for x in range(n)})
        idx = len(classes)
        for y in orbit:
            class_of[y] = idx
        classes.append(tuple(orbit))
    inverse_class = tuple(class_of[inv[c[0]]] for c in classes)
    seen = [False] * len(classes)
    real: list[tuple[int, ...]] = []
    for j in range(len(classes)):
        if not seen[j]:
            orbit_j = tuple(sorted({j, inverse_class[j]}))
            for x in orbit_j:
                seen[x] = True
            real.append(orbit_j)
    return ConjugacyPartition(tuple(class_of), tuple(classes), inverse_class, tuple(real))


@dataclass(frozen=True)
class Atom:
    """The generators of <g>: every g^k with k coprime to the order of g."""

    generator: int
    members: tuple[int, ...]


def atom(g: FiniteGroup, x: int) -> Atom:
    o = g.ord[x]
    members = sorted({g.power(x, k) for k in range(1, o + 1) if gcd(k, o) == 1})
    return Atom(x, tuple(members))


@dataclass(frozen=True)
class PowerMap:
    """The map g -> g^h; a permutation exactly when gcd(h, exponent) = 1."""

    h: int
    images: tuple[int, ...]
    is_permutation: bool


def power_map(g: FiniteGroup, h: int) -> PowerMap:
    images = tuple(g.power(x, h) for x in g.elements())
    return PowerMap(h, images, gcd(h, g.exponent()) == 1)


# ---------------------------------------------------------------------------
# Subgroups, quotients, products
# ---------------------------------------------------------------------------


def generated_subgroup(g: FiniteGroup, gens: list[int] | set[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Closure of a nonempty generating set; returns (subgroup, embedding).

    embedding[i] is the parent index of subgroup element i; element 0 of the
    subgroup is the identity because the parent identity has least index.
    """
    if not gens:
        raise ValueError("generating set must be nonempty")
    t = g.table
    elems = {0} | set(gens)
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in list(elems):
            for b in frontier:
                for p in (t[a][b], t[b][a]):
                    if p not in elems:
                        elems.add(p)
                        fresh.append(p)
        frontier = fresh
    order = sorted(elems)
    pos = {e: i for i, e in enumerate(order)}
    sub = [[pos[t[a][b]] for b in order] for a in order]
    return build_group(sub, name=f"<{len(gens)} gens in {g.name}>"), tuple(order)


def center(g: FiniteGroup) -> tuple[int, ...]:
    t = g.table
    return tuple(z for z in g.elements() if all(t[z][x] == t[x][z] for x in g.elements()))


def _check_subgroup(g: FiniteGroup, members: frozenset[int]) -> None:
    if 0 not in members:
        raise NotAGroup("subset does not contain the identity")
    t = g.table
    for a in members:
        for b in members:
            if t[a][b] not in members:
                raise NotAGroup("subset is not closed", (a, b, t[a][b]))


def quotient(g: FiniteGroup, normal: set[int] | frozenset[int], name: str | None = None) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets are labelled by their least member."""
    members = frozenset(normal)
    _check_subgroup(g, members)
    t, inv = g.table, g.inv
    for x in g.elements():
        for a in members:
            y = t[t[x][a]][inv[x]]
            if y not in members:
                raise NotNormal((x, a, y))
    coset_rep: dict[int, int] = {}
    reps: list[int] = []
    for x in g.elements():
        if x in coset_rep:
            continue
        coset = sorted(t[x][a] for a in members)
        for y in coset:
            coset_rep[y] = coset[0]
        reps.append(coset[0])
    reps.sort()
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[coset_rep[t[a][b]]] for b in reps] for a in reps]
    return build_group(table, name=name or f"{g.name}/N{len(members)}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Componentwise product on pairs, encoded as i*|b| + j."""
    nb = b.n
    ta, tb = a.table, b.table
    table = [
        [ta[i][k] * nb + tb[j][l] for k in range(a.n) for l in range(nb)]
        for i in range(a.n)
        for j in range(nb)
    ]
    return build_group(table, name=name or f"{a.name}x{b.name}")


def is_nilpotent(g: FiniteGroup) -> bool:
    """Upper central series reaches the whole group."""
    t, inv = g.table, g.inv
    current: set[int] = {0}
    while True:
        nxt = {
            z
            for z in g.elements()
            if all(t[t[z][x]][t[inv[z]][inv[x]]] in current for x in g.elements())
        }
        if len(nxt) == g.n:
            return True
        if nxt == current:
            return False
        current = nxt
