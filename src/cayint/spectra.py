"""Cayley and Cayley colour graph spectra.

The spectrum of the integer adjacency matrix A = [f(g h^-1)] comes
from `linalg`'s power-sum engine: A commutes with right translations, so
tr(A^m) = n f^(*m)(e), and one Krylov sequence on the identity's basis
vector gives every power sum. It has two read-outs of that sequence,
picked in `spectrum_matrix` by the order n and an a-priori bound D on the
degree of A's minimal polynomial: D = k, the class count, for a class
function, and min(m, isqrt(k n)) otherwise, m the number of inverse
pairs. When 4 D <= n or n >= 96, `linalg.minpoly_spectrum` reads the
minimal polynomial and the first power sums off the sequence on the
inverse-pair quotient (`pair_quotient`); otherwise `linalg.cayley_charpoly`
reads the exact characteristic polynomial, which `integer_spectrum`
splits. Both give the same report. The character route of a class
function's spectrum, the closed-form eigenvalues (1/chi(1)) sum_g f(g)
chi(g), and its comparison with this one live in the tests
(`tests/oracle.py`), since no verdict reads them.
"""

from __future__ import annotations

from importlib import resources
from math import isqrt
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .groups import ConjugacyPartition, FiniteGroup, class_count, conjugation_invariant
from .linalg import IntMatrix, SpectrumReport, cayley_charpoly, exact_array, integer_spectrum, minpoly_spectrum


class NotSymmetricFunction(ValueError):
    """Colour function has f(g) != f(g^-1) somewhere."""


class ConnectionFunction:
    """Integer colour function on a group; flags are recomputed, never trusted."""

    __slots__ = ("group", "values", "symmetric", "class_function")

    def __init__(self, group: FiniteGroup, values: Sequence[int]):
        if len(values) != group.n:
            raise ValueError(f"need {group.n} values, got {len(values)}")
        self.group = group
        self.values = tuple(int(v) for v in values)
        self.symmetric = all(self.values[g] == self.values[group.inv[g]] for g in group.elements())
        self.class_function = conjugation_invariant(group, self.values)

    @property
    def in_f(self) -> bool:
        """Membership in the integer symmetric class functions."""
        return self.symmetric and self.class_function

    @classmethod
    def delta(cls, group: FiniteGroup, subset: Iterable[int]) -> "ConnectionFunction":
        marks = [0] * group.n
        for s in subset:
            marks[s] = 1
        return cls(group, marks)

    def __repr__(self) -> str:
        return f"ConnectionFunction({self.group.name}, {list(self.values)})"


class ConnectionSet:
    """Inverse-closed, identity-free subset of a group."""

    __slots__ = ("group", "elements")

    def __init__(self, group: FiniteGroup, elements: Iterable[int]):
        elems = frozenset(int(x) for x in elements)
        if 0 in elems:
            raise ValueError("connection set must not contain the identity")
        for s in elems:
            if group.inv[s] not in elems:
                raise ValueError(f"connection set is not inverse-closed at {s}")
        self.group = group
        self.elements = elems

    def delta(self) -> ConnectionFunction:
        return ConnectionFunction.delta(self.group, self.elements)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def adjacency_stack(g: FiniteGroup, values: np.ndarray) -> np.ndarray:
    """The (b, n, n) stack of matrices [f(a b^-1)], one for each row f of
    the (b, n) array of colour values `values`."""
    return values[:, g.products(g.elements(), g.inv)]


def adjacency(g: FiniteGroup, f: ConnectionFunction) -> IntMatrix:
    """The matrix [f(a b^-1)] over all ordered pairs; symmetric iff f is."""
    return IntMatrix(adjacency_stack(g, exact_array(f.values)[None])[0])


def pair_quotient(g: FiniteGroup, f: ConnectionFunction) -> tuple[np.ndarray, np.ndarray]:
    """A = [f(a b^-1)] on the inverse pairs, for `linalg.minpoly_spectrum`:
    (quotient, weights), one coordinate per pair {x, x^-1} by its least
    member x, the identity's first. quotient[o', o] sums A[y, x_o] over the
    y of pair o', so that e_0 quotient^t is A^t e_0 read at each pair's
    least member, since the vectors A^t e_0 = f^(*t) are constant on the
    pairs; weights[o] is the size of pair o, 1 or 2."""
    inv = np.asarray(g.inv)
    firsts = np.flatnonzero(np.arange(g.n) <= inv)
    seconds = inv[firsts]
    cols = exact_array(f.values)[g.products(g.elements(), seconds)]  # A[y, x] = f(y x^-1), x a least member
    pair = firsts != seconds
    return exact_array(cols[firsts] + np.where(pair[:, None], cols[seconds], 0)), 1 + pair.astype(np.int64)


# The minimal-polynomial read-out serves a colour function on a group of
# order n when _MINPOLY_SHARE * D <= n, D the bound on deg mu_A, or when
# n >= _MINPOLY_ORDER; the others take the Newton read-out. Both are
# measured break-evens, each read-out forced in turn on 496 random colour
# functions over 47 groups of orders 6 to 240. Up to order 60 the minimal
# polynomial's Berlekamp-Massey loop costs more than Newton's n/2 steps
# unless D is small (slower on 192 of 200 draws with n/D < 3.25, faster on
# 20 of 24 with n/D >= 4.5; the total is level within 1.2% for shares 3.5
# to 6). Newton's work grows as about n^4, so from order 96 up the minimal
# polynomial wins even at D = m (on 112 of 140 draws below 128, on all 44
# from 128 up; cut-offs from 80 to 120 are within 2% of the best total).
_MINPOLY_SHARE = 4
_MINPOLY_ORDER = 96


def spectrum_matrix(g: FiniteGroup, f: ConnectionFunction, part: ConjugacyPartition | None = None) -> SpectrumReport:
    """Exact spectrum of the adjacency matrix A = [f(a b^-1)], by one of the
    power-sum engine's two read-outs of the Krylov sequence of e_0, chosen
    by the order n and an a-priori bound D on the degree of A's minimal
    polynomial.

    D counts A's distinct eigenvalues. With k the class count, A acts as
    one scalar on each of the k isotypic components when f is a class
    function, so D = k; otherwise A is the sum of chi(1) copies of
    rho_chi(f) over the irreducible characters, whose sum of chi(1) is at
    most sqrt(k n) by Cauchy-Schwarz, and the Krylov vectors span at most
    the m inverse pairs, so D = min(m, isqrt(k n)). k comes from `part`,
    the caller's partition of g, if it has one, and from Burnside's count
    (`groups.class_count`, which builds no partition) otherwise. The
    minimal polynomial (`linalg.minpoly_spectrum`, on `pair_quotient`)
    serves f when 4 D <= n, and every f when n >= 96; the Newton read-out
    (`linalg.cayley_charpoly`, then `integer_spectrum`) the rest. Both
    give the same report.
    """
    if not f.symmetric:
        raise NotSymmetricFunction(f"f({_asym_witness(f)}) differs on an inverse pair")
    k, pairs = part.k if part else class_count(g), sum(x <= y for x, y in enumerate(g.inv))
    bound = k if f.class_function else min(pairs, isqrt(k * g.n))
    if _MINPOLY_SHARE * bound <= g.n or g.n >= _MINPOLY_ORDER:
        return minpoly_spectrum(*pair_quotient(g, f), sum(map(abs, f.values)), bound)
    m = adjacency(g, f)
    return integer_spectrum(cayley_charpoly(m), bound=m.gershgorin_bound())


def _asym_witness(f: ConnectionFunction) -> int:
    return next(g for g in f.group.elements() if f.values[g] != f.values[f.group.inv[g]])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


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


# The shipped colour functions, `fixtures/<name>.fn`, with the catalog group each is written for.
FIXTURE_GROUPS = {"alpha": "s3", "beta": "dicyclic12"}


def load_fixture(name: str, g: FiniteGroup) -> ConnectionFunction:
    """The shipped colour function `name` (a key of FIXTURE_GROUPS) on g, by element index."""
    with resources.as_file(resources.files("cayint").joinpath(f"fixtures/{name}.fn")) as path:
        return load_function(path, g)


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
