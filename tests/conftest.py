"""Shared fixtures: built-in groups, their tables and surveys, cached per
session; hypothesis-built groups; and colour functions of every kind."""

from __future__ import annotations

import random
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cayint.catalog import catalog, load_group
from cayint.chartable import character_table
from cayint.classify import NormalSetSurvey, normal_set_survey
from cayint.groups import ConjugacyPartition, FiniteGroup, build_group, conjugacy_classes, direct_product

# order <= 24 groups exercised by the exhaustive suites
SMALL_CATALOG = (
    ("Z5", ("cyclic", (5,))),
    ("Z6", ("cyclic", (6,))),
    ("Z12", ("cyclic", (12,))),
    ("S3", ("s3", ())),
    ("D4", ("d4", ())),
    ("Q8", ("q8", ())),
    ("Z2xZ4", ("z2z4", (1, 1))),
    ("Dic12", ("dicyclic12", ())),
    ("A4", ("a4", ())),
    ("S4", ("s4", ())),
    ("Q8xZ3", ("q8z3", ())),
)

MEDIUM_EXTRA = (
    ("D8", ("d8", ())),
    ("A5", ("a5", ())),
    ("S5", ("s5", ())),
)


@pytest.fixture(scope="session")
def groups():
    out = {}
    for label, (name, params) in SMALL_CATALOG + MEDIUM_EXTRA:
        out[label] = catalog(name, *params)
    return out


@pytest.fixture(scope="session")
def partitions(groups):
    return {label: conjugacy_classes(g) for label, g in groups.items()}


@pytest.fixture(scope="session")
def tables(groups, partitions):
    return {
        label: character_table(groups[label], partitions[label])
        for label in groups
    }


@pytest.fixture(scope="session")
def surveys(groups, partitions, tables):
    """The normal-set survey of every group above."""
    return {
        label: normal_set_survey(partitions[label], tables[label])
        for label in groups
    }


def build_survey(g: FiniteGroup, part: ConjugacyPartition) -> NormalSetSurvey:
    """The normal-set survey of g, from its character table."""
    return normal_set_survey(part, character_table(g, part))


def relabel(g: FiniteGroup, perm: list[int]) -> list[list[int]]:
    """The table of g with element a renamed perm[a]; the identity moves to perm[0]."""
    t = g.table.tolist()
    out = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            out[perm[a]][perm[b]] = perm[t[a][b]]
    return out


FACTORS = (
    ("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5),
    ("s3",), ("q8",), ("d4",), ("dihedral", 5), ("a4",),
)


@lru_cache(maxsize=None)
def _factor(tokens: tuple) -> FiniteGroup:
    return catalog(*tokens)


@st.composite
def small_products(draw):
    """A direct product of catalog factors of order at most 48, its table
    relabelled by a random permutation half of the time."""
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3))
    g = _factor(factors[0])
    for tokens in factors[1:]:
        h = _factor(tokens)
        if g.n * h.n > 48:
            break
        g = direct_product(g, h)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(g.n)))
        g = build_group(relabel(g, perm), name=g.name)
    return g


@st.composite
def perm_generators(draw):
    """One to three permutations: of at most 5 points, or of 7 points
    keeping two blocks of 3 and 4 points, the points renamed at random. The
    group they generate has order at most 144."""
    count = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=5))
        return [tuple(draw(st.permutations(range(d)))) for _ in range(count)]
    rename = draw(st.permutations(range(7)))
    gens = []
    for _ in range(count):
        p = draw(st.permutations(range(3))) + draw(st.permutations(range(3, 7)))
        q = [0] * 7
        for i in range(7):
            q[rename[i]] = rename[p[i]]
        gens.append(tuple(q))
    return gens


def load_perm_group(gens: list[tuple[int, ...]], n: int) -> FiniteGroup:
    """The group of order n that the permutations `gens` generate, read
    through the `perms` file form."""
    body = "\n".join(" ".join(map(str, p)) for p in gens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.grp"
        path.write_text(f"group G {n}\nperms {len(gens[0])}\n{body}\n", encoding="utf-8")
        return load_group(path)


# Symmetric colour functions, each constant on its cells: 0/1 or signed
# values on the real-class orbits (class functions), 0/1, 0..9 or signed
# values on the inverse pairs.
FUNCTION_KINDS = {
    "class01": ("orbits", (0, 1)),
    "classint": ("orbits", (-9, 9)),
    "set01": ("pairs", (0, 1)),
    "colour": ("pairs", (0, 9)),
    "signed": ("pairs", (-9, 9)),
}


def colour_function(kind: str, g: FiniteGroup, part: ConjugacyPartition, rng: random.Random) -> list[int]:
    """The values of one random symmetric colour function of the given kind."""
    cells_of, (low, high) = FUNCTION_KINDS[kind]
    if cells_of == "orbits":
        cells = [[x for j in orbit for x in part.classes[j]] for orbit in part.real_classes]
    else:
        cells = [{x, g.inv[x]} for x in g.elements() if x <= g.inv[x]]
    values = [0] * g.n
    for cell in cells:
        v = rng.randint(low, high)
        for x in cell:
            values[x] = v
    return values
