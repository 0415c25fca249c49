"""The permutation-table builder against the loops it replaced, and fuzzing
of the `group` and `f <n>` file parsers."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from cayint.catalog import ParseError, alternating_group, catalog, load_group, symmetric_group
from cayint.groups import FiniteGroup, NotAGroup, build_group
from cayint.spectra import load_function


def assert_same(got: FiniteGroup, want: FiniteGroup) -> None:
    assert got.table.tolist() == want.table.tolist()
    assert got.inv == want.inv and got.ord == want.ord


@pytest.mark.parametrize("m", range(1, 7))
def test_symmetric_matches_loop(m):
    assert_same(symmetric_group(m), build_group(oracle.symmetric_table(m)))


@pytest.mark.parametrize("m", range(1, 7))
def test_alternating_matches_loop(m):
    assert_same(alternating_group(m), build_group(oracle.alternating_table(m)))


def _cycle(d: int, points: list[int]) -> tuple[int, ...]:
    p = list(range(d))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


PERM_FILES = {
    "S4": (24, [_cycle(4, [0, 1, 2, 3]), _cycle(4, [0, 1])]),
    "A4": (12, [_cycle(4, [0, 1, 2]), _cycle(4, [1, 2, 3])]),
    "D4": (8, [_cycle(4, [0, 1, 2, 3]), (0, 3, 2, 1)]),
    # degree 20, beyond any 64-bit mixed-radix code of a permutation
    "D20": (40, [_cycle(20, list(range(20))), tuple([0] + list(range(19, 0, -1)))]),
    "S3xZ5 on 20 points": (30, [_cycle(20, [17, 3]), _cycle(20, [17, 3, 19]), _cycle(20, [0, 9, 4, 12, 6])]),
    # two-byte points: 256 sorts above 1 only when read big-endian
    "S3 on 300 points": (6, [_cycle(300, [1, 256]), _cycle(300, [1, 256, 299])]),
}


@pytest.mark.parametrize("label", sorted(PERM_FILES))
def test_perms_file_matches_loop(label, tmp_path):
    n, gens = PERM_FILES[label]
    path = tmp_path / "g.grp"
    body = "\n".join(" ".join(map(str, p)) for p in gens)
    path.write_text(f"group {label.split()[0]} {n}\nperms {len(gens[0])}\n{body}\n", encoding="utf-8")
    assert_same(load_group(path), build_group(oracle.perm_closure_table(gens)))


# ---------------------------------------------------------------------------
# Fuzzing: every input either parses or raises ParseError / NotAGroup
# ---------------------------------------------------------------------------

WORDS = st.sampled_from(
    ["group", "G", "table", "perms", "f", "#", "x", "-1", "+2", "1.5", "1_0", "²", "٣", "10" * 12]
)
LINE = st.lists(st.one_of(WORDS, st.integers(min_value=-2, max_value=8).map(str)), max_size=6).map(" ".join)
ORDER = st.one_of(st.integers(min_value=-1, max_value=8), st.sampled_from([12, 24, 120]))


def _join(row) -> str:
    return " ".join(map(str, row))


def _perms_text(d: int):
    gens = st.lists(st.permutations(list(range(d))).map(_join), max_size=3)
    degree = st.one_of(st.just(str(d)), WORDS)
    return st.tuples(ORDER, degree, gens).map(lambda t: [f"group G {t[0]}", f"perms {t[1]}", *t[2]])


def _table_text(n: int):
    cyclic = [_join((a + b) % n for b in range(n)) for a in range(n)]
    row = st.lists(st.integers(min_value=-1, max_value=n), min_size=n, max_size=n).map(_join)
    rows = st.one_of(st.just(cyclic), st.lists(row, min_size=n, max_size=n))
    return st.tuples(st.one_of(st.just(n), ORDER), rows).map(lambda t: [f"group G {t[0]}", "table", *t[1]])


def _corrupted(texts):
    """The lines, sometimes with one of them replaced by a random line or
    deleted."""
    edit = st.tuples(st.integers(min_value=0, max_value=8), st.one_of(st.none(), LINE))

    def apply(text, edits):
        lines = list(text)
        for at, new in edits:
            if at < len(lines):
                lines[at : at + 1] = [] if new is None else [new]
        return lines

    return st.tuples(texts, st.lists(edit, max_size=1)).map(lambda t: apply(*t))


GROUP_TEXT = _corrupted(
    st.one_of(
        st.integers(min_value=1, max_value=5).flatmap(_perms_text),
        st.integers(min_value=1, max_value=5).flatmap(_table_text),
        st.lists(LINE, max_size=6),
    )
)
VALUE = st.one_of(st.integers(min_value=-9, max_value=9), st.integers(min_value=-(10**30), max_value=10**30))
FUNCTION_TEXT = _corrupted(
    st.tuples(st.one_of(st.just(4), ORDER), st.lists(VALUE, min_size=3, max_size=5), st.integers(1, 3)).map(
        lambda t: [f"f {t[0]}", *(_join(t[1][i :: t[2]]) for i in range(t[2]))]
    )
)

Z4 = catalog("cyclic", 4)

FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("degree", ["²", "0", "-1", "x"])
def test_perms_degree_must_be_a_positive_decimal(degree, tmp_path):
    path = tmp_path / "g.grp"
    path.write_text(f"group G 1\nperms {degree}\n0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2:"):
        load_group(path)


@FUZZ
@given(GROUP_TEXT)
def test_load_group_fuzz(tmp_path, lines):
    path = tmp_path / "fuzz.grp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        g = load_group(path)
    except (ParseError, NotAGroup):
        return
    assert isinstance(g, FiniteGroup)


@FUZZ
@given(FUNCTION_TEXT)
def test_load_function_fuzz(tmp_path, lines):
    path = tmp_path / "fuzz.f"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        f = load_function(path, Z4)
    except ParseError:
        return
    assert len(f.values) == 4 and all(type(v) is int for v in f.values)

