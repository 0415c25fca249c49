"""Peak memory of building groups, loading tables, reading a spectrum
from the minimal polynomial and building a character table. tracemalloc
traces numpy's buffers, so the peak of a call over what it retains is its
largest set of live temporaries: a block of rows beside the one table for
a group, one Krylov array for a spectrum, never a second (n, n) table or a
weighted copy of the Krylov vectors, and a few (k, k) arrays for a
character table, never the stack of its k class matrices."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from cayint import linalg
from cayint.catalog import (
    alternating_group,
    catalog,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    load_group,
    save_group,
    symmetric_group,
)
from cayint.chartable import character_table
from cayint.groups import center, direct_product, quotient
from cayint.spectra import ConnectionFunction, spectrum_matrix

ALLOWANCE = 1 << 20  # bytes: a few blocks of rows, each at most 2^16 cells of int32 or int64


def _peak_over_retained(call):
    """(result, peak traced bytes during `call` minus the bytes still held after it)."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic_group(1260),
        lambda: dihedral_group(600),
        lambda: dicyclic_group(300),
        lambda: symmetric_group(6),
        lambda: alternating_group(6),
    ],
    ids=["Z1260", "D600", "Dic1200", "S6", "A6"],
)
def test_catalog_builds_hold_one_table(build):
    g, extra = _peak_over_retained(build)
    assert extra <= ALLOWANCE, f"{g.name}: {extra} bytes of temporaries beside a {g.table.nbytes}-byte table"


def test_direct_product_holds_one_table():
    a, b = dihedral_group(10), cyclic_group(36)
    g, extra = _peak_over_retained(lambda: direct_product(a, b))
    assert g.n == 720 and extra <= ALLOWANCE


def test_quotient_holds_one_table():
    g = dicyclic_group(300)
    q, extra = _peak_over_retained(lambda: quotient(g, set(center(g))))
    assert q.n == 600 and extra <= ALLOWANCE


def test_load_group_parses_into_one_table(tmp_path):
    path = tmp_path / "z300.grp"
    save_group(cyclic_group(300), path)
    g, extra = _peak_over_retained(lambda: load_group(path))
    assert g.same_table(cyclic_group(300)) and extra <= ALLOWANCE


def test_minpoly_read_out_holds_one_krylov_array(monkeypatch):
    g = cyclic_group(300)
    rng = random.Random(0)
    values = [0] * g.n
    for x in range(1, g.n // 2 + 1):
        values[x] = values[g.inv[x]] = rng.randrange(10)
    f = ConnectionFunction(g, values)
    sizes = []
    krylov = linalg._krylov

    def recorded(*args):
        v = krylov(*args)
        sizes.append(v.nbytes)
        return v

    monkeypatch.setattr(linalg, "_krylov", recorded)
    report, extra = _peak_over_retained(lambda: spectrum_matrix(g, f))
    assert report.degree == g.n
    assert max(sizes) > 8 * ALLOWANCE  # the Krylov array is what a spectrum of Z300 holds
    assert extra <= max(sizes) + 2 * ALLOWANCE  # beside it: the per-prime reduction of the quotient


def test_character_table_builds_no_stack_of_class_matrices():
    # k = 216: the k class matrices would be k^3 int64 cells, 80 MiB, and 32 MiB
    # is about 90 (k, k) int64 arrays
    table, extra = _peak_over_retained(lambda: character_table(catalog("z2z3", 3, 3)))
    assert table.k == 216 and extra <= 32 << 20
