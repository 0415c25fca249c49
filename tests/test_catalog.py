"""Catalog constructors and the group file format."""

from __future__ import annotations

import re

import pytest

from cayint.catalog import (
    DEFAULT_ELEMENT_CAP,
    ParamOutOfRange,
    ParseError,
    UnknownName,
    catalog,
    load_group,
    resolve_group,
    save_group,
)
from cayint.groups import conjugacy_classes


class TestCatalog:
    def test_dicyclic12(self):
        g = catalog("dicyclic12")
        assert g.n == 12
        assert set(g.ord) == {1, 2, 3, 4, 6}
        assert sum(1 for o in g.ord if o == 2) == 1  # unique involution

    def test_dihedral4(self):
        g = catalog("dihedral", 4)
        assert g.n == 8
        assert not g.is_abelian()
        assert sorted(set(g.ord)) == [1, 2, 4]

    def test_trivial(self):
        g = catalog("cyclic", 1)
        assert g.n == 1 and g.ord == (1,)

    def test_q8_is_dicyclic8(self):
        g = catalog("q8")
        assert g.n == 8
        assert sum(1 for o in g.ord if o == 2) == 1
        assert conjugacy_classes(g).sizes() == (1, 2, 1, 2, 2)

    def test_symmetric_alternating(self):
        assert catalog("symmetric", 4).n == 24
        assert catalog("alternating", 4).n == 12
        assert catalog("s3").n == 6

    def test_elementary_products(self):
        g = catalog("z2z3", 2, 1)
        assert g.n == 12 and g.exponent() == 6
        h = catalog("z2z4", 0, 2)
        assert h.n == 16 and h.exponent() == 4

    def test_element_cap(self):
        with pytest.raises(ParamOutOfRange):
            catalog("symmetric", 8)
        with pytest.raises(ParamOutOfRange):
            catalog("cyclic", 6000)
        assert catalog("cyclic", 6000, cap=10000).n == 6000

    @pytest.mark.parametrize(
        "params", [("symmetric", 100), ("symmetric", 2000), ("alternating", 3000), ("z2z4", 0, 5000)], ids=str
    )
    def test_order_above_the_cap_is_named_not_printed(self, params):
        # the order of S_100 has 158 digits, and that of S_2000 more than
        # int() prints; the product stops as soon as it passes the cap
        with pytest.raises(ParamOutOfRange) as err:
            catalog(*params)
        assert str(err.value) == f"{params[0]}{params[1:]} has order above the cap {DEFAULT_ELEMENT_CAP}"

    def test_order_cap_message_on_the_command_line(self, capsys):
        from cayint.cli import main

        assert main(["classify", "--catalog", "symmetric", "2000"]) == 2
        assert capsys.readouterr().err == "error: symmetric(2000,) has order above the cap 5040\n"

    @pytest.mark.parametrize(
        "params, message",
        [(("dihedral", 0), "dihedral needs m >= 1"), (("z2z3", -1, 0), "z2z3 needs a, b >= 0"),
         (("z2z4", 1), "z2z4 needs 2 integer parameter(s), got 1")],
        ids=str,
    )
    def test_parameter_messages(self, params, message):
        with pytest.raises(ParamOutOfRange, match=re.escape(message)):
            catalog(*params)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("monster")

    def test_validated(self):
        for name, params in [("q8", ()), ("dicyclic12", ()), ("s4", ()), ("d8", ())]:
            g = catalog(name, *params)
            assert g.table[0].tolist() == list(range(g.n))

    def test_resolve_products(self):
        g = resolve_group(["q8", "x", "cyclic", "3"])
        assert g.n == 24
        h = resolve_group(["cyclic", "2", "*", "cyclic", "2"])
        assert h.n == 4 and h.exponent() == 2

    def test_product_above_the_cap_builds_no_table(self):
        # the (n, n) int32 table of Z5000 x Z5000 would take 2.5 * 10^15 bytes
        with pytest.raises(ParamOutOfRange, match=r"product order 25000000 exceeds cap 5040"):
            resolve_group(["cyclic", "5000", "x", "cyclic", "5000"])

    def test_resolve_bad_tokens(self):
        with pytest.raises(ParamOutOfRange):
            resolve_group(["cyclic", "two"])


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        g = catalog("cyclic", 6)
        path = tmp_path / "z6.grp"
        save_group(g, path)
        h = load_group(path)
        assert h.table.tolist() == g.table.tolist()
        assert h.name == "Z6"

    def test_perm_generators(self, tmp_path):
        path = tmp_path / "s3.grp"
        path.write_text("# a 3-cycle and a transposition\ngroup s3file 6\nperms 3\n1 2 0\n1 0 2\n")
        g = load_group(path)
        assert g.n == 6
        assert sorted(set(g.ord)) == [1, 2, 3]

    def test_perm_closure_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("group nope 5\nperms 3\n1 2 0\n1 0 2\n")
        with pytest.raises(ParseError):
            load_group(path)

    def test_perm_closure_stops_past_declared_order(self, tmp_path):
        path = tmp_path / "bad.grp"
        # a 4-cycle and a transposition generate S4, not a group of order 3
        path.write_text("group g 3\nperms 4\n1 2 3 0\n1 0 2 3\n")
        with pytest.raises(ParseError) as err:
            load_group(path)
        assert err.value.line == 1
        assert "exceeds the 3 elements" in str(err.value)

    def test_declared_order_above_cap_rejected(self, tmp_path):
        path = tmp_path / "big.grp"
        path.write_text(f"group big {DEFAULT_ELEMENT_CAP + 1}\nperms 3\n1 2 0\n1 0 2\n")
        with pytest.raises(ParseError) as err:
            load_group(path)
        assert err.value.line == 1
        assert "element cap" in str(err.value)

    def test_malformed_row_length(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("group short 2\ntable\n0 1\n1\n")
        with pytest.raises(ParseError) as err:
            load_group(path)
        assert err.value.line == 4

    def test_non_integer_entry(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("group junk 2\ntable\n0 1\n1 x\n")
        with pytest.raises(ParseError):
            load_group(path)

    def test_bad_permutation(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("group junk 6\nperms 3\n1 1 0\n")
        with pytest.raises(ParseError):
            load_group(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("table\n0\n")
        with pytest.raises(ParseError):
            load_group(path)
