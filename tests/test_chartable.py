"""Character table construction, class matrices, verification, Galois
action, rationality."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayint import chartable
from cayint.catalog import ParseError, catalog, resolve_group
from cayint.chartable import (
    CELL_CAP,
    PRIME_BOUND,
    VerificationFailed,
    _find_prime,
    _split_eigenspaces,
    _verify_table,
    character_table,
    chi_plus_conj,
    class_matrices,
    load_table,
    save_table,
    table_cells,
)
from cayint.groups import conjugacy_classes
from cayint.linalg import _context, exact_array
from conftest import MEDIUM_EXTRA, SMALL_CATALOG
from oracle import (
    Cyclotomic,
    cyclotomic_rows,
    galois_on_characters,
    split_eigenspaces,
    verify_table_fraction,
    verify_table_integer,
)


class TestClassMatrices:
    def test_identity_class_is_unit(self, groups, partitions):
        for label in ("S3", "Q8", "A4"):
            part = partitions[label]
            m0 = class_matrices(groups[label], part)[0]
            assert m0.tolist() == [[1 if i == j else 0 for j in range(part.k)] for i in range(part.k)]

    def test_z3_structure(self):
        g = catalog("cyclic", 3)
        part = conjugacy_classes(g)
        mats = class_matrices(g, part)
        # class of g times class of g lands in class of g^2 with coefficient 1
        assert mats[1][1][2] == 1 and mats[1][1][0] == 0 and mats[1][1][1] == 0

    def test_s3_transpositions_squared_oracle(self, groups, partitions):
        g = groups["S3"]
        part = partitions[g.name] if g.name in partitions else partitions["S3"]
        mats = class_matrices(g, part)
        trans = part.class_of[next(x for x in g.elements() if g.ord[x] == 2)]
        # oracle: enumerate all 9 ordered products of transpositions
        cls = part.classes[trans]
        counts = {}
        for x in cls:
            for y in cls:
                counts[g.mul(x, y)] = counts.get(g.mul(x, y), 0) + 1
        for t in range(part.k):
            rep = part.classes[t][0]
            assert mats[trans][trans][t] == counts.get(rep, 0)
        assert mats[trans][trans][0] == 3
        three_cyc = part.class_of[next(x for x in g.elements() if g.ord[x] == 3)]
        assert mats[trans][trans][three_cyc] == 3

    def test_eigen_relation(self, groups, partitions, tables):
        # the omega vector of each character is a common right eigenvector
        label = "S4"
        g, part, table = groups[label], partitions[label], tables[label]
        mats = class_matrices(g, part)
        sizes = part.sizes()
        rows = cyclotomic_rows(table.conductor, table.coeffs)
        for r in range(table.k):
            d = table.degrees[r]
            omega = [
                rows[r][t] * Fraction(sizes[t], d) for t in range(table.k)
            ]
            for i in range(table.k):
                lhs = [
                    sum((mats[i][j][t] * omega[t] for t in range(table.k)), Cyclotomic.rational(0))
                    for j in range(table.k)
                ]
                rhs = [omega[i] * omega[j] for j in range(table.k)]
                assert all(a == b for a, b in zip(lhs, rhs))


class TestCharacterTable:
    def test_z2(self):
        t = character_table(catalog("cyclic", 2))
        assert t.degrees == (1, 1)
        vals = [[v.to_rational() for v in row] for row in cyclotomic_rows(t.conductor, t.coeffs)]
        assert sorted(vals) == [[1, -1], [1, 1]]

    def test_s3(self, tables):
        t = tables["S3"]
        assert t.degrees == (1, 1, 2)
        two = cyclotomic_rows(t.conductor, t.coeffs)[2]
        # classes ordered: identity, transpositions, 3-cycles
        assert [v.to_rational() for v in two] == [2, 0, -1]

    def test_q8(self, tables):
        t = tables["Q8"]
        assert t.degrees == (1, 1, 1, 1, 2)
        minus_one = next(
            j for j, c in enumerate(t.partition.classes) if len(c) == 1 and c[0] != 0
        )
        two = cyclotomic_rows(t.conductor, t.coeffs)[4]
        assert two[minus_one].to_rational() == -2
        assert two[0].to_rational() == 2

    def test_a4_s4_s5_degrees(self, tables):
        assert tables["A4"].degrees == (1, 1, 1, 3)
        assert tables["S4"].degrees == (1, 1, 2, 3, 3)
        assert tables["S5"].degrees == (1, 1, 4, 4, 5, 5, 6)

    def test_degree_equation_and_divisibility(self, groups, tables):
        for label, t in tables.items():
            n = groups[label].n
            assert sum(d * d for d in t.degrees) == n
            assert all(n % d == 0 for d in t.degrees)

    def test_row_orthogonality(self, groups, tables):
        for label in ("S3", "Q8", "Z12", "A4", "D8"):
            t = tables[label]
            n = groups[label].n
            sizes = t.class_sizes()
            rows = cyclotomic_rows(t.conductor, t.coeffs)
            for r in range(t.k):
                for s in range(t.k):
                    acc = Cyclotomic.rational(0)
                    for j in range(t.k):
                        acc = acc + sizes[j] * (rows[r][j] * rows[s][j].conj())
                    assert acc == (n if r == s else 0)

    def test_column_orthogonality_identity_column(self, groups, tables):
        for label, t in tables.items():
            total = sum(d * d for d in t.degrees)
            assert total == groups[label].n  # second orthogonality at the identity

    def test_inverse_class_conjugate(self, tables):
        for t in tables.values():
            inv_cls = t.partition.inverse_class
            for row in cyclotomic_rows(t.conductor, t.coeffs):
                for j in range(t.k):
                    assert row[inv_cls[j]] == row[j].conj()

    def test_deterministic(self, groups):
        a = character_table(groups["S4"])
        b = character_table(groups["S4"])
        assert a.degrees == b.degrees
        rows_a, rows_b = cyclotomic_rows(a.conductor, a.coeffs), cyclotomic_rows(b.conductor, b.coeffs)
        assert all(x == y for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb))

    def test_order_cap(self, groups):
        with pytest.raises(ValueError):
            character_table(groups["S5"], order_cap=100)

    def test_cell_cap(self, monkeypatch):
        # Z720: 720^3 class-matrix cells (2.8 GiB), refused before any is built
        def unreachable(*args):
            raise AssertionError("class matrices built above the cell cap")

        monkeypatch.setattr(chartable, "class_matrices", unreachable)
        with pytest.raises(ValueError, match=f"needs {720**3} table cells, above the cap {CELL_CAP}"):
            character_table(catalog("cyclic", 720))
        # z2z4 3 3 (k = 512) sits exactly on the cap and stays allowed
        assert table_cells(conjugacy_classes(catalog("z2z4", 3, 3))) == CELL_CAP == 512**3
        assert table_cells(conjugacy_classes(catalog("cyclic", 513))) == 513**3 > CELL_CAP
        # D997 (order 1994, k = 500): the k^2 phi(1994) table cells exceed the cap, k^3 does not
        d997 = conjugacy_classes(catalog("dihedral", 997))
        assert d997.k == 500 and table_cells(d997) == 500**2 * 996 > CELL_CAP > 500**3

    def test_integer_coefficient_array(self, tables):
        for t in tables.values():
            x = t.coeffs
            assert x.dtype == np.int64 and not x.flags.writeable
            assert x.shape == (t.k, t.k, _context(t.conductor).phi)
            assert [[list(v.coeffs) for v in row] for row in cyclotomic_rows(t.conductor, t.coeffs)] == x.tolist()

    def test_cell_strings_print_the_cyclotomic_cells(self, tables):
        # the text of every cell is what the reference arithmetic prints for it
        for t in tables.values():
            want = [tuple(str(v) for v in row) for row in cyclotomic_rows(t.conductor, t.coeffs)]
            assert t.cell_strings() == tuple(want)


def verify_fraction(g, part, degrees, x) -> None:
    verify_table_fraction(g, part, degrees, cyclotomic_rows(g.exponent(), x))


def _both_verify(g, t, degrees, x, oracles=(verify_table_integer, verify_fraction)) -> None:
    """Run the verifier mod p and both oracles, the integer sums in Z[zeta_e]
    and the `Fraction` arithmetic; each must raise VerificationFailed, or
    none."""
    outcomes = {}
    for verify in (_verify_table, *oracles):
        try:
            verify(g, t.partition, list(degrees), x)
            outcomes[verify.__name__] = True
        except VerificationFailed:
            outcomes[verify.__name__] = False
    assert len(set(outcomes.values())) == 1, f"verifiers disagree: {outcomes}"
    if not outcomes["_verify_table"]:
        raise VerificationFailed("every verifier rejected the table")


STRUCTURE_GROUPS = ("symmetric 6", "alternating 6", "q8 x symmetric 4", "dicyclic 15", "dihedral 40")


class TestVerifierAgainstOracle:
    def test_catalog_tables_accepted(self, groups, tables):
        for label, t in tables.items():
            _both_verify(groups[label], t, t.degrees, t.coeffs)

    @pytest.mark.parametrize("tokens", STRUCTURE_GROUPS)
    def test_structure_tables_accepted(self, tokens):
        g = resolve_group(tokens.split())
        t = character_table(g)
        _both_verify(g, t, t.degrees, t.coeffs)

    def test_z60_accepted(self):
        # the `Fraction` oracle would take about 10 s on k = 60, so only the integer one
        g = catalog("cyclic", 60)
        t = character_table(g)
        _both_verify(g, t, t.degrees, t.coeffs, oracles=(verify_table_integer,))

    @given(st.sampled_from(("S3", "Q8xZ3", "A5")), st.sampled_from(("coefficient", "swap", "degree")), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutants_rejected(self, groups, tables, label, kind, data):
        g, t = groups[label], tables[label]
        x = t.coeffs.copy()
        degrees = list(t.degrees)
        k, _, phi = x.shape
        r = data.draw(st.integers(0, k - 1), label="row")
        if kind == "coefficient":
            j = data.draw(st.integers(0, k - 1), label="class")
            a = data.draw(st.integers(0, phi - 1), label="coordinate")
            x[r, j, a] += data.draw(st.sampled_from((-1, 1)), label="step")
        elif kind == "swap":
            i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True), label="classes")
            assume(not np.array_equal(x[r, i], x[r, j]))
            x[r, [i, j]] = x[r, [j, i]]
        else:
            d = data.draw(st.integers(1, isqrt(g.n)).filter(lambda d: d != degrees[r]), label="degree")
            degrees[r] = d
        with pytest.raises(VerificationFailed):
            _both_verify(g, t, degrees, x)


def _verification_primes(monkeypatch, g, t, x) -> list[int]:
    """The primes `_verify_table` reduces x modulo, whatever its verdict."""
    seen = []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    real = chartable._primes_for
    with monkeypatch.context() as patch:
        patch.setattr(chartable, "_primes_for", spy)
        try:
            _verify_table(g, t.partition, list(t.degrees), x)
        except VerificationFailed:
            pass
    (primes, _), = seen
    return primes


def _z7_columns_permuted():
    """The table of Z7 with classes 2 <-> 3 and 4 <-> 5 swapped: the swap
    commutes with inversion j -> -j, so both orthogonality relations and
    chi(g^-1) = conj(chi(g)) still hold, but it fixes 1 and moves 2, so it
    is no power map and the table is not Galois-equivariant."""
    g = catalog("cyclic", 7)
    t = character_table(g)
    assert t.partition.classes == tuple((j,) for j in range(7))
    assert t.partition.inverse_class == (0, 6, 5, 4, 3, 2, 1)
    return g, t, t.coeffs[:, [0, 1, 3, 2, 5, 4, 6]]


class TestVerifierSoundness:
    """Tables that a verifier reading too few primes, or too few embeddings,
    would accept."""

    CELLS = ((-1, 1, 0), (1, -1, -1))  # (row, class, coordinate)

    @pytest.mark.parametrize("label", ("S3", "Q8xZ3", "A5"))
    @pytest.mark.parametrize("shift", ("first prime", "prime product"))
    def test_shift_invisible_to_the_clean_primes_rejected(self, monkeypatch, groups, tables, label, shift):
        # x keeps its residues modulo the first prime of the clean table, or
        # modulo all of them, so only the primes that the shifted max|x| adds see it
        g, t = groups[label], tables[label]
        clean = _verification_primes(monkeypatch, g, t, t.coeffs)
        step = clean[0] if shift == "first prime" else prod(clean)
        for cell in self.CELLS:
            x = t.coeffs.astype(object)
            x[cell] += step
            x = exact_array(x)
            primes = _verification_primes(monkeypatch, g, t, x)
            assert primes[: len(clean)] == clean and len(primes) > len(clean)
            with pytest.raises(VerificationFailed):
                _both_verify(g, t, t.degrees, x)

    def test_non_power_column_permutation_rejected(self):
        g, t, x = _z7_columns_permuted()
        verify_table_integer(g, t.partition, list(t.degrees), x)
        verify_fraction(g, t.partition, list(t.degrees), x)
        with pytest.raises(VerificationFailed, match="twist by 2 of row 0 at class 1 is not its value at class 2"):
            _verify_table(g, t.partition, list(t.degrees), x)

    def test_non_power_column_permutation_rejected_on_load(self, tmp_path):
        g, t, x = _z7_columns_permuted()
        path = tmp_path / "z7.ct"
        save_table(replace(t, coeffs=x), path)
        with pytest.raises(VerificationFailed, match="twist"):
            load_table(path, g)


class TestGaloisAction:
    def test_identity_twist(self, tables):
        t = tables["Q8xZ3"]
        assert galois_on_characters(t, 1) == tuple(range(t.k))

    def test_z5_four_cycle(self):
        t = character_table(catalog("cyclic", 5))
        perm = galois_on_characters(t, 2)
        assert perm[0] == 0
        seen, j, steps = set(), 1, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            steps += 1
        assert steps == 4  # nontrivial classes form one 4-cycle

    def test_s3_rational_identity_perm(self, tables):
        t = tables["S3"]
        for h in (1, 5):
            assert galois_on_characters(t, h) == (0, 1, 2)

    def test_all_units_consistent(self, groups, tables):
        # Galois consistency across every unit twist, for a mixed bag
        for label in ("Z12", "Q8xZ3", "D8", "A4"):
            t = tables[label]
            e = t.conductor
            for h in range(1, e):
                if gcd(h, e) == 1:
                    galois_on_characters(t, h)  # raises GaloisMismatch on failure


def is_rational_class(table, j: int) -> bool:
    return not table.coeffs[:, j, 1:].any()


class TestRationalityScans:
    def test_identity_column_rational(self, tables):
        for t in tables.values():
            assert is_rational_class(t, 0)

    def test_z3_class_not_rational_but_symmetrized_integral(self):
        t = character_table(catalog("cyclic", 3))
        assert not is_rational_class(t, 1)
        assert not chi_plus_conj(t)[:, :, 1:].any()  # zeta3 + zeta3^2 = -1

    def test_z5_fails(self):
        t = character_table(catalog("cyclic", 5))
        assert chi_plus_conj(t)[:, :, 1:].any()

    def test_s5_fully_rational(self, tables):
        t = tables["S5"]
        assert all(is_rational_class(t, j) for j in range(t.k))


class TestDumpLoad:
    def test_round_trip(self, groups, tables, tmp_path):
        t = tables["Q8xZ3"]
        path = tmp_path / "q8z3.ct"
        save_table(t, path)
        t2 = load_table(path, groups["Q8xZ3"])
        assert t2.degrees == t.degrees
        rows, rows2 = cyclotomic_rows(t.conductor, t.coeffs), cyclotomic_rows(t2.conductor, t2.coeffs)
        assert all(x == y for ra, rb in zip(rows, rows2) for x, y in zip(ra, rb))

    def test_wrong_group_rejected(self, groups, tables, tmp_path):
        path = tmp_path / "s3.ct"
        save_table(tables["S3"], path)
        with pytest.raises(ValueError):
            load_table(path, groups["Q8"])


def _s3_dump_lines(tables, tmp_path) -> list[str]:
    path = tmp_path / "s3.ct"
    save_table(tables["S3"], path)
    return path.read_text(encoding="utf-8").splitlines()


# (line number named by the error, how the S3 dump is damaged)
MALFORMED_DUMPS = {
    "empty": (1, lambda lines: []),
    "comments only": (1, lambda lines: ["# nothing here"]),
    "short header": (1, lambda lines: ["chartable S3 3"] + lines[1:]),
    "wrong tag": (1, lambda lines: ["table S3 3 6"] + lines[1:]),
    "non-integer k": (1, lambda lines: ["chartable S3 three 6"] + lines[1:]),
    "non-integer size": (2, lambda lines: lines[:1] + ["sizes 1 3 x"] + lines[2:]),
    "short sizes": (2, lambda lines: lines[:1] + ["sizes 1 3"] + lines[2:]),
    "short reps": (3, lambda lines: lines[:2] + ["reps 0 1"] + lines[3:]),
    "missing row": (5, lambda lines: lines[:-1]),
    "extra row": (7, lambda lines: lines + lines[-1:]),
    "short row": (6, lambda lines: lines[:-1] + ["row 2 2,0 0,0"]),
    "long row": (6, lambda lines: lines[:-1] + [lines[-1] + " 1,0"]),
    "non-integer degree": (6, lambda lines: lines[:-1] + ["row two 2,0 0,0 -1,0"]),
    "zero degree": (6, lambda lines: lines[:-1] + ["row 0 2,0 0,0 -1,0"]),
    "bad rational": (6, lambda lines: lines[:-1] + ["row 2 2,0 0,0 -1/0,0"]),
    "rational coefficient": (6, lambda lines: lines[:-1] + ["row 2 2,0 0,0 -1/2,0"]),
    "coefficient count": (6, lambda lines: lines[:-1] + ["row 2 2 0,0 -1,0"]),
}


class TestLoadTableRejectsMalformedDumps:
    @pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
    def test_value_error_names_the_line(self, case, groups, tables, tmp_path):
        line, damage = MALFORMED_DUMPS[case]
        path = tmp_path / "bad.ct"
        body = "\n".join(damage(_s3_dump_lines(tables, tmp_path)))
        path.write_text(body + "\n" if body else "", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^line {line}:"):
            load_table(path, groups["S3"])

    def test_wrong_values_still_fail_verification(self, groups, tables, tmp_path):
        lines = _s3_dump_lines(tables, tmp_path)
        path = tmp_path / "bad.ct"
        path.write_text("\n".join(lines[:-1] + ["row 2 2,0 0,0 1,0"]) + "\n", encoding="utf-8")
        with pytest.raises(VerificationFailed):
            load_table(path, groups["S3"])

    @pytest.mark.parametrize("big", [2**40, 10**30])
    def test_huge_coefficient_fails_verification(self, big, groups, tables, tmp_path):
        # 2^40 squared wraps int64 and 10^30 does not fit it: both must be
        # checked exactly and rejected, never overflow or pass
        lines = _s3_dump_lines(tables, tmp_path)
        path = tmp_path / "big.ct"
        path.write_text("\n".join(lines[:-1] + [f"row 2 2,0 {big},0 -1,0"]) + "\n", encoding="utf-8")
        with pytest.raises(VerificationFailed):
            load_table(path, groups["S3"])


def _normalised(vecs: list[list[int]], p: int) -> set[tuple[int, ...]]:
    """Each vector scaled to 1 in its first entry, as `character_table` reads it."""
    return {tuple(x * pow(v[0], -1, p) % p for x in v) for v in vecs}


class TestSplitEigenspaces:
    """The batched splitter against the pure-Python oracle it replaced."""

    @pytest.mark.parametrize(
        "tokens",
        [(name, *params) for _, (name, params) in SMALL_CATALOG + MEDIUM_EXTRA] + [("cyclic", 48)],
        ids=[label for label, _ in SMALL_CATALOG + MEDIUM_EXTRA] + ["Z48"],
    )
    def test_matches_oracle(self, tokens):
        g = catalog(*tokens)
        part = conjugacy_classes(g)
        p = _find_prime(g.exponent(), g.n, PRIME_BOUND)
        mats = [m % p for m in class_matrices(g, part)]
        got = _split_eigenspaces(mats, part.k, p)
        assert len(got) == part.k
        assert _normalised(got, p) == _normalised(split_eigenspaces(mats, part.k, p), p)

    def test_small_stacks_agree(self, monkeypatch):
        # one class matrix screened at a time, and elimination chunks of one matrix
        g = catalog("dihedral", 9)
        part = conjugacy_classes(g)
        p = _find_prime(g.exponent(), g.n, PRIME_BOUND)
        mats = [m % p for m in class_matrices(g, part)]
        want = _normalised(_split_eigenspaces(mats, part.k, p), p)
        monkeypatch.setattr("cayint.chartable._STACK_CELLS", 1)
        monkeypatch.setattr("cayint.linalg._STACK_CELLS", 1)
        assert _normalised(_split_eigenspaces(mats, part.k, p), p) == want

    @pytest.mark.parametrize("splitter", [_split_eigenspaces, split_eigenspaces])
    def test_jordan_block_is_not_diagonalizable(self, splitter):
        mats = [np.eye(2, dtype=np.int64), np.array([[1, 1], [0, 1]], dtype=np.int64)]
        with pytest.raises(VerificationFailed, match="restricted class matrix is not diagonalizable"):
            splitter(mats, 2, 7)

    @pytest.mark.parametrize("splitter", [_split_eigenspaces, split_eigenspaces])
    def test_non_commuting_matrix_does_not_stabilize(self, splitter):
        # diag(1, 1, 2) splits off span(e0, e1); the second matrix sends e0 to e2
        split = np.diag([1, 1, 2]).astype(np.int64)
        escape = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=np.int64)
        with pytest.raises(VerificationFailed, match="does not stabilize"):
            splitter([np.eye(3, dtype=np.int64), split, escape], 3, 7)

    @pytest.mark.parametrize("splitter", [_split_eigenspaces, split_eigenspaces])
    def test_scalar_matrices_do_not_separate(self, splitter):
        mats = [np.eye(2, dtype=np.int64), 3 * np.eye(2, dtype=np.int64)]
        with pytest.raises(VerificationFailed, match="failed to separate"):
            splitter(mats, 2, 7)
