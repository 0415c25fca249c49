"""Hierarchy predicates, route agreement, witnesses, and the audit."""

from __future__ import annotations

import functools
import json
import random
import string
import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import connected_components as sympy_components

from cayint.catalog import catalog
from cayint.chartable import CELL_CAP, DEFAULT_ORDER_CAP, chi_plus_conj, class_matrices
from cayint.classify import (
    CI_SAMPLED_MAX_ORDER,
    NormalSetSurvey,
    RouteReport,
    _integral_orbits,
    cci_report,
    ci_report,
    classify_group,
    connected_components,
    fcci_report,
    hierarchy_audit,
    is_hamiltonian_2_group,
    is_inverse_semi_rational,
    is_rational,
    is_semi_rational,
    nci_report,
)
from cayint.cli import main
from cayint.linalg import _STACK_CELLS, cayley_charpoly_mod
from cayint.groups import build_group, conjugacy_classes, direct_product
from cayint.spectra import ConnectionFunction, integrality_by_criterion, spectrum_matrix

from conftest import MEDIUM_EXTRA, SMALL_CATALOG, build_survey, load_perm_group, perm_generators
from oracle import (
    NormalSetRows,
    ci_brute_scan,
    criterion_scan,
    fcci_criterion_scan,
    fcci_spectra_direct,
    inverse_semi_rational_scan,
    normal_set_survey_matrix,
    normal_set_survey_rows,
    orbit_verdicts,
    perm_closure_table,
    rational_scan,
    semi_rational_scan,
)

GOLDEN = Path(__file__).parent / "golden"


class TestRationalityPredicates:
    def test_s5_rational_hence_all(self, groups, partitions):
        g, part = groups["S5"], partitions["S5"]
        assert is_rational(part)[0]
        assert is_semi_rational(g, part)[0]
        assert is_inverse_semi_rational(g, part)[0]

    def test_z5_none(self, groups, partitions):
        g, part = groups["Z5"], partitions["Z5"]
        assert not is_rational(part)[0]
        ok, _, witness = is_semi_rational(g, part)
        assert not ok and witness is not None
        assert not is_inverse_semi_rational(g, part)[0]

    def test_d8_semi_but_not_inverse_semi(self, groups, partitions):
        g, part = groups["D8"], partitions["D8"]
        ok, r_map, _ = is_semi_rational(g, part)
        assert ok
        isr, failing = is_inverse_semi_rational(g, part)
        assert not isr
        assert failing is not None
        # the failing atom really escapes class(g) union class(g^-1)
        allowed = {part.class_of[failing.generator],
                   part.inverse_class[part.class_of[failing.generator]]}
        assert any(part.class_of[x] not in allowed for x in failing.members)

    def test_semi_rational_r_map_verifies(self, groups, partitions):
        from cayint.groups import atom

        for label in ("D8", "Q8xZ3", "S4"):
            g, part = groups[label], partitions[label]
            ok, r_map, _ = is_semi_rational(g, part)
            assert ok
            for rep, r in r_map.items():
                targets = {part.class_of[rep], part.class_of[g.power(rep, r)]}
                assert all(part.class_of[x] in targets for x in atom(g, rep).members)


class TestNci:
    def test_q8z3_all_routes(self, groups, partitions, tables, surveys):
        rep = nci_report(
            groups["Q8xZ3"], partitions["Q8xZ3"],
            table=tables["Q8xZ3"], survey=surveys["Q8xZ3"],
        )
        assert rep.verdict
        assert rep.atoms and rep.characters and rep.exhaustive
        assert not rep.discrepancies

    def test_z12_not_nci_with_witness(self, groups, partitions, tables, surveys):
        rep = nci_report(
            groups["Z12"], partitions["Z12"],
            table=tables["Z12"], survey=surveys["Z12"],
        )
        assert not rep.verdict
        assert rep.failing_atom is not None
        assert set(rep.failing_atom.members) == {1, 5, 7, 11}
        assert rep.witness_set is not None
        f = ConnectionFunction.delta(groups["Z12"], rep.witness_set)
        assert not spectrum_matrix(groups["Z12"], f).is_integral

    def test_abelian_exponent_four(self, groups, partitions, tables, surveys):
        rep = nci_report(
            groups["Z2xZ4"], partitions["Z2xZ4"],
            table=tables["Z2xZ4"], survey=surveys["Z2xZ4"],
        )
        assert rep.verdict and not rep.discrepancies

    def test_three_route_agreement_small_catalog(self, groups, partitions, tables, surveys):
        for label in surveys:
            rep = nci_report(
                groups[label], partitions[label],
                table=tables[label], survey=surveys[label],
            )
            assert rep.characters is not None
            assert rep.exhaustive is not None
            assert rep.discrepancies == (), f"route disagreement on {label}"


class TestFcci:
    def test_elementary(self, partitions, groups):
        g = catalog("z2z3", 2, 1)
        part = conjugacy_classes(g)
        rep = fcci_report(g, part, build_survey(g, part))
        assert rep.verdict and rep.orders and rep.criterion
        assert rep.spectra and rep.spectra_mode == "exhaustive"

    def test_a4(self, groups, partitions, surveys):
        rep = fcci_report(groups["A4"], partitions["A4"], surveys["A4"])
        assert rep.verdict and rep.orders and not rep.discrepancies

    def test_z12_fails_everywhere(self, groups, partitions, surveys):
        rep = fcci_report(groups["Z12"], partitions["Z12"], surveys["Z12"])
        assert not rep.verdict
        assert not rep.orders and not rep.criterion
        assert rep.spectra is False
        assert rep.order_witness is not None
        assert rep.criterion_witness is not None

    def test_q8z3_route_disagreement_is_a_finding(self, groups, partitions, surveys):
        # the probe computes, it does not assume: orders route and criterion
        # route genuinely disagree here and both are reported
        rep = fcci_report(groups["Q8xZ3"], partitions["Q8xZ3"], surveys["Q8xZ3"])
        assert not rep.orders
        assert rep.criterion
        assert rep.spectra is not None  # exhaustive run happened
        assert rep.spectra_mode == "exhaustive" and rep.spectra_count == 1024
        assert rep.spectra == rep.criterion
        assert any("disagreement" in d for d in rep.discrepancies)


@pytest.mark.parametrize(
    "tokens",
    [(name, *params) for _, (name, params) in SMALL_CATALOG]
    + [("cyclic", 1), ("dihedral", 5), ("dihedral", 6), ("dihedral", 7), ("z2z3", 1, 1)],
    ids=lambda t: " ".join(map(str, t)),
)
def test_fcci_spectra_read_off_survey_match_direct_enumeration(tokens):
    # the survey reading against all 2^r spectra, run one by one
    g = catalog(*tokens)
    part = conjugacy_classes(g)
    rep = fcci_report(g, part, build_survey(g, part))
    assert rep.spectra_mode == "exhaustive"
    route, count, witness = fcci_spectra_direct(g, part)
    assert (rep.spectra, rep.spectra_count, rep.spectral_witness) == (route, count, witness)


def _survey_reading(survey: NormalSetSurvey) -> tuple:
    """What the orbit survey says of the 2^r rows in ascending mask order:
    their count, row 2^i (orbit i alone, its classes and verdict) for each
    i, the first non-integral row, and whether any row is a mismatch."""
    bad = survey.first_non_integral()
    return (
        1 << len(survey.orbits),
        tuple(zip(survey.orbits, survey.integral)),
        None if bad is None else 1 << bad,
        bool(survey.mismatches) or survey.undecided,
    )


def _rows_reading(rows: NormalSetRows) -> tuple:
    """The same reading taken off all 2^r rows of an oracle survey."""
    singles = [rows.rows[1 << i] for i in range(len(rows.rows).bit_length() - 1)]
    return (
        len(rows.rows),
        tuple((r.class_indices, r.integral) for r in singles),
        rows.first_non_integral(),
        bool(rows.mismatches),
    )


@pytest.mark.parametrize("label", [label for label, _ in SMALL_CATALOG])
def test_class_algebra_survey_equals_matrix_survey(label, groups, partitions, surveys):
    # the r orbit verdicts and the certificate against every row, decided on
    # the class algebra and again on the |G| x |G| adjacency matrices
    rows = normal_set_survey_rows(groups[label], partitions[label])
    assert rows == normal_set_survey_matrix(groups[label], partitions[label])
    assert _survey_reading(surveys[label]) == _rows_reading(rows)


@pytest.mark.parametrize("tokens", [("dihedral", 13), ("a5",), ("s5",)], ids=lambda t: " ".join(map(str, t)))
def test_survey_above_order_24_equals_class_algebra_rows(tokens):
    g = catalog(*tokens)
    part = conjugacy_classes(g)
    survey = build_survey(g, part)
    assert _survey_reading(survey) == _rows_reading(normal_set_survey_rows(g, part))


@pytest.mark.parametrize("label", [label for label, _ in SMALL_CATALOG + MEDIUM_EXTRA])
def test_orbit_verdicts_equal_class_algebra_rows(label, groups, partitions, surveys):
    # the one-prime decision against the exact charpolys of every union's row
    g, part = groups[label], partitions[label]
    rows = normal_set_survey_rows(g, part)
    singles = tuple(rows.rows[1 << i].integral for i in range(len(rows.rows).bit_length() - 1))
    assert surveys[label].integral == singles == orbit_verdicts(g, part)


@pytest.mark.parametrize(
    "tokens",
    [("symmetric", 6), ("alternating", 6), ("dicyclic", 15), ("dihedral", 40), ("cyclic", 60)],
    ids=lambda t: " ".join(map(str, t)),
)
def test_orbit_verdicts_equal_exact_charpolys_on_larger_groups(tokens):
    # too many orbits for every union: each orbit alone, by its exact charpoly
    g = catalog(*tokens)
    part = conjugacy_classes(g)
    assert build_survey(g, part).integral == orbit_verdicts(g, part)


@given(perm_generators())
@settings(max_examples=15, deadline=None)
def test_orbit_verdicts_on_permutation_groups(gens):
    g = load_perm_group(gens, len(perm_closure_table(gens)))
    part = conjugacy_classes(g)
    assert build_survey(g, part).integral == orbit_verdicts(g, part)


@st.composite
def graphs(draw) -> tuple[list[int], list[tuple[int, int]]]:
    """An undirected graph on the vertices 0..n-1, n <= 30, with loops,
    which the survey's edge sets have, and repeated edges."""
    n = draw(st.integers(0, 30))
    vertex = st.integers(0, max(n - 1, 0))
    return list(range(n)), draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_connected_components_match_sympy_in_order(graph):
    # sympy lists each component in its walk's order; the survey reads them as sets
    assert connected_components(graph) == [sorted(c) for c in sympy_components(graph)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_orbit_decision_does_not_trust_roots_mod_p(p, groups, partitions):
    # Below 2 b, many integers in [-b, b] share a residue and a non-integral
    # charpoly can split into linear factors mod p: on Z5, c = (x - 2)(x^2 + x - 1)^2
    # is (x - 2)^5 mod 5. The exact product still decides every orbit.
    for label in ("Z5", "Z12", "S3", "Q8", "Dic12", "A4", "S4", "Q8xZ3", "D8", "A5"):
        g, part = groups[label], partitions[label]
        mats = class_matrices(g, part)
        blocks = np.stack([sum(mats[j] for j in orbit) for orbit in part.real_classes[1:]])
        assert _integral_orbits(blocks, p) == orbit_verdicts(g, part), label


def test_orbit_product_leaves_int64_before_it_wraps():
    # B = [[0, m], [m, m]] has the eigenvalues m(1 +- sqrt 5)/2 and e_0 generates
    # F^2 under it, so no product of linear factors kills e_0. Modulo 2 its
    # charpoly is x^2, so every even lambda in [-2m, 2m] is a candidate, and each
    # B - lambda I is even: for m = 32 the exact product is a non-zero multiple
    # of 2^65, which int64 arithmetic, modulo 2^64, would read as 0.
    assert _integral_orbits(np.array([[[0, 32], [32, 32]]]), 2) == (False,)


SURVEY_FACTORS = (("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5), ("s3",), ("d4",), ("q8",))


@given(st.lists(st.sampled_from(SURVEY_FACTORS), min_size=1, max_size=3))
@settings(max_examples=12, deadline=None)
def test_class_algebra_survey_on_direct_products(factors):
    g = functools.reduce(direct_product, (catalog(*tokens) for tokens in factors))
    assume(g.n <= 48)
    part = conjugacy_classes(g)
    assume(len(part.real_classes) - 1 <= 8)
    rows = normal_set_survey_rows(g, part)
    assert rows == normal_set_survey_matrix(g, part)
    assert _survey_reading(build_survey(g, part)) == _rows_reading(rows)


@pytest.mark.parametrize(
    "tokens",
    [(name, *params) for _, (name, params) in SMALL_CATALOG]
    + [("cyclic", 1), ("d8",), ("a5",), ("s5",), ("cyclic", 15), ("cyclic", 360), ("dihedral", 9), ("dicyclic", 5), ("z2z3", 2, 1)],
    ids=lambda t: " ".join(map(str, t)),
)
def test_power_map_routes_match_element_scans(tokens):
    # the partition's (units x k) class-of-power array against g.power, and its
    # readers against the per-element loops and atom walks it replaced
    g = catalog(*tokens)
    part = conjugacy_classes(g)
    e = g.exponent()
    assert part.units == tuple(h for h in range(1, max(e, 2)) if gcd(h, e) == 1)
    assert part.powers.shape == (len(part.units), part.k) and not part.powers.flags.writeable
    assert part.powers.tolist() == [[part.class_of[g.power(rep, h)] for rep in part.reps()] for h in part.units]
    assert is_rational(part) == rational_scan(g, part)
    assert is_semi_rational(g, part) == semi_rational_scan(g, part)
    assert is_inverse_semi_rational(g, part) == inverse_semi_rational_scan(g, part)
    rep = fcci_report(g, part, None)
    assert (rep.criterion, rep.criterion_witness) == fcci_criterion_scan(g, part)
    rng = random.Random(g.n)
    for _ in range(5):
        values = [rng.randint(0, 2) for _ in range(part.k)]
        for j, inv in enumerate(part.inverse_class):
            values[inv] = values[j] = max(values[j], values[inv])
        f = ConnectionFunction.from_class_values(g, part, values)
        assert integrality_by_criterion(g, f) == criterion_scan(g, f)


def _synthetic_survey(part, bad_orbits: set[int]) -> NormalSetSurvey:
    """A survey of the non-identity real-class orbits whose orbits in
    `bad_orbits` are non-integral; no spectrum is computed."""
    orbits = tuple(rc for rc in part.real_classes if rc != (0,))
    integral = tuple(i not in bad_orbits for i in range(len(orbits)))
    return NormalSetSurvey(orbits=orbits, integral=integral, components=orbits, mismatches=(), kernel=len(orbits))


@pytest.mark.parametrize("bad_orbits", [set(), {5, 9}, {11}], ids=["integral", "orbit5", "last_orbit"])
def test_fcci_reads_any_survey_exhaustively_on_z24(bad_orbits):
    # Z24 has 13 real classes; the survey it is handed is read in full,
    # never sampled: its 12 orbit verdicts decide all 2^13 functions
    g = catalog("cyclic", 24)
    part = conjugacy_classes(g)
    assert len(part.real_classes) == 13
    rep = fcci_report(g, part, _synthetic_survey(part, bad_orbits))
    assert rep.spectra_mode == "exhaustive"
    if not bad_orbits:
        assert (rep.spectra, rep.spectra_count, rep.spectral_witness) == (True, 8192, None)
        return
    first = min(bad_orbits)
    # FCCI mask 2^(first + 1), orbit `first` alone: bit i selects part.real_classes[i]
    mask = 2 << first
    assert rep.spectra is False and rep.spectra_count == mask + 1
    on = {j for i, orbit in enumerate(part.real_classes) if mask >> i & 1 for j in orbit}
    assert rep.spectral_witness == [int(part.class_of[x] in on) for x in g.elements()]


class TestCci:
    def test_structural_positives(self, groups, partitions):
        for label in ("Q8", "Z2xZ4"):
            rep = cci_report(groups[label], partitions[label])
            assert rep.verdict and rep.structural

    def test_q8z2_structural(self):
        g = direct_product(catalog("q8"), catalog("cyclic", 2))
        part = conjugacy_classes(g)
        assert is_hamiltonian_2_group(g, part)
        rep = cci_report(g, part)
        assert rep.verdict

    def test_z2n_z3m(self):
        g = catalog("z2z3", 1, 2)
        rep = cci_report(g, conjugacy_classes(g))
        assert rep.verdict and rep.structural

    def test_s3_witness_found(self, groups, partitions):
        rep = cci_report(groups["S3"], partitions["S3"])
        assert not rep.verdict
        assert rep.witness_values is not None
        f = ConnectionFunction(groups["S3"], rep.witness_values)
        assert f.symmetric and not f.class_function
        assert not spectrum_matrix(groups["S3"], f).is_integral
        assert rep.witness_residual

    def test_dic12_witness_found(self, groups, partitions):
        rep = cci_report(groups["Dic12"], partitions["Dic12"])
        assert not rep.verdict
        assert rep.witness_values is not None
        f = ConnectionFunction(groups["Dic12"], rep.witness_values)
        assert not spectrum_matrix(groups["Dic12"], f).is_integral

    def test_witness_search_capped_above_order_120(self, monkeypatch):
        # both spectral read-outs, and the CI sweep's charpolys, start from
        # the one Krylov routine: no spectrum of any colour function may run
        def no_krylov(a, ps, steps):
            raise AssertionError(f"{steps} Krylov steps on a {a.shape[-1]}-column operator ran")

        monkeypatch.setattr("cayint.linalg._krylov", no_krylov)
        g = catalog("dihedral", 61)
        report = classify_group(g, chartable_cap=100)  # the table is slow and not needed here
        note = "CCI witness search skipped: |G|=122 exceeds cap 120"
        assert report.cci.skipped == (note,)
        assert note in report.caps_notes
        assert report.cci.candidates_tried == 0 and report.cci.witness_values is None

    def test_shipped_alpha_accepted_as_witness(self, groups):
        # the shipped fixture is itself a valid non-integrality witness
        from cayint.linalg import IntPolynomial

        rep = spectrum_matrix(groups["S3"], ConnectionFunction(groups["S3"], (0, 3, 7, 1, 1, 4)))
        assert not rep.is_integral
        fac = rep.residual_factors()
        assert fac == ((IntPolynomial((-12, 2, 1)), 2),)
        # -1 + sqrt(13) lies in (2, 3): the sign change certifies the root
        assert fac[0][0](2) < 0 < fac[0][0](3)


class TestCi:
    def test_exhaustive_positives(self, groups, partitions):
        for label in ("S3", "Z6", "Q8", "Z2xZ4"):
            rep = ci_report(groups[label], partitions[label])
            assert rep.verdict and rep.structural
            assert rep.brute is True and rep.mode == "exhaustive"
            assert not rep.discrepancies

    def test_z4(self):
        g = catalog("cyclic", 4)
        rep = ci_report(g, conjugacy_classes(g))
        assert rep.verdict and rep.brute

    def test_d4_not_ci_with_witness(self, groups, partitions):
        rep = ci_report(groups["D4"], partitions["D4"])
        assert not rep.verdict
        assert rep.brute is False and rep.mode == "exhaustive"
        assert rep.witness_set is not None
        f = ConnectionFunction.delta(groups["D4"], rep.witness_set)
        assert not spectrum_matrix(groups["D4"], f).is_integral

    def test_dic12_ci_both_routes(self, groups, partitions):
        rep = ci_report(groups["Dic12"], partitions["Dic12"])
        assert rep.verdict and rep.structural
        assert rep.brute is True and rep.mode == "exhaustive"

    def test_structural_and_brute_agree_small(self, groups, partitions):
        for label in ("Z5", "Z6", "Z12", "S3", "D4", "Q8", "Z2xZ4", "Dic12", "A4"):
            rep = ci_report(groups[label], partitions[label])
            assert rep.mode == "exhaustive"
            assert rep.brute == rep.structural, label

    def test_cap_exceeded_structural_still_returned(self, groups, partitions):
        rep = ci_report(groups["S5"], partitions["S5"])
        assert rep.brute is None and rep.mode == "skipped"
        assert rep.skipped


def _ci_reading(rep) -> tuple:
    return rep.mode, rep.brute, rep.subsets_tried, rep.witness_set


@pytest.mark.parametrize(
    "tokens",
    [(name, *params) for _, (name, params) in SMALL_CATALOG]
    + [("z2z4", 0, 2), ("z2z3", 3, 1), ("dihedral", 7), ("cyclic", 1)],
    ids=lambda t: " ".join(map(str, t)),
)
def test_ci_sweep_matches_the_per_set_oracle(tokens):
    # the same sets in the same order, decided in batches on one prime: the
    # same count and witness, also where all 1000 sampled sets are integral
    g = catalog(*tokens)
    assert _ci_reading(ci_report(g, conjugacy_classes(g), seed=3)) == ci_brute_scan(g, seed=3)


@given(perm_generators())
@settings(max_examples=10, deadline=None)
def test_ci_sweep_matches_the_oracle_on_permutation_groups(gens):
    n = len(perm_closure_table(gens))
    assume(n <= CI_SAMPLED_MAX_ORDER)
    g = load_perm_group(gens, n)
    assert _ci_reading(ci_report(g, conjugacy_classes(g))) == ci_brute_scan(g)


@pytest.mark.parametrize("tokens", [("d4",), ("q8z3",), ("z2z4", 0, 2)], ids=lambda t: " ".join(map(str, t)))
def test_ci_sweep_chunks_double_up_to_the_stack_budget(tokens, monkeypatch):
    # a sweep decides at most about twice the sets it reports as tried
    g = catalog(*tokens)
    sizes = []
    real = cayley_charpoly_mod

    def counting(stack, p):
        sizes.append(len(stack))
        return real(stack, p)

    monkeypatch.setattr("cayint.classify.cayley_charpoly_mod", counting)
    rep = ci_report(g, conjugacy_classes(g))
    cap = _STACK_CELLS // (g.n * g.n)
    assert sizes[:-1] == [min(2**i, cap) for i in range(len(sizes) - 1)]
    assert sizes[-1] <= min(2 ** (len(sizes) - 1), cap)
    assert sum(sizes[:-1]) < rep.subsets_tried <= sum(sizes)


def test_survey_rows_oracle_refuses_too_many_orbits():
    # Q8 x Z3 x Z2 has 19 non-identity real-class orbits: 2^19 matrices of
    # 30 x 30 would take about 3.8 GB, so the oracle stops before it builds any
    g = direct_product(catalog("q8z3"), catalog("cyclic", 2))
    part = conjugacy_classes(g)
    assert len(part.real_classes) - 1 == 19
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^19"):
            normal_set_survey_rows(g, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestGammaChiConj:
    """chi + conj(chi) is NCI's character route: the verdict is that every
    such sum is rational, and `gamma_chi_conj_all_integral` reads it."""

    def test_rational_group_all_pass(self, tables):
        assert not chi_plus_conj(tables["S4"])[:, :, 1:].any()

    def test_z5_rejected_characters(self, groups, partitions, tables):
        assert chi_plus_conj(tables["Z5"])[:, :, 1:].any()
        assert nci_report(groups["Z5"], partitions["Z5"], tables["Z5"], None).characters is False

    def test_q8z3_all_characters(self, groups, partitions, tables):
        assert tables["Q8xZ3"].k == 15
        assert nci_report(groups["Q8xZ3"], partitions["Q8xZ3"], tables["Q8xZ3"], None).characters is True

    def test_matches_nci_verdict(self, groups, partitions, tables, surveys):
        for label in surveys:
            rep = nci_report(
                groups[label], partitions[label],
                table=tables[label], survey=surveys[label],
            )
            assert rep.characters == rep.verdict, label

    @pytest.mark.parametrize("label", [label for label, _ in SMALL_CATALOG + MEDIUM_EXTRA])
    def test_class_values_equal_the_per_character_route(self, label, groups, tables):
        # a rational chi + conj(chi) is an integer class function fixed by
        # every Galois twist, so the element-by-element criterion scan finds
        # its colour graph on all of G integral: rationality alone decides
        g, table = groups[label], tables[label]
        rational = 0
        for sums in chi_plus_conj(table):
            if not sums[:, 1:].any():
                rational += 1
                f = ConnectionFunction.from_class_values(g, table.partition, sums[:, 0].tolist())
                assert f.in_f and criterion_scan(g, f)[0]
        assert rational >= 1  # the trivial character at least

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("classify_*.json")) + [GOLDEN / "audit_seed_0.json"],
                             ids=lambda path: path.stem)
    def test_evidence_key_reads_the_character_route(self, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        reports = doc["groups"] if doc["command"] == "audit" else [doc]
        assert reports
        for rep in reports:
            assert rep["evidence"]["gamma_chi_conj_all_integral"] == rep["routes"]["nci"]["characters"], rep["name"]


@pytest.mark.parametrize("report", RouteReport.__subclasses__(), ids=lambda report: report.KEY)
def test_text_format_names_exactly_the_routes(report):
    fields = {field for _, field, _, _ in string.Formatter().parse(report.TEXT) if field is not None}
    assert fields == set(report.ROUTES)


class TestClassificationReport:
    def test_golden_verdicts(self, groups):
        # frozen verdict table for the headline groups
        expected = {
            "Q8": dict(cci=True, ci=True, fcci=True, nci=True),
            "Z2xZ4": dict(cci=True, ci=True, fcci=True, nci=True),
            "S3": dict(cci=False, ci=True, fcci=True, nci=True),
            "Dic12": dict(cci=False, ci=True, fcci=True, nci=True),
            "A4": dict(cci=False, ci=False, fcci=True, nci=True),
            "Z12": dict(cci=False, ci=False, fcci=False, nci=False),
            "D4": dict(cci=False, ci=False, fcci=True, nci=True),
        }
        for label, want in expected.items():
            rep = classify_group(groups[label])
            got = dict(cci=rep.cci.verdict, ci=rep.ci.verdict,
                       fcci=rep.fcci.verdict, nci=rep.nci.verdict)
            assert got == want, label

    def test_report_serializes(self, groups):
        import json

        doc = classify_group(groups["S3"]).to_dict()
        json.dumps(doc)  # must be JSON-clean
        assert doc["verdicts"]["ci"] is True

    def test_every_skip_reaches_caps_notes(self):
        rep = classify_group(catalog("dihedral", 13))
        assert rep.caps_notes == ("brute force skipped: |G|=26 exceeds cap 24",)
        assert rep.nci.exhaustive is False and rep.fcci.spectra is False
        assert rep.ci.brute is None

    def test_negative_verdicts_carry_witnesses(self, groups):
        rep = classify_group(groups["Z12"])
        assert rep.nci.failing_atom is not None
        assert rep.fcci.criterion_witness is not None
        assert rep.ci.witness_set is not None


@pytest.fixture(scope="module")
def audit():
    return hierarchy_audit(seed=0)


class TestAudit:

    def test_chain_holds(self, audit):
        assert audit.chain_violations == ()

    def test_closures_hold(self, audit):
        assert audit.closure_violations == ()
        assert len(audit.closure_checks) > 10

    def test_fcci_disagreements_are_findings(self, audit):
        assert any("Q8xZ3" in f and "disagreement" in f for f in audit.findings)
        assert audit.exit_code == 3

    def test_json_matches_golden(self, audit):
        # serialised exactly as `cayint audit --seed 0 --format json` writes it
        import json
        from pathlib import Path

        text = json.dumps({"command": "audit", **audit.to_dict()}, indent=2, sort_keys=True) + "\n"
        golden = Path(__file__).parent / "golden" / "audit_seed_0.json"
        assert text == golden.read_text(encoding="utf-8")

    def test_fixture_notes_present(self, audit):
        assert any("alpha" in n and "-12" in n for n in audit.notes)
        assert any("beta" in n for n in audit.notes)

    def test_empty_catalog(self):
        audit = hierarchy_audit([])
        assert audit.reports == []
        assert audit.chain_violations == ()

    def test_z5_alone(self, groups):
        audit = hierarchy_audit([groups["Z5"]])
        rep = audit.reports[0]
        d = rep.to_dict()["verdicts"]
        assert not any(
            d[k] for k in ("rational", "semi_rational", "inverse_semi_rational",
                           "nci", "fcci", "cci", "ci")
        )
        assert audit.chain_violations == ()

    def test_audit_is_deterministic(self, groups):
        import json

        a = hierarchy_audit([groups["S3"], groups["Q8"]], seed=5)
        b = hierarchy_audit([groups["S3"], groups["Q8"]], seed=5)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_groups_sharing_a_name_keep_their_own_checks(self):
        # S3 and Z6 both named G: each report is checked against its own group
        s3, z6 = (build_group(catalog(*t).table, name="G") for t in (("s3",), ("cyclic", 6)))
        audit = hierarchy_audit([s3, z6])
        assert audit.closure_violations == () and audit.findings == ()
        assert audit.closure_checks == (
            "quotient G/derived (order 2)",
            "center of G (order 6)",
            "nilpotent NCI G order check",
            "product GxG (order 36)",
            "product GxG (order 36)",
        )


def _classify_s3_json(capsys, *args: str) -> dict:
    assert main(["classify", "--catalog", "s3", "--format", "json", *args]) == 0
    return json.loads(capsys.readouterr().out)


# One injected route disagreement per predicate on S3, whose routes all agree
# unpatched, and one Eulerian/integrality mismatch of the normal-set survey:
# (name patched in cayint.classify, its stand-in, the message).
INJECTED_DISAGREEMENTS = {
    "nci": (
        "chi_plus_conj",
        lambda table: np.ones((1, 1, 2), dtype=np.int64),  # one irrational sum
        "NCI route disagreement on S3: atoms=True, characters=False",
    ),
    "fcci": ("ALLOWED_ORDERS", {1}, "F-route disagreement on S3: orders=False, criterion=True"),
    "cci": (
        "_cci_structural",
        lambda g, part: True,
        "CCI disagreement on S3: structural=True but a non-integral colour function exists",
    ),
    "ci": (
        "_is_s3_shape",
        lambda g: False,
        "CI route disagreement on S3: structural=False, brute(exhaustive)=True",
    ),
    "survey": (
        "_orbit_coordinates",
        lambda table, orbits: np.eye(len(orbits), dtype=np.int64),
        "Eulerian/integrality mismatch on S3: classes [1] are Eulerian, not integral",
    ),
}


@pytest.mark.parametrize("predicate", sorted(INJECTED_DISAGREEMENTS))
def test_route_disagreement_reaches_json_and_findings(predicate, monkeypatch, capsys):
    name, stand_in, message = INJECTED_DISAGREEMENTS[predicate]
    monkeypatch.setattr(f"cayint.classify.{name}", stand_in)
    doc = _classify_s3_json(capsys)
    assert message in doc["discrepancies"]
    audit = hierarchy_audit([catalog("s3")])
    assert message in audit.findings and audit.exit_code == 3


# One lowered cap per route on S3 (order 6), the character table's cell cap
# lowered below S3's 27 cells, and one Eulerian/integrality certificate left
# undecided: (names set in cayint.classify with their stand-ins, the
# character-table cap, the predicate and route that are skipped and what
# they then read, the note). The survey that NCI's exhaustive and FCCI's
# spectral route read runs wherever the character table does. A
# `connected_components` that joins both orbits of S3 into one atom
# component leaves a kernel of dimension 2 against 1 component.
LOWERED_CAPS = {
    "nci": ({}, 5, ("nci", "exhaustive", None), "exhaustive route skipped: no character table"),
    "fcci": ({}, 5, ("fcci", "spectra_mode", "skipped"), "spectral route skipped: no character table"),
    "cci": (
        {"CCI_WITNESS_MAX_ORDER": 5},
        DEFAULT_ORDER_CAP,
        ("cci", "candidates_tried", 0),
        "CCI witness search skipped: |G|=6 exceeds cap 5",
    ),
    "ci": (
        {"CI_EXHAUSTIVE_MAX_ORDER": 5, "CI_SAMPLED_MAX_ORDER": 5},
        DEFAULT_ORDER_CAP,
        ("ci", "mode", "skipped"),
        "brute force skipped: |G|=6 exceeds cap 5",
    ),
    "table cells": (
        {"CELL_CAP": 26},
        DEFAULT_ORDER_CAP,
        ("nci", "exhaustive", None),
        "character table skipped: 27 cells exceed cap 26",
    ),
    "survey": (
        {"connected_components": lambda graph: [graph[0]]},
        DEFAULT_ORDER_CAP,
        ("nci", "exhaustive", True),
        "Eulerian/integrality undecided on S3: kernel mod 7 of dimension 2 exceeds 1 atom components",
    ),
}


@pytest.mark.parametrize("case", sorted(LOWERED_CAPS))
def test_route_skip_reaches_caps_notes(case, monkeypatch, capsys):
    patches, chartable_cap, (predicate, route, value), note = LOWERED_CAPS[case]
    for name, stand_in in patches.items():
        monkeypatch.setattr(f"cayint.classify.{name}", stand_in)
    doc = _classify_s3_json(capsys, "--cap-chartable", str(chartable_cap))
    assert doc["routes"][predicate][route] == value
    assert note in doc["caps_notes"]
    audit = hierarchy_audit([catalog("s3")], chartable_cap=chartable_cap)
    assert note in audit.to_dict()["groups"][0]["caps_notes"]


@pytest.mark.parametrize(
    "argv, note",
    [
        # 720 class matrices of 720 x 720 int64 cells alone would take 2.8 GiB
        (("cyclic", "720"), f"character table skipped: {720**3} cells exceed cap {CELL_CAP}"),
        # above both caps: the order cap's note alone, as before the cell cap
        (("cyclic", "1260", "--cap-chartable", "1000"), "character table skipped: |G|=1260 exceeds cap 1000"),
    ],
    ids=["Z720 cells", "Z1260 order"],
)
def test_a_table_above_a_cap_is_skipped_with_one_note(argv, note, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("character table built above a cap")

    monkeypatch.setattr("cayint.classify.character_table", unreachable)
    assert main(["classify", "--catalog", *argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [n for n in doc["caps_notes"] if n.startswith("character table")] == [note]
    assert doc["routes"]["nci"]["exhaustive"] is None


def _count_power_map_builds(monkeypatch) -> list[str]:
    """The names of the groups whose unit power maps are built from now on."""
    from cayint.groups import _unit_power_classes as build

    calls = []

    def counted(g, *args):
        calls.append(g.name)
        return build(g, *args)

    monkeypatch.setattr("cayint.groups._unit_power_classes", counted)
    return calls


@pytest.mark.parametrize("cap", [DEFAULT_ORDER_CAP, 1])
def test_unit_power_maps_are_computed_once_per_classification(cap, monkeypatch):
    # with and without a character table: every rationality route, FCCI's
    # criterion, the survey's atom components and the chi + conj(chi) colour
    # checks read the maps of the one partition
    calls = _count_power_map_builds(monkeypatch)
    classify_group(catalog("dicyclic12"), chartable_cap=cap)
    assert calls == ["Dic12"]


def test_audit_builds_unit_power_maps_once_per_partition(monkeypatch):
    # 13 classified groups, 7 centres, 12 quotients and 9 products; the 2 fixture
    # colour functions test constancy on classes without a partition
    calls = _count_power_map_builds(monkeypatch)
    hierarchy_audit(seed=0)
    assert len(calls) == 41


def test_spectrum_of_a_function_or_a_set_builds_no_partition(monkeypatch, tmp_path):
    # the flags of a colour function and of a connection set come from the generators
    calls = _count_power_map_builds(monkeypatch)
    out = str(tmp_path / "spectrum.txt")
    assert main(["spectrum", "--fixture", "alpha", "--out", out]) == 1
    assert main(["spectrum", "--catalog", "s4", "--set", "1,2", "--out", out]) in (0, 1)
    assert calls == []
