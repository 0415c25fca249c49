"""Hierarchy predicates, route agreement, witnesses, and the audit."""

from __future__ import annotations

import pytest

from cayint.catalog import catalog
from cayint.classify import (
    Caps,
    cci_report,
    ci_report,
    classify_group,
    fcci_report,
    gamma_chi_conj_check,
    hierarchy_audit,
    is_hamiltonian_2_group,
    is_inverse_semi_rational,
    is_rational,
    is_semi_rational,
    nci_report,
    normal_set_survey,
)
from cayint.groups import conjugacy_classes, direct_product
from cayint.spectra import ConnectionFunction, spectrum_matrix


class TestRationalityPredicates:
    def test_s5_rational_hence_all(self, groups, partitions):
        g, part = groups["S5"], partitions["S5"]
        assert is_rational(g, part)[0]
        assert is_semi_rational(g, part)[0]
        assert is_inverse_semi_rational(g, part)[0]

    def test_z5_none(self, groups, partitions):
        g, part = groups["Z5"], partitions["Z5"]
        assert not is_rational(g, part)[0]
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
        assert rep.route_atoms and rep.route_characters and rep.route_exhaustive
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
            assert rep.route_characters is not None
            assert rep.route_exhaustive is not None
            assert rep.discrepancies == (), f"route disagreement on {label}"


class TestFcci:
    def test_elementary(self, partitions, groups):
        g = catalog("z2z3", 2, 1)
        rep = fcci_report(g, conjugacy_classes(g))
        assert rep.verdict and rep.route_orders and rep.route_criterion
        assert rep.route_spectra and rep.spectra_mode == "exhaustive"

    def test_a4(self, groups, partitions):
        rep = fcci_report(groups["A4"], partitions["A4"])
        assert rep.verdict and rep.route_orders and not rep.discrepancies

    def test_z12_fails_everywhere(self, groups, partitions):
        rep = fcci_report(groups["Z12"], partitions["Z12"])
        assert not rep.verdict
        assert not rep.route_orders and not rep.route_criterion
        assert rep.route_spectra is False
        assert rep.order_witness is not None
        assert rep.criterion_witness is not None

    def test_q8z3_route_disagreement_is_a_finding(self, groups, partitions):
        # the probe computes, it does not assume: orders route and criterion
        # route genuinely disagree here and both are reported
        rep = fcci_report(groups["Q8xZ3"], partitions["Q8xZ3"])
        assert not rep.route_orders
        assert rep.route_criterion
        assert rep.route_spectra is not None  # exhaustive run happened
        assert rep.spectra_mode == "exhaustive" and rep.spectra_count == 1024
        assert rep.route_spectra == rep.route_criterion
        assert any("disagreement" in d for d in rep.discrepancies)


class TestCci:
    def test_structural_positives(self, groups, partitions):
        for label in ("Q8", "Z2xZ4"):
            rep = cci_report(groups[label], partitions[label])
            assert rep.verdict and rep.structural

    def test_q8z2_structural(self):
        g = direct_product(catalog("q8"), catalog("cyclic", 2))
        assert is_hamiltonian_2_group(g)
        rep = cci_report(g, conjugacy_classes(g))
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
        def no_charpoly(m):
            raise AssertionError(f"charpoly of a {m.n}x{m.n} matrix ran")

        monkeypatch.setattr("cayint.spectra.charpoly", no_charpoly)
        g = catalog("dihedral", 61)
        report = classify_group(g, Caps(chartable=100))  # the table is slow and not needed here
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


class TestGammaChiConj:
    def test_rational_group_all_pass(self, groups, tables):
        rows, ok = gamma_chi_conj_check(groups["S4"], tables["S4"])
        assert ok and all(r.formable and r.integral for r in rows)

    def test_z5_rejected_characters(self, groups, tables):
        rows, ok = gamma_chi_conj_check(groups["Z5"], tables["Z5"])
        assert not ok
        assert any(not r.formable for r in rows)

    def test_q8z3_all_characters(self, groups, tables):
        rows, ok = gamma_chi_conj_check(groups["Q8xZ3"], tables["Q8xZ3"])
        assert ok and len(rows) == 15

    def test_matches_nci_verdict(self, groups, partitions, tables, surveys):
        for label in surveys:
            rows, ok = gamma_chi_conj_check(groups[label], tables[label])
            rep = nci_report(
                groups[label], partitions[label],
                table=tables[label], survey=surveys[label],
            )
            assert ok == rep.verdict, label


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

    def test_negative_verdicts_carry_witnesses(self, groups):
        rep = classify_group(groups["Z12"])
        assert rep.isr_failing_atom is not None
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
