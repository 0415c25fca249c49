"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every check is exact; the stated runtime budgets are asserted.
"""

from __future__ import annotations

import random
import time
from math import gcd

import pytest
from conftest import MEDIUM_EXTRA, SMALL_CATALOG, build_survey
from oracle import Cyclotomic, cyclotomic_rows, eigenvalue_sum, eulerian_check, power, routes_agree

from cayint.catalog import catalog
from cayint.chartable import character_table
from cayint.classify import (
    cci_report,
    ci_report,
    classify_group,
    hierarchy_audit,
    nci_report,
)
from cayint.groups import conjugacy_classes, direct_product
from cayint.linalg import IntPolynomial, charpoly
from cayint.spectra import (
    ConnectionFunction,
    adjacency,
    integrality_by_criterion,
    spectrum_matrix,
)

ALPHA = (0, 3, 7, 1, 1, 4)
BETA = (0, 1, 7, 8, 7, 1, 3, 4, 5, 3, 4, 5)

SMALL = (
    ("Z5", "cyclic", (5,)),
    ("Z6", "cyclic", (6,)),
    ("Z12", "cyclic", (12,)),
    ("S3", "s3", ()),
    ("D4", "d4", ()),
    ("Q8", "q8", ()),
    ("Z2xZ4", "z2z4", (1, 1)),
    ("Dic12", "dicyclic12", ()),
    ("A4", "a4", ()),
    ("S4", "s4", ()),
    ("Q8xZ3", "q8z3", ()),
)


def _report(num: int, title: str, problems: list[str], detail: str = "") -> None:
    status = "PASS" if not problems else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {title}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def test_acceptance_01_gamma_alpha():
    problems: list[str] = []
    t0 = time.monotonic()
    s3 = catalog("s3")
    rep = spectrum_matrix(s3, ConnectionFunction(s3, ALPHA))
    p = charpoly(adjacency(s3, ConnectionFunction(s3, ALPHA)))
    elapsed = time.monotonic() - t0

    eigen = dict(rep.integer_eigenvalues)
    if eigen.get(16) != 1:
        problems.append(f"expected simple eigenvalue 16, got {rep.integer_eigenvalues}")
    lam = next((v for v in eigen if v != 16), None)
    if lam is None or eigen.get(lam) != 1:
        problems.append(f"expected a second simple integer eigenvalue, got {rep.integer_eigenvalues}")
    quad = IntPolynomial((-12, 2, 1))  # roots -1 +- sqrt(13)
    if rep.residual != quad * quad:
        problems.append(f"residual is {rep.residual}, expected (x^2+2x-12)^2")
    if lam is not None and p != IntPolynomial((-16, 1)) * IntPolynomial((-lam, 1)) * quad * quad:
        problems.append("charpoly does not factor as (x-16)(x-lambda)(x^2+2x-12)^2")
    # the published table prints +12; the exact eigenvalue sum must be
    # trace = 6*alpha(1) = 0, which forces the opposite sign
    if lam != -12:
        problems.append(f"computed second eigenvalue {lam}, trace forces -12")
    if eigenvalue_sum(rep) != 0:
        problems.append(f"eigenvalue sum {eigenvalue_sum(rep)} != trace 0")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(
        1,
        "Gamma_alpha on S3",
        problems,
        f"computed eigenvalue {lam} where the published table prints +12; "
        f"residual (x^2+2x-12)^2; {elapsed:.2f}s",
    )


def test_acceptance_02_gamma_beta():
    problems: list[str] = []
    t0 = time.monotonic()
    dic = catalog("dicyclic12")
    rep = spectrum_matrix(dic, ConnectionFunction(dic, BETA))
    elapsed = time.monotonic() - t0

    if rep.integer_eigenvalues != ((48, 1), (4, 2), (0, 1), (-14, 4)):
        problems.append(f"integer part {rep.integer_eigenvalues}")
    if rep.residual != power(IntPolynomial((-12, 0, 1)), 2):
        problems.append(f"residual {rep.residual}, expected (x^2-12)^2")
    total = sum(m for _, m in rep.integer_eigenvalues) + rep.residual.degree
    if total != 12:
        problems.append(f"multiplicities sum to {total}, expected 12")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(2, "Gamma_beta on Dic12", problems, f"matches published table exactly; {elapsed:.2f}s")


def test_acceptance_03_eulerian_iff_integral():
    problems: list[str] = []
    t0 = time.monotonic()
    rows = 0
    for label, (name, params) in SMALL_CATALOG + MEDIUM_EXTRA:
        g = catalog(name, *params)
        part = conjugacy_classes(g)
        survey = build_survey(g, part)
        rows += 1 << len(survey.orbits)
        problems += [f"{label}: classes {c} are Eulerian but not integral" for c in survey.mismatches]
        if survey.undecided:
            problems.append(f"{label}: kernel mod p of dimension {survey.kernel} above "
                            f"{len(survey.components)} atom components, undecided")
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s exceeds 2min")
    _report(3, "Eulerian <=> integral on all normal sets", problems,
            f"{rows} normal sets across {len(SMALL_CATALOG + MEDIUM_EXTRA)} groups certified, "
            f"0 mismatches; {elapsed:.1f}s")


def test_acceptance_04_nci_three_routes(groups, partitions, tables, surveys):
    problems: list[str] = []
    verdicts = {}
    for label in surveys:
        rep = nci_report(groups[label], partitions[label],
                         table=tables[label], survey=surveys[label])
        verdicts[label] = rep.verdict
        if rep.characters is None or rep.exhaustive is None:
            problems.append(f"{label}: a route did not run")
        if rep.discrepancies:
            problems.extend(rep.discrepancies)
    for label, want in (("S4", True), ("Q8xZ3", True), ("Z12", False), ("Z5", False)):
        if verdicts.get(label) != want:
            problems.append(f"{label}: NCI={verdicts.get(label)}, expected {want}")
    _report(4, "NCI three-route agreement", problems,
            f"routes agree on all {len(verdicts)} groups")


def test_acceptance_05_character_tables():
    problems: list[str] = []
    t0 = time.monotonic()
    names = list(SMALL) + [("D8", "d8", ()), ("A5", "a5", ()), ("S5", "s5", ())]
    degree_goldens = {
        "S3": (1, 1, 2),
        "Q8": (1, 1, 1, 1, 2),
        "A4": (1, 1, 1, 3),
        "S4": (1, 1, 2, 3, 3),
    }
    count = 0
    for label, name, params in names:
        g = catalog(name, *params)
        if g.n > 120:
            continue
        t = character_table(g)
        count += 1
        n, k, sizes = g.n, t.k, t.class_sizes()
        rows = cyclotomic_rows(t.conductor, t.coeffs)
        conj_rows = [[v.conj() for v in row] for row in rows]
        if sum(d * d for d in t.degrees) != n:
            problems.append(f"{label}: degree equation fails")
        for r in range(k):
            for s in range(k):
                acc = Cyclotomic.rational(0)
                for j in range(k):
                    acc = acc + sizes[j] * (rows[r][j] * conj_rows[s][j])
                if acc != (n if r == s else 0):
                    problems.append(f"{label}: row orthogonality fails at ({r},{s})")
        for i in range(k):
            for j in range(k):
                acc = Cyclotomic.rational(0)
                for r in range(k):
                    acc = acc + rows[r][i] * conj_rows[r][j]
                from fractions import Fraction

                want = Fraction(n, sizes[i]) if i == j else Fraction(0)
                if acc != Cyclotomic.rational(want):
                    problems.append(f"{label}: column orthogonality fails at ({i},{j})")
        golden = degree_goldens.get(label)
        if golden and t.degrees != golden:
            problems.append(f"{label}: degrees {t.degrees}, expected {golden}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s exceeds 1min")
    _report(5, "character-table soundness", problems,
            f"{count} tables verified exactly; {elapsed:.1f}s")


def test_acceptance_06_criterion_equivalence(groups, partitions):
    problems: list[str] = []
    t0 = time.monotonic()
    checked = 0
    for label in [lab for lab, _, _ in SMALL]:
        g, part = groups[label], partitions[label]
        rng = random.Random(f"0:{label}:acceptance6")
        for _ in range(100):
            class_values = [0] * part.k
            for orbit in part.real_classes:
                v = rng.randint(-9, 9)
                for j in orbit:
                    class_values[j] = v
            f = ConnectionFunction.from_class_values(g, part, class_values)
            by_criterion, _ = integrality_by_criterion(g, f)
            by_matrix = spectrum_matrix(g, f).is_integral
            checked += 1
            if by_criterion != by_matrix:
                problems.append(
                    f"{label}: f={f.values} criterion={by_criterion} matrix={by_matrix}"
                )
    elapsed = time.monotonic() - t0
    _report(6, "power-map criterion <=> exact integrality", problems,
            f"{checked} random class functions, 0 mismatches; {elapsed:.1f}s")


def test_acceptance_07_dual_route(groups, partitions, tables):
    problems: list[str] = []
    checked = 0
    for label in ("Q8", "S3", "Dic12", "A4"):
        g, part, t = groups[label], partitions[label], tables[label]
        orbits = part.real_classes
        for take in range(1 << len(orbits)):
            class_values = [0] * part.k
            for i, orbit in enumerate(orbits):
                if take >> i & 1:
                    for j in orbit:
                        class_values[j] = 1
            f = ConnectionFunction.from_class_values(g, part, class_values)
            checked += 1
            if not routes_agree(g, f, t):
                problems.append(f"{label}: routes differ for {f.values}")
    _report(7, "character-route polynomial equals matrix charpoly", problems,
            f"{checked} exhaustive 0/1 class functions, 0 mismatches")


def test_acceptance_08_classification_goldens():
    problems: list[str] = []

    def check(expr, want, kind):
        g = expr if not isinstance(expr, tuple) else catalog(expr[0], *expr[1])
        part = conjugacy_classes(g)
        if kind == "cci":
            rep = cci_report(g, part)
        else:
            rep = ci_report(g, part)
        if rep.verdict is not want:
            problems.append(f"{kind}({g.name}) = {rep.verdict}, expected {want}")
        return rep

    for entry in (("z2z3", (1, 1)), ("z2z3", (2, 1)), ("z2z4", (1, 1)), ("z2z4", (0, 2)), ("q8", ())):
        check(entry, True, "cci")
    check(direct_product(catalog("q8"), catalog("cyclic", 2)), True, "cci")

    for name in ("s3", "dicyclic12"):
        rep = check((name, ()), False, "cci")
        if rep.witness_values is None:
            problems.append(f"cci({name}): no witness found")
        else:
            g = catalog(name)
            f = ConnectionFunction(g, rep.witness_values)
            if spectrum_matrix(g, f).is_integral:
                problems.append(f"cci({name}): recorded witness is integral")

    for entry in (("s3", ()), ("cyclic", (6,)), ("q8", ()), ("z2z4", (1, 1))):
        rep = check(entry, True, "ci")
        if rep.mode != "exhaustive" or rep.brute is not True:
            problems.append(f"ci{entry}: exhaustive brute force did not confirm")

    rep = check(("d4", ()), False, "ci")
    if rep.witness_set is None:
        problems.append("ci(d4): no witness set")
    else:
        g = catalog("d4")
        if spectrum_matrix(g, ConnectionFunction.delta(g, rep.witness_set)).is_integral:
            problems.append("ci(d4): recorded witness is integral")
    _report(8, "classification golden set", problems, "all golden verdicts and witnesses hold")


def test_acceptance_09_q8z3_probe(groups, partitions, tables):
    problems: list[str] = []
    t0 = time.monotonic()
    g, part, t = groups["Q8xZ3"], partitions["Q8xZ3"], tables["Q8xZ3"]
    orbits = part.real_classes
    assert 1 << len(orbits) <= 1024
    outcomes = []
    for take in range(1 << len(orbits)):
        class_values = [0] * part.k
        for i, orbit in enumerate(orbits):
            if take >> i & 1:
                for j in orbit:
                    class_values[j] = 1
        f = ConnectionFunction.from_class_values(g, part, class_values)
        if not routes_agree(g, f, t):
            problems.append(f"routes differ for function {take}")
        outcomes.append(spectrum_matrix(g, f).is_integral)
    all_integral = all(outcomes)
    computed_fcci = all_integral  # definitional outcome of the probe
    reference_remark_fcci = False  # the published remark calls this group not F-CCI
    audit = hierarchy_audit([g])
    recorded = any("Q8xZ3" in f and "disagreement" in f for f in audit.findings)
    if computed_fcci != reference_remark_fcci and not recorded:
        problems.append("outcome contradicts the published remark but the audit records no finding")
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5min")
    _report(
        9,
        "Q8xZ3 exhaustive probe",
        problems,
        f"{len(outcomes)} functions, routes agree on all; computed: "
        f"{'every' if all_integral else 'not every'} 0/1 class function is integral, "
        f"so the criterion-route verdict is {computed_fcci}, while the published remark "
        f"says {reference_remark_fcci}; audit finding recorded: {recorded}; {elapsed:.1f}s",
    )


def test_acceptance_10_hierarchy_audit():
    problems: list[str] = []
    t0 = time.monotonic()
    audit = hierarchy_audit(seed=0)
    elapsed = time.monotonic() - t0
    if audit.chain_violations:
        problems.extend(audit.chain_violations)
    if audit.closure_violations:
        problems.extend(audit.closure_violations)
    center_checks = [c for c in audit.closure_checks if c.startswith("center")]
    quotient_checks = [c for c in audit.closure_checks if c.startswith("quotient")]
    product_checks = [c for c in audit.closure_checks if c.startswith("product")]
    if not (center_checks and quotient_checks and product_checks):
        problems.append("closure sections did not all run")
    if audit.exit_code != 3:
        problems.append(f"exit code {audit.exit_code}, expected 3 (findings must surface)")
    if not any("Q8xZ3" in f and "disagreement" in f for f in audit.findings):
        problems.append("Q8xZ3 route disagreement not reported")
    _report(
        10,
        "hierarchy audit on the default catalog",
        problems,
        f"chain clean, {len(center_checks)} center / {len(quotient_checks)} quotient / "
        f"{len(product_checks)} product closures hold, {len(audit.findings)} finding(s) "
        f"surfaced with exit code 3; {elapsed:.1f}s",
    )
