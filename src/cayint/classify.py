"""Group-level integrality predicates and the catalog auditor.

Every predicate that admits several independent computations runs them all
and records each one; a disagreement between routes is never resolved
silently but surfaces as a report entry. Negative verdicts always carry a
concrete re-checkable witness (an element, a colour function, or a set).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .catalog import catalog
from .chartable import (
    CharacterTable,
    character_table,
    chi_plus_conj_integral,
)
from .groups import (
    Atom,
    ConjugacyPartition,
    FiniteGroup,
    atom,
    center,
    conjugacy_classes,
    direct_product,
    generated_subgroup,
    is_nilpotent,
    quotient,
)
from .spectra import (
    ConnectionFunction,
    eulerian_check,
    integrality_by_criterion,
    spectrum_matrix,
)


@dataclass(frozen=True)
class Caps:
    """Work limits; routes above a cap are skipped and say so."""

    chartable: int = 2000
    normal_exhaustive: int = 24      # exhaustive normal-set enumeration
    fcci_spectral: int = 24          # matrix-route sampling of class functions
    fcci_exhaustive_classes: int = 12
    fcci_samples: int = 200
    ci_exhaustive: int = 12
    ci_sampled: int = 24
    ci_samples: int = 1000
    subset_budget: int = 2**16
    witness_budget: int = 500
    product_order: int = 48


DEFAULT_CAPS = Caps()

ALLOWED_ORDERS = {1, 2, 3, 4, 6}


# ---------------------------------------------------------------------------
# Element-level rationality predicates
# ---------------------------------------------------------------------------


def is_rational(g: FiniteGroup, part: ConjugacyPartition) -> tuple[bool, int | None]:
    """Atom(g) inside the class of g, for every g; checked on class
    representatives (conjugation maps atoms onto atoms)."""
    for rep in part.reps():
        cls = set(part.classes[part.class_of[rep]])
        if any(x not in cls for x in atom(g, rep).members):
            return False, rep
    return True, None


def _lift_unit(k: int, order_g: int, exponent: int) -> int:
    """Some r = k mod ord(g) that is a unit mod the group exponent."""
    r = k % order_g or order_g
    while gcd(r, exponent) != 1:
        r += order_g
    return r


def is_semi_rational(
    g: FiniteGroup, part: ConjugacyPartition
) -> tuple[bool, dict[int, int] | None, int | None]:
    """Atom(g) inside class(g) union class(g^r) for some unit r; returns the
    per-representative r map, or a witness element on failure."""
    e = g.exponent()
    r_map: dict[int, int] = {}
    for rep in part.reps():
        own = part.class_of[rep]
        extra = {part.class_of[x] for x in atom(g, rep).members} - {own}
        if not extra:
            r_map[rep] = 1
            continue
        if len(extra) > 1:
            return False, None, rep
        target = extra.pop()
        o = g.ord[rep]
        k = next(
            k for k in range(1, o + 1)
            if gcd(k, o) == 1 and part.class_of[g.power(rep, k)] == target
        )
        r_map[rep] = _lift_unit(k, o, e)
    return True, r_map, None


def is_inverse_semi_rational(
    g: FiniteGroup, part: ConjugacyPartition
) -> tuple[bool, Atom | None]:
    """Atom(g) inside class(g) union class(g^-1), for every g."""
    for rep in part.reps():
        allowed = part.class_of[rep], part.inverse_class[part.class_of[rep]]
        a = atom(g, rep)
        if any(part.class_of[x] not in allowed for x in a.members):
            return False, a
    return True, None


# ---------------------------------------------------------------------------
# Shared enumeration helpers
# ---------------------------------------------------------------------------


def _subsets(items: list) -> Iterator[list]:
    """Every sub-list of `items`, by ascending bitmask: bit i selects item i."""
    for take in range(1 << len(items)):
        yield [item for i, item in enumerate(items) if take >> i & 1]


def _inverse_pairs(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The non-identity elements as sorted inverse pairs, by least member."""
    return [tuple(sorted({x, g.inv[x]})) for x in range(1, g.n) if x <= g.inv[x]]


# ---------------------------------------------------------------------------
# Exhaustive normal connection sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalSetRow:
    class_indices: tuple[int, ...]  # non-identity real-class orbits used
    size: int
    eulerian: bool
    integral: bool

    @property
    def match(self) -> bool:
        return self.eulerian == self.integral


@dataclass(frozen=True)
class NormalSetSurvey:
    rows: tuple[NormalSetRow, ...]
    mismatches: tuple[NormalSetRow, ...]

    @property
    def all_integral(self) -> bool:
        return all(r.integral for r in self.rows)

    def first_non_integral(self) -> NormalSetRow | None:
        return next((r for r in self.rows if not r.integral), None)


def normal_set_survey(g: FiniteGroup, part: ConjugacyPartition) -> NormalSetSurvey:
    """Every normal inverse-closed subset of G minus the identity, enumerated
    as a union of real classes, with its Eulerian and integrality verdicts."""
    orbits = [rc for rc in part.real_classes if rc != (0,)]
    rows = []
    for chosen in _subsets(orbits):
        members = [x for orbit in chosen for j in orbit for x in part.classes[j]]
        f = ConnectionFunction.delta(g, members, part)
        rows.append(
            NormalSetRow(
                class_indices=tuple(j for orbit in chosen for j in orbit),
                size=len(members),
                eulerian=eulerian_check(g, members)[0] if members else True,
                integral=spectrum_matrix(g, f).is_integral,
            )
        )
    rows_t = tuple(rows)
    return NormalSetSurvey(rows_t, tuple(r for r in rows_t if not r.match))


# ---------------------------------------------------------------------------
# The hierarchy predicates, each with all its routes
# ---------------------------------------------------------------------------


@dataclass
class NciReport:
    verdict: bool
    route_atoms: bool
    route_characters: bool | None
    route_exhaustive: bool | None
    failing_atom: Atom | None = None
    witness_set: tuple[int, ...] | None = None
    skipped: tuple[str, ...] = ()
    discrepancies: tuple[str, ...] = ()


def nci_report(
    g: FiniteGroup,
    part: ConjugacyPartition,
    table: CharacterTable | None = None,
    survey: NormalSetSurvey | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> NciReport:
    """Normal-Cayley integrality by three routes: the atom/class scan, the
    character-sum scan, and (small groups) exhaustive normal-set spectra."""
    route1, failing = is_inverse_semi_rational(g, part)
    skipped: list[str] = []

    route2: bool | None = None
    if table is None and g.n <= caps.chartable:
        table = character_table(g, part, order_cap=caps.chartable)
    if table is not None:
        route2 = all(all(row) for row in chi_plus_conj_integral(table))
    else:
        skipped.append(f"character route skipped: |G|={g.n} exceeds cap {caps.chartable}")

    route3: bool | None = None
    witness_set = None
    if g.n <= caps.normal_exhaustive:
        if survey is None:
            survey = normal_set_survey(g, part)
        route3 = survey.all_integral
        bad = survey.first_non_integral()
        if bad is not None:
            witness_set = tuple(
                x for j in bad.class_indices for x in part.classes[j]
            )
    else:
        skipped.append(f"exhaustive route skipped: |G|={g.n} exceeds cap {caps.normal_exhaustive}")

    disagreements = []
    for name, other in (("characters", route2), ("exhaustive", route3)):
        if other is not None and other != route1:
            disagreements.append(
                f"NCI route disagreement on {g.name}: atoms={route1}, {name}={other}"
            )
    return NciReport(
        verdict=route1,
        route_atoms=route1,
        route_characters=route2,
        route_exhaustive=route3,
        failing_atom=failing,
        witness_set=witness_set,
        skipped=tuple(skipped),
        discrepancies=tuple(disagreements),
    )


@dataclass
class FcciReport:
    verdict: bool                      # the power-map criterion route
    route_orders: bool
    route_criterion: bool
    route_spectra: bool | None
    criterion_witness: tuple[int, int] | None = None
    spectra_mode: str = "skipped"
    spectra_count: int = 0
    spectral_witness: tuple[int, ...] | None = None
    order_witness: int | None = None
    seed: str | None = None
    skipped: tuple[str, ...] = ()
    discrepancies: tuple[str, ...] = ()


def fcci_report(
    g: FiniteGroup,
    part: ConjugacyPartition,
    caps: Caps = DEFAULT_CAPS,
    seed: int = 0,
) -> FcciReport:
    """Integrality of every integer symmetric class function, three ways.

    Route "orders": every element order lies in {1, 2, 3, 4, 6}. Route
    "criterion": every unit power map fixes each real class setwise, which
    is equivalent to f^h = f for every integer symmetric class function f.
    Route "spectra": matrix-route spectra of 0/1 class functions on real
    classes, exhaustive when few enough, else random samples. The criterion
    route is the primary verdict; disagreements are recorded, not resolved.
    """
    route_a = all(o in ALLOWED_ORDERS for o in g.ord)
    order_witness = None if route_a else next(x for x in g.elements() if g.ord[x] not in ALLOWED_ORDERS)

    route_b = True
    crit_witness = None
    n = g.n
    for h in range(2, n):
        if gcd(h, n) != 1:
            continue
        for rep in part.reps():
            allowed = part.class_of[rep], part.inverse_class[part.class_of[rep]]
            if part.class_of[g.power(rep, h)] not in allowed:
                route_b = False
                crit_witness = (rep, h)
                break
        if not route_b:
            break

    route_c: bool | None = None
    mode, count, witness, seed_used = "skipped", 0, None, None
    skipped: list[str] = []
    if g.n <= caps.fcci_spectral:
        orbits = list(part.real_classes)
        if len(orbits) <= caps.fcci_exhaustive_classes:
            mode = "exhaustive"
            route_c = True
            for chosen in _subsets(orbits):
                class_values = [0] * part.k
                for orbit in chosen:
                    for j in orbit:
                        class_values[j] = 1
                f = ConnectionFunction.from_class_values(g, part, class_values)
                count += 1
                if not spectrum_matrix(g, f).is_integral:
                    route_c = False
                    witness = f.values
                    break
        else:
            mode = "sampled"
            seed_used = f"{seed}:{g.name}:fcci"
            rng = random.Random(seed_used)
            route_c = True
            for _ in range(caps.fcci_samples):
                class_values = [0] * part.k
                for orbit in orbits:
                    v = rng.randint(-9, 9)
                    for j in orbit:
                        class_values[j] = v
                f = ConnectionFunction.from_class_values(g, part, class_values)
                count += 1
                if not spectrum_matrix(g, f).is_integral:
                    route_c = False
                    witness = f.values
                    break
    else:
        skipped.append(f"spectral route skipped: |G|={g.n} exceeds cap {caps.fcci_spectral}")

    disagreements = []
    if route_a != route_b:
        disagreements.append(
            f"F-route disagreement on {g.name}: orders={route_a}, criterion={route_b}"
        )
    if route_c is not None and route_c != route_b:
        disagreements.append(
            f"F-route disagreement on {g.name}: criterion={route_b}, spectra({mode})={route_c}"
        )
    return FcciReport(
        verdict=route_b,
        route_orders=route_a,
        route_criterion=route_b,
        route_spectra=route_c,
        criterion_witness=crit_witness,
        spectra_mode=mode,
        spectra_count=count,
        spectral_witness=witness,
        order_witness=order_witness,
        seed=seed_used,
        skipped=tuple(skipped),
        discrepancies=tuple(disagreements),
    )


def _cyclic_subgroups_all_normal(g: FiniteGroup) -> bool:
    t, inv = g.table, g.inv
    for x in range(1, g.n):
        powers = set()
        y = x
        while y != 0:
            powers.add(y)
            y = t[y][x]
        if any(t[t[a][x]][inv[a]] not in powers for a in g.elements()):
            return False
    return True


def is_hamiltonian_2_group(g: FiniteGroup) -> bool:
    """Nonabelian 2-group in which every cyclic subgroup is normal."""
    n = g.n
    if n < 8 or n & (n - 1):
        return False
    return not g.is_abelian() and _cyclic_subgroups_all_normal(g)


def _cci_structural(g: FiniteGroup) -> bool:
    """Abelian of exponent dividing 6 or 4, or a Hamiltonian 2-group."""
    exp = g.exponent()
    return (g.is_abelian() and (6 % exp == 0 or 4 % exp == 0)) or is_hamiltonian_2_group(g)


_SCHEDULE_HEAD = (1, 3, 7, 4, 5, 8, 2, 6, 9)

# Largest order whose CCI witness search runs: each candidate is an |G| x |G|
# characteristic polynomial, and S5 (order 120) is the largest the audit needs.
CCI_WITNESS_MAX_ORDER = 120


def _deterministic_values() -> itertools.chain:
    return itertools.chain(_SCHEDULE_HEAD, itertools.count(10))


@dataclass
class CciReport:
    verdict: bool                    # structural recognizer
    structural: bool
    witness_values: tuple[int, ...] | None = None
    witness_residual: str | None = None
    candidates_tried: int = 0
    seed: str | None = None
    skipped: tuple[str, ...] = ()
    discrepancies: tuple[str, ...] = ()


def cci_report(
    g: FiniteGroup,
    part: ConjugacyPartition,
    caps: Caps = DEFAULT_CAPS,
    seed: int = 0,
) -> CciReport:
    """Integrality of every integer symmetric colour function.

    Structural route: abelian of exponent dividing 6 or 4, or a Hamiltonian
    2-group. Witness route (only when some conjugacy class exceeds an
    inverse pair, so symmetric non-class functions exist): a deterministic
    colour schedule over inverse pairs first, then seeded random colours.
    The witness route is skipped, and says so, above CCI_WITNESS_MAX_ORDER.
    """
    structural = _cci_structural(g)

    trigger = any(
        set(cls) - {rep, g.inv[rep]}
        for cls, rep in zip(part.classes, part.reps())
    )
    witness_vals = witness_res = None
    tried = 0
    seed_used = None
    skipped: list[str] = []
    if trigger and g.n > CCI_WITNESS_MAX_ORDER:
        skipped.append(
            f"CCI witness search skipped: |G|={g.n} exceeds cap {CCI_WITNESS_MAX_ORDER}"
        )
    elif trigger:
        pairs = _inverse_pairs(g)

        def try_candidate(values_per_pair: list[int]) -> bool:
            nonlocal witness_vals, witness_res, tried
            vals = [0] * g.n
            for pair, v in zip(pairs, values_per_pair):
                for x in pair:
                    vals[x] = v
            f = ConnectionFunction(g, vals, part)
            tried += 1
            rep = spectrum_matrix(g, f)
            if not rep.is_integral:
                witness_vals = f.values
                witness_res = " ".join(
                    f"({p})" if m == 1 else f"({p})^{m}" for p, m in rep.residual_factors()
                )
                return True
            return False

        sched = _deterministic_values()
        found = try_candidate([next(sched) for _ in pairs])
        if not found:
            seed_used = f"{seed}:{g.name}:cci"
            rng = random.Random(seed_used)
            while tried < caps.witness_budget:
                if try_candidate([rng.randint(0, 9) for _ in pairs]):
                    break

    disagreements = []
    if structural and witness_vals is not None:
        disagreements.append(
            f"CCI disagreement on {g.name}: structural=True but a non-integral colour function exists"
        )
    return CciReport(
        verdict=structural,
        structural=structural,
        witness_values=witness_vals,
        witness_residual=witness_res,
        candidates_tried=tried,
        seed=seed_used,
        skipped=tuple(skipped),
        discrepancies=tuple(disagreements),
    )


@dataclass
class CiReport:
    verdict: bool                    # structural recognizer
    structural: bool
    brute: bool | None
    mode: str
    subsets_tried: int = 0
    witness_set: tuple[int, ...] | None = None
    seed: str | None = None
    skipped: tuple[str, ...] = ()
    discrepancies: tuple[str, ...] = ()


def _is_s3_shape(g: FiniteGroup) -> bool:
    return g.n == 6 and not g.is_abelian()


def _is_dic12_shape(g: FiniteGroup) -> bool:
    return g.n == 12 and not g.is_abelian() and sum(1 for o in g.ord if o == 2) == 1


def ci_report(
    g: FiniteGroup,
    part: ConjugacyPartition,
    caps: Caps = DEFAULT_CAPS,
    seed: int = 0,
) -> CiReport:
    """Integrality of every Cayley graph: structural recognizers plus a
    brute-force sweep over inverse-closed connection sets (exhaustive for
    small groups, sampled up to the sampling cap)."""
    structural = _cci_structural(g) or _is_s3_shape(g) or _is_dic12_shape(g)
    pairs = _inverse_pairs(g)

    brute: bool | None = None
    mode = "skipped"
    tried = 0
    witness = None
    seed_used = None
    skipped: list[str] = []

    def check_subsets(subsets) -> bool:
        nonlocal tried, witness
        for chosen in subsets:
            members = [x for pair in chosen for x in pair]
            tried += 1
            if not spectrum_matrix(g, ConnectionFunction.delta(g, members, part)).is_integral:
                witness = tuple(sorted(members))
                return False
        return True

    if g.n <= caps.ci_exhaustive and (1 << len(pairs)) <= caps.subset_budget:
        mode = "exhaustive"
        brute = check_subsets(_subsets(pairs))
    elif g.n <= caps.ci_sampled:
        mode = "sampled"
        seed_used = f"{seed}:{g.name}:ci"
        rng = random.Random(seed_used)
        brute = check_subsets(
            [p for p in pairs if rng.random() < 0.5] for _ in range(caps.ci_samples)
        )
    else:
        skipped.append(f"brute force skipped: |G|={g.n} exceeds cap {caps.ci_sampled}")

    disagreements = []
    if brute is not None and brute != structural:
        disagreements.append(
            f"CI route disagreement on {g.name}: structural={structural}, brute({mode})={brute}"
        )
    return CiReport(
        verdict=structural,
        structural=structural,
        brute=brute,
        mode=mode,
        subsets_tried=tried,
        witness_set=witness,
        seed=seed_used,
        skipped=tuple(skipped),
        discrepancies=tuple(disagreements),
    )


# ---------------------------------------------------------------------------
# Colour functions chi + conj(chi)
# ---------------------------------------------------------------------------


@dataclass
class CharColourRow:
    character: int
    degree: int
    formable: bool            # all values of chi + conj(chi) are rational
    integral: bool


def gamma_chi_conj_check(
    g: FiniteGroup, table: CharacterTable
) -> tuple[tuple[CharColourRow, ...], bool]:
    """Integrality of the colour graph of chi + conj(chi) per character.

    Rational values of chi + conj(chi) are algebraic integers, hence
    integers, and give a genuine integer class function; any irrational
    value makes the colour function leave the integer setting and the
    character is reported as not formable (and not integral).
    """
    part = table.partition
    rows = []
    for r, row in enumerate(table.values):
        sums = [v + v.conj() for v in row]
        if all(s.is_rational() for s in sums):
            rationals = [s.to_rational() for s in sums]
            scale = 1
            for q in rationals:
                scale = scale * q.denominator // gcd(scale, q.denominator)
            class_values = [int(q * scale) for q in rationals]
            f = ConnectionFunction.from_class_values(g, part, class_values)
            ok, _ = integrality_by_criterion(g, f)
            rows.append(CharColourRow(r, table.degrees[r], True, ok))
        else:
            rows.append(CharColourRow(r, table.degrees[r], False, False))
    return tuple(rows), all(r.integral for r in rows)


# ---------------------------------------------------------------------------
# Per-group classification
# ---------------------------------------------------------------------------


@dataclass
class ClassificationReport:
    name: str
    order: int
    rational: bool
    semi_rational: bool
    inverse_semi_rational: bool
    nci: NciReport
    fcci: FcciReport
    cci: CciReport
    ci: CiReport
    nilpotent: bool
    seed: int
    semi_rational_r_map: dict[int, int] | None = None
    rational_witness: int | None = None
    semi_rational_witness: int | None = None
    isr_failing_atom: Atom | None = None
    gamma_chi_all: bool | None = None
    discrepancies: tuple[str, ...] = ()
    caps_notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "seed": self.seed,
            "verdicts": {
                "rational": self.rational,
                "semi_rational": self.semi_rational,
                "inverse_semi_rational": self.inverse_semi_rational,
                "nci": self.nci.verdict,
                "fcci": self.fcci.verdict,
                "cci": self.cci.verdict,
                "ci": self.ci.verdict,
                "nilpotent": self.nilpotent,
            },
            "routes": {
                "nci": {
                    "atoms": self.nci.route_atoms,
                    "characters": self.nci.route_characters,
                    "exhaustive": self.nci.route_exhaustive,
                },
                "fcci": {
                    "orders": self.fcci.route_orders,
                    "criterion": self.fcci.route_criterion,
                    "spectra": self.fcci.route_spectra,
                    "spectra_mode": self.fcci.spectra_mode,
                    "spectra_count": self.fcci.spectra_count,
                },
                "cci": {
                    "structural": self.cci.structural,
                    "witness_found": self.cci.witness_values is not None,
                    "candidates_tried": self.cci.candidates_tried,
                },
                "ci": {
                    "structural": self.ci.structural,
                    "brute": self.ci.brute,
                    "mode": self.ci.mode,
                    "subsets_tried": self.ci.subsets_tried,
                },
            },
            "evidence": {
                "rational_witness": self.rational_witness,
                "semi_rational_witness": self.semi_rational_witness,
                "semi_rational_r_map": self.semi_rational_r_map,
                "isr_failing_atom": (
                    None
                    if self.isr_failing_atom is None
                    else {
                        "generator": self.isr_failing_atom.generator,
                        "members": list(self.isr_failing_atom.members),
                    }
                ),
                "nci_witness_set": list(self.nci.witness_set) if self.nci.witness_set else None,
                "fcci_criterion_witness": self.fcci.criterion_witness,
                "fcci_spectral_witness": (
                    list(self.fcci.spectral_witness) if self.fcci.spectral_witness else None
                ),
                "cci_witness_values": (
                    list(self.cci.witness_values) if self.cci.witness_values else None
                ),
                "cci_witness_residual": self.cci.witness_residual,
                "ci_witness_set": list(self.ci.witness_set) if self.ci.witness_set else None,
                "gamma_chi_conj_all_integral": self.gamma_chi_all,
                "seeds": {
                    "fcci": self.fcci.seed,
                    "cci": self.cci.seed,
                    "ci": self.ci.seed,
                },
            },
            "discrepancies": list(self.discrepancies),
            "caps_notes": list(self.caps_notes),
        }


def classify_group(
    g: FiniteGroup, caps: Caps = DEFAULT_CAPS, seed: int = 0
) -> ClassificationReport:
    part = conjugacy_classes(g)
    table: CharacterTable | None = None
    caps_notes: list[str] = []
    if g.n <= caps.chartable:
        table = character_table(g, part, order_cap=caps.chartable)
    else:
        caps_notes.append(f"character table skipped: |G|={g.n} exceeds cap {caps.chartable}")

    survey = normal_set_survey(g, part) if g.n <= caps.normal_exhaustive else None

    rat, rat_wit = is_rational(g, part)
    semi, r_map, semi_wit = is_semi_rational(g, part)
    nci = nci_report(g, part, table=table, survey=survey, caps=caps)
    fcci = fcci_report(g, part, caps=caps, seed=seed)
    cci = cci_report(g, part, caps=caps, seed=seed)
    caps_notes.extend(cci.skipped)
    ci = ci_report(g, part, caps=caps, seed=seed)

    gamma_all: bool | None = None
    if table is not None:
        _, gamma_all = gamma_chi_conj_check(g, table)

    discrepancies = list(nci.discrepancies) + list(fcci.discrepancies)
    discrepancies += list(cci.discrepancies) + list(ci.discrepancies)
    if table is not None:
        table_rational = all(v.is_rational() for row in table.values for v in row)
        if table_rational != rat:
            discrepancies.append(
                f"rationality disagreement on {g.name}: atom route {rat}, table scan {table_rational}"
            )
    if gamma_all is not None and gamma_all != nci.verdict:
        discrepancies.append(
            f"chi+conj colour check on {g.name} gives {gamma_all}, NCI verdict is {nci.verdict}"
        )
    if survey is not None and survey.mismatches:
        discrepancies.append(
            f"Eulerian/integrality mismatch on {g.name}: {len(survey.mismatches)} sets"
        )

    return ClassificationReport(
        name=g.name,
        order=g.n,
        rational=rat,
        semi_rational=semi,
        inverse_semi_rational=nci.route_atoms,
        nci=nci,
        fcci=fcci,
        cci=cci,
        ci=ci,
        nilpotent=is_nilpotent(g),
        seed=seed,
        semi_rational_r_map=r_map,
        rational_witness=rat_wit,
        semi_rational_witness=semi_wit,
        isr_failing_atom=nci.failing_atom,
        gamma_chi_all=gamma_all,
        discrepancies=tuple(discrepancies),
        caps_notes=tuple(caps_notes),
    )


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

DEFAULT_SUITE: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("cyclic", (5,)),
    ("cyclic", (6,)),
    ("cyclic", (12,)),
    ("s3", ()),
    ("d4", ()),
    ("q8", ()),
    ("z2z4", (1, 1)),
    ("dicyclic12", ()),
    ("a4", ()),
    ("s4", ()),
    ("q8z3", ()),
    ("d8", ()),
    ("s5", ()),
)


def default_suite_groups() -> list[FiniteGroup]:
    return [catalog(name, *params) for name, params in DEFAULT_SUITE]


_CHAIN = (
    ("cci", "ci"),
    ("ci", "fcci"),
    ("fcci", "nci"),
    ("nci", "semi_rational"),
)


@dataclass
class AuditReport:
    reports: list[ClassificationReport]
    chain_violations: tuple[str, ...]
    closure_violations: tuple[str, ...]
    closure_checks: tuple[str, ...]
    findings: tuple[str, ...]
    notes: tuple[str, ...]
    seed: int

    @property
    def exit_code(self) -> int:
        return 3 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "groups": [r.to_dict() for r in self.reports],
            "chain_violations": list(self.chain_violations),
            "closure_checks": list(self.closure_checks),
            "closure_violations": list(self.closure_violations),
            "findings": list(self.findings),
            "notes": list(self.notes),
            "exit_code": self.exit_code,
        }


def _verdict(report: ClassificationReport, key: str) -> bool:
    return getattr(report, key).verdict if key in ("nci", "fcci", "cci", "ci") else getattr(report, key)


def _predicates_on_subgroup(g: FiniteGroup) -> tuple[bool, bool, bool]:
    part = conjugacy_classes(g)
    return (
        is_rational(g, part)[0],
        is_semi_rational(g, part)[0],
        is_inverse_semi_rational(g, part)[0],
    )


def _fixture_notes() -> tuple[list[str], list[str]]:
    """Recompute the two shipped witness colour functions and annotate how the
    exact results compare with their published reference spectra."""
    notes: list[str] = []
    findings: list[str] = []
    s3 = catalog("s3")
    alpha = ConnectionFunction(s3, (0, 3, 7, 1, 1, 4))
    rep = spectrum_matrix(s3, alpha)
    expected = ((16, 1), (-12, 1))
    if rep.integer_eigenvalues == expected and not rep.is_integral:
        notes.append(
            "fixture alpha on S3: integer eigenvalues 16 and -12 with residual "
            f"{rep.describe().split('residual ')[-1]}; the reference table prints +12, "
            "but the adjacency trace is 0, which forces -12 (eigenvalue sum must vanish)"
        )
    else:
        findings.append(f"fixture alpha unexpected spectrum: {rep.describe()}")
    dic = catalog("dicyclic12")
    beta = ConnectionFunction(dic, (0, 1, 7, 8, 7, 1, 3, 4, 5, 3, 4, 5))
    rep_b = spectrum_matrix(dic, beta)
    if rep_b.integer_eigenvalues == ((48, 1), (4, 2), (0, 1), (-14, 4)) and not rep_b.is_integral:
        notes.append("fixture beta on Dic12: spectrum matches the reference table exactly")
    else:
        findings.append(f"fixture beta unexpected spectrum: {rep_b.describe()}")
    return notes, findings


def hierarchy_audit(
    groups: list[FiniteGroup] | None = None,
    caps: Caps = DEFAULT_CAPS,
    seed: int = 0,
) -> AuditReport:
    """Classify a catalog and check the structural implications over it.

    Checks, per group, the implication chain CCI -> CI -> F-criterion -> NCI
    -> semi-rational on the computed verdicts, then the closure statements:
    centers inherit (semi/inverse-semi/)rationality, quotients and suitable
    direct products preserve NCI, and nilpotent NCI groups have order
    2^a 3^b. All route disagreements and violations become findings.
    """
    if groups is None:
        groups = default_suite_groups()
    reports = [classify_group(g, caps=caps, seed=seed) for g in groups]

    chain_violations = []
    for rep in reports:
        for a, b in _CHAIN:
            if _verdict(rep, a) and not _verdict(rep, b):
                chain_violations.append(f"{rep.name}: {a} holds but {b} fails")

    closure_checks: list[str] = []
    closure_violations: list[str] = []
    by_name = dict(zip((g.name for g in groups), groups))
    for rep in reports:
        g = by_name[rep.name]
        if rep.rational or rep.semi_rational or rep.inverse_semi_rational:
            z = center(g)
            if 1 < len(z):
                zg, _ = generated_subgroup(g, set(z))
                z_rat, z_semi, z_isr = _predicates_on_subgroup(zg)
                closure_checks.append(f"center of {rep.name} (order {zg.n})")
                if rep.rational and not z_rat:
                    closure_violations.append(f"center of rational {rep.name} is not rational")
                if rep.semi_rational and not z_semi:
                    closure_violations.append(f"center of semi-rational {rep.name} is not semi-rational")
                if rep.inverse_semi_rational and not z_isr:
                    closure_violations.append(
                        f"center of inverse semi-rational {rep.name} is not inverse semi-rational"
                    )
        if rep.nci.verdict:
            t, inv = g.table, g.inv
            comm = {
                t[t[a][b]][t[inv[a]][inv[b]]] for a in g.elements() for b in g.elements()
            }
            subgroups = {"center": set(center(g))}
            if comm != {0}:
                subgroups["derived"] = set(generated_subgroup(g, comm)[1])
            for label, sub in subgroups.items():
                if 1 < len(sub) < g.n:
                    q = quotient(g, sub, name=f"{rep.name}/{label}")
                    ok = is_inverse_semi_rational(q, conjugacy_classes(q))[0]
                    closure_checks.append(f"quotient {q.name} (order {q.n})")
                    if not ok:
                        closure_violations.append(f"quotient {q.name} of NCI {rep.name} is not NCI")
            if rep.nilpotent:
                m = g.n
                for prime in (2, 3):
                    while m % prime == 0:
                        m //= prime
                closure_checks.append(f"nilpotent NCI {rep.name} order check")
                if m != 1:
                    closure_violations.append(
                        f"nilpotent NCI {rep.name} has order {g.n}, not of the form 2^a 3^b"
                    )
    rational_reports = [r for r in reports if r.rational]
    nci_reports = [r for r in reports if r.nci.verdict]
    for ra in rational_reports:
        for rb in nci_reports:
            ga, gb = by_name[ra.name], by_name[rb.name]
            if ga.n * gb.n <= caps.product_order:
                prod = direct_product(ga, gb)
                ok = is_inverse_semi_rational(prod, conjugacy_classes(prod))[0]
                closure_checks.append(f"product {prod.name} (order {prod.n})")
                if not ok:
                    closure_violations.append(
                        f"product of rational {ra.name} with NCI {rb.name} is not NCI"
                    )

    notes, fixture_findings = _fixture_notes()
    findings = list(fixture_findings)
    for rep in reports:
        findings.extend(rep.discrepancies)
    findings.extend(chain_violations)
    findings.extend(closure_violations)

    return AuditReport(
        reports=reports,
        chain_violations=tuple(chain_violations),
        closure_violations=tuple(closure_violations),
        closure_checks=tuple(closure_checks),
        findings=tuple(findings),
        notes=tuple(notes),
        seed=seed,
    )
