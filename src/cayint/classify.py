"""Group-level integrality predicates and the catalog auditor.

Every predicate that admits several independent computations runs them all
and records each one; a disagreement between routes is never resolved
silently but surfaces as a report entry. Negative verdicts always carry a
concrete re-checkable witness (an element, a colour function, or a set).

`classify_group` builds the conjugacy partition, with its unit power maps,
the character table and the normal-set survey once and hands them to the
routes. The survey, run wherever the table is, decides the 2^r unions of
the r non-identity real-class orbits from r commuting k x k class-algebra
matrices, each by its candidate integer eigenvalues mod one prime and one
exact product, and certifies on the table that the integral unions are the
unions of atoms (see `normal_set_survey`). NCI reads its orbit verdicts,
and FCCI reads them again with 1 added at the identity, which turns the
adjacency matrix A into A + I and so keeps integrality (see `fcci_report`).
CI's brute force decides its sets the same way, `linalg.integral_spectra`
on adjacency matrices mod one prime, in batches (see `ci_report`).

Work limits are module constants; a route above its limit is skipped and
says so in its report's `skipped` and in `caps_notes`.

Each predicate report names its JSON keys once. Its route and witness
attributes carry the names they have in the JSON, and the report declares
which of them form its `routes` block and which reach `evidence` (see
`RouteReport`). `ClassificationReport.to_dict` builds the predicates'
verdicts, routes and witnesses from those declarations and names none of
them by hand. Rationality, semi-rationality and inverse semi-rationality
say where the atoms lie; each reads the columns of the partition's power
maps (`ConjugacyPartition.powers`), column j holding the classes of
Atom(rep_j), and none walks an atom. Inverse semi-rationality is NCI's
verdict, its atom route, with NCI's failing atom, the one atom built, as
witness. NCI's character route asks that every chi + conj(chi) be rational
(one `chi_plus_conj` of the table), which makes each an integral colour
function; the evidence key `gamma_chi_conj_all_integral` reads it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd
from typing import ClassVar, Iterator

import numpy as np

from .catalog import catalog
from .chartable import (
    CELL_CAP,
    DEFAULT_ORDER_CAP,
    CharacterTable,
    character_table,
    chi_plus_conj,
    class_matrices,
    table_cells,
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
from .linalg import _STACK_CELLS, _primes_for, cayley_charpoly_mod, charpoly_mod, eliminate_mod, integral_spectra
from .spectra import FIXTURE_GROUPS, ConnectionFunction, adjacency_stack, load_fixture, spectrum_matrix


# Work limits, each on |G| x |G| spectra; the normal-set survey has none.
CI_EXHAUSTIVE_MAX_ORDER = 12     # every inverse-closed set (at most 2^11)
CI_SAMPLED_MAX_ORDER = 24
CI_SAMPLES = 1000
CCI_WITNESS_BUDGET = 500         # candidates in the CCI witness search
# Largest order whose CCI witness search runs: S5 (order 120) is the largest
# the audit needs.
CCI_WITNESS_MAX_ORDER = 120
PRODUCT_MAX_ORDER = 48           # direct products in the audit's closure checks

ALLOWED_ORDERS = {1, 2, 3, 4, 6}


# ---------------------------------------------------------------------------
# Element-level rationality predicates
# ---------------------------------------------------------------------------


def is_rational(part: ConjugacyPartition) -> tuple[bool, int | None]:
    """Atom(g) inside the class of g, for every g: every unit power of each
    representative stays in its class (conjugation maps atoms onto atoms).
    The witness is the representative of the first class that fails."""
    moved = (part.powers != np.arange(part.k)).any(axis=0)
    return (True, None) if not moved.any() else (False, part.reps()[int(moved.argmax())])


def _lift_unit(k: int, order_g: int, exponent: int) -> int:
    """Some r = k mod ord(g) that is a unit mod the group exponent."""
    r = k % order_g or order_g
    while gcd(r, exponent) != 1:
        r += order_g
    return r


def is_semi_rational(g: FiniteGroup, part: ConjugacyPartition) -> tuple[bool, dict[int, int] | None, int | None]:
    """Atom(g) inside class(g) union class(g^r) for some unit r; returns the
    per-representative r map, or a witness element on failure."""
    e = g.exponent()
    r_map: dict[int, int] = {}
    for j, rep in enumerate(part.reps()):
        # the classes of the generators of <rep>, that is of Atom(rep)
        extra = set(part.powers[:, j].tolist()) - {j}
        if not extra:
            r_map[rep] = 1
            continue
        if len(extra) > 1:
            return False, None, rep
        target = extra.pop()
        o = g.ord[rep]
        k = min(h % o for h, c in zip(part.units, part.powers[:, j].tolist()) if c == target)
        r_map[rep] = _lift_unit(k, o, e)
    return True, r_map, None


def _leaves_real_class(part: ConjugacyPartition) -> np.ndarray:
    """The (units, k) mask of the unit powers rep_j^h outside the real class
    of rep_j. Its columns are NCI's atom route, its rows FCCI's criterion."""
    return (part.powers != np.arange(part.k)) & (part.powers != np.array(part.inverse_class))


def is_inverse_semi_rational(g: FiniteGroup, part: ConjugacyPartition) -> tuple[bool, Atom | None]:
    """Atom(g) inside class(g) union class(g^-1), for every g: no column of
    `_leaves_real_class` holds a True. The witness is the atom of the first
    class that fails."""
    failing = _leaves_real_class(part).any(axis=0)
    return (True, None) if not failing.any() else (False, atom(g, part.reps()[int(failing.argmax())]))


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
# Normal connection sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalSetSurvey:
    """The r non-identity real-class orbits' verdicts; `components` and
    `mismatches` are atom components as classes (see `normal_set_survey`)."""

    orbits: tuple[tuple[int, ...], ...]
    integral: tuple[bool, ...]
    components: tuple[tuple[int, ...], ...]
    mismatches: tuple[tuple[int, ...], ...]
    kernel: int

    @property
    def undecided(self) -> bool:
        return not self.mismatches and self.kernel > len(self.components)

    def first_non_integral(self) -> int | None:
        return next((i for i, ok in enumerate(self.integral) if not ok), None)


def _orbit_coordinates(table: CharacterTable, orbits: list[tuple[int, ...]]) -> np.ndarray:
    """Row i is v_i: the non-constant power-basis coordinates of
    sum_(j in O_i) |C_j| chi(g_j), over every character chi."""
    x = table.coeffs[:, :, 1:] * np.array(table.class_sizes())[:, None]
    return np.array([x[:, list(o)].sum(axis=1).ravel() for o in orbits]).reshape(len(orbits), x[:, 0].size)


def _integral_orbits(blocks: np.ndarray, p: int) -> tuple[bool, ...]:
    """Whether each class-algebra matrix B_O of the (r, k, k) stack `blocks`
    has an integral spectrum, by `integral_spectra` modulo the prime p with
    b its largest column sum (see `normal_set_survey`)."""
    bounds = blocks.sum(axis=1).max(axis=1).tolist()  # the entries are counts, at least 0
    return integral_spectra(blocks, charpoly_mod(blocks, p), bounds, p)


def connected_components(graph: tuple[list[int], list[tuple[int, int]]]) -> list[list[int]]:
    """The components of the undirected graph (vertices, edges), each ascending, in
    the order of their least vertex: a quick-find union-find, which merges two lists."""
    vertices, edges = graph
    component = {v: [v] for v in vertices}
    for a, b in edges:
        if component[a] is not component[b]:
            merged = sorted(component[a] + component[b])
            for v in merged:
                component[v] = merged
    return sorted({c[0]: c for c in component.values()}.values())


def normal_set_survey(part: ConjugacyPartition, table: CharacterTable) -> NormalSetSurvey:
    """Each non-identity real-class orbit's integrality, and a certificate
    that the integral unions of orbits (the normal sets) are the Eulerian ones.

    Orbit O is decided on B_O, the matrix of multiplication by the class
    sum K_O in Z(CG), which the survey builds itself on `table.group`, as
    the `class_matrices` of the union O. Its eigenvalues, the central
    characters, are the distinct eigenvalues of the adjacency matrix (Babai), at most
    b = sum_(j in O) |C_j| in magnitude. The B_O commute and add, so the
    first non-integral union in mask order is the first such orbit alone.

    Decision (`_integral_orbits`): `integral_spectra` on one `charpoly_mod`
    stack modulo one prime p > 2 |G| >= 2 b, so at most k candidates, the
    roots in [-b, b] being distinct mod p. B_O is diagonalizable (Z(CG) is
    semisimple), its columns sum to b, and e_0 q(B_O) holds the
    coordinates of q(K_O), e_0 being the unit K_0: e_0 q(B_O) = 0 gives
    q(K_O) = 0, so q(B_O) = 0.

    Certificate: the power basis is a Q-basis, so a union S is integral
    exactly when the v_i of `_orbit_coordinates` sum to 0 over S, and it is
    Eulerian, a union of atoms, exactly when it is a union of components:
    orbits joined when they meet a common atom, whose classes are the
    columns of `part.powers`. When each component sums to 0 and r - rank V
    mod `table.prime` (at most the rank over Q) equals their number, the
    component indicators span the kernel and the two kinds of union
    coincide. A component with a non-zero sum is a mismatch; a larger
    kernel mod p leaves the check undecided. The rank is one
    `eliminate_mod`.
    """
    orbits = [rc for rc in part.real_classes if rc != (0,)]
    integral: tuple[bool, ...] = ()
    if orbits:
        (p,), _ = _primes_for(part.k, len(part.class_of))  # one prime above 2 |G|
        integral = _integral_orbits(np.stack(class_matrices(table.group, part, orbits)), p)
    v = _orbit_coordinates(table, orbits)
    orbit_of = {j: i for i, orbit in enumerate(orbits) for j in orbit}
    edges = {(orbit_of[j], orbit_of[c]) for j in orbit_of for c in part.powers[:, j].tolist()}
    components = connected_components((list(range(len(orbits))), sorted(edges)))
    classes = [tuple(sorted(j for i in c for j in orbits[i])) for c in components]
    mismatches = tuple(cls for c, cls in zip(components, classes) if v[c].sum(axis=0).any())
    # rank V = rank V^T, whose r columns take r elimination steps
    kernel = len(orbits) - int(eliminate_mod(v.T[None] % table.prime, table.prime)[1].sum())
    return NormalSetSurvey(tuple(orbits), integral, tuple(classes), mismatches, kernel)


# ---------------------------------------------------------------------------
# The hierarchy predicates, each with all its routes
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class RouteReport:
    """One predicate's verdict, with the routes that decided it.

    KEY is the predicate's key under `verdicts` and `routes`; ROUTES are
    the attributes (fields or properties) that form its `routes` block,
    and WITNESSES the attributes written to `evidence` as
    `<KEY>_<attribute>`. The text report prints the verdict after LABEL
    and then TEXT, a format over the ROUTES. `skipped` holds the routes
    skipped above their caps, `discrepancies` the disagreements between
    routes.
    """

    KEY: ClassVar[str]
    ROUTES: ClassVar[tuple[str, ...]]
    WITNESSES: ClassVar[tuple[str, ...]]
    LABEL: ClassVar[str]
    TEXT: ClassVar[str]

    verdict: bool
    skipped: tuple[str, ...] = ()
    discrepancies: tuple[str, ...] = ()

    def routes(self) -> dict:
        return {name: getattr(self, name) for name in self.ROUTES}

    def evidence(self) -> dict:
        return {f"{self.KEY}_{name}": getattr(self, name) for name in self.WITNESSES}


@dataclass(kw_only=True)
class NciReport(RouteReport):
    KEY = "nci"
    ROUTES = ("atoms", "characters", "exhaustive")
    WITNESSES = ("witness_set",)
    LABEL = "NCI"
    TEXT = "routes: atoms={atoms} characters={characters} exhaustive={exhaustive}"

    atoms: bool                      # the inverse semi-rationality scan, the verdict
    characters: bool | None = None
    exhaustive: bool | None = None
    failing_atom: Atom | None = None
    witness_set: list[int] | None = None


def nci_report(
    g: FiniteGroup,
    part: ConjugacyPartition,
    table: CharacterTable | None,
    survey: NormalSetSurvey | None,
) -> NciReport:
    """Normal-Cayley integrality by three routes: the atom/class scan, every
    chi + conj(chi) rational on `table`, and the normal-set spectra of `survey`.
    The atom route reads the columns of `_leaves_real_class` and FCCI's
    criterion its rows, so the two coincide.
    A `None` table was not built because the group is above its cap, and
    the survey, which needs it, is `None` too; both routes are skipped, and
    the caller notes the missing table, which it also uses elsewhere."""
    atoms, failing = is_inverse_semi_rational(g, part)
    report = NciReport(verdict=atoms, atoms=atoms, failing_atom=failing)
    if table is not None:
        report.characters = not chi_plus_conj(table)[:, :, 1:].any()
    if survey is None:
        report.skipped = ("exhaustive route skipped: no character table",)
    else:
        bad = survey.first_non_integral()
        report.exhaustive = bad is None
        if bad is not None:
            report.witness_set = [x for j in survey.orbits[bad] for x in part.classes[j]]
    report.discrepancies = tuple(
        f"NCI route disagreement on {g.name}: atoms={atoms}, {name}={other}"
        for name, other in (("characters", report.characters), ("exhaustive", report.exhaustive))
        if other is not None and other != atoms
    )
    return report


@dataclass(kw_only=True)
class FcciReport(RouteReport):
    KEY = "fcci"
    ROUTES = ("orders", "criterion", "spectra", "spectra_mode", "spectra_count")
    WITNESSES = ("criterion_witness", "spectral_witness")
    LABEL = "F-class integrality"
    TEXT = ("routes: orders={orders} criterion={criterion} spectra={spectra} "
            "({spectra_mode}, {spectra_count} functions)")

    orders: bool
    criterion: bool                  # the power-map criterion, the verdict
    spectra: bool | None = None
    spectra_mode: str = "skipped"
    spectra_count: int = 0
    criterion_witness: tuple[int, int] | None = None  # printed as a tuple
    spectral_witness: list[int] | None = None
    order_witness: int | None = None


def fcci_report(
    g: FiniteGroup,
    part: ConjugacyPartition,
    survey: NormalSetSurvey | None,
) -> FcciReport:
    """Integrality of every integer symmetric class function, three ways.

    Route "orders": every element order lies in {1, 2, 3, 4, 6}. Route
    "criterion": every unit power map fixes each real class setwise, which
    is equivalent to f^h = f for every integer symmetric class function f.
    It reads the mask of `_leaves_real_class` row by row, NCI's atom route
    the same mask column by column, so the two routes coincide; the witness
    is the first (unit, class) pair in row-major order. Route "spectra":
    every 0/1 function on real classes, read off `survey`; skipped when
    `survey` is `None` (the group has no character table). The criterion
    route is the primary verdict; disagreements are recorded, not resolved.

    Reading the survey is exact. Mask bit 0 is the identity's real class
    and bit i + 1 the survey's orbit i. Adding the identity turns A into
    A + I and keeps integrality, so all 2^(r+1) masks are integral when the
    r orbits are; otherwise, for i the first non-integral orbit, the first
    non-integral mask is 2^(i+1), orbit i alone, after 2^(i+1) + 1 spectra.

    Nothing is lost against all integer class functions: the adjacency
    matrices of class functions commute, so when every real-class indicator
    has an integral spectrum, so has every integer combination of them.
    """
    orders = all(o in ALLOWED_ORDERS for o in g.ord)
    order_witness = None if orders else next(x for x in g.elements() if g.ord[x] not in ALLOWED_ORDERS)

    moved = _leaves_real_class(part)
    first, j = divmod(int(moved.argmax()), part.k)  # row-major: the first unit, then the first class
    criterion = not moved.any()
    report = FcciReport(
        verdict=criterion,
        orders=orders,
        criterion=criterion,
        criterion_witness=None if criterion else (part.reps()[j], part.units[first]),
        order_witness=order_witness,
    )

    if survey is None:
        report.skipped = ("spectral route skipped: no character table",)
    else:
        report.spectra_mode = "exhaustive"
        bad = survey.first_non_integral()
        report.spectra = bad is None
        report.spectra_count = 2 << len(survey.orbits) if bad is None else (2 << bad) + 1
        if bad is not None:
            on = set(survey.orbits[bad])
            report.spectral_witness = [int(part.class_of[x] in on) for x in g.elements()]

    disagreements = []
    if orders != criterion:
        disagreements.append(
            f"F-route disagreement on {g.name}: orders={orders}, criterion={criterion}"
        )
    if report.spectra is not None and report.spectra != criterion:
        disagreements.append(
            f"F-route disagreement on {g.name}: criterion={criterion}, "
            f"spectra({report.spectra_mode})={report.spectra}"
        )
    report.discrepancies = tuple(disagreements)
    return report


def _cyclic_subgroups_all_normal(g: FiniteGroup, part: ConjugacyPartition) -> bool:
    """<x> is normal exactly when the conjugacy class of x lies inside it."""
    return all(set(part.classes[part.class_of[x]]) <= set(g.powers(x)) for x in range(1, g.n))


def is_hamiltonian_2_group(g: FiniteGroup, part: ConjugacyPartition) -> bool:
    """Nonabelian 2-group in which every cyclic subgroup is normal."""
    n = g.n
    if n < 8 or n & (n - 1):
        return False
    return not g.is_abelian() and _cyclic_subgroups_all_normal(g, part)


def _cci_structural(g: FiniteGroup, part: ConjugacyPartition) -> bool:
    """Abelian of exponent dividing 6 or 4, or a Hamiltonian 2-group."""
    exp = g.exponent()
    return (g.is_abelian() and (6 % exp == 0 or 4 % exp == 0)) or is_hamiltonian_2_group(g, part)


_SCHEDULE_HEAD = (1, 3, 7, 4, 5, 8, 2, 6, 9)

@dataclass(kw_only=True)
class CciReport(RouteReport):
    KEY = "cci"
    ROUTES = ("structural", "witness_found", "candidates_tried")
    WITNESSES = ("witness_values", "witness_residual")
    LABEL = "colour integrality"
    TEXT = "structural={structural} witness_found={witness_found} tried={candidates_tried}"

    structural: bool                 # the structural recognizer, the verdict
    witness_values: list[int] | None = None
    witness_residual: str | None = None
    candidates_tried: int = 0
    seed: str | None = None

    @property
    def witness_found(self) -> bool:
        return self.witness_values is not None


def cci_report(g: FiniteGroup, part: ConjugacyPartition, seed: int = 0) -> CciReport:
    """Integrality of every integer symmetric colour function.

    Structural route: abelian of exponent dividing 6 or 4, or a Hamiltonian
    2-group. Witness route (only when some conjugacy class exceeds an
    inverse pair, so symmetric non-class functions exist): a deterministic
    colour schedule over inverse pairs first, then seeded random colours.
    The witness route is skipped, and says so, above CCI_WITNESS_MAX_ORDER.
    """
    structural = _cci_structural(g, part)
    report = CciReport(verdict=structural, structural=structural)

    trigger = any(
        set(cls) - {rep, g.inv[rep]}
        for cls, rep in zip(part.classes, part.reps())
    )
    if trigger and g.n > CCI_WITNESS_MAX_ORDER:
        report.skipped = (
            f"CCI witness search skipped: |G|={g.n} exceeds cap {CCI_WITNESS_MAX_ORDER}",
        )
    elif trigger:
        pairs = _inverse_pairs(g)

        def try_candidate(values_per_pair: list[int]) -> bool:
            vals = [0] * g.n
            for pair, v in zip(pairs, values_per_pair):
                for x in pair:
                    vals[x] = v
            f = ConnectionFunction(g, vals)
            report.candidates_tried += 1
            rep = spectrum_matrix(g, f, part)
            if not rep.is_integral:
                report.witness_values = list(f.values)
                report.witness_residual = rep.factored_residual()
            return report.witness_found

        sched = itertools.chain(_SCHEDULE_HEAD, itertools.count(10))
        if not try_candidate([next(sched) for _ in pairs]):
            report.seed = f"{seed}:{g.name}:cci"
            rng = random.Random(report.seed)
            while report.candidates_tried < CCI_WITNESS_BUDGET:
                if try_candidate([rng.randint(0, 9) for _ in pairs]):
                    break

    if structural and report.witness_found:
        report.discrepancies = (
            f"CCI disagreement on {g.name}: structural=True but a non-integral colour function exists",
        )
    return report


@dataclass(kw_only=True)
class CiReport(RouteReport):
    KEY = "ci"
    ROUTES = ("structural", "brute", "mode", "subsets_tried")
    WITNESSES = ("witness_set",)
    LABEL = "Cayley integrality"
    TEXT = "structural={structural} brute={brute} ({mode}, {subsets_tried} sets)"

    structural: bool                 # the structural recognizers, the verdict
    brute: bool | None = None
    mode: str = "skipped"
    subsets_tried: int = 0
    witness_set: list[int] | None = None
    seed: str | None = None


def _is_s3_shape(g: FiniteGroup) -> bool:
    return g.n == 6 and not g.is_abelian()


def _is_dic12_shape(g: FiniteGroup) -> bool:
    return g.n == 12 and not g.is_abelian() and sum(1 for o in g.ord if o == 2) == 1


def ci_report(g: FiniteGroup, part: ConjugacyPartition, seed: int = 0) -> CiReport:
    """Integrality of every Cayley graph: structural recognizers plus a
    brute-force sweep over inverse-closed connection sets (exhaustive for
    small groups, sampled up to the sampling cap).

    The sweep draws its sets in order, in chunks that double from 1 up to
    _STACK_CELLS // n^2, and decides each chunk by `integral_spectra` on
    the charpolys modulo one prime p > 2 |G| > n (`cayley_charpoly_mod`),
    b = |S|; the first non-integral set gives the count and the witness.
    Soundness: A = [f(a b^-1)] is symmetric, so diagonalizable, with row
    and column sums b. It commutes with right translations, so row a of
    q(A) is row 0 permuted, and e_0 q(A) = 0 gives q(A) = 0.
    """
    structural = _cci_structural(g, part) or _is_s3_shape(g) or _is_dic12_shape(g)
    report = CiReport(verdict=structural, structural=structural)
    pairs = _inverse_pairs(g)

    def check_subsets(subsets: Iterator[list[tuple[int, ...]]]) -> bool:
        (p,), _ = _primes_for(g.n, g.n)  # one prime above 2 |G|
        size = 1
        while chunk := list(itertools.islice(subsets, size)):
            marks = np.zeros((len(chunk), g.n), dtype=np.int64)
            for row, chosen in zip(marks, chunk):
                row[[x for pair in chosen for x in pair]] = 1
            stack = adjacency_stack(g, marks)
            verdicts = integral_spectra(stack, cayley_charpoly_mod(stack, p), marks.sum(axis=1).tolist(), p)
            if not all(verdicts):
                first = verdicts.index(False)
                report.subsets_tried += first + 1
                report.witness_set = np.flatnonzero(marks[first]).tolist()
                return False
            report.subsets_tried += len(chunk)
            size = min(2 * size, max(1, _STACK_CELLS // (g.n * g.n)))
        return True

    if g.n <= CI_EXHAUSTIVE_MAX_ORDER:
        report.mode = "exhaustive"
        report.brute = check_subsets(_subsets(pairs))
    elif g.n <= CI_SAMPLED_MAX_ORDER:
        report.mode = "sampled"
        report.seed = f"{seed}:{g.name}:ci"
        rng = random.Random(report.seed)
        report.brute = check_subsets(
            [p for p in pairs if rng.random() < 0.5] for _ in range(CI_SAMPLES)
        )
    else:
        report.skipped = (f"brute force skipped: |G|={g.n} exceeds cap {CI_SAMPLED_MAX_ORDER}",)

    if report.brute is not None and report.brute != structural:
        report.discrepancies = (
            f"CI route disagreement on {g.name}: structural={structural}, "
            f"brute({report.mode})={report.brute}",
        )
    return report


# ---------------------------------------------------------------------------
# Per-group classification
# ---------------------------------------------------------------------------


@dataclass
class ClassificationReport:
    name: str
    order: int
    rational: bool
    semi_rational: bool
    nci: NciReport
    fcci: FcciReport
    cci: CciReport
    ci: CiReport
    nilpotent: bool
    seed: int
    semi_rational_r_map: dict[int, int] | None = None
    rational_witness: int | None = None
    semi_rational_witness: int | None = None
    discrepancies: tuple[str, ...] = ()
    caps_notes: tuple[str, ...] = ()

    @property
    def predicates(self) -> tuple[RouteReport, ...]:
        return self.nci, self.fcci, self.cci, self.ci

    def verdicts(self) -> dict[str, bool]:
        """Every verdict under its JSON key, as `to_dict` writes it. NCI
        equals inverse semi-rationality, so both read the NCI verdict."""
        return {
            "rational": self.rational,
            "semi_rational": self.semi_rational,
            "inverse_semi_rational": self.nci.verdict,
            **{p.KEY: p.verdict for p in self.predicates},
            "nilpotent": self.nilpotent,
        }

    def to_dict(self) -> dict:
        isr_atom = self.nci.failing_atom
        return {
            "name": self.name,
            "order": self.order,
            "seed": self.seed,
            "verdicts": self.verdicts(),
            "routes": {p.KEY: p.routes() for p in self.predicates},
            "evidence": {
                "rational_witness": self.rational_witness,
                "semi_rational_witness": self.semi_rational_witness,
                "semi_rational_r_map": self.semi_rational_r_map,
                "isr_failing_atom": (
                    None
                    if isr_atom is None
                    else {"generator": isr_atom.generator, "members": list(isr_atom.members)}
                ),
                **{k: v for p in self.predicates for k, v in p.evidence().items()},
                "gamma_chi_conj_all_integral": self.nci.characters,
                "seeds": {p.KEY: p.seed for p in (self.cci, self.ci)},
            },
            "discrepancies": list(self.discrepancies),
            "caps_notes": list(self.caps_notes),
        }


def classify_group(
    g: FiniteGroup, chartable_cap: int = DEFAULT_ORDER_CAP, seed: int = 0
) -> ClassificationReport:
    """Every predicate and route on one group. The partition, with the
    unit power maps on its classes that every rationality route reads, the
    character table (up to `chartable_cap` and `CELL_CAP`) and the survey
    (wherever there is a table) are built once here, and the routes read
    only these three; every skip lands in `caps_notes`."""
    part = conjugacy_classes(g)
    table = survey = None
    caps_notes: list[str] = []
    if g.n > chartable_cap:
        caps_notes.append(f"character table skipped: |G|={g.n} exceeds cap {chartable_cap}")
    elif table_cells(part) > CELL_CAP:
        caps_notes.append(f"character table skipped: {table_cells(part)} cells exceed cap {CELL_CAP}")
    else:
        table = character_table(g, part, order_cap=chartable_cap)
        survey = normal_set_survey(part, table)

    rat, rat_wit = is_rational(part)
    semi, r_map, semi_wit = is_semi_rational(g, part)
    nci = nci_report(g, part, table, survey)
    fcci = fcci_report(g, part, survey)
    cci = cci_report(g, part, seed=seed)
    ci = ci_report(g, part, seed=seed)
    discrepancies: list[str] = []
    for route in (nci, fcci, cci, ci):
        caps_notes.extend(route.skipped)
        discrepancies.extend(route.discrepancies)

    if table is not None:
        table_rational = not table.coeffs[:, :, 1:].any()
        if table_rational != rat:
            discrepancies.append(
                f"rationality disagreement on {g.name}: atom route {rat}, table scan {table_rational}"
            )
        discrepancies.extend(
            f"Eulerian/integrality mismatch on {g.name}: classes {list(c)} are Eulerian, not integral"
            for c in survey.mismatches
        )
        if survey.undecided:
            caps_notes.append(f"Eulerian/integrality undecided on {g.name}: kernel mod {table.prime} of "
                              f"dimension {survey.kernel} exceeds {len(survey.components)} atom components")

    return ClassificationReport(
        name=g.name,
        order=g.n,
        rational=rat,
        semi_rational=semi,
        nci=nci,
        fcci=fcci,
        cci=cci,
        ci=ci,
        nilpotent=is_nilpotent(g),
        seed=seed,
        semi_rational_r_map=r_map,
        rational_witness=rat_wit,
        semi_rational_witness=semi_wit,
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

# The element-level verdicts that the centre inherits, with their names in
# the closure messages and the text report, in the order
# `_predicates_on_subgroup` returns them.
ELEMENT_PREDICATES = (
    ("rational", "rational"),
    ("semi_rational", "semi-rational"),
    ("inverse_semi_rational", "inverse semi-rational"),
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


def _predicates_on_subgroup(g: FiniteGroup) -> tuple[bool, bool, bool]:
    part = conjugacy_classes(g)
    return (
        is_rational(part)[0],
        is_semi_rational(g, part)[0],
        is_inverse_semi_rational(g, part)[0],
    )


def _fixture_notes() -> tuple[list[str], list[str]]:
    """Recompute the two shipped witness colour functions and annotate how the
    exact results compare with their published reference spectra."""
    notes: list[str] = []
    findings: list[str] = []
    groups = {name: catalog(group) for name, group in FIXTURE_GROUPS.items()}
    rep, rep_b = (spectrum_matrix(groups[name], load_fixture(name, groups[name])) for name in ("alpha", "beta"))
    expected = ((16, 1), (-12, 1))
    if rep.integer_eigenvalues == expected and not rep.is_integral:
        notes.append(
            "fixture alpha on S3: integer eigenvalues 16 and -12 with residual "
            f"{rep.factored_residual()}; the reference table prints +12, "
            "but the adjacency trace is 0, which forces -12 (eigenvalue sum must vanish)"
        )
    else:
        findings.append(f"fixture alpha unexpected spectrum: {rep.describe()}")
    if rep_b.integer_eigenvalues == ((48, 1), (4, 2), (0, 1), (-14, 4)) and not rep_b.is_integral:
        notes.append("fixture beta on Dic12: spectrum matches the reference table exactly")
    else:
        findings.append(f"fixture beta unexpected spectrum: {rep_b.describe()}")
    return notes, findings


def hierarchy_audit(
    groups: list[FiniteGroup] | None = None,
    chartable_cap: int = DEFAULT_ORDER_CAP,
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
    reports = [classify_group(g, chartable_cap=chartable_cap, seed=seed) for g in groups]

    chain_violations: list[str] = []
    closure_checks: list[str] = []
    closure_violations: list[str] = []
    # each report with its own group: group names need not be unique
    for rep, g in zip(reports, groups):
        v = rep.verdicts()
        chain_violations += [
            f"{rep.name}: {a} holds but {b} fails" for a, b in _CHAIN if v[a] and not v[b]
        ]
        if any(v[key] for key, _ in ELEMENT_PREDICATES):
            z = center(g)
            if 1 < len(z):
                zg, _ = generated_subgroup(g, set(z))
                closure_checks.append(f"center of {rep.name} (order {zg.n})")
                for (key, label), holds in zip(ELEMENT_PREDICATES, _predicates_on_subgroup(zg)):
                    if v[key] and not holds:
                        closure_violations.append(f"center of {label} {rep.name} is not {label}")
        if v["nci"]:
            comm = g.commutators()
            subgroups = {"center": set(center(g))}
            if comm != (0,):
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
    rational_pairs = [(r, g) for r, g in zip(reports, groups) if r.rational]
    nci_pairs = [(r, g) for r, g in zip(reports, groups) if r.nci.verdict]
    for ra, ga in rational_pairs:
        for rb, gb in nci_pairs:
            if ga.n * gb.n <= PRODUCT_MAX_ORDER:
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
