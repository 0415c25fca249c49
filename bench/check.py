"""Correctness checks for benchmark outputs, run outside the timed region.

Spectra are re-derived without `cayint.linalg`: the claimed characteristic
polynomial (residual times the integer eigenvalue factors) is compared with
det(x0*I - A) modulo a prime at fixed points x0, and the residual is
evaluated at every integer inside the Gershgorin bound to confirm it has no
integer root. A witness that claims a non-integral spectrum is confirmed by
showing that the product of (A - l*I) over the rounded numerical
eigenvalues l is non-zero modulo the prime; for an integral symmetric A that
product is exactly zero. Verdicts, character degrees and class sizes are
compared with `reference.json`, taken when the benchmark was defined.
Residual factorisations and route counts are never compared.
"""

from __future__ import annotations

import json
import re
from math import gcd
from pathlib import Path

import numpy as np

PRIME = 2**26 - 5  # products of two residues stay below 2**52, sums of 2**11 below 2**63
EVAL_POINTS = (1_234_567, 40_000_003)
REFERENCE_PATH = Path(__file__).with_name("reference.json")

_TERM = re.compile(r"^(-?)(\d*)(x(?:\^(\d+))?)?$")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Exact helpers, independent of the program's linear algebra
# ---------------------------------------------------------------------------


def parse_poly(text: str) -> list[int]:
    """Ascending coefficients of a polynomial printed like `x^2 - 3x + 1`."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(term.strip())
        if m is None or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
        sign, digits, xpart, power = m.groups()
        c = int(digits) if digits else 1
        k = 0 if xpart is None else int(power) if power else 1
        coeffs[k] = coeffs.get(k, 0) + (-c if sign else c)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def poly_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def det_mod(mat: np.ndarray, p: int = PRIME) -> int:
    """Determinant modulo a prime by Gaussian elimination on int64 residues."""
    a = np.array(mat, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        r = c + int(nz[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
            det = -det
        pivot = int(a[c, c])
        det = det * pivot % p
        a[c, c:] = a[c, c:] * pow(pivot, -1, p) % p
        a[c + 1:, c:] = (a[c + 1:, c:] - np.outer(a[c + 1:, c], a[c, c:]) % p) % p
    return det % p


def adjacency(table, inv, values) -> np.ndarray:
    """[f(a b^-1)] as an integer array."""
    t = np.asarray(table, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)[t[:, np.asarray(inv, dtype=np.int64)]]


def gershgorin(a: np.ndarray) -> int:
    return int(np.abs(a).sum(axis=1).max())


def spectrum_errors(a: np.ndarray, eigen: list[list[int]], residual: list[int], integral: bool) -> list[str]:
    """Exact check of a claimed spectrum: integer eigenvalues with
    multiplicities, a residual without integer roots, and the flag."""
    errors = []
    n = a.shape[0]
    values = [v for v, _ in eigen]
    if len(set(values)) != len(values) or any(m < 1 for _, m in eigen):
        errors.append(f"integer eigenvalues malformed: {eigen}")
    degree = len(residual) - 1
    if not residual or residual[-1] != 1:
        errors.append(f"residual is not monic: {residual}")
    if sum(m for _, m in eigen) + degree != n:
        errors.append(f"multiplicities {eigen} and residual degree {degree} do not add up to {n}")
    if integral != (degree == 0):
        errors.append(f"integral flag {integral} contradicts residual degree {degree}")
    for x0 in EVAL_POINTS:
        claimed = poly_eval(residual, x0)
        for v, m in eigen:
            claimed *= (x0 - v) ** m
        if det_mod(x0 * np.eye(n, dtype=np.int64) - a) != claimed % PRIME:
            errors.append(f"claimed characteristic polynomial differs from det(xI - A) at x = {x0}")
            break
    if degree > 0:
        bound = gershgorin(a)
        root = next((r for r in range(-bound, bound + 1) if poly_eval(residual, r) == 0), None)
        if root is not None:
            errors.append(f"residual has the integer root {root}")
    return errors


def is_non_integral(a: np.ndarray) -> bool:
    """True when the symmetric integer matrix has a non-integer eigenvalue."""
    candidates = sorted({int(round(x)) for x in np.linalg.eigvalsh(a.astype(float))})
    n = a.shape[0]
    eye = np.eye(n, dtype=np.int64)
    prod = eye.copy()
    base = a % PRIME
    for lam in candidates:
        prod = prod @ ((base - lam * eye) % PRIME) % PRIME
    return bool(prod.any())


# ---------------------------------------------------------------------------
# Element-level witnesses, from the multiplication table alone
# ---------------------------------------------------------------------------


class TableGroup:
    """Just enough group arithmetic to re-check element witnesses."""

    def __init__(self, table, inv):
        self.t = table
        self.inv = inv
        self.n = len(table)

    def power(self, x: int, k: int) -> int:
        y = 0
        for _ in range(k):
            y = self.t[y][x]
        return y

    def order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = self.t[y][x]
            k += 1
        return k

    def conj_class(self, x: int) -> frozenset[int]:
        t, inv = self.t, self.inv
        return frozenset(t[t[a][x]][inv[a]] for a in range(self.n))

    def atom(self, x: int) -> frozenset[int]:
        o = self.order(x)
        return frozenset(self.power(x, k) for k in range(1, o + 1) if gcd(k, o) == 1)


def witness_errors(g: TableGroup, doc: dict) -> list[str]:
    """Re-check every witness in one classification report."""
    errors = []
    name = doc["name"]
    v, ev = doc["verdicts"], doc["evidence"]

    def fail(msg: str) -> None:
        errors.append(f"{name}: {msg}")

    def spectral(label: str, values: list[int], verdict_key: str | None, expect_class_function: bool) -> None:
        if len(values) != g.n or any(values[x] != values[g.inv[x]] for x in range(g.n)):
            fail(f"{label} is not a symmetric function on {g.n} elements")
            return
        if expect_class_function and any(
            values[y] != values[x] for x in range(g.n) for y in g.conj_class(x)
        ):
            fail(f"{label} is not a class function")
        if verdict_key is not None and v[verdict_key]:
            fail(f"{label} returned although {verdict_key} holds")
        if not is_non_integral(adjacency(g.t, g.inv, values)):
            fail(f"{label} has an integral spectrum")

    def from_set(label: str, members: list[int]) -> list[int] | None:
        s = set(members)
        if 0 in s or any(g.inv[x] not in s for x in s):
            fail(f"{label} is not an identity-free inverse-closed set")
            return None
        return [1 if x in s else 0 for x in range(g.n)]

    if ev.get("cci_witness_values"):
        spectral("CCI witness", ev["cci_witness_values"], "cci", False)
    if ev.get("ci_witness_set"):
        vals = from_set("CI witness", ev["ci_witness_set"])
        if vals is not None:
            spectral("CI witness", vals, "ci", False)
    if ev.get("nci_witness_set"):
        vals = from_set("NCI witness", ev["nci_witness_set"])
        if vals is not None:
            spectral("NCI witness", vals, "nci", True)
    if ev.get("fcci_spectral_witness"):
        spectral("FCCI spectral witness", ev["fcci_spectral_witness"], None, True)
        if doc["routes"]["fcci"]["spectra"] is not False:
            fail("FCCI spectral witness returned although the spectral route holds")

    x = ev.get("rational_witness")
    if x is not None and (v["rational"] or g.atom(x) <= g.conj_class(x)):
        fail(f"rational witness {x} does not refute rationality")
    x = ev.get("semi_rational_witness")
    if x is not None and (v["semi_rational"] or len({g.conj_class(y) for y in g.atom(x)}) <= 2):
        fail(f"semi-rational witness {x} does not refute semi-rationality")
    a = ev.get("isr_failing_atom")
    if a is not None:
        gen = a["generator"]
        allowed = g.conj_class(gen) | g.conj_class(g.inv[gen])
        if (
            v["inverse_semi_rational"]
            or set(a["members"]) != g.atom(gen)
            or set(a["members"]) <= allowed
        ):
            fail(f"atom of {gen} does not refute inverse semi-rationality")
    w = ev.get("fcci_criterion_witness")
    if w is not None:
        rep, h = w
        allowed = g.conj_class(rep) | g.conj_class(g.inv[rep])
        if v["fcci"] or gcd(h, g.n) != 1 or g.power(rep, h) in allowed:
            fail(f"criterion witness {w} does not refute the F-criterion")
    return errors


# ---------------------------------------------------------------------------
# Comparison with the reference
# ---------------------------------------------------------------------------


def _routes_agree(got: dict, want: dict) -> list[str]:
    """Route verdicts must agree wherever both ran; counts are not compared."""
    bad = []
    for pred, routes in want.items():
        for route, expected in routes.items():
            actual = got.get(pred, {}).get(route)
            if isinstance(expected, bool) and isinstance(actual, bool) and actual != expected:
                bad.append(f"route {pred}.{route} is {actual}, reference {expected}")
    return bad


def classification_errors(doc: dict, ref: dict) -> list[str]:
    errors = []
    for key in ("name", "order", "verdicts"):
        if doc.get(key) != ref[key]:
            errors.append(f"{ref['name']}: {key} is {doc.get(key)}, reference {ref[key]}")
    errors += [f"{ref['name']}: {e}" for e in _routes_agree(doc.get("routes", {}), ref["routes"])]
    return errors


def reference_entry(doc: dict) -> dict:
    """The parts of a classification report that the reference pins."""
    routes = {
        pred: {k: val for k, val in r.items() if isinstance(val, bool) or val is None}
        for pred, r in doc["routes"].items()
    }
    return {"name": doc["name"], "order": doc["order"], "verdicts": doc["verdicts"], "routes": routes}


def audit_reference(doc: dict) -> dict:
    return {
        "groups": [reference_entry(g) for g in doc["groups"]],
        "findings": sorted(doc["findings"]),
        "chain_violations": sorted(doc["chain_violations"]),
        "closure_violations": sorted(doc["closure_violations"]),
    }


def chartable_reference(doc: dict) -> dict:
    return {
        "group": doc["group"],
        "degrees": doc["degrees"],
        "class_sizes": doc["class_sizes"],
    }


class Checker:
    """Checks one output document per op; caches group tables it builds."""

    def __init__(self, reference: dict, functions: dict[str, list[int]] | None = None):
        self.reference = reference
        self.functions = functions or {}
        self._tables: dict[tuple[str, ...], TableGroup] = {}

    def group(self, tokens: tuple[str, ...]) -> TableGroup:
        if tokens not in self._tables:
            from cayint.catalog import resolve_group

            g = resolve_group(list(tokens))
            self._tables[tokens] = TableGroup(g.table, g.inv)
        return self._tables[tokens]

    def suite_groups(self) -> dict[str, TableGroup]:
        from cayint.classify import default_suite_groups

        return {g.name: TableGroup(g.table, g.inv) for g in default_suite_groups()}

    def errors(self, op, rc: int, doc: dict) -> list[str]:
        if rc not in op.exit_codes:
            return [f"exit code {rc}, expected one of {op.exit_codes}"]
        return getattr(self, f"_check_{op.kind}")(op, rc, doc)

    def _check_spectrum(self, op, rc: int, doc: dict) -> list[str]:
        path = op.argv[op.argv.index("--function") + 1]
        values = self.functions[path]
        if doc.get("function") != values:
            return ["function echoed in the output differs from the input file"]
        g = self.group(op.group)
        if doc["group"]["order"] != g.n:
            return [f"group order {doc['group']['order']}, expected {g.n}"]
        a = adjacency(g.t, g.inv, values)
        errors = spectrum_errors(
            a, doc["integer_eigenvalues"], parse_poly(doc["residual"]), doc["is_integral"]
        )
        if rc != (0 if doc["is_integral"] else 1):
            errors.append(f"exit code {rc} contradicts integral={doc['is_integral']}")
        return errors

    def _check_chartable(self, op, rc: int, doc: dict) -> list[str]:
        key = " ".join(op.group)
        want = self.reference["chartable"][key]
        got = chartable_reference(doc)
        errors = [f"{key}: {k} is {got[k]}, reference {want[k]}" for k in want if got[k] != want[k]]
        n = doc["group"]["order"]
        if sum(d * d for d in doc["degrees"]) != n or sum(doc["class_sizes"]) != n:
            errors.append(f"{key}: degrees or class sizes do not sum to |G| = {n}")
        if len(doc["rows"]) != len(doc["class_sizes"]):
            errors.append(f"{key}: {len(doc['rows'])} characters for {len(doc['class_sizes'])} classes")
        return errors

    def _check_classify(self, op, rc: int, doc: dict) -> list[str]:
        return classification_errors(doc, self.reference["classify"][" ".join(op.group)])

    def _check_audit(self, op, rc: int, doc: dict) -> list[str]:
        want = self.reference["audit"]
        errors = []
        if doc.get("exit_code") != rc:
            errors.append(f"exit code {rc} differs from the reported {doc.get('exit_code')}")
        got_groups = {g["name"]: g for g in doc["groups"]}
        if list(got_groups) != [g["name"] for g in want["groups"]]:
            errors.append(f"audited groups {list(got_groups)} differ from the reference")
        tables = self.suite_groups()
        for ref in want["groups"]:
            got = got_groups.get(ref["name"])
            if got is None:
                continue
            errors += classification_errors(got, ref)
            errors += witness_errors(tables[ref["name"]], got)
        for key in ("findings", "chain_violations", "closure_violations"):
            if sorted(doc[key]) != want[key]:
                errors.append(f"{key} {sorted(doc[key])} differ from the reference {want[key]}")
        return errors
