"""Exact irreducible character tables via class matrices over a prime field.

The method is Dixon's (1967): the structure constants of the class-sum
algebra give k commuting integer matrices, and their common eigenvectors
over F_p, for a prime p = 1 (mod e) with p^2 > 4|G|, are the central
characters omega_chi(K_j) = |C_j| chi(g_j) / chi(1) mod p, as vectors over
the classes j. Degrees are recovered from the row orthogonality relation
(d^2 mod p, looked up among the squares of 1..sqrt(|G|), which p^2 > 4|G|
keeps distinct mod p), character values mod p follow, and each value is
lifted to its exact cyclotomic form by a discrete Fourier inversion over
F_p of the root-of-unity multiplicity vector. The finished table is
verified before it is returned.

Splitting the identity. The central characters come from splitting one
vector, not subspaces (`_central_characters`), and each class matrix is
built only when the split reaches it, the classes of a generating set
first. A component is a vector w = sum_(chi in S) c_chi omega_chi, for a
set S of characters and units c_chi mod p. Soundness:

- e_0 is cyclic. By the column orthogonality relation the identity
  class's vector is e_0 = sum_chi (chi(1)^2 / |G|) omega_chi, a component
  with S every character: p cannot divide |G|, since an element of order
  p would make p divide e, and p = 1 (mod e).
- Each mu is squarefree with its roots in F_p. A class matrix M acts on
  omega_chi as the scalar omega_chi(K_M), an algebraic integer of
  Q(zeta_e) whose residue lies in F_p because p = 1 (mod e). So the
  minimal polynomial mu of w under M is the product of x - lambda over
  the distinct residues lambda of omega_chi(K_M), chi in S.
- A projection is nonzero exactly on its eigenvalue's characters. With
  q_lambda = mu / (x - lambda), q_lambda(M) w = sum_(chi in S) c_chi
  q_lambda(omega_chi(K_M)) omega_chi, and q_lambda vanishes at every root
  of mu but lambda. So it is a component whose S holds the characters of
  residue lambda, and the projections of w partition its S.
- k components mean every character is separated. The row orthogonality
  relation, sum_t omega_chi(K_t) omega_psi(K_t^-1) / |C_t| = delta_(chi
  psi) |G| / chi(1)^2, makes the omega_chi independent mod p, so
  components of disjoint sets are independent and there are at most k;
  k of them are k single characters, each c_chi omega_chi, which scaled
  to 1 at the identity class is omega_chi mod p. Two distinct characters
  differ at some class, so the split reaches k components before the
  classes run out.

A root count short of deg mu, a minimal polynomial of degree above the
characters a component can hold, classes that run out and a component
that is 0 at the identity class would each contradict this; they raise
VerificationFailed as bugs.

Integer format: a character value is an algebraic integer of Q(zeta_e), e
the group exponent, and the power basis 1, zeta_e, ..., zeta_e^(phi-1) is a
Z-basis of Z[zeta_e], so a table is exactly one (k, k, phi) integer array of
power-basis coefficients, rows indexed by characters and columns by classes.
Complex conjugation and the Galois twists are fixed integer matrices of the
conductor's context (`linalg._context`). Overflow rule: the array is int64
when every coefficient is below 2^62 in magnitude and Python ints otherwise
(`linalg.exact_array`); every product is bounded in Python ints before it is
taken, and runs on Python ints when the bound reaches 2^63, so int64 never
wraps.

Verification (`_verify_table`) runs modulo a few primes p = 1 (mod e). There
Phi_e splits into distinct linear factors, so with theta of order e mod p
the embeddings zeta -> theta^h, one per unit h mod e, identify Z[zeta_e]/p
with F_p^phi. Per prime it maps the table through all of them, one
(k^2, phi)(phi, phi) product, and checks Galois equivariance, that the
image of chi(j) under embedding h is the image of chi(j^h) under embedding
1 (the unit -1 is chi(g^-1) = conj(chi(g))), and then both orthogonality
relations under embedding 1 alone, two k^3 products: O(k^2 phi^2 + k^3)
per prime, in int64 with max(k, phi) p^2 < 2^63.

Soundness. Equivariance on every embedding makes sigma_h chi(j) = chi(j^h)
coordinatewise mod p: embedding h' of the difference is embedding 1 of
sigma_h'h chi(j) - sigma_h' chi(j^h), and by the check both terms are
embedding 1 of the value at class j^(h'h). The primes' product exceeds
twice a bound on every coordinate of such a difference and of every
orthogonality sum minus its target, so equivariance is exact.
Embedding h of an orthogonality sum is then embedding 1 of the same sum
over the classes permuted by j -> j^h, which have the same sizes, so every
embedding of sum minus target vanishes mod p, every coordinate is 0 modulo
the product, and the bound makes it 0. The check is stronger than the two
relations: it also rejects a table that satisfies both but is not
Galois-equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Iterable

import numpy as np

from .catalog import ParseError, _content_lines
from .groups import ConjugacyPartition, FiniteGroup, conjugacy_classes, generator_classes
from .linalg import _context, _primes_for, _summable, eliminate_mod, exact_array
from .linalg import is_prime, primitive_root, roots_mod


class PrimeSearchFailed(RuntimeError):
    """No usable prime found below PRIME_BOUND."""


class VerificationFailed(RuntimeError):
    """Internal bug guard: a produced table failed an exact identity."""


# The character-table caps, on |G| (CLI `--cap-chartable`) and on the int64
# cells of `table_cells`: `character_table` refuses a group above either and
# `classify_group` skips its table.
DEFAULT_ORDER_CAP = 2000
CELL_CAP = 2**27
PRIME_BOUND = 1_000_000  # the prime search gives up above this
_KRYLOV_START = 4  # the first Krylov length tried for a component's minimal polynomial


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes.

    `coeffs[r, j]` is chi_r(rep_j) over the power basis of Z[zeta_conductor]:
    one read-only (k, k, phi) array, int64 or Python ints by the module's
    overflow rule. `cell_strings` prints it.
    """

    group: FiniteGroup
    partition: ConjugacyPartition
    conductor: int
    prime: int
    degrees: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.flags.writeable = False

    @property
    def k(self) -> int:
        return len(self.degrees)

    def cell_strings(self) -> tuple[tuple[str, ...], ...]:
        """Each cell as text: the integer c_0 when every other coordinate is
        0, else the `" + "`-joined terms `c_0`, `c_1*zE`, `c_m*zE^m` of its
        nonzero coordinates, E the conductor."""
        z = f"z{self.conductor}"
        bases = ["", f"*{z}"] + [f"*{z}^{m}" for m in range(2, self.coeffs.shape[2])]

        def text(cell: list[int]) -> str:
            if not any(cell[1:]):
                return str(cell[0])
            return " + ".join(f"{c}{b}" for c, b in zip(cell, bases) if c)

        return tuple(tuple(map(text, row)) for row in self.coeffs.tolist())

    def class_sizes(self) -> tuple[int, ...]:
        return self.partition.sizes()

    def reps(self) -> tuple[int, ...]:
        return self.partition.reps()


def table_cells(part: ConjugacyPartition) -> int:
    """max(k^3, k^2 phi(e)): the cells of the table, and of up to k class
    matrices, which the normal-set survey builds beside it."""
    return part.k**2 * max(part.k, len(part.units))


def class_matrices(
    g: FiniteGroup, part: ConjugacyPartition, unions: list[tuple[int, ...]] | None = None
) -> list[np.ndarray]:
    """Structure constants of the class-sum algebra: for each union U of
    classes, the (k, k) int64 matrix of multiplication by sum_(j in U) K_j,
    K_j the sum of class j in the group algebra; by default each class
    alone.

    K_U K_j = sum_t a[j][t] K_t, and the matrix is (a[j][t])_{j,t}, the
    number of x in U with x^-1 * rep_t in class j: one `bincount` over the
    elements of U. All constants are nonnegative integers, and the matrices
    of two unions add to the matrix of their sum.
    """
    k, class_of, reps = part.k, np.array(part.class_of), part.reps()
    out = []
    for union in unions if unions is not None else [(j,) for j in range(k)]:
        # cell (class of x^-1 rep_t, t) for x in U down and t across
        cells = class_of[g.products([g.inv[x] for j in union for x in part.classes[j]], reps)] * k + np.arange(k)
        out.append(np.bincount(cells.ravel(), minlength=k * k).reshape(k, k))
    return out


# ---------------------------------------------------------------------------
# Prime-field helpers
# ---------------------------------------------------------------------------


def _find_prime(exponent: int, order: int, bound: int) -> int:
    # need p = 1 mod e and p > 2*sqrt(|G|), i.e. p^2 > 4|G|
    p = exponent + 1
    while p <= bound:
        if p * p > 4 * order and is_prime(p):
            return p
        p += exponent
    raise PrimeSearchFailed(f"no prime = 1 mod {exponent} with square above {4 * order}, below {bound}")


def _primitive_root_of_unity(p: int, e: int) -> int:
    """theta = g^((p-1)/e) for g the least primitive root mod p."""
    return pow(primitive_root(p), (p - 1) // e, p)


def _central_characters(mats: Iterable[np.ndarray], k: int, p: int) -> np.ndarray:
    """The k central characters mod p, as the rows of a (k, k) int64 array,
    each 1 at the identity class, from commuting (k, k) class matrices
    reduced mod p. `mats` is read only as far as the split needs it.

    The components, the rows of one array, start as e_0 alone (module
    docstring). A matrix M moves a component w unless M w is a multiple of
    w, compared at w's first nonzero coordinate; each w that M moves is
    replaced by its projections (`_split_components`). The split stops at k
    components.

    Overflow: entries stay in int64. Residues are below p <= PRIME_BOUND =
    10^6, and every dot product has at most k terms, each below p^2:
    k * p^2 <= 5040 * 10^12 < 2^63 for any group under the element cap.
    """
    comps = np.eye(1, k, dtype=np.int64)
    mats = iter(mats)
    while len(comps) < k:
        mat = next(mats, None)
        if mat is None:
            raise VerificationFailed("class matrices failed to separate all characters")
        imgs = comps @ mat.T % p
        at = np.arange(len(comps)), (comps != 0).argmax(axis=1)
        moved = (imgs * comps[at][:, None] % p != comps * imgs[at][:, None] % p).any(axis=1)
        if moved.any():
            fresh = _split_components(comps[moved], imgs[moved], mat, p, k - len(comps) + 1)
            comps = np.concatenate([comps[~moved], fresh])
    if not comps[:, 0].all():
        raise VerificationFailed("eigenvector vanishes at the identity class")
    return comps * np.array([pow(v, -1, p) for v in comps[:, 0].tolist()], dtype=np.int64)[:, None] % p


def _split_components(comps: np.ndarray, imgs: np.ndarray, mat: np.ndarray, p: int, cap: int) -> np.ndarray:
    """Replace each row w of `comps` (m, k), whose images under `mat` are
    `imgs`, by its projections q_lambda(M) w, one per root lambda of w's
    minimal polynomial mu under M, q_lambda = mu / (x - lambda).

    - mu, exactly: the Krylov rows w, M w, ..., M^L w of every w, with
      the Krylov columns eliminated in one `eliminate_mod`. The first
      column that depends on those before it, column d = rank, gives the
      monic mu of degree d. L starts at _KRYLOV_START and doubles up to
      `cap`, the k - c + 1 characters that w can hold beside the c - 1
      other components, which bounds deg mu.
    - The roots: one `roots_mod` per degree over every lambda in F_p. A
      root count short of deg mu means M is not diagonalizable on w.
    - The projections: q_lambda by synthetic division, then one product
      of the (d, d) coefficients with the first d Krylov rows.

    Returns the projections, component after component.
    """
    k = comps.shape[1]
    kry = np.stack([comps, imgs], axis=1)  # kry[i, t] = M^t w_i
    out, steps = [], _KRYLOV_START
    while len(kry):
        steps, filled = min(steps, cap), kry.shape[1]
        kry = np.concatenate([kry, np.empty((len(kry), max(0, steps + 1 - filled), k), dtype=np.int64)], axis=1)
        for t in range(filled, steps + 1):
            kry[:, t] = kry[:, t - 1] @ mat.T % p
        reduced, pivots = eliminate_mod(kry.transpose(0, 2, 1), p)
        degree = pivots.sum(axis=1)
        for d in np.unique(degree[degree <= steps]).tolist():
            sel = np.flatnonzero(degree == d)
            # M^d w = sum_t reduced[t, d] M^t w
            mu = np.concatenate([-reduced[sel, :d, d] % p, np.ones((len(sel), 1), dtype=np.int64)], axis=1)
            owner, root = roots_mod(mu, [0] * len(sel), [p - 1] * len(sel), p)
            if (np.bincount(owner, minlength=len(sel)) != d).any():
                raise VerificationFailed("class matrix is not diagonalizable on a component")
            root = root.reshape(len(sel), d, 1)
            q = np.ones((len(sel), d, d), dtype=np.int64)  # q[i, r, t]: coefficient of x^t in q_lambda
            for t in range(d - 1, 0, -1):
                q[:, :, t - 1 : t] = (mu[:, t, None, None] + root * q[:, :, t : t + 1]) % p
            out.append((q @ kry[sel, :d] % p).reshape(-1, k))
        kry = kry[degree > steps]
        if len(kry) and steps == cap:
            raise VerificationFailed(f"a component's minimal polynomial exceeds degree {cap}, the characters left to it")
        steps *= 2
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------


def _lift_values(
    c_rows: np.ndarray,
    degrees: np.ndarray,
    g: FiniteGroup,
    part: ConjugacyPartition,
    e: int,
    p: int,
    theta: int,
) -> np.ndarray:
    """Exact chi_r(rep_j) for every row r and class j, as a (k, k, phi) int64
    array of power-basis coefficients, from the residues c_rows[r, t] =
    chi_r(rep_t) mod p.

    chi(rep) = sum_m a_m zeta_o^m where a_m counts eigenvalue zeta_o^m of a
    representing matrix, o = ord(rep). For each class the a_m of all rows
    come from one inverse DFT over F_p: the (k x o) residues chi_r(rep^s)
    times F[s, m] = theta_o^(-m s) / o mod p. They are exact because
    0 <= a_m <= degree < p, and the matmul is exact in int64 because its
    entries are below p <= PRIME_BOUND = 10^6 and o <= |G| <= 5040, the
    element cap, so every dot product is below o * p^2 <= 5040 * 10^12 <
    2^63. A second (k x o)(o x phi) matmul maps the multiplicities onto the
    power basis.
    """
    k = part.k
    ctx = _context(e)
    out = np.empty((k, k, ctx.phi), dtype=np.int64)
    inverse_dft: dict[int, np.ndarray] = {}
    for j, rep in enumerate(part.reps()):
        orbit = g.powers(rep)
        o = len(orbit)
        if o not in inverse_dft:
            theta_o = pow(theta, e // o, p)
            twiddle = [1] * o
            for t in range(1, o):
                twiddle[t] = twiddle[t - 1] * theta_o % p
            s = np.arange(o)
            dft = np.array(twiddle, dtype=np.int64)[np.outer(s, -s) % o]
            inverse_dft[o] = dft * pow(o, -1, p) % p
        residues = c_rows[:, [part.class_of[x] for x in orbit]]
        mult = residues @ inverse_dft[o] % p
        over = np.argwhere(mult > degrees[:, None])
        if len(over):
            r, m = over[0].tolist()
            raise VerificationFailed(f"root-of-unity multiplicity {mult[r, m]} exceeds degree {degrees[r]}")
        out[:, j] = mult @ ctx.power_array[np.arange(o) * (e // o)]
    return out


def _absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _apply(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m over the last axis of x, in Python ints if a dot product could
    reach 2^63."""
    return _summable(x, m.shape[0], _absmax(x) * _absmax(m)) @ m


# (p, e) -> `_embeddings(p, e, units)`, so that a table of a known conductor
# looks up its theta instead of searching for a primitive root again
_EMBEDDINGS: dict[tuple[int, int], np.ndarray] = {}


def _embeddings(p: int, e: int, units: tuple[int, ...]) -> np.ndarray:
    """The (phi, phi) int64 matrix V[a, u] = theta^(a h_u) mod p, theta of
    order e mod p and h_u the units mod e: a vector of power-basis
    coordinates times V is its image under each embedding zeta -> theta^h_u
    of Z[zeta_e] into F_p."""
    v = _EMBEDDINGS.get((p, e))
    if v is None:
        theta = _primitive_root_of_unity(p, e)
        powers = [1] * e
        for m in range(1, e):
            powers[m] = powers[m - 1] * theta % p
        v = _EMBEDDINGS[(p, e)] = np.array(powers, dtype=np.int64)[np.outer(np.arange(len(units)), units) % e]
    return v


def _verify_table(
    g: FiniteGroup,
    part: ConjugacyPartition,
    degrees: list[int],
    x: np.ndarray,
) -> None:
    """Check the degree equation and the degrees' divisibility, then Galois
    equivariance and both orthogonality relations exactly on the (k, k, phi)
    coefficient array x, modulo the primes p = 1 (mod e) of the module
    docstring.

    The bound, with c = max|power_array|, which bounds every Galois map and
    the reduction of a product: a twisted cell minus a cell has coordinates
    at most (phi c + 1) max|x|. A product of a cell and a conjugated cell
    has 2 phi - 1 convolution coordinates of at most phi max|x| (phi c
    max|x|) each, reduced with weights up to c, and an orthogonality sum
    adds at most |G| of them, counted with the class sizes; its target is
    at most |G|. Every difference the check rules out is therefore at most
    B = 2 |G| phi^3 c^2 max|x|^2 + |G|, and the primes' product exceeds 2 B.
    """
    n, k = g.n, part.k
    if sum(d * d for d in degrees) != n:
        raise VerificationFailed(f"degree equation failed: {degrees} for |G|={n}")
    for d in degrees:
        if n % d != 0:
            raise VerificationFailed(f"degree {d} does not divide |G|={n}")
    e = g.exponent()
    ctx = _context(e)
    phi = ctx.phi
    big, c = _absmax(x), _absmax(ctx.power_array)
    primes, _ = _primes_for(max(k, phi), 2 * n * phi**3 * c * c * big * big + n, e)
    sizes = np.array(part.sizes(), dtype=np.int64)
    image = part.powers.T  # image[j, u]: the class of rep_j^(h_u)
    conj = part.units.index(-1 % e or 1)
    flat = x.reshape(k * k, phi)
    for p in primes:
        emb = ((flat % p).astype(np.int64, copy=False) @ _embeddings(p, e, part.units) % p).reshape(k, k, phi)
        bad = np.argwhere(emb != emb[:, image, 0])
        if len(bad):
            r, j, u = bad[0].tolist()
            raise VerificationFailed(
                f"twist by {part.units[u]} of row {r} at class {j} is not its value at class {image[j, u]}"
            )
        y, ybar = emb[:, :, 0], emb[:, :, conj]
        for name, got, want in (
            ("row", y * sizes % p @ ybar.T, np.diag(np.full(k, n))),
            ("column", y.T @ ybar, np.diag(n // sizes)),
        ):
            bad = np.argwhere(got % p != want % p)
            if len(bad):
                raise VerificationFailed("{} orthogonality failed at ({},{})".format(name, *bad[0].tolist()))


def character_table(
    g: FiniteGroup,
    part: ConjugacyPartition | None = None,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> CharacterTable:
    """Exact character table; deterministic for a given group.

    The central characters come from `_central_characters`, fed the class
    matrices of a generating set, then of the other classes ascending,
    each built by `class_matrices` only when the split reaches it; the
    degrees, the values mod p and their exact lifts follow as the module
    docstring says, and `_verify_table` checks the table.
    """
    if g.n > order_cap:
        raise ValueError(f"|G| = {g.n} exceeds the character-table cap {order_cap}")
    part = part or conjugacy_classes(g)
    if table_cells(part) > CELL_CAP:
        raise ValueError(f"|G| = {g.n} needs {table_cells(part)} table cells, above the cap {CELL_CAP}")
    k = part.k
    e = g.exponent()
    p = _find_prime(e, g.n, PRIME_BOUND)
    theta = _primitive_root_of_unity(p, e)
    # The central characters do not depend on the order of the classes. The
    # classes of a generating set go first: on an abelian group their class
    # sums generate the group algebra, so they alone separate every character.
    lead = generator_classes(g, part)
    order = [*lead, *sorted(set(range(1, k)) - set(lead))]
    omega = _central_characters((class_matrices(g, part, [(j,)])[0] % p for j in order), k, p)

    inv_sizes = np.array([pow(s, p - 2, p) for s in part.sizes()], dtype=np.int64)
    # sum_t omega(K_t) omega(K_t^-1) / |C_t| = |G| / chi(1)^2 mod p, and p^2 > 4|G|,
    # so d -> d^2 mod p is one-to-one on the possible degrees 1..sqrt(|G|)
    sums = (omega * omega[:, part.inverse_class] % p * inv_sizes % p).sum(axis=1) % p
    degree_of = {d * d % p: d for d in range(1, isqrt(g.n) + 1)}
    degrees = [degree_of.get(g.n * pow(s, p - 2, p) % p) for s in sums.tolist()]  # s = 0 gives 0, no d^2
    if None in degrees:
        raise VerificationFailed(f"recovered squared degree is not d^2 mod {p} for any d in 1..sqrt(|G|)")
    d = np.array(degrees, dtype=np.int64)
    x = _lift_values(omega * inv_sizes % p * d[:, None] % p, d, g, part, e, p, theta)

    order = sorted(range(k), key=lambda r: (degrees[r], x[r].ravel().tolist()))
    degrees = [degrees[r] for r in order]
    x = x[order]
    _verify_table(g, part, degrees, x)
    return CharacterTable(
        group=g,
        partition=part,
        conductor=e,
        prime=p,
        degrees=tuple(degrees),
        coeffs=x,
    )


# ---------------------------------------------------------------------------
# Rationality scans
# ---------------------------------------------------------------------------


def chi_plus_conj(table: CharacterTable) -> np.ndarray:
    """The (k, k, phi) coefficients of chi(g) + conj(chi(g)) for every cell."""
    x = table.coeffs
    return x + _apply(x, _context(table.conductor).conj_map)


# ---------------------------------------------------------------------------
# Dump / load (cache format for expensive tables)
# ---------------------------------------------------------------------------


def save_table(table: CharacterTable, path: str | Path) -> None:
    """Text dump: header, class data, then one row per character with each
    value as comma-joined integers over the power basis of Q(zeta_e)."""
    lines = [
        f"chartable {table.group.name.replace(' ', '_')} {table.k} {table.conductor}",
        "sizes " + " ".join(str(s) for s in table.class_sizes()),
        "reps " + " ".join(str(r) for r in table.reps()),
    ]
    for d, row in zip(table.degrees, table.coeffs.tolist()):
        vals = " ".join(",".join(map(str, cell)) for cell in row)
        lines.append(f"row {d} {vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_value(field: str, phi: int) -> list[int]:
    coeffs = field.split(",")
    if len(coeffs) != phi:
        raise ValueError(f"value {field!r} needs {phi} coefficients, got {len(coeffs)}")
    try:
        return [int(c) for c in coeffs]
    except ValueError:
        raise ValueError(f"value {field!r} has a non-integer coefficient; character values are algebraic integers") from None


def load_table(path: str | Path, g: FiniteGroup) -> CharacterTable:
    """Reload a dump produced by save_table; re-verifies before returning.

    A malformed dump (including a coefficient that is not an integer), or
    one of another group, raises ParseError, a ValueError that names the
    line; a well-formed table that fails an exact identity raises
    VerificationFailed. That includes a table that satisfies both
    orthogonality relations but is not Galois-equivariant, such as a true
    table with its columns permuted by a map that commutes with inversion
    but is not a power map. The coefficients take their dtype by the
    overflow rule, and are reduced mod each prime in Python ints when they
    are, so a huge coefficient is checked exactly.
    """
    with open(path, encoding="utf-8") as f:
        lines = list(_content_lines(f))
    part = conjugacy_classes(g)
    ln, degrees, cells = 1, [], []
    try:
        if not lines:
            raise ValueError("empty file")
        ln, header = lines[0]
        head = header.split()
        if len(head) != 4 or head[0] != "chartable":
            raise ValueError(f"expected 'chartable <name> <k> <conductor>', got {header!r}")
        k, e = int(head[2]), int(head[3])
        if (k, e) != (part.k, g.exponent()):
            raise ValueError("dump does not match the supplied group")
        phi = _context(e).phi
        if len(lines) != k + 3:
            ln = lines[-1][0]
            raise ValueError(f"expected sizes, reps and {k} rows, found {len(lines) - 1} lines")
        for (ln, line), tag in zip(lines[1:], ["sizes", "reps"] + ["row"] * k):
            fields = line.split()
            want = k + 1 + (tag == "row")
            if fields[0] != tag or len(fields) != want:
                raise ValueError(f"expected {tag!r} and {want - 1} fields, got {len(fields) - 1}")
            if tag == "row":
                degrees.append(int(fields[1]))
                if degrees[-1] < 1:
                    raise ValueError(f"degree {degrees[-1]} is not positive")
                for v in fields[2:]:
                    cells.extend(_parse_value(v, phi))
            elif tuple(map(int, fields[1:])) != (part.sizes() if tag == "sizes" else part.reps()):
                raise ValueError("dump does not match the supplied group")
    except ValueError as err:
        raise ParseError(ln, str(err)) from None
    x = exact_array(cells).reshape(k, k, phi)
    _verify_table(g, part, degrees, x)
    return CharacterTable(
        group=g,
        partition=part,
        conductor=e,
        prime=0,
        degrees=tuple(degrees),
        coeffs=x,
    )
