"""Reference implementations that the production kernels are tested against.

`berkowitz` is the division-free Berkowitz recurrence on Python integers that
`linalg.charpoly` used before the multi-modular kernel; `integer_roots_scan`
is `integer_spectrum`'s candidate scan without the divisibility filter;
`fcci_spectra_direct` is FCCI's exhaustive spectral route as it ran before
it was read off the normal-set survey.
"""

from __future__ import annotations

from operator import mul as _mul

from cayint.groups import ConjugacyPartition, FiniteGroup
from cayint.linalg import IntMatrix, IntPolynomial
from cayint.spectra import ConnectionFunction, spectrum_matrix


def berkowitz(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M), by Berkowitz.

    The recurrence extends the characteristic vector of each leading
    principal submatrix by a lower-triangular Toeplitz multiply whose
    column entries are -R A^j S for the new border row R and column S.
    Division-free, so all intermediates stay integers.
    """
    rows = m.entries
    n = m.n
    if n == 0:
        return IntPolynomial((1,))
    # c holds coefficients of the leading r x r charpoly, descending powers.
    c = [1, -rows[0][0]]
    for r in range(1, n):
        border = rows[r]
        t = [1, -border[r]]
        u = [rows[i][r] for i in range(r)]
        for _ in range(r - 1):
            # map/zip truncate at len(u) == r, giving the leading-submatrix action
            t.append(-sum(map(_mul, border, u)))
            u = [sum(map(_mul, rows[i], u)) for i in range(r)]
        t.append(-sum(map(_mul, border, u)))
        out = [0] * (r + 2)
        for j, cj in enumerate(c):
            if cj:
                for i in range(min(len(t), r + 2 - j)):
                    out[i + j] += t[i] * cj
        c = out
    return IntPolynomial(tuple(reversed(c)))


def integer_roots_scan(p: IntPolynomial, bound: int) -> tuple[tuple[int, int], ...]:
    """Integer roots of a monic p with multiplicity, descending, by trying
    every integer in [-bound, bound] with synthetic division."""
    found: dict[int, int] = {}
    work = p
    for r in range(bound, -bound - 1, -1):
        while work.degree > 0:
            q, rem = work.shift_root(r)
            if rem != 0:
                break
            work = q
            found[r] = found.get(r, 0) + 1
    return tuple(sorted(found.items(), key=lambda kv: -kv[0]))


def fcci_spectra_direct(
    g: FiniteGroup, part: ConjugacyPartition
) -> tuple[bool, int, tuple[int, ...] | None]:
    """Every 0/1 function on real classes, the identity's included, by
    ascending bitmask (bit i selects `part.real_classes[i]`), until the first
    non-integral spectrum: (all integral, spectra computed, that function)."""
    orbits = part.real_classes
    for take in range(1 << len(orbits)):
        class_values = [0] * part.k
        for i, orbit in enumerate(orbits):
            if take >> i & 1:
                for j in orbit:
                    class_values[j] = 1
        f = ConnectionFunction.from_class_values(g, part, class_values)
        if not spectrum_matrix(g, f).is_integral:
            return False, take + 1, f.values
    return True, 1 << len(orbits), None
