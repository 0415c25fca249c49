"""Exact integrality analysis of Cayley and Cayley colour graphs on finite groups."""

from .groups import (
    Atom,
    ConjugacyPartition,
    FiniteGroup,
    NotAGroup,
    NotNormal,
    PowerMap,
    atom,
    build_group,
    center,
    conjugacy_classes,
    direct_product,
    generated_subgroup,
    is_nilpotent,
    power_map,
    quotient,
)
from .catalog import catalog, load_group, resolve_group, save_group
from .linalg import (
    Cyclotomic,
    IntMatrix,
    IntPolynomial,
    NotAUnit,
    NotRational,
    SpectrumReport,
    charpoly,
    cyclotomic_polynomial,
    integer_spectrum,
)

__version__ = "0.1.0"
