"""Exact integrality analysis of Cayley and Cayley colour graphs on finite groups."""

from .groups import (
    Atom,
    ConjugacyPartition,
    FiniteGroup,
    NotAGroup,
    NotNormal,
    atom,
    build_group,
    center,
    conjugacy_classes,
    direct_product,
    generated_subgroup,
    is_nilpotent,
    quotient,
)
from .catalog import catalog, load_group, resolve_group, save_group
from .linalg import (
    IntMatrix,
    IntPolynomial,
    NotAUnit,
    SpectrumReport,
    charpoly,
    integer_spectrum,
)

__version__ = "0.1.0"
