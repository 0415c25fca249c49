"""Representations stay behind their modules. The multiplication table
stays behind `groups`: no other module of `cayint` except `catalog`, which
builds and saves tables, reads an attribute named `table`. The integer
matrix array stays behind `linalg`, which alone chooses between int64 and
Python ints: no other module reads an attribute named `entries`. A
cyclotomic number has one form, its integer power-basis coordinates: no
module of `cayint` names `Fraction` or `Cyclotomic`, the rational
arithmetic that lives on in `tests/oracle.py` as the reference. There are
two charpoly engines. The Hessenberg kernel, `linalg._charpoly_stack`, runs
modulo one prime and is called only from `charpoly_mod`, the one entry
point that the character tables, the normal-set survey and the exact
`charpoly` (a test oracle) go through; the multi-modular batch
`charpolys` lives on only in `tests/oracle.py`, and the survey decides
its orbits without an integer charpoly or the scan of `integer_spectrum`.
The power-sum engine serves every Cayley colour graph adjacency matrix,
and `spectra` no longer names `charpoly`. It has one Krylov routine,
`_krylov`, and two read-outs of its sequence, which only
`spectra.spectrum_matrix` calls: the Newton read-out,
`linalg.cayley_charpoly`, whose `_newton_mod` serves only it and its
one-prime stack form `cayley_charpoly_mod`, which only the CI brute force
calls (the sweep reads no exact spectrum); and the minimal-polynomial
read-out, `linalg.minpoly_spectrum`, whose Berlekamp-Massey kernel
`_massey` serves only its certified residues. One routine, `linalg.integral_spectra`,
decides integrality from residues mod one prime and an exact product, for
the survey's orbits and the CI sweep's sets alike. The one 2^r
enumeration of subsets, `classify._subsets`, serves only the CI brute force
over inverse pairs: the normal-set survey decides its unions orbit by orbit.
The walks over a group check its generating set, `FiniteGroup.gens`, which
`groups` alone reads and `catalog` only passes on; so does the test of a
colour function for constancy on classes (`groups.conjugation_invariant`),
which builds no partition. The all-pairs commutator walk
`groups._commutators` serves only `FiniteGroup.commutators`, and the one
binary search over permutations, in `catalog._perm_table`, ranks the
generators' rows alone. Elimination over a prime field has one
routine, `linalg.eliminate_mod`, which serves the character tables and the
normal-set survey's rank; the pure-Python `rref_mod` and `kernel_mod` it
replaced live on only in `tests/oracle.py`. The unit power maps on the
classes are built once per partition: only `groups.conjugacy_classes`
calls their builder, `groups._unit_power_classes`, and every other reader
takes them from `ConjugacyPartition.powers`. A character table has one
verifier, `chartable._verify_table`, reached from `character_table` and
`load_table`; it works modulo primes, and the exact orthogonality sums in
Z[zeta_e] (`_pair_sums`, and the reduction of a product of two power-basis
vectors they rest on) live on only in `tests/oracle.py`. The class-sum
matrices have one builder, `chartable.class_matrices`, which the
character table and the normal-set survey call for themselves:
`classify_group` hands its routes only the partition, the table and the
survey. chi + conj(chi) is decided once, as NCI's character route: in
`classify` only `nci_report` names `chi_plus_conj`, and it builds no
colour function on all of G. The roots of residue polynomials mod a prime
over integer ranges have one routine, `linalg.roots_mod`, which serves
`integral_spectra`, `integer_spectrum` and the character tables'
`_eigenspaces`; the per-point mask `vanishes_mod`, the screen `_screened`
and the per-character rows (`gamma_chi_conj_check`, `CharColourRow`,
`chi_plus_conj_integral`) are gone. No module of `cayint` imports a name
it does not use. No module of `cayint` names sympy: the non-integral
residual splits into squarefree parts in Python ints
(`linalg.squarefree_factorization`), so importing `cayint.cli` and every
run, those that factor a residual too, leave sympy unloaded."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayint

TABLE_OWNERS = {"groups.py", "catalog.py"}
SRC = Path(cayint.__file__).parent
TESTS = Path(__file__).parent


def _reads(attr: str, owners: set[str]) -> list[str]:
    """Every read of attribute `attr` in a `cayint` module outside `owners`."""
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= owners | {"spectra.py", "chartable.py", "classify.py"}
    return [
        f"{path.name}:{node.lineno}"
        for path in modules
        if path.name not in owners
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_only_groups_and_catalog_read_the_table():
    assert _reads("table", TABLE_OWNERS) == []


def test_only_linalg_reads_matrix_entries():
    assert _reads("entries", {"linalg.py"}) == []


def test_table_path_never_names_fraction():
    banned = {"Fraction", "Cyclotomic"}
    uses = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                {node.id} if isinstance(node, ast.Name)
                else {node.attr} if isinstance(node, ast.Attribute)
                else {node.name, node.asname} if isinstance(node, ast.alias)
                else {node.name} if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                else set()
            )
            uses.extend(f"{path.name}:{node.lineno}:{name}" for name in sorted(names & banned))
    assert uses == []


def _referrers(name: str, *, attributes_only: bool = False) -> set[str]:
    """`module:function` for every reference to `name` in a `cayint` module
    (only as an attribute with `attributes_only`), by innermost enclosing
    function (`<module>` outside any)."""
    found: set[str] = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Name) and node.id == name and not attributes_only) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.add(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def _defined(names: set[str]) -> set[str]:
    """`module:function` for every function named in `names`, defined in a
    `cayint` module or a test file."""
    return {
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in names
    }


def _named() -> set[str]:
    """Every name and attribute a `cayint` module reads or binds."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_charpoly_kernel_has_one_batched_entry():
    assert _referrers("_charpoly_stack") == {"linalg.py:charpoly_mod"}
    assert _defined({"charpolys"}) == {"oracle.py:charpolys"}
    assert "charpolys" not in _named()


def test_survey_decides_orbits_without_integer_charpolys():
    survey = {"classify.py:normal_set_survey", "classify.py:_integral_orbits"}
    for name in ("integer_spectrum", "IntMatrix", "charpoly", "_crt_lift"):
        assert not _referrers(name) & survey, name
    assert _referrers("charpoly_mod") & survey == {"classify.py:_integral_orbits"}


def test_ci_sweep_reads_no_exact_spectrum():
    sweep = {"classify.py:ci_report", "classify.py:check_subsets"}
    for name in ("spectrum_matrix", "ConnectionFunction", "cayley_charpoly", "integer_spectrum", "_crt_lift"):
        assert not _referrers(name) & sweep, name
    assert _referrers("cayley_charpoly_mod") == {"classify.py:check_subsets"}


def test_power_sum_engine_has_one_krylov_routine_and_two_read_outs():
    newton = {"linalg.py:cayley_charpoly", "linalg.py:cayley_charpoly_mod"}
    minpoly = {"linalg.py:_certified_minpolys"}
    assert _referrers("_krylov") == newton | minpoly | {"linalg.py:_krylov"}  # and its per-prime chunks
    assert _referrers("_diagonal") == newton | minpoly
    assert _referrers("_newton_mod") == newton
    assert _referrers("_massey") == minpoly
    assert _referrers("minpoly_spectrum") == {"spectra.py:spectrum_matrix"}
    assert _referrers("pair_quotient") == {"spectra.py:spectrum_matrix"}


def test_integrality_decision_has_one_routine():
    assert _defined({"integral_spectra"}) == {"linalg.py:integral_spectra"}
    assert _referrers("integral_spectra") == {"classify.py:_integral_orbits", "classify.py:check_subsets"}


def test_constancy_on_classes_needs_no_partition():
    # the constructors of `ConnectionFunction` and `ConnectionSet`, which build no partition
    assert _referrers("conjugation_invariant") == {"spectra.py:__init__"}
    assert "spectra.py:__init__" not in _referrers("conjugacy_classes")


def test_adjacency_charpolys_have_one_engine():
    assert _referrers("cayley_charpoly") == {"spectra.py:spectrum_matrix"}
    assert not {where for where in _referrers("charpoly") if where.startswith("spectra.py:")}
    spectra = ast.parse((SRC / "spectra.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(spectra) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "charpoly" not in imported


def test_subset_enumeration_serves_only_the_ci_brute_force():
    assert _referrers("_subsets") == {"classify.py:ci_report"}


def test_unit_power_maps_are_built_only_with_the_partition():
    assert _referrers("_unit_power_classes") == {"groups.py:conjugacy_classes"}


def test_all_pairs_commutator_walk_serves_only_the_commutator_set():
    assert _referrers("_commutators") == {"groups.py:commutators"}


def test_binary_search_only_ranks_permutation_generator_rows():
    assert _referrers("searchsorted") == {"catalog.py:_perm_table"}


def test_generating_set_is_read_in_groups_and_passed_on_in_catalog():
    readers = _referrers("gens", attributes_only=True)
    assert {where for where in readers if not where.startswith("groups.py:")} == {"catalog.py:elementary_product"}


def test_elimination_has_one_routine():
    old = {"_rref_mod", "_kernel_mod", "rref_mod", "kernel_mod"}
    assert _defined(old) == {"oracle.py:rref_mod", "oracle.py:kernel_mod"}
    assert not _named() & old
    users = _referrers("eliminate_mod")
    assert {where.split(":")[0] for where in users} == {"chartable.py", "classify.py"}
    assert {where for where in users if where.startswith("classify.py:")} == {"classify.py:normal_set_survey"}


def test_integer_orthogonality_sums_live_only_in_the_oracle():
    sums = {"_pair_sums", "verify_table_integer"}
    assert _defined(sums) == {"oracle.py:_pair_sums", "oracle.py:verify_table_integer"}
    assert not _named() & (sums | {"reduction", "convolve"})


def _names_in(module: str, function: str) -> set[str]:
    """Every name, attribute, argument and keyword that function `function`
    of `cayint` module `module` reads or binds."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    (fn,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function]
    return {
        getattr(node, field)
        for node in ast.walk(fn)
        for field in ("id", "attr", "arg")
        if isinstance(getattr(node, field, None), str)
    }


def test_class_matrices_have_one_builder_called_where_they_are_used():
    # the pure-Python reference in the oracle aside
    assert _defined({"class_matrices"}) == {"chartable.py:class_matrices", "oracle.py:class_matrices"}
    assert _referrers("class_matrices") == {"chartable.py:character_table", "classify.py:normal_set_survey"}
    assert not _names_in("classify.py", "classify_group") & {"class_matrices", "mats"}


def test_chi_plus_conj_is_named_in_classify_only_by_nci_report():
    readers = {where for where in _referrers("chi_plus_conj") if where.startswith("classify.py:")}
    assert readers == {"classify.py:nci_report"}
    assert not _names_in("classify.py", "nci_report") & {"ConnectionFunction", "integrality_by_criterion"}


def test_roots_mod_serves_the_three_root_screens():
    assert _defined({"roots_mod"}) == {"linalg.py:roots_mod"}
    assert _referrers("roots_mod") == {
        "linalg.py:integral_spectra",
        "linalg.py:integer_spectrum",
        "chartable.py:_eigenspaces",
    }


def test_retired_names_are_gone():
    retired = {
        "vanishes_mod",
        "_screened",
        "gamma_chi_conj_check",
        "CharColourRow",
        "chi_plus_conj_integral",
        "__pow__",
        "eigenvalue_sum",
        "reconstruct",
        "_krylov_diagonal",
    }
    defined = {
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not (defined | _named()) & retired


def _unused_imports(path: Path) -> list[str]:
    """`module:name` for every name the module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{name}" for name in sorted(imported - read)]


def test_no_module_imports_a_name_it_does_not_use():
    # `__init__` imports the package's public names for its users
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def test_chartable_has_one_verifier():
    tree = ast.parse((SRC / "chartable.py").read_text(encoding="utf-8"))
    verifiers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and "verif" in node.name}
    assert verifiers == {"_verify_table"}
    assert _referrers("_verify_table") == {"chartable.py:character_table", "chartable.py:load_table"}


def _sympy_uses() -> set[str]:
    """`module:function` for every import of sympy and every name `sympy`
    in a `cayint` module, by innermost enclosing function."""
    found: set[str] = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        names = (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else [node.id] if isinstance(node, ast.Name)
            else []
        )
        if any(name.split(".")[0] == "sympy" for name in names):
            found.add(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def test_no_module_names_sympy():
    assert _sympy_uses() == set()


def _loads_sympy(*argv: str) -> bool:
    """Whether a fresh interpreter that imports `cayint.cli`, then runs
    `main(argv)` if argv is given, ends with sympy imported."""
    run = "cli.main(sys.argv[1:])\n" if argv else ""
    code = f"import sys\nimport cayint.cli as cli\n{run}print('sympy' in sys.modules)"
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return done.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("chartable", "--catalog", "symmetric", "6"),
        ("classify", "--catalog", "cyclic", "1260", "--cap-chartable", "1000"),
        ("spectrum", "--catalog", "cyclic", "6", "--set", "1,5"),  # integral: no residual to factor
    ],
    ids=["import", "chartable", "classify", "integral spectrum"],
)
def test_runs_that_factor_no_residual_leave_sympy_unloaded(argv):
    assert not _loads_sympy(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--catalog", "s3", "--fixture", "alpha"),  # the residual (x^2 + 2x - 12)^2
        ("audit", "--seed", "0"),  # S5's CCI witness and the fixtures' residuals
        ("classify", "--catalog", "symmetric", "5"),  # S5's CCI witness residual, of degree 118
    ],
    ids=["non-integral spectrum", "audit", "classify S5"],
)
def test_runs_that_factor_a_residual_leave_sympy_unloaded(argv):
    assert not _loads_sympy(*argv)
