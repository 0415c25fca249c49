"""Command-line front end.

Commands: `spectrum` (exact eigenvalues of a Cayley colour graph),
`classify` (full per-group report), `chartable` (exact character table),
`audit` (catalog-wide implication and closure checks). Output is an aligned text report or
a single JSON document (`--format json`); identical configuration and seed
give byte-identical structured output.

Exit codes: spectrum 0 = integral, 1 = not integral; audit 0 = no findings,
3 = findings; 2 = usage or data error anywhere.

The one work limit on the command line is `--cap-chartable` (default
`chartable.DEFAULT_ORDER_CAP`), taken by the three commands that read it:
`chartable` refuses a larger group, and `classify` and `audit` skip its
character table, with a note; so they do above `chartable.CELL_CAP`
cells. Every other limit is a constant in `cayint.classify`; a route above
its limit is skipped and noted in the report's `caps_notes`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .catalog import ParamOutOfRange, ParseError, UnknownName, load_group, resolve_group
from .chartable import DEFAULT_ORDER_CAP, character_table, save_table
from .classify import ELEMENT_PREDICATES, ClassificationReport, classify_group, default_suite_groups, hierarchy_audit
from .groups import FiniteGroup, NotAGroup
from .linalg import SpectrumReport
from .spectra import (
    FIXTURE_GROUPS,
    ConnectionFunction,
    load_fixture,
    load_function,
    parse_set_tokens,
    spectrum_matrix,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _resolve_group(args: argparse.Namespace) -> FiniteGroup:
    if args.catalog and args.file:
        raise ParamOutOfRange("give exactly one of --catalog or --file")
    if args.catalog:
        return resolve_group(args.catalog)
    if args.file:
        return load_group(args.file)
    fixture = getattr(args, "fixture", None)
    if fixture in FIXTURE_GROUPS:
        return resolve_group([FIXTURE_GROUPS[fixture]])
    raise ParamOutOfRange("no group given: use --catalog or --file")


def _resolve_function(args: argparse.Namespace, g: FiniteGroup) -> ConnectionFunction:
    picked = [x for x in (args.set, args.function, args.fixture) if x]
    if len(picked) != 1:
        raise ParamOutOfRange("give exactly one of --set, --function, --fixture")
    if args.set:
        return parse_set_tokens(args.set, g).delta()
    if args.function:
        return load_function(args.function, g)
    name = args.fixture
    if name not in FIXTURE_GROUPS:
        raise ParamOutOfRange(f"unknown fixture {name!r}; available: {sorted(FIXTURE_GROUPS)}")
    f = load_fixture(name, g)
    expected = FIXTURE_GROUPS[name]
    if g.name.lower() != resolve_group([expected]).name.lower():
        print(
            f"note: fixture {name!r} is defined for catalog group {expected!r}; "
            f"applying it to {g.name} by element index",
            file=sys.stderr,
        )
    return f


def _spectrum_text(g: FiniteGroup, f: ConnectionFunction, rep: SpectrumReport) -> str:
    lines = [
        f"group      {g.name} (order {g.n})",
        f"function   {list(f.values)}",
        f"flags      symmetric={f.symmetric} class_function={f.class_function} in_F={f.in_f}",
        "eigenvalues",
    ]
    for v, m in rep.integer_eigenvalues:
        lines.append(f"  {v:>8}  multiplicity {m}")
    if rep.is_integral:
        lines.append("residual   1  (spectrum is fully integral)")
    else:
        lines.append(f"residual   {rep.factored_residual()}  (degree {rep.residual.degree}, no integer roots)")
    lines.append(f"integral   {'yes' if rep.is_integral else 'no'}")
    return "\n".join(lines)


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _resolve_group(args)
    f = _resolve_function(args, g)
    rep = spectrum_matrix(g, f)
    if args.format == "json":
        doc = {
            "command": "spectrum",
            "group": {"name": g.name, "order": g.n},
            "function": list(f.values),
            "flags": {
                "symmetric": f.symmetric,
                "class_function": f.class_function,
                "in_F": f.in_f,
            },
            "integer_eigenvalues": [[v, m] for v, m in rep.integer_eigenvalues],
            "residual": str(rep.residual),
            "residual_factors": [[str(p), m] for p, m in rep.residual_factors()],
            "is_integral": rep.is_integral,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        _emit(_spectrum_text(g, f, rep), args.out)
    return 0 if rep.is_integral else 1


def _classify_text(report: ClassificationReport) -> str:
    """One line per verdict, a predicate's followed by its report's TEXT."""
    doc = report.to_dict()
    lines = [f"group      {doc['name']} (order {doc['order']}, seed {doc['seed']})", "verdicts"]
    labels = dict(ELEMENT_PREDICATES)
    routes = {p.KEY: (p.LABEL, "   " + p.TEXT.format(**p.routes())) for p in report.predicates}
    for key, verdict in doc["verdicts"].items():
        label, text = routes.get(key, (labels.get(key, key), ""))
        lines.append(f"  {label:<23}{verdict}{text}")
    ev = doc["evidence"]
    interesting = {k: x for k, x in ev.items() if x not in (None, {}) and k != "seeds"}
    if interesting:
        lines.append("evidence")
        for k, x in interesting.items():
            lines.append(f"  {k}: {x}")
    if doc["discrepancies"]:
        lines.append("discrepancies")
        lines.extend(f"  ! {d}" for d in doc["discrepancies"])
    if doc["caps_notes"]:
        lines.extend(f"note: {c}" for c in doc["caps_notes"])
    return "\n".join(lines)


def cmd_classify(args: argparse.Namespace) -> int:
    g = _resolve_group(args)
    report = classify_group(g, chartable_cap=args.cap_chartable, seed=args.seed)
    if args.format == "json":
        _emit(json.dumps({"command": "classify", **report.to_dict()}, indent=2, sort_keys=True), args.out)
    else:
        _emit(_classify_text(report), args.out)
    return 0


def cmd_chartable(args: argparse.Namespace) -> int:
    g = _resolve_group(args)
    table = character_table(g, order_cap=args.cap_chartable)
    if args.save:
        save_table(table, args.save)
    if args.format == "json":
        doc = {
            "command": "chartable",
            "group": {"name": g.name, "order": g.n},
            "conductor": table.conductor,
            "prime": table.prime,
            "class_representatives": list(table.reps()),
            "class_sizes": list(table.class_sizes()),
            "degrees": list(table.degrees),
            "rows": table.cell_strings(),
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
        return 0
    cells = table.cell_strings()
    width = max(5, max(len(c) for row in cells for c in row))
    header = ["class rep "] + [f"{rep:>{width}}" for rep in table.reps()]
    sizes = ["class size"] + [f"{s:>{width}}" for s in table.class_sizes()]
    lines = [
        f"group {g.name} (order {g.n}), {table.k} classes, conductor {table.conductor}, prime {table.prime}",
        " ".join(header),
        " ".join(sizes),
    ]
    for d, row in zip(table.degrees, cells):
        lines.append(" ".join([f"deg {d:>5} "] + [f"{c:>{width}}" for c in row]))
    _emit("\n".join(lines), args.out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    if args.catalog or args.file:
        groups = [_resolve_group(args)]
    elif args.suite == "default":
        groups = default_suite_groups()
    else:
        raise ParamOutOfRange(f"unknown suite {args.suite!r}; only 'default' is built in")
    audit = hierarchy_audit(groups, chartable_cap=args.cap_chartable, seed=args.seed)
    if args.format == "json":
        _emit(json.dumps({"command": "audit", **audit.to_dict()}, indent=2, sort_keys=True), args.out)
        return audit.exit_code
    lines = [f"audit of {len(audit.reports)} group(s), seed {audit.seed}", ""]
    for rep in audit.reports:
        flags = " ".join(f"{k}={'T' if val else 'F'}" for k, val in rep.verdicts().items())
        lines.append(f"  {rep.name:<12} order {rep.order:>4}  {flags}")
    lines.append("")
    lines.append(f"chain violations    {len(audit.chain_violations)}")
    lines.extend(f"  ! {c}" for c in audit.chain_violations)
    lines.append(f"closure checks      {len(audit.closure_checks)} run, "
                 f"{len(audit.closure_violations)} violation(s)")
    lines.extend(f"  ! {c}" for c in audit.closure_violations)
    lines.append(f"findings            {len(audit.findings)}")
    lines.extend(f"  ! {f}" for f in audit.findings)
    lines.append("notes")
    lines.extend(f"  * {n}" for n in audit.notes)
    lines.append("")
    lines.append(f"exit code {audit.exit_code}")
    _emit("\n".join(lines), args.out)
    return audit.exit_code


def _add_group_source(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--catalog",
        nargs="+",
        metavar="TOKEN",
        help="catalog group, e.g. `--catalog s3`, `--catalog cyclic 6`, `--catalog q8 x cyclic 3`",
    )
    p.add_argument("--file", help="group file in the documented text format")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomized searches")


def _add_chartable_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cap-chartable",
        type=int,
        default=DEFAULT_ORDER_CAP,
        metavar="N",
        help="largest group order that gets a character table (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayint",
        description="Exact integrality analysis of Cayley and Cayley colour graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact spectrum of one Cayley colour graph")
    _add_group_source(p)
    p.add_argument("--set", help="connection set as comma-separated element indices, e.g. 1,5")
    p.add_argument("--function", help="colour function file in the `f <n>` format")
    p.add_argument("--fixture", help="built-in colour function: alpha (on s3) or beta (on dicyclic12)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("classify", help="full classification report for one group")
    _add_group_source(p)
    _add_common(p)
    _add_chartable_cap(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chartable", help="exact character table of one group")
    _add_group_source(p)
    p.add_argument("--save", help="also write the reloadable table dump to this path")
    _add_common(p)
    _add_chartable_cap(p)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("audit", help="classify a catalog and check the implication chain and closure properties")
    _add_group_source(p)
    p.add_argument("--suite", default="default", help="named catalog suite (default: 'default')")
    _add_common(p)
    _add_chartable_cap(p)
    p.set_defaults(func=cmd_audit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` keeps no state
    between calls, and every option's default is immutable."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        UnknownName,
        ParamOutOfRange,
        ParseError,
        NotAGroup,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
