"""Workload definitions and the seeded input generator.

A workload is a fixed list of operations (one "round"). Each operation is a
`cayint` CLI argument list; the benchmark runs it in-process through
`cayint.cli.main` with `--format json --out <file>` appended. Only the
`spectrum` workload depends on the seed: it draws colour functions and
writes them as `f <n>` files, which are the only inputs the program sees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("audit", "spectrum", "structure")


@dataclass(frozen=True)
class Op:
    """One CLI call, the exit codes it may return, and what to check."""

    argv: tuple[str, ...]
    kind: str                         # audit | spectrum | chartable | classify
    group: tuple[str, ...] = ()       # catalog tokens of the group, if any
    exit_codes: tuple[int, ...] = (0,)
    label: str = ""

    @property
    def name(self) -> str:
        return self.label or " ".join(self.argv)


# All of order 48-60, so that per-op latencies form one cluster: a mix with
# half the ops at n <= 30 put the median between two clusters.
SPECTRUM_GROUPS: tuple[tuple[str, ...], ...] = (
    ("alternating", "5"),
    ("symmetric", "4", "x", "cyclic", "2"),
    ("dihedral", "24"),
    ("dicyclic", "12"),
    ("q8", "x", "s3"),
)
FUNCTION_KINDS = ("class01", "classint", "set01", "colour")
DRAWS_PER_KIND = 5

# About 10 s per round when the benchmark was defined, so a 35 s run takes
# the median of three rounds: a short round repeated is steadier than one
# long round, whose time drifts with the load on a shared machine.
STRUCTURE_OPS: tuple[Op, ...] = tuple(
    Op(("chartable", "--catalog", *tokens), "chartable", tokens)
    for tokens in (
        ("symmetric", "6"),
        ("alternating", "6"),
        ("q8", "x", "symmetric", "4"),
        ("dicyclic", "15"),
        ("dihedral", "40"),
    )
) + (
    # Above the (lowered) character-table cap: group building and the
    # structural routes only, no character table and no charpoly.
    Op(
        ("classify", "--catalog", "cyclic", "1260", "--cap-chartable", "1000"),
        "classify",
        ("cyclic", "1260"),
    ),
)


def inverse_pairs(g) -> list[tuple[int, ...]]:
    """Non-identity elements grouped as {x, x^-1}, ordered by least member."""
    pairs, seen = [], set()
    for x in range(1, g.n):
        if x not in seen:
            pair = tuple(sorted({x, g.inv[x]}))
            seen.update(pair)
            pairs.append(pair)
    return pairs


def draw_function(kind: str, g, part, rng: random.Random) -> list[int]:
    """One symmetric colour function, constant on each cell: real-class
    orbits for the class kinds, inverse pairs for the others.

    The 0/1 kinds switch on exactly half of their cells, so that the work
    per op varies less from seed to seed.
    """
    if kind not in FUNCTION_KINDS:
        raise ValueError(f"unknown function kind {kind!r}")
    if kind.startswith("class"):
        orbits = [o for o in part.real_classes if kind == "classint" or o != (0,)]
        cells = [[x for j in orbit for x in part.classes[j]] for orbit in orbits]
    else:
        cells = inverse_pairs(g)
    if kind in ("class01", "set01"):
        on = set(rng.sample(range(len(cells)), len(cells) // 2))
        levels = [int(i in on) for i in range(len(cells))]
    else:
        low = -9 if kind == "classint" else 0
        levels = [rng.randint(low, 9) for _ in cells]
    values = [0] * g.n
    for cell, v in zip(cells, levels):
        for x in cell:
            values[x] = v
    return values


def function_text(values: list[int]) -> str:
    body = "\n".join(str(v) for v in values)
    return f"f {len(values)}\n{body}\n"


def spectrum_ops(seed: int, workdir: Path) -> tuple[list[Op], dict[str, list[int]]]:
    """Write the seeded colour-function files and return the shuffled ops
    with the values of each file, keyed by path."""
    from cayint.catalog import resolve_group
    from cayint.groups import conjugacy_classes

    rng = random.Random(f"cayint-bench:{seed}")
    ops: list[Op] = []
    functions: dict[str, list[int]] = {}
    for gi, tokens in enumerate(SPECTRUM_GROUPS):
        g = resolve_group(list(tokens))
        part = conjugacy_classes(g)
        for kind in FUNCTION_KINDS:
            for draw in range(DRAWS_PER_KIND):
                values = draw_function(kind, g, part, rng)
                path = workdir / f"g{gi}_{kind}_{draw}.fn"
                path.write_text(function_text(values), encoding="utf-8")
                functions[str(path)] = values
                ops.append(
                    Op(
                        ("spectrum", "--catalog", *tokens, "--function", str(path)),
                        "spectrum",
                        tokens,
                        exit_codes=(0, 1),
                        label=f"spectrum {g.name} {kind} #{draw}",
                    )
                )
    rng.shuffle(ops)
    return ops, functions


def build_ops(workload: str, seed: int, workdir: Path) -> tuple[list[Op], dict[str, list[int]]]:
    """The round of operations for a workload, after writing its inputs."""
    if workload == "audit":
        return [Op(("audit", "--seed", str(seed)), "audit", exit_codes=(3,))], {}
    if workload == "spectrum":
        return spectrum_ops(seed, workdir)
    if workload == "structure":
        return list(STRUCTURE_OPS), {}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
