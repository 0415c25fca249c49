"""Write `reference.json`: the verdicts, character degrees and class sizes
that the benchmark's checker compares against.

Run from the repository root: `python3 bench/make_reference.py`. The file
in the repository was taken when the benchmark was defined; regenerate it
only when a change is meant to alter one of these results, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH_DIR)]
    from cayint.cli import main as cayint_main

    from check import REFERENCE_PATH, audit_reference, chartable_reference, reference_entry
    from workloads import STRUCTURE_OPS

    def run(argv: list[str]) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.json"
            cayint_main([*argv, "--format", "json", "--out", str(out)])
            return json.loads(out.read_text(encoding="utf-8"))

    ref: dict = {"audit": audit_reference(run(["audit", "--seed", "0"])), "chartable": {}, "classify": {}}
    for op in STRUCTURE_OPS:
        doc = run(list(op.argv))
        key = " ".join(op.group)
        if op.kind == "chartable":
            ref["chartable"][key] = chartable_reference(doc)
        else:
            ref["classify"][key] = reference_entry(doc)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
