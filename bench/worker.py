"""One workload run in a fresh process; started by `run.py`, not by hand.

Set-up is importing `cayint` from `src/` and generating the workload's
inputs; the worker prints `ready` when it ends, so the parent can time it.
It then runs the workload's round of ops closed-loop, one in-process
`cayint.cli.main` call at a time, and checks every output after each round,
outside the timed region. The last stdout line is a JSON result.

Untraced (`--trace 0`): whole rounds back to back while the next round still
fits in `--seconds` (at least one). Traced (`--trace 1`): one untraced round,
then one round with every layer wrapped by the tracer; the spans are written
to `.bench_work/spans-<workload>.jsonl` as [name, start, end, parent, op,
attrs] when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = Path(".bench_work")
MAX_ERRORS = 5


def run_round(cli, ops, workdir: Path, tracer=None) -> tuple[float, list[tuple[int | None, float, Path, str | None]]]:
    """Run every op once; return the round's wall time and per-op results."""
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out = workdir / f"out{i}.json"
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            rc, err = cli.main([*op.argv, "--format", "json", "--out", str(out)]), None
        except SystemExit as exc:
            rc, err = None, f"exited with {exc.code}"
        except Exception:
            rc, err = None, traceback.format_exc(limit=3)
        results.append((rc, time.perf_counter() - t0, out, err))
    return time.perf_counter() - start, results


def check_round(checker, ops, results, errors: list[str]) -> int:
    """Check each op's output; return the number of failed ops."""
    failed = 0
    for op, (rc, _, out, err) in zip(ops, results):
        if err is None:
            try:
                doc = json.loads(out.read_text(encoding="utf-8"))
                problems = checker.errors(op, rc, doc)
            except Exception as exc:  # malformed output must fail the op, not the run
                problems = [f"output could not be checked: {exc!r}"]
            out.unlink(missing_ok=True)
        else:
            problems = [err]
        if problems:
            failed += 1
            errors.extend(f"{op.name}: {p}" for p in problems[:MAX_ERRORS])
    return failed


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH_DIR)]
    import cayint.cli as cli
    from workloads import build_ops

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        ops, functions = build_ops(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(cli, ops, functions, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(cli, ops, functions, workdir: Path, args) -> dict:
    from check import Checker, load_reference

    checker = Checker(load_reference(), functions)
    errors: list[str] = []
    attempted = failed = 0

    def checked_round(tracer=None) -> tuple[float, list[float]]:
        nonlocal attempted, failed
        if tracer is None:
            wall, results = run_round(cli, ops, workdir)
        else:
            tracer.install()
            try:
                wall, results = run_round(cli, ops, workdir, tracer)
            finally:
                tracer.uninstall()
        attempted += len(results)
        failed += check_round(checker, ops, results, errors)
        return wall, [r[1] for r in results]

    if args.trace:
        from tracer import Tracer, layer_metrics

        untraced_wall, _ = checked_round()
        tracer = Tracer()
        traced_wall, _ = checked_round(tracer)
        metrics = layer_metrics(tracer.spans, traced_wall, untraced_wall)
        spans_path = WORK_ROOT / f"spans-{args.workload}.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.op, sp.attrs]) + "\n")
        extra = {"rounds": 1, "ops_per_round": len(ops), "spans": len(tracer.spans), "spans_file": str(spans_path)}
    else:
        walls: list[float] = []
        latencies: list[float] = []
        while True:
            wall, lat = checked_round()
            walls.append(wall)
            latencies.extend(lat)
            if sum(walls) + wall > args.seconds:
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (percentile(latencies, 50), "s"),
            "op_p90_s": (percentile(latencies, 90), "s"),
            "peak_rss_mb": (peak_mb, "MiB"),
        }
        extra = {"rounds": len(walls), "ops_per_round": len(ops), "latency_samples": len(latencies)}
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:MAX_ERRORS * 4],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
