"""Benchmark of `cayint`: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload audit --repeat 10       # seeds 0..9, quartiles

Each run starts a fresh worker process (`worker.py`), so peak memory belongs
to one workload. One client, closed loop: each op is one in-process
`cayint.cli.main` call, and the next starts when it returns. Every output is
checked (`check.py`) outside the timed region; a failed check, an exception
or a wrong exit code counts the op as failed.

`setup_s` is the time from starting a fresh process to its first op:
importing `cayint` and generating the inputs. It is the median of
SETUP_SAMPLES fresh processes, the worker included. The last stdout line is
one JSON object with the keys `correct`, `attempted`, `failed`, `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    """A worker did not produce a result in time."""


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time (until it prints its first
    line, `ready`) and its parsed result line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    setup = None
    buf = b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RunFailed("worker timed out")
            data = os.read(fd, 1 << 16)
            if not data:
                break
            buf += data
            if setup is None and b"\n" in buf:
                setup = time.perf_counter() - start
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = buf.decode().strip().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise RunFailed(f"worker exited with {proc.returncode} before finishing")
    return setup, json.loads(lines[-1]) if len(lines) > 1 else None


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker([*argv, "--setup-only"], deadline)[0])
    setup, result = run_worker(argv, deadline)
    if result is None:
        raise RunFailed("worker printed no result")
    setups.append(setup)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def print_human(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"fail_ratio {result['failed'] / result['attempted']:.3f}, rounds {result['rounds']}, "
          f"{result['ops_per_round']} ops per round")
    if "latency_samples" in result:
        print(f"   op percentiles over {result['latency_samples']} samples")
    if "spans_file" in result:
        print(f"   {result['spans']} spans written to {result['spans_file']}")
    for name, m in result["metrics"].items():
        print(f"   {name:<46} {m['value']:>14.6g} {m['unit']}")
    for err in result["errors"]:
        print(f"   ! {err}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+k-1")
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "cayint" / "__init__.py").is_file():
        print("error: run from a checkout of the repository: src/cayint is missing", file=sys.stderr)
        return 2
    if args.repeat < 1:
        p.error("--repeat must be at least 1")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for k in range(args.repeat):
            try:
                result = run_once(workload, args.seed + k, args.seconds, args.trace)
            except RunFailed as exc:
                print(f"error: {workload}: {exc}", file=sys.stderr)
                return 1
            print_human(workload, result)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            summary[key] = {"value": med, "unit": units[name]}
            if args.repeat > 1:
                spread = (q3 - q1) / med if med else 0.0
                summary[key].update(q1=q1, q3=q3, spread=spread)
                print(f"   {key:<46} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
