#!/usr/bin/env python3
"""Benchmark of the radfiner inference, evaluation and training paths.

Run from the repository root:

    python3 perfbench/run.py --workload infer-crowded --seed 9 --seconds 20 --trace 0

Workloads: infer-crowded, eval-sparse, train-desk (see perfbench/README.md).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
A report goes to standard output; its last line is the result object
{"correct", "attempted", "failed", "metrics"}.  The program under test is
imported from src/ of the same checkout; without it the run exits 2.
"""

import os

# Pinned before numpy loads OpenBLAS; the record reports what took effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("infer-crowded", "eval-sparse", "train-desk")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=_non_negative)
    p.add_argument("--seconds", required=True, type=_positive)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "radfiner" / "__init__.py",
                           ROOT / "configs" / "bench.cfg", ROOT / "configs" / "desk.cfg")
               if not p.is_file()]
    if missing:
        print(f"no radfiner checkout at {ROOT}: missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import run_benchmark

    work_root = ROOT / ".bench_work"
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           root=ROOT,
                           work_dir=work_root / f"{args.workload}-{os.getpid()}")
    try:
        work_root.rmdir()  # only when no other run still uses it
    except OSError:
        pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
