#!/usr/bin/env python3
"""Write reference_losses.json: the final training loss of the first
train-desk op for each seed and scale, as the current program computes it.

    python3 perfbench/make_reference.py

The stored values are the reference a later program must reproduce within
workloads.LOSS_RTOL, so regenerate them only when the train-desk inputs
change, never to absorb a change of the program's numerics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 100  # seeds 0..99; a train-desk run on another seed replays seed 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_FILE, SCALES, TrainDesk

    work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    table = {}
    try:
        for scale in SCALES:
            table[scale] = {}
            for seed in range(SEEDS):
                wl = TrainDesk(ROOT, seed, scale, work)
                wl.setup()
                table[scale][str(seed)] = wl.first[-1]["total"]
            print(f"{scale}: {SEEDS} seeds", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
