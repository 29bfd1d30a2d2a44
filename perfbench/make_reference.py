"""Regenerate reference.json: one records digest per workload and data seed.

    python3 perfbench/make_reference.py

Each digest comes from a plain run of the workload's operation; the
MNIST-shaped workload runs uninterrupted here, so the benchmark's
resumed runs are checked against a run that never saw a checkpoint.
Regenerate only when a change is meant to alter the program's results,
and say so with the change.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy loads


def main() -> int:
    run.import_program()
    import workloads

    table = {}
    for name, cls in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            extra = {"resume": False} if cls is workloads.MnistFeddcPartial else {}
            wl = cls(run.OUT / "reference" / f"{name}-s{seed}", seed, **extra)
            wl.prepare()
            wl.setup_once()
            res = wl.op()
            if res.errors:
                print(f"{name} seed {seed}: {res.errors}", file=sys.stderr)
                return 1
            table[name][str(seed)] = res.digest
            print(f"{name} seed {seed}: best {res.best_accuracy:.4f} {res.digest}")
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
