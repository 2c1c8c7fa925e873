"""Record the reference final states that the solve oracles compare against.

Run from the repository root:

    python3 perfbench/make_refs.py

It solves every configuration the solve workloads can draw and writes the
final states to ``perfbench/refs.npz``.  The references pin the program's
output as it was when they were recorded; rerun this only on purpose, and
say so, because it moves the yardstick of the 1e-13 state check.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from activeflux import solver  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for config in workloads.reference_configs():
        trace, u = solver.run_experiment(config)
        key = workloads.config_key(config)
        reason = workloads.energy_outcome(config.variant, config.relaxation, trace.energies, config.n)
        if reason:
            print(f"{key}: {reason}", file=sys.stderr)
            return 1
        refs[key] = u
    np.savez(workloads.REFS_FILE, **refs)
    print(f"wrote {len(refs)} reference states to {os.path.relpath(workloads.REFS_FILE, ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
