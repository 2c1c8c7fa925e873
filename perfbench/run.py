"""activeflux benchmark: one command, three workloads, oracles on every operation.

Run from the repository root:

    python3 perfbench/run.py --workload solve-central-large --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``solve-central-large``  ``activeflux solve`` in-process, relaxed rk4x2, n=1200
- ``solve-mix-small``      many small ``run_experiment`` calls, seeded scheme mix
- ``analysis-sweep``       ``verify`` / ``spectrum`` / ``mass-scan`` calls, no solver

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the
end-to-end metrics are printed; ``setup_s`` is the median over several fresh
interpreters.  With ``--trace 1`` a fixed, seed-drawn list of operations runs
once untraced and twice traced, and the per-layer metrics are printed,
including the tracing overhead (traced minus untraced wall time).

Each workload runs in a child interpreter with BLAS pinned to one thread.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
host, the seed and the details behind the metrics.  Exit code 0 on a
complete run, 1 when a child fails, 2 on a bad invocation or a tree without
the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: fresh interpreters whose set-up time enters the ``setup_s`` median
SETUP_SAMPLES = 5
#: every child together must end within this many seconds
DEADLINE_S = 170.0
DEFAULT_SEED = 1

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _child(args: list[str], deadline: float) -> dict:
    """Run one child interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("child printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "activeflux", "__init__.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".benchwork", f"{args.workload}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir]
    try:
        if args.trace:
            result = _child(common + ["--trace"], deadline)
            wanted = spec["per_layer"]
        else:
            samples = [_child(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
            result = _child(common, deadline)
            samples.append(result)
            result["metrics"]["setup_s"] = statistics.median(r["setup_s"] for r in samples)
            result["details"]["setup_samples_s"] = [r["setup_s"] for r in samples]
            result["details"]["setup_raw_samples_s"] = [r["setup_raw_s"] for r in samples]
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            print(f"error: the run did not produce metric {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": result.get("host"),
        "unexpected_failures": result["unexpected"],
        "details": result["details"],
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not result["unexpected"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
