"""One workload process: set up, warm up, then measure untraced or traced.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
The last line on stdout is one JSON object for ``run.py`` to read.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] --workdir DIR
"""

import time

T0 = time.perf_counter()  # set-up is timed from interpreter start-up on

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import activeflux  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class _CountingSink(io.TextIOBase):
    """Stand-in for stdout during operations: counts what the CLI prints."""

    def __init__(self):
        self.chars = 0
        self.lines = 0

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.chars += len(s)
        self.lines += s.count("\n")
        return len(s)


class Runner:
    """Executes operations one at a time (closed loop, one client)."""

    def __init__(self, workload, count_output: bool):
        self.workload = workload
        self.count_output = count_output
        self.sink = _CountingSink()
        self.out_lines = 0
        self.out_bytes = 0

    def execute(self, op):
        """Time one operation, then check its output; returns (wall, outcome)."""
        Outcome = workloads.Outcome
        wl = self.workload
        for path in wl.outputs(op):
            if os.path.exists(path):
                os.remove(path)
        err = None
        with contextlib.redirect_stdout(self.sink):
            t = time.perf_counter()
            try:
                raw = wl.run(op)
            except Exception as exc:  # a raising operation is a failed one
                err = exc
            wall = time.perf_counter() - t
        if err is not None:
            return wall, Outcome(False, completed=False, reason=f"{op.describe()} raised {err!r}")
        try:
            outcome = wl.check(op, raw)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome = Outcome(False, reason=f"{op.describe()}: unreadable output ({exc!r})")
        if self.count_output:
            for path in wl.outputs(op):
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                    self.out_bytes += len(data)
                    self.out_lines += data.count(b"\n")
        return wall, outcome


def _tail(walls):
    """Highest percentile with at least ten samples beyond it, but never below
    the median: a run of fewer than 20 operations reports its median.
    Returns (value, percentile, samples beyond)."""
    s = sorted(walls)
    n = len(s)
    rank = max(n - 10, n // 2 + 1)  # 1-based
    return s[rank - 1], 100.0 * rank / n, n - rank


#: Time of one calibration kernel on the reference host (the 2-vCPU Xeon
#: KVM guest the benchmark was written on, when quiet).  It only fixes the
#: unit of the reported times: "seconds on the reference host".
CALIB_REF_S = 0.0016


class HostSpeed:
    """How slow the host runs right now, from a fixed kernel that does not
    touch the program: interpreter work, small numpy operations like the
    program's, and a 2 MiB memory stream (its buffers add about 4 MiB to the
    peak RSS).  Neighbours on a shared host slow the kernel and the workload
    alike, for seconds to minutes at a time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((1200, 2))
        self.big = rng.random(1 << 18)
        self.tmp = np.empty_like(self.big)
        self.eye = np.eye(2)
        self.samples: list[float] = []

    def sample(self, k: int) -> None:
        for _ in range(k):
            t = time.perf_counter()
            acc = 0
            for i in range(5000):
                acc += i * i
            y = self.small
            for _ in range(100):
                y = np.roll(y, 1, axis=0) @ self.eye
            np.multiply(self.big, 1.5, out=self.tmp)
            self.tmp += self.big
            self.samples.append(time.perf_counter() - t)

    def point(self) -> float:
        """One reading: the quicker of two samples, which drops a sample hit
        by a one-off stall."""
        self.sample(2)
        return min(self.samples[-2:])

    def slowdown(self) -> float:
        """Median kernel time over the reference time (> 1: slower host)."""
        return statistics.median(self.samples) / CALIB_REF_S


def host_record() -> dict:
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(base)):
            fields = {}
            for field in ("level", "type", "size"):
                with open(os.path.join(base, index, field), "r", encoding="utf-8") as fh:
                    fields[field] = fh.read().strip()
            caches[f"L{fields['level']}-{fields['type'].lower()}"] = fields["size"]
    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(runner, cycles, seconds: float) -> dict:
    """Run whole cycles untraced until ``seconds`` have passed.

    A calibration reading follows every operation.  The wall times of a
    cycle are scaled to the reference host by the median of the readings
    around it.  Rates are medians over cycles of (work in the cycle / its
    scaled time), so a minority of slow or fast stretches does not move
    them.  The unscaled figures are kept in the details.
    """
    speed = HostSpeed()
    reading = speed.point()
    walls, scaled, outcomes, per_cycle, raw_cycle = [], [], [], [], []
    start = time.perf_counter()
    for cycle in cycles:
        first = len(walls)
        readings = [reading]
        for op in cycle:
            wall, outcome = runner.execute(op)
            reading = speed.point()
            readings.append(reading)
            walls.append(wall)
            outcomes.append(outcome)
        slowdown = statistics.median(readings) / CALIB_REF_S
        scaled += [w / slowdown for w in walls[first:]]
        done = outcomes[first:]
        work = (sum(o.dof_steps for o in done), sum(o.completed for o in done))
        per_cycle.append([w / sum(scaled[first:]) for w in work])
        raw_cycle.append([w / sum(walls[first:]) for w in work])
        if time.perf_counter() - start >= seconds:
            break
    failed = [o for o in outcomes if not o.ok]
    tail, tail_pct, tail_beyond = _tail(scaled)
    attempted = len(outcomes)
    metrics = {
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail,
        "dof_steps_per_s": statistics.median(r[0] for r in per_cycle),
        "ops_per_s": statistics.median(r[1] for r in per_cycle),
    }
    raw = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": _tail(walls)[0],
        "dof_steps_per_s": statistics.median(r[0] for r in raw_cycle),
        "ops_per_s": statistics.median(r[1] for r in raw_cycle),
    }
    slow = speed.slowdown()
    metrics["pass_ratio"] = (attempted - len(failed)) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failed),
        "unexpected": [o.reason for o in failed if not o.known][:10],
        "details": {
            "fail_ratio": len(failed) / attempted,
            "known_failures": sorted({o.reason for o in failed if o.known})[:10],
            "raw": raw,
            "host_slowdown": slow,
            "calibration_samples": len(speed.samples),
            "op_tail_percentile": tail_pct,
            "op_tail_samples_beyond": tail_beyond,
            "ops": attempted,
            "cycles": len(per_cycle),
            "busy_s": sum(walls),
            "steps": sum(o.steps for o in outcomes),
        },
    }


def traced(wl, ops, spans_path: str) -> dict:
    """Untraced and traced passes over the same operations, alternating.

    The per-layer metrics come from the first traced pass; the counts of the
    two traced passes must agree exactly.  Each pass's wall time is scaled
    by the calibration readings around it before the tracing overhead is
    taken as traced minus untraced time.
    """
    speed = HostSpeed()
    reading = speed.point()
    untraced_s, traced_s, passes = [], [], []
    for traced_pass in (False, True, False, True):
        runner = Runner(wl, count_output=traced_pass)
        with tracer.Tracer() if traced_pass else contextlib.nullcontext() as tr:
            walls, outcomes = [], []
            for i, op in enumerate(ops):
                if tr is not None:
                    tr.op = i
                wall, outcome = runner.execute(op)
                walls.append(wall)
                outcomes.append(outcome)
        before, reading = reading, speed.point()
        scaled = sum(walls) * 2.0 * CALIB_REF_S / (before + reading)
        if traced_pass:
            traced_s.append(scaled)
            c = tracer.counts(tr.spans)
            c.update(lines=runner.out_lines + runner.sink.lines, bytes=runner.out_bytes + runner.sink.chars)
            passes.append((tr.spans, outcomes, c))
        else:
            untraced_s.append(scaled)
    (spans, outcomes, c1), (_, _, c2) = passes
    metrics = tracer.layer_metrics(spans)
    metrics["cli.lines_written"] = c1["lines"]
    metrics["cli.bytes_written"] = c1["bytes"]
    overhead = statistics.mean(traced_s) - statistics.mean(untraced_s)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.mean(untraced_s)
    metrics["trace.spans"] = len(spans)
    tracer.write_spans(spans, spans_path)
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o.reason for o in failed if not o.known][:10]
    if c1 != c2:
        diff = {k: (c1.get(k), c2.get(k)) for k in set(c1) | set(c2) if c1.get(k) != c2.get(k)}
        unexpected.append(f"traced counts differ between passes: {diff}")
    return {
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": len(failed),
        "unexpected": unexpected,
        "details": {"counts": c1, "untraced_s": untraced_s, "traced_s": traced_s},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    where = os.path.dirname(os.path.abspath(activeflux.__file__))
    if where != os.path.join(SRC, "activeflux"):
        print(f"error: imported activeflux from {where}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, args.workdir)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with contextlib.redirect_stdout(_CountingSink()):
        wl.warm_up()
    cycles = wl.cycles()
    first = next(cycles)
    setup_raw = time.perf_counter() - T0
    speed = HostSpeed()
    speed.sample(30)
    setup_s = setup_raw / speed.slowdown()

    if args.setup_only:
        result = {}
    elif args.trace:
        ops = first + [op for _ in range(wl.trace_cycles - 1) for op in next(cycles)]
        spans_path = os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}-seed{args.seed}.csv")
        result = traced(wl, ops, spans_path)
    else:
        def all_cycles():
            yield first
            yield from cycles

        result = measure(Runner(wl, False), all_cycles(), args.seconds)
        result["host"] = host_record()
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
