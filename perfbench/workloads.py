"""The three benchmark workloads: seeded inputs, one timed call per operation,
and an independent oracle for every operation's output.

A workload turns a seed into an endless sequence of *cycles*; a cycle is a
list of operations whose composition is fixed and whose parameters the seed
draws.  Measuring whole cycles keeps the mix, and with it the medians, the
same from seed to seed while the inputs themselves differ.

The program only ever sees the generated argv (``cli.main``) or
``ExperimentConfig`` (``run_experiment``).  ``symbols`` and
``reconstruction`` are on no CLI path, so no operation times them; the
spectrum oracle uses ``symbols`` instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Iterator, Optional

import numpy as np

from activeflux import cli, solver, symbols

EPS = float(np.finfo(float).eps)
TWO_PI = 2.0 * math.pi

#: Solve final states must match the recorded references this closely
#: (relative, max norm).
STATE_RTOL = 1e-13

#: The energy experiment at size: one full period at this n.
LARGE_N = 1200

#: Sizes of the small solves; references exist for each of them.
SMALL_NS = (16, 24, 32, 48, 64, 96, 128)

#: Stable (variant, tableau, relaxation) triples at dt = dx/2.  Upwind with
#: rk4 or ssprk33 blows up there by design (its spurious mode lies outside
#: their stability intervals), and so does unrelaxed central ssprk33 (the
#: central spectrum reaches past its imaginary-axis limit sqrt(3)); those are
#: never drawn.
SMALL_SCHEMES = (
    ("central", "rk4x2", True),
    ("central", "rk4x2", False),
    ("central", "rk4", True),
    ("central", "rk4", False),
    ("central", "ssprk33", True),
    ("upwind", "rk4x2", True),
    ("upwind", "rk4x2", False),
)

#: Checks whose failures at large n are the open defect of the verification
#: battery (naive normalization sums, a global zero threshold in
#: ``hermitian_classify``).  They still count as failed operations; a
#: failure of any other check marks the run incorrect.
KNOWN_DEFECT_CHECKS = frozenset(
    {
        "normalization_diagonal_mass",
        "normalization_scaled_central_mass",
        "definiteness_upwind_mass",
        "definiteness_window_edge",
    }
)

#: The mass family is positive definite exactly for 2/9 < m_p/m_v < 2/3.
WINDOW = (2.0 / 9.0, 2.0 / 3.0)
#: Ratios this close to a window edge may classify as semidefinite.
WINDOW_EDGE_TOL = 1e-8

REFS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.npz")


def ref_key(variant: str, rk: str, relaxation: bool, speed: float, n: int) -> str:
    relax = "relax" if relaxation else "plain"
    sign = "pos" if speed > 0 else "neg"
    return f"{variant}-{rk}-{relax}-{sign}-{n}"


def reference_configs() -> Iterator[solver.ExperimentConfig]:
    """Every solve configuration a workload can draw."""
    for speed in (1.0, -1.0):
        yield solver.ExperimentConfig(
            variant="central", n=LARGE_N, rk="rk4x2", relaxation=True, advection_speed=speed
        )
    for variant, rk, relaxation in SMALL_SCHEMES:
        for speed in (1.0, -1.0):
            for n in SMALL_NS:
                yield solver.ExperimentConfig(
                    variant=variant, n=n, rk=rk, relaxation=relaxation, advection_speed=speed
                )


def config_key(c: solver.ExperimentConfig) -> str:
    return ref_key(c.variant, c.rk, c.relaxation, c.advection_speed, c.n)


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: a kind and its generated parameters."""

    kind: str  # solve-cli | solve | verify | spectrum | mass-scan
    params: tuple

    def describe(self) -> str:
        return f"{self.kind}{self.params}"


@dataclasses.dataclass(frozen=True)
class Outcome:
    ok: bool
    known: bool = False  # a failure of the known verification defect
    completed: bool = True  # False when the call raised
    reason: str = ""
    dof_steps: int = 0  # 2n per step (solves) or per pass (analysis)
    steps: int = 0


def _rel_err(u: np.ndarray, ref: np.ndarray) -> float:
    if u.shape != ref.shape:
        return math.inf
    return float(np.abs(u - ref).max() / np.abs(ref).max())


def energy_outcome(variant: str, relaxation: bool, energies: np.ndarray, n: int) -> str:
    """Empty when the energy trace behaves, else the reason it does not.

    One energy evaluation sums 2n nonnegative terms, so it rounds by at most
    about 2n eps relative.  Relaxed central runs conserve energy up to that
    rounding; upwind runs never gain more than it from one step to the next.
    """
    if not np.all(np.isfinite(energies)):
        return "non-finite energy"
    tol = 2 * n * EPS * float(energies[0])
    if variant == "central" and relaxation:
        drift = float(np.abs(energies - energies[0]).max())
        if drift > tol:
            return f"central energy drift {drift:.3e} > {tol:.3e}"
    if variant == "upwind" and energies.size > 1:
        rise = float(np.diff(energies).max())
        if rise > tol:
            return f"upwind energy rose by {rise:.3e} > {tol:.3e}"
    return ""


def _read_csv_rows(path: str) -> tuple[str, list[str]]:
    """Header and data lines of a CLI CSV (``#`` lines dropped)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return lines[0], lines[1:]


def _draw_log(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[int]:
    """k integers log-stratified over [lo, hi]: one draw in each k-th of the range."""
    u = (np.arange(k) + rng.random(k)) / k
    out = np.rint(lo * (hi / lo) ** u).astype(int)
    return [int(x) for x in rng.permutation(out)]


class Workload:
    """Shared machinery: seeded generator, working directory, reference states."""

    name = ""
    #: a traced pass runs this many cycles
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.refs = dict(np.load(REFS_FILE))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cycles(self) -> Iterator[list[Op]]:
        while True:
            yield self.cycle()

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Pay the first-call costs (lazy imports, caches) before timing."""
        raise NotImplementedError

    def run(self, op: Op):
        return getattr(self, "_run_" + op.kind.replace("-", "_"))(*op.params)

    def check(self, op: Op, raw) -> Outcome:
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(raw, *op.params)

    def outputs(self, op: Op) -> list[str]:
        """Files the operation writes (for the CLI byte and line counts)."""
        return []

    # -- solves ------------------------------------------------------------

    def _check_state(self, u: np.ndarray, key: str) -> str:
        ref = self.refs.get(key)
        if ref is None:
            return f"no reference state {key}"
        err = _rel_err(np.asarray(u, dtype=float), ref)
        if not err <= STATE_RTOL:
            return f"final state differs from reference {key} by {err:.3e} relative"
        return ""


class SolveCentralLarge(Workload):
    """``cli.main(["solve", ...])``: relaxed rk4x2 central run, one period at n=1200."""

    name = "solve-central-large"

    def cycle(self) -> list[Op]:
        speed = float(self.rng.choice((1.0, -1.0)))
        return [Op("solve-cli", (LARGE_N, speed))]

    def warm_up(self) -> None:
        self._run_solve_cli(16, 1.0)

    def _argv(self, n: int, speed: float) -> list[str]:
        return [
            "solve", "--variant", "central", "--rk", "rk4x2", "--relaxation",
            "--n", str(n), "--speed", repr(speed),
            "--output", self.path("trace.csv"),
            "--final-state", self.path("state.json"),
        ]  # fmt: skip

    def outputs(self, op: Op) -> list[str]:
        return [self.path("trace.csv"), self.path("state.json")]

    def _run_solve_cli(self, n: int, speed: float) -> int:
        return cli.main(self._argv(n, speed))

    def _check_solve_cli(self, rc: int, n: int, speed: float) -> Outcome:
        if rc != 0:
            return Outcome(False, reason=f"solve exited {rc}")
        header, rows = _read_csv_rows(self.path("trace.csv"))
        if header != "t,energy,gamma":
            return Outcome(False, reason=f"unexpected trace header {header!r}")
        energies = np.array([float(r.split(",")[1]) for r in rows])
        steps = len(rows) - 1
        with open(self.path("state.json"), "r", encoding="utf-8") as fh:
            u = np.asarray(json.load(fh)["u"], dtype=float)
        reason = self._check_state(u, ref_key("central", "rk4x2", True, speed, n))
        reason = reason or energy_outcome("central", True, energies, n)
        return Outcome(not reason, reason=reason, dof_steps=2 * n * steps, steps=steps)


class SolveMixSmall(Workload):
    """Many small ``run_experiment`` calls over the stable scheme pairs."""

    name = "solve-mix-small"
    trace_cycles = 4

    def cycle(self) -> list[Op]:
        # every drawable configuration once, each small n twice
        combos = [scheme + (speed,) for scheme in SMALL_SCHEMES for speed in (1.0, -1.0)]
        ns = [SMALL_NS[i % len(SMALL_NS)] for i in range(len(combos))]
        ns = self.rng.permutation(ns)
        order = self.rng.permutation(len(combos))
        return [Op("solve", combos[i] + (int(n),)) for i, n in zip(order, ns)]

    def warm_up(self) -> None:
        for scheme in SMALL_SCHEMES:
            self._run_solve(*scheme, 1.0, SMALL_NS[0])

    def _run_solve(self, variant, rk, relaxation, speed, n):
        return solver.run_experiment(
            solver.ExperimentConfig(
                variant=variant, n=n, rk=rk, relaxation=relaxation, advection_speed=speed
            )
        )

    def _check_solve(self, raw, variant, rk, relaxation, speed, n) -> Outcome:
        trace, u = raw
        steps = len(trace.times) - 1
        reason = self._check_state(u, ref_key(variant, rk, relaxation, speed, n))
        reason = reason or energy_outcome(variant, relaxation, trace.energies, n)
        return Outcome(not reason, reason=reason, dof_steps=2 * n * steps, steps=steps)


class AnalysisSweep(Workload):
    """In-process ``verify`` / ``spectrum`` / ``mass-scan`` calls; no solver."""

    name = "analysis-sweep"

    def cycle(self) -> list[Op]:
        rng = self.rng
        ops = [Op("verify", (n,)) for n in _draw_log(rng, 3, 64, 4)]  # dense oracles on
        ops += [Op("verify", (n,)) for n in _draw_log(rng, 65, 99_999, 3)]  # symbol path
        ops += [Op("verify", (100_000,)), Op("verify", (1_000_000,))]
        # two of the slower dissipation spectra keep the tail operation inside
        # one class whether a run completes four cycles or ten
        operators = ("central-d", "dissipation", "dissipation")
        for operator, n in zip(operators, _draw_log(rng, 90_000, 100_000, 3)):
            ops.append(Op("spectrum", (operator, n)))
        # nine scans of near-constant cost, with about as many operations
        # below them as above, hold the cycle's median operation
        for _ in range(9):
            m_v = float(np.round(rng.uniform(0.5, 2.0), 3))
            lo = float(np.round(rng.uniform(-0.5, 0.3) * m_v, 4))
            hi = float(np.round(rng.uniform(0.5, 1.2) * m_v, 4))
            ops.append(Op("mass-scan", (m_v, lo, hi, int(rng.integers(290, 311)))))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self) -> None:
        # the first dense-oracle verify imports scipy.optimize
        self._run_verify(8)
        self._run_spectrum("central-d", 8)
        self._run_spectrum("dissipation", 8)
        self._run_mass_scan(1.0, 0.0, 1.0, 3)

    def outputs(self, op: Op) -> list[str]:
        return [self.path(op.kind + ".csv")]

    def _run_verify(self, n: int) -> int:
        return cli.main(["verify", "--n", str(n), "--output", self.path("verify.csv")])

    def _check_verify(self, rc: int, n: int) -> Outcome:
        header, rows = _read_csv_rows(self.path("verify.csv"))
        if header != "name,passed,residual,tolerance" or not rows:
            return Outcome(False, reason="malformed verify report")
        failing = [r.split(",")[0] for r in rows if r.split(",")[1] != "1"]
        if rc != (1 if failing else 0):
            return Outcome(False, reason=f"verify exited {rc} with failing checks {failing}")
        if failing:
            known = set(failing) <= KNOWN_DEFECT_CHECKS
            return Outcome(False, known=known, reason=f"n={n}: failing checks {failing}", dof_steps=2 * n)
        return Outcome(True, dof_steps=2 * n)

    def _run_spectrum(self, operator: str, n: int) -> int:
        argv = ["spectrum", "--n", str(n), "--operator", operator]
        return cli.main(argv + ["--output", self.path("spectrum.csv")])

    def _check_spectrum(self, rc: int, operator: str, n: int) -> Outcome:
        if rc != 0:
            return Outcome(False, reason=f"spectrum exited {rc}")
        header, rows = _read_csv_rows(self.path("spectrum.csv"))
        if header != "k,theta,re_lambda_1,im_lambda_1,re_lambda_2,im_lambda_2":
            return Outcome(False, reason=f"unexpected spectrum header {header!r}")
        table = np.array([r.split(",") for r in rows], dtype=float).reshape(-1, 6)
        k = np.arange(n)
        if table.shape[0] != n or not np.array_equal(table[:, 0], k):
            return Outcome(False, reason="spectrum rows do not enumerate the modes")
        theta = table[:, 1]
        got = np.stack([table[:, 2] + 1j * table[:, 3], table[:, 4] + 1j * table[:, 5]], axis=1)
        if operator == "central-d":
            dx = TWO_PI / n
            want = np.array([symbols.central_symbol_eigenvalues(t) for t in theta]) / dx
        else:  # dissipation: one zero and the closed form per mode
            f = -(2.0 / 3.0) * (18.0 + 17.0 * np.cos(theta) + np.cos(2.0 * theta))
            want = np.stack([f, np.zeros_like(f)], axis=1).astype(complex)
        same = np.abs(got - want).max(axis=1)
        swapped = np.abs(got - want[:, ::-1]).max(axis=1)
        err = float(np.minimum(same, swapped).max())
        # a 2x2 eigenvalue rounds at a few eps times the symbol norm; the
        # factor 64 covers the symbol sum and the quadratic formula
        tol = 64 * EPS * float(np.abs(want).max())
        if not err <= tol:
            return Outcome(False, reason=f"{operator} spectrum off by {err:.3e} > {tol:.3e}")
        return Outcome(True, dof_steps=2 * n)

    def _run_mass_scan(self, m_v: float, lo: float, hi: float, steps: int) -> int:
        argv = ["mass-scan", "--mv", repr(m_v), "--mp-min", repr(lo), "--mp-max", repr(hi)]
        return cli.main(argv + ["--steps", str(steps), "--output", self.path("mass-scan.csv")])

    def _check_mass_scan(self, rc: int, m_v: float, lo: float, hi: float, steps: int) -> Outcome:
        if rc != 0:
            return Outcome(False, reason=f"mass-scan exited {rc}")
        _, rows = _read_csv_rows(self.path("mass-scan.csv"))
        if len(rows) != steps:
            return Outcome(False, reason=f"mass-scan wrote {len(rows)} rows, want {steps}")
        for row in rows:
            fields = row.split(",")
            ratio = float(fields[1]) / m_v
            kind = fields[2]
            if min(abs(ratio - e) for e in WINDOW) <= WINDOW_EDGE_TOL:
                allowed = {"positive_definite", "positive_semidefinite", "indefinite"}
            elif WINDOW[0] < ratio < WINDOW[1]:
                allowed = {"positive_definite"}
            else:
                allowed = {"indefinite"}
            if kind not in allowed:
                return Outcome(False, reason=f"m_p/m_v={ratio!r} classified {kind}")
        # the classification grid has 360 cells
        return Outcome(True, dof_steps=2 * 360 * steps)


WORKLOADS = {w.name: w for w in (SolveCentralLarge, SolveMixSmall, AnalysisSweep)}


def make(name: str, seed: int, workdir: str) -> Optional[Workload]:
    cls = WORKLOADS.get(name)
    return cls(seed, workdir) if cls else None
