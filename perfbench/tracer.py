"""Outside-in tracing: spans around the public functions of each module.

The program carries no instrumentation of its own.  :class:`Tracer` replaces
the public boundaries of ``operators``, ``solver``, ``spectral``, ``checks``
and ``cli`` with thin wrappers for the duration of a ``with`` block, records
one span per call in memory (name, start, end, parent, operation id) and
restores the originals on exit.  :func:`layer_metrics` turns the spans into
the per-layer numbers; a span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from activeflux import checks, cli, solver, spectral
from activeflux import operators as ops

# span record fields
NAME, START, END, PARENT, OP, NOTE = range(6)

_BUILDERS = (
    "build_grid",
    "central_D",
    "upwind_D_minus",
    "upwind_D_plus",
    "diagonal_mass",
    "banded_mass",
    "upwind_mass",
    "scaled_central_mass",
    "extended_mass",
)
_ALGEBRA = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


def _matvec_note(args, out):
    op = args[0]
    # compulsory traffic computed from array sizes (not measured): the 2n
    # operand and 2n result doubles plus the stored 2x2 blocks
    return (2 * op.n, 8 * 4 * op.n + 32 * len(op.blocks))


def _run_all_note(args, out):
    return (len(out), sum(not r.passed for r in out))


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, note=None, skip=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, **kw):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(self._wrap(name, original.fget, **kw)))
        else:
            setattr(owner, attr, self._wrap(name, original, **kw))

    def __enter__(self) -> "Tracer":
        Op = ops.BlockCirculantOp
        self._patch(Op, "matvec", "operators.matvec", note=_matvec_note)
        # op @ vector is a matvec and is recorded by the matvec span alone
        self._patch(
            Op, "__matmul__", "operators.algebra",
            skip=lambda args: isinstance(args[1], np.ndarray),
        )  # fmt: skip
        for attr in _ALGEBRA:
            self._patch(Op, attr, "operators.algebra")
        self._patch(Op, "T", "operators.algebra")
        self._patch(Op, "dense", "operators.dense")
        self._patch(Op, "norm_inf", "operators.norm_inf")
        for attr in _BUILDERS:
            self._patch(ops, attr, "operators.build")
        for attr in ("rk_step", "relaxation_gamma", "run_experiment", "make_scheme", "project_initial"):
            self._patch(solver, attr, "solver." + attr)
        self._patch(solver.Scheme, "energy", "solver.energy")
        for attr in ("eigenvalues", "hermitian_classify", "block_diagonalize_check"):
            self._patch(spectral, attr, "spectral." + attr)
        for attr in ("check_central_sbp", "check_upwind_sbp", "check_mass_definiteness", "check_nullspace"):
            self._patch(checks, attr, "checks." + attr)
        self._patch(checks, "run_all", "checks.run_all", note=_run_all_note)
        self._patch(cli, "main", "cli.main")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def counts(spans: list[list]) -> dict:
    """Exact, timing-free counts of a traced pass (must repeat between passes)."""
    c = Counter(s[NAME] for s in spans)
    c["matvec.dofs"] = sum(s[NOTE][0] for s in spans if s[NAME] == "operators.matvec")
    for s in spans:
        if s[NAME] == "checks.run_all":
            c["checks.reports"] += s[NOTE][0]
            c["checks.reports_failed"] += s[NOTE][1]
    return dict(c)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (zero where a layer was not called)."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    outer_calls: Counter = Counter()  # calls not nested in a span of the same name
    outer_s: defaultdict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s[name] += dur[i] - child[i]
        calls[name] += 1
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != name:
            outer_calls[name] += 1
            outer_s[name] += dur[i]

    def ancestor(i, names):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return p
            p = spans[p][PARENT]
        return -1

    # matvecs that belong to time steps: those under rk_step or
    # relaxation_gamma, and those of energy evaluations after a run's first
    # step (the initial energy is set-up)
    first_step: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s[NAME] == "solver.rk_step":
            run = ancestor(i, ("solver.run_experiment",))
            first_step[run] = min(first_step.get(run, np.inf), s[START])
    step_matvecs = gamma_matvecs = 0
    dofs = bytes_computed = 0
    for i, s in enumerate(spans):
        if s[NAME] != "operators.matvec":
            continue
        dofs += s[NOTE][0]
        bytes_computed += s[NOTE][1]
        owner = ancestor(i, ("solver.rk_step", "solver.relaxation_gamma", "solver.energy"))
        if owner < 0:
            continue
        owner_name = spans[owner][NAME]
        if owner_name == "solver.relaxation_gamma":
            gamma_matvecs += 1
        if owner_name != "solver.energy":
            step_matvecs += 1
        else:
            run = ancestor(owner, ("solver.run_experiment",))
            if spans[owner][START] > first_step.get(run, np.inf):
                step_matvecs += 1
    steps = calls["solver.rk_step"]
    setup_names = ("solver.make_scheme", "solver.project_initial", "operators.build")
    solver_setup = 0.0
    for i, s in enumerate(spans):
        if s[NAME] in setup_names and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "solver.run_experiment":
            solver_setup += dur[i]
    reports = sum(s[NOTE][0] for s in spans if s[NAME] == "checks.run_all")
    reports_failed = sum(s[NOTE][1] for s in spans if s[NAME] == "checks.run_all")
    mv_calls = calls["operators.matvec"]
    return {
        "operators.matvec.calls": mv_calls,
        "operators.matvec.self_s": self_s["operators.matvec"],
        "operators.matvec.ns_per_dof": 1e9 * self_s["operators.matvec"] / dofs if dofs else 0.0,
        "operators.matvec.bytes_computed": bytes_computed / mv_calls if mv_calls else 0.0,
        "operators.build.calls": outer_calls["operators.build"],
        "operators.build.s": outer_s["operators.build"],
        "operators.algebra.calls": outer_calls["operators.algebra"],
        "operators.algebra.self_s": self_s["operators.algebra"],
        "operators.norm_inf.self_s": self_s["operators.norm_inf"],
        "operators.dense.calls": calls["operators.dense"],
        "operators.dense.self_s": self_s["operators.dense"],
        "solver.steps": steps,
        "solver.matvecs_per_step": step_matvecs / steps if steps else 0.0,
        "solver.rk_step.self_s": self_s["solver.rk_step"],
        "solver.relaxation_gamma.calls": calls["solver.relaxation_gamma"],
        "solver.relaxation_gamma.self_s": self_s["solver.relaxation_gamma"],
        "solver.relaxation_gamma.matvecs": gamma_matvecs,
        "solver.energy.calls": calls["solver.energy"],
        "solver.energy.self_s": self_s["solver.energy"],
        "solver.loop.self_s": self_s["solver.run_experiment"],
        "solver.setup.s": solver_setup,
        "spectral.eigenvalues.calls": calls["spectral.eigenvalues"],
        "spectral.eigenvalues.self_s": self_s["spectral.eigenvalues"],
        "spectral.hermitian_classify.calls": calls["spectral.hermitian_classify"],
        "spectral.hermitian_classify.self_s": self_s["spectral.hermitian_classify"],
        "spectral.block_diagonalize_check.self_s": self_s["spectral.block_diagonalize_check"],
        "checks.run_all.calls": calls["checks.run_all"],
        "checks.run_all.self_s": self_s["checks.run_all"],
        "checks.check_nullspace.self_s": self_s["checks.check_nullspace"],
        "checks.check_central_sbp.s": outer_s["checks.check_central_sbp"],
        "checks.check_upwind_sbp.s": outer_s["checks.check_upwind_sbp"],
        "checks.check_mass_definiteness.calls": calls["checks.check_mass_definiteness"],
        "checks.check_mass_definiteness.self_s": self_s["checks.check_mass_definiteness"],
        "checks.reports": reports,
        "checks.reports_failed": reports_failed,
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
    }


def write_spans(spans: list[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,op\n")
        t0 = spans[0][START] if spans else 0.0
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},{s[PARENT]},{s[OP]}\n")
