"""Semi-discrete advection schemes and energy-tracking explicit RK time loops.

The right-hand side is ``u_t = -a D u`` with D the central (skew) or upwind
(dissipative) derivative operator; energy is measured in the matching mass
inner product.  A relaxation parameter gamma rescales each RK update so the
discrete energy change matches the inner-product estimate of the true change,
which makes the central scheme conserve energy to rounding and keeps the
upwind scheme monotone.

The estimate needs ``M f_i`` for every stage and the rescaling needs
``M d``: :func:`relaxation_gamma` forms all of them in one matvec call on
the stack of the stage derivatives and ``d`` (each row has the bits of its
own call).  For the central scheme the estimate is zero by construction:
the SBP identity ``M D + D^T M = 0`` makes every stage term ``<y_i, M
f_i>`` vanish.  :func:`run_experiment` reads that off the operators once
per run and then relaxes towards zero change without evaluating the
estimate, which leaves ``M d`` alone in that call.  A relaxed step thus
makes ``s + 2`` matvec calls, the energy's included, whether it keeps the
estimate or not: 10 for rk4x2 and 5 for ssprk33, where one call per
product made 18 and 8.

:func:`rk_step` builds each stage state ``y_i = u + (dt a_i1) k_1 + ...``
and the update ``u + (dt b_1) k_1 + ...`` as left folds over their nonzero
coefficients.  Where a fold's (j, coefficient) list starts with the terms of
a sum already formed in the same step, it continues from that partial sum,
which has the same bits as summing again from ``u``.  In ``rk4x2`` stages 5
to 8 and the update all start with the first half step, so a step makes 14
multiply-adds instead of 30.  Each method works out its shared prefixes once,
for any tableau.

:func:`run_experiment` allocates one :class:`Workspace` per run, and every
array operation of its time loop writes into it: the matvecs (their halo,
window and product buffers included), the scaled terms and partial sums of
the folds, the stage derivatives, ``d = u_next - u`` and the products with
``M``; each new state overwrites the old one.  The steps allocate no array
of the state's size.  Each operation is the one a call without a workspace
makes, on the same operands in the same order, so trajectories are the
same bits; only where results live changes.

The workspace also does each step's set-up once per run.  Allocated for
the run's state array ``u``, scheme and method, it holds a step program:
every fold's terms as (coefficient, ``k_j``, operand, ``out``), the stage
list, and one matvec binding
(:meth:`~activeflux.operators.BlockCirculantOp.bind`) per stage state and
derivative pair.  ``M u``, ``M d`` and, for a relaxed run that keeps the
stage estimate, the stack of ``M f_i`` and ``M d`` are bound the same way;
other runs allocate no stack.  :func:`rk_step`, :func:`relaxation_gamma`
and :meth:`Scheme.energy` each have two paths.  Without a workspace they
run one-shot on new arrays.  With one, they replay its bindings, and take
only the workspace's own state ``u``, scheme, method and stage list:
anything else raises :class:`ValueError`.  :func:`rk_step` forms the
coefficients ``dt c`` again only when ``dt`` changes.  Each step still
calls :func:`rk_step`, :func:`relaxation_gamma`, :meth:`Scheme.energy`
and ``BlockCirculantOp.matvec``, which are where its time is measured.

At ``|a| = 1`` the right-hand side ``-a D u`` folds ``-a`` into the scale
of ``D``, which is exact (:attr:`Scheme.rhs_operator`): one scaling pass
instead of two.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import operators as ops
from . import spectral
from .operators import BlockCirculantOp, Grid, MatvecBinding

__all__ = [
    "RKMethod",
    "RK4",
    "RK4X2",
    "SSPRK33",
    "Stage",
    "Scheme",
    "make_scheme",
    "resolve_method",
    "rk_step",
    "relaxation_gamma",
    "EnergyTrace",
    "ExperimentConfig",
    "Workspace",
    "EnergyBlowUpError",
    "MAX_STEPS",
    "project_initial",
    "default_initial",
    "run_experiment",
]


class EnergyBlowUpError(RuntimeError):
    """Raised when a run goes unstable.

    Either the traced energy exceeded 1e3 times its initial value, or the
    relaxation parameter became non-positive — which happens when the base
    step amplifies energy faster than its own stage estimate, i.e. the time
    step is outside the method's stability region.
    """


@dataclasses.dataclass(frozen=True)
class RKMethod:
    """Explicit Runge-Kutta tableau (strictly lower triangular A)."""

    name: str
    a: tuple
    b: tuple
    c: tuple
    order: Optional[int] = None

    def __post_init__(self):
        # a tableau may come from a custom JSON file: no booleans, no strings
        a = tuple(tuple(ops.read_number(x, "a tableau entry") for x in row) for row in self.a)
        b = tuple(ops.read_number(x, "a tableau entry") for x in self.b)
        c = tuple(ops.read_number(x, "a tableau entry") for x in self.c)
        s = len(b)
        if not all(map(math.isfinite, (*b, *c, *(x for row in a for x in row)))):
            raise ValueError("tableau entries must be finite")
        if len(a) != s or any(len(row) != s for row in a) or len(c) != s:
            raise ValueError("tableau dimensions are inconsistent")
        for i, row in enumerate(a):
            if any(row[j] != 0.0 for j in range(i, s)):
                raise ValueError("tableau must be strictly lower triangular (explicit)")
            if abs(sum(row) - c[i]) > 1e-12:
                raise ValueError("abscissae c must equal the row sums of a")
        if abs(sum(b) - 1.0) > 1e-12:
            raise ValueError("weights b must sum to 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return len(self.b)

    @functools.cached_property
    def _folds(self) -> tuple:
        """How :func:`rk_step` forms the stage states, then the update.

        One entry per fold: the prefix whose partial sum it continues from
        (``()`` for ``u``) and its remaining terms ``(j, coefficient,
        in_place, save)``.  A fold starts from the longest prefix of its
        nonzero (j, coefficient) list that an earlier fold has summed.
        Such a partial sum is saved under its prefix when it is formed and
        never written to afterwards: a term adds in place only into an
        array its own fold made and has not saved, and otherwise forms a
        new array of the step.
        """
        folds = [tuple((j, c) for j, c in enumerate(row) if c != 0.0) for row in (*self.a, self.b)]
        known: set[tuple] = set()
        starts = []
        for terms in folds:
            start = max((m for m in range(1, len(terms) + 1) if terms[:m] in known), default=0)
            starts.append(start)
            known.update(terms[:m] for m in range(start + 1, len(terms) + 1))
        saved = {terms[:start] for terms, start in zip(folds, starts)}
        plan = []
        for terms, start in zip(folds, starts):
            steps = []
            for m in range(start, len(terms)):
                in_place = m > start and terms[:m] not in saved
                save = terms[: m + 1] if terms[: m + 1] in saved else None
                steps.append((*terms[m], in_place, save))
            plan.append((terms[:start], tuple(steps)))
        return tuple(plan)

    @classmethod
    def from_butcher_json(cls, path: str) -> "RKMethod":
        """Load a tableau from a JSON file with keys ``a``, ``b``, ``c``.

        Optional keys: ``name`` and ``order``.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read Butcher tableau {path!r}: {exc}") from exc
        if not isinstance(data, dict) or not all(k in data for k in ("a", "b", "c")):
            raise ValueError("Butcher tableau JSON must contain keys 'a', 'b', 'c'")
        try:
            order = data.get("order")
            if order is not None:
                order = ops.read_number(order, "order", integer=True)
                if order < 1:
                    raise ValueError(f"order must be an integer >= 1, got {order!r}")
            return cls(
                name=str(data.get("name", "custom")),
                a=data["a"],
                b=data["b"],
                c=data["c"],
                order=order,
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid Butcher tableau {path!r}: {exc}") from exc


RK4 = RKMethod(
    name="rk4",
    a=((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)),
    b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    c=(0.0, 0.5, 0.5, 1.0),
    order=4,
)

SSPRK33 = RKMethod(
    name="ssprk33",
    a=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.25, 0.25, 0.0)),
    b=(1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0),
    c=(0.0, 1.0, 0.5),
    order=3,
)


def _compose_two_half_steps(m: RKMethod, name: str) -> RKMethod:
    """Butcher product of two half-size steps of ``m`` (one 2s-stage tableau).

    The stability function becomes ``R(z/2)^2``, doubling the stability region
    along every ray while keeping the order of ``m``.
    """
    s = m.stages
    a = [[0.0] * (2 * s) for _ in range(2 * s)]
    for i in range(s):
        for j in range(s):
            a[i][j] = 0.5 * m.a[i][j]
            a[s + i][s + j] = 0.5 * m.a[i][j]
        for j in range(s):
            a[s + i][j] = 0.5 * m.b[j]
    b = tuple(0.5 * w for w in m.b) * 2
    c = tuple(0.5 * x for x in m.c) + tuple(0.5 + 0.5 * x for x in m.c)
    return RKMethod(name=name, a=tuple(tuple(r) for r in a), b=b, c=c, order=m.order)


#: Two composed half-steps of classic RK4.  Its stability region contains the
#: segment [-5.57, 0] of the negative real axis, so it tolerates the strongly
#: damped spurious mode of the upwind operators at dt = dx/2, where plain RK4
#: (limit -2.785) and SSPRK33 (-2.51) are unstable.
RK4X2 = _compose_two_half_steps(RK4, "rk4x2")

_BUILTIN_METHODS = {"rk4": RK4, "ssprk33": SSPRK33, "rk4x2": RK4X2}


def resolve_method(rk: Union[str, RKMethod]) -> RKMethod:
    """Map a method spec ('rk4', 'ssprk33', 'rk4x2', 'custom:<file>', or a tableau)."""
    if isinstance(rk, RKMethod):
        return rk
    key = str(rk)
    if key in _BUILTIN_METHODS:
        return _BUILTIN_METHODS[key]
    if key.startswith("custom:"):
        return RKMethod.from_butcher_json(key[len("custom:"):])
    raise ValueError(
        f"unknown RK method {rk!r}; use 'rk4', 'ssprk33', 'rk4x2' or 'custom:<file>'"
    )


class Stage(NamedTuple):
    b: float
    y: np.ndarray
    f: np.ndarray


@dataclasses.dataclass(frozen=True)
class Scheme:
    """Spatial discretization: variant, speed, derivative and energy matrix."""

    variant: str
    advection_speed: float
    grid: Grid
    D_effective: BlockCirculantOp
    M_energy: BlockCirculantOp

    @functools.cached_property
    def rhs_operator(self) -> tuple[BlockCirculantOp, float]:
        """The operator :meth:`rhs` applies, and the factor it then multiplies by.

        At ``|a| = 1`` the factor ``-a`` only sets the sign, and rounding
        is symmetric, so ``x * (-a scale)`` rounds to ``(x * scale) * -a``
        in every range: ``-a`` goes into the operator's scale, and the
        factor is 1.  At any other speed both roundings stay.
        """
        D, a = self.D_effective, self.advection_speed
        if abs(a) == 1.0:
            return BlockCirculantOp(D.n, D.dx, -a * D.scale, D.blocks), 1.0
        return D, -a

    def rhs(
        self,
        u: np.ndarray,
        out: Optional[np.ndarray] = None,
        binding: Optional[MatvecBinding] = None,
    ) -> np.ndarray:
        """``-a D u``, into ``out`` through the matvec ``binding`` when given."""
        op, factor = self.rhs_operator
        f = op.matvec(u, out, binding)
        if factor != 1.0:
            f *= factor
        return f

    def energy(self, u: np.ndarray, workspace: Optional["Workspace"] = None) -> float:
        """``u^T M u``; with a workspace, ``M u`` goes into its ``Mu`` buffer.

        A workspace takes only its own state ``u``: the binding of ``M u``
        refuses any other array with :class:`ValueError`.
        """
        if workspace is None:
            return float(u @ (self.M_energy @ u))
        return float(u @ self.M_energy.matvec(u, workspace.Mu, workspace.M_u))


def make_scheme(grid: Grid, variant: str, advection_speed: float = 1.0) -> Scheme:
    """Build the semi-discrete scheme for ``u_t + a u_x = 0``.

    ``variant='central'`` pairs the skew central derivative with the diagonal
    mass; ``variant='upwind'`` picks the derivative biased against the wind
    (D_- for a > 0, D_+ for a < 0) with the degenerate upwind mass.
    """
    a = float(advection_speed)
    if variant == "central":
        D = ops.central_D(grid)
        M = ops.diagonal_mass(grid)
    elif variant == "upwind":
        if a == 0.0:
            raise ValueError("upwind variant needs a nonzero advection speed")
        D = ops.upwind_D_minus(grid) if a > 0 else ops.upwind_D_plus(grid)
        M = ops.upwind_mass(grid, 1.0)
    else:
        raise ValueError(f"unknown variant {variant!r}; use 'central' or 'upwind'")
    return Scheme(variant=variant, advection_speed=a, grid=grid, D_effective=D, M_energy=M)


class _StepProgram:
    """:func:`rk_step` on one operand ``u``, resolved once.

    ``plan`` holds one entry per fold: its terms ``(c, k_j, y, out)``, for
    ``out = y + (dt c) k_j``, and for a stage its state ``y``, its
    derivative ``k_i`` and, with ``bind``, the binding of the scheme's
    right-hand side operator to that pair (the bindings share one set of
    scratch arrays).  Without ``bind`` the derivative is copied from
    ``scheme.rhs(y)``, so the scheme needs nothing else.  The arrays the
    folds form, and ``tmp`` for one scaled term before it is added, are the
    program's own, made like ``k[0]``.  ``folds`` is ``plan`` with ``dt c``
    in place of ``c``, for the ``dt`` it was last formed for.
    """

    __slots__ = ("scheme", "method", "u", "tmp", "plan", "update", "stages", "dt", "folds")

    def __init__(self, scheme, method: RKMethod, u: np.ndarray, k: Sequence[np.ndarray], bind: bool):
        new = functools.partial(np.empty_like, k[0])
        saved, plan, share = {(): u}, [], None
        for i, (source, terms) in enumerate(method._folds):
            y = saved[source]
            resolved = []
            for j, c, in_place, save in terms:
                out = y if in_place else new()
                resolved.append((c, k[j], y, out))
                y = out
                if save is not None:
                    saved[save] = y
            f = k[i] if i < method.stages else None
            binding = None
            if bind and f is not None:
                binding = share = scheme.rhs_operator[0].bind(y, f, share)
            plan.append((tuple(resolved), y, f, binding))
        self.scheme, self.method, self.u, self.tmp = scheme, method, u, new()
        self.plan, self.update = tuple(plan), plan[-1][1]
        self.stages = [Stage(b=b, y=y, f=f) for b, (_, y, f, _) in zip(method.b, plan)]
        self.dt = self.folds = None

    def run(self, dt: float) -> tuple[np.ndarray, list[Stage]]:
        if dt != self.dt:
            self.dt = dt
            self.folds = tuple(
                (tuple((dt * c, k, y, out) for c, k, y, out in terms), *rest)
                for terms, *rest in self.plan
            )
        scheme, tmp = self.scheme, self.tmp
        for terms, y, f, binding in self.folds:
            for dtc, k, src, out in terms:
                np.add(src, np.multiply(dtc, k, tmp), out)
            if binding is not None:
                scheme.rhs(y, f, binding)
            elif f is not None:
                np.copyto(f, scheme.rhs(y))
        return self.update, self.stages


@dataclasses.dataclass(frozen=True, eq=False)
class Workspace:
    """Every array one run's time loop writes, allocated once per run.

    ``kd`` holds the stage derivatives and then the update difference ``d``
    as the rows of one ``(s + 1, 2n)`` array; ``d`` is its last row.
    ``tmp`` holds one scaled term, ``(dt c) k_j`` or ``gamma d``, before it
    is added.  ``Mkd`` takes the products of ``M`` with the rows of ``kd``,
    the ``M f_i`` and then ``Md``, and ``Mu`` takes ``M u``.

    The workspace is allocated for the run's state array ``u``, scheme and
    method.  ``M_u`` and ``M_d`` bind ``M`` to ``u`` and ``d`` with their
    outputs, sharing one set of scratch arrays, ``M_kd`` to the whole
    stack, and ``step`` is the program :func:`rk_step` replays on ``u``:
    the arrays its folds form and ``tmp`` are its own.  A workspace
    allocated without the stage estimate has no stack of products:
    ``Mkd`` and ``M_kd`` are None and ``Md`` stands alone.
    """

    tmp: np.ndarray
    kd: np.ndarray
    d: np.ndarray
    Mkd: Optional[np.ndarray]
    Md: np.ndarray
    Mu: np.ndarray
    M_u: MatvecBinding
    M_d: MatvecBinding
    M_kd: Optional[MatvecBinding]
    step: _StepProgram

    @classmethod
    def allocate(
        cls, scheme: Scheme, method: RKMethod, u: np.ndarray, *, estimate: bool = True
    ) -> "Workspace":
        """Buffers for real states of ``scheme`` stepped by ``method``, bound to ``u``.

        ``estimate=False`` leaves out the stack of products, which only
        relaxed steps that keep the stage estimate use.
        """
        size, s, M = 2 * scheme.grid.n, method.stages, scheme.M_energy
        kd, Mu = np.empty((s + 1, size)), np.empty(size)
        Mkd = np.empty((s + 1, size)) if estimate else None
        d, Md = kd[s], (Mkd[s] if estimate else np.empty(size))
        step = _StepProgram(scheme, method, u, tuple(kd[:s]), bind=True)
        M_u = M.bind(u, Mu)
        return cls(
            tmp=step.tmp,
            kd=kd,
            d=d,
            Mkd=Mkd,
            Md=Md,
            Mu=Mu,
            M_u=M_u,
            M_d=M.bind(d, Md, M_u),
            M_kd=M.bind(kd, Mkd) if estimate else None,
            step=step,
        )


def rk_step(
    scheme: Scheme,
    method: RKMethod,
    u: np.ndarray,
    dt: float,
    workspace: Optional[Workspace] = None,
) -> tuple[np.ndarray, list[Stage]]:
    """One explicit RK step; returns the update and per-stage data.

    The stage data (weights, stage states, stage derivatives) is exactly what
    :func:`relaxation_gamma` needs, so a caller can rescale the update without
    recomputing any right-hand sides.  The sums are those of folding each
    stage's terms into a copy of ``u`` one at a time, bit for bit; shared
    prefixes are summed once (see the module docstring).  ``u`` is not
    written to, but the returned arrays may share memory with it and with
    each other (the first stage state is ``u`` itself), so treat them as
    read-only.

    Without a workspace every returned array is new, and ``scheme`` needs
    only ``rhs(y)``: its results are copied into arrays of ``u``'s dtype,
    promoted to float.  With one, the call replays the workspace's step
    program, which must be the one allocated for this ``scheme``,
    ``method`` and ``u`` (``is``); any other raises :class:`ValueError`.
    The update and the stage states other than ``u`` are then the
    program's arrays and the stage derivatives rows of the workspace's
    ``kd``, and the stage list is the program's own, the same list every
    call: the next call overwrites all of them.  The values are the same
    bits either way.
    """
    ws = workspace
    if ws is None:
        shape, dtype = np.shape(u), np.promote_types(np.asarray(u).dtype, float)
        k = [np.empty(shape, dtype) for _ in range(method.stages)]
        return _StepProgram(scheme, method, u, k, bind=False).run(dt)
    step = ws.step
    if step.u is not u or step.scheme is not scheme or step.method is not method:
        raise ValueError("the workspace was allocated for another state, scheme or method")
    return step.run(dt)


def relaxation_gamma(
    u: np.ndarray,
    u_next: np.ndarray,
    stage_data: Sequence[Stage],
    M: BlockCirculantOp,
    dt: float,
    *,
    workspace: Optional[Workspace] = None,
) -> float:
    """Step scaling that matches the energy change to the stage estimate.

    Solves ``E(u + gamma d) - E(u) = gamma * e`` for the nontrivial root,
    where ``d = u_next - u`` and ``e = 2 dt sum_i b_i <y_i, f_i>_M`` is the
    inner-product estimate of the energy change.  Empty ``stage_data`` means
    ``e = 0``, which a caller passes when ``M D + D^T M = 0`` makes every
    stage term vanish; it saves the ``M f_i`` products.  Returns 1 when the
    update is too small for the quadratic to be meaningful.

    ``M d`` and every ``M f_i`` come from one matvec call on the stack
    ``[f_1, ..., f_s, d]`` (a stack of one, ``d`` alone, without stage
    data).  Each row has the bits of its own call, and the dot products
    follow in a fixed order: ``d M d``, then ``y_i M f_i`` stage by stage,
    then ``u M d``.  Without a workspace, ``d`` and the products are new
    arrays.  With one, ``d`` goes into its ``d`` row, and the call replays
    its binding: ``M_d`` into ``Md`` without stage data, ``M_kd`` into the
    ``Mkd`` stack with its step program's own stage list.  Any other stage
    data, a workspace without the stack, or another ``M`` raises
    :class:`ValueError`.
    """
    ws = workspace
    if ws is None:
        d = u_next - u
        Mf = M @ np.stack([*(st.f for st in stage_data), d])
        Md = Mf[-1]
    else:
        d = np.subtract(u_next, u, out=ws.d)
        if not stage_data:
            Mf, Md = (), M.matvec(d, ws.Md, ws.M_d)
        elif stage_data is ws.step.stages and ws.M_kd is not None:
            Mf, Md = M.matvec(ws.kd, ws.Mkd, ws.M_kd), ws.Md
        else:
            raise ValueError(
                "a workspace takes no stage data or its own step's stage list, "
                "and that only when it holds the stack of products"
            )
    d2 = float(d @ Md)
    if d2 < 1e-30:
        return 1.0
    e = 0.0
    for st, Mf_i in zip(stage_data, Mf):  # stops before M d, the last row
        e += st.b * float(st.y @ Mf_i)
    e *= 2.0 * dt
    return (e - 2.0 * float(u @ Md)) / d2


def _estimate_vanishes(scheme: Scheme) -> bool:
    """True when ``M D + D^T M`` has no blocks, so ``<y, M D y> = 0`` for every y.

    Operators are stored in normal form (offsets reduced mod ``n``, aliased
    blocks summed, zero blocks dropped), so no blocks means the zero
    operator however the offsets of ``D`` were written.  The blocks of the
    two terms cancel exactly or not at all: the central pair cancels, the
    upwind pairs leave their dissipation.
    """
    MD = scheme.M_energy @ scheme.D_effective
    return not (MD + MD.T).blocks


def _stability_coefficients(method: RKMethod) -> list[float]:
    """Coefficients ``[1, b.1, b.A1, ..., b.A^(s-1)1]`` of ``R(z)``, constant term first."""
    A, v = np.array(method.a), np.ones(method.stages)
    coeffs = [1.0]
    for _ in range(method.stages):
        coeffs.append(float(np.dot(method.b, v)))
        v = A @ v
    return coeffs


def _amplification_symbols(
    scheme: Scheme, method: RKMethod, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode step matrices ``P_k = R(Z_k)``, ``Z_k = -a dt B_k(D)``, and their size bounds.

    One unrelaxed step maps the mode coefficients ``fft(u.reshape(n, 2),
    axis=0)[k]`` to ``P_k`` times them.  ``P`` has shape ``(n, 2, 2)`` and
    comes from Horner's rule on the stacked 2x2 matrices, O(n s); the bound
    ``p(|Z_k|) = sum_j |c_j| |Z_k|^j`` (the infinity norm of ``Z_k``) runs
    through the same recursion and scales the rounding of ``P_k``.
    """
    Z = (-scheme.advection_speed * dt) * spectral._all_symbols(scheme.D_effective)
    znorm = np.abs(Z).sum(axis=2).max(axis=1)
    coeffs = _stability_coefficients(method)
    eye = np.eye(2)
    P, bound = np.broadcast_to(coeffs[-1] * eye, Z.shape), np.full_like(znorm, abs(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        P, bound = P @ Z + c * eye, bound * znorm + abs(c)
    return P, bound


def _amplification_radius(scheme: Scheme, method: RKMethod, dt: float) -> tuple[float, float]:
    """``rho = max_k rho(P_k)`` and the rounding tolerance of ``rho <= 1``.

    Horner's rule computes ``P_k`` to about ``3 s eps p(|Z_k|)`` (each of
    the ``s`` steps is a 2-term product and a sum); the symbols of D and the
    closed-form eigenvalues add a few eps more.  The tolerance
    ``16 s eps max_k p(|Z_k|)`` leaves room for the eigenvector
    conditioning, sqrt(3) for the central symbols, which are skew in the
    ``M_k`` inner product.  Measured on the stable pairs at n = 16 to 1200,
    dt = dx/4 and dx/2: ``rho - 1 <= 2.2e-16`` against tolerances of 5e-14
    to 8e-12; the unstable ones sit at ``rho - 1 >= 0.19``.
    """
    P, bound = _amplification_symbols(scheme, method, dt)
    rho = float(np.abs(spectral._eig_pairs(P)).max())
    return rho, 16.0 * method.stages * np.finfo(float).eps * float(bound.max())


@dataclasses.dataclass(frozen=True)
class EnergyTrace:
    """Time series of the M-energy along a run (gamma is 1 where unused)."""

    times: np.ndarray
    energies: np.ndarray
    gammas: np.ndarray

    @property
    def initial_energy(self) -> float:
        return float(self.energies[0])

    @property
    def max_drift(self) -> float:
        return float(np.abs(self.energies - self.energies[0]).max())

    @property
    def total_change(self) -> float:
        return float(self.energies[-1] - self.energies[0])

    @property
    def max_increment(self) -> float:
        return float(np.diff(self.energies).max())


def default_initial(x):
    """Smooth periodic default profile exp(sin x)."""
    return np.exp(np.sin(x))


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    variant: str = "central"
    n: int = 50
    x_min: float = 0.0
    x_max: float = 2.0 * math.pi
    t_end: float = 2.0 * math.pi
    rk: Union[str, RKMethod] = "rk4x2"
    relaxation: bool = True
    dt_factor: float = 0.5
    advection_speed: float = 1.0
    initial: Optional[Callable] = None


def _sample(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to elementwise calls."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.asarray([f(xi) for xi in x.ravel()], dtype=float).reshape(x.shape)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def project_initial(grid: Grid, f: Callable) -> np.ndarray:
    """Initial dof vector: pointwise interface samples plus quadrature averages.

    Cell averages use 5-node Gauss-Legendre quadrature, exact through degree
    9, so the projection error is pure quadrature truncation for smooth data.
    """
    points = _sample(f, grid.interfaces)
    nodes = grid.centers[:, None] + (0.5 * grid.dx) * _GL_NODES[None, :]
    averages = 0.5 * (_sample(f, nodes) @ _GL_WEIGHTS)
    return ops.interleave(points, averages)


#: Largest nominal step count ``ceil(t_end / dt)`` that :func:`run_experiment`
#: accepts; a run past it is refused up front.  With the step budget of
#: ``10 ceil(t_end / dt) + 1000``, no accepted run takes more than about 1e8
#: steps.  The tests, the CI and ``perfbench`` take at most 2400 (n = 1200
#: for one period at dt = dx/2), and one period at n = 1e6 takes 2e6.
MAX_STEPS = 10**7


def run_experiment(config: ExperimentConfig) -> tuple[EnergyTrace, np.ndarray]:
    """Advect the initial profile to ``t_end`` and trace the discrete energy.

    With relaxation enabled, each step advances time by ``gamma * dt``, with
    ``dt`` clipped to ``t_end - t`` before the step is relaxed.  A clipped
    last step ends at ``t + gamma * (t_end - t)``, exactly as computed in
    floating point, so a relaxed run misses ``t_end`` by up to
    ``|gamma - 1| * dt`` (cf. relaxation RK, Ranocha et al. 2020): 2.0e-9
    past it for the default central run, 3.5e-4 for n = 24 with
    ``dt_factor = 100``.

    Relaxed steps skip the stage energy estimate (``e = 0``, no ``M f_i``
    products) when the operators satisfy ``M D + D^T M = 0`` and the
    nominal step is linearly stable, ``rho = max_k rho(P_k) <= 1`` up to
    rounding, with ``P_k`` the per-mode step matrices.  Both are decided once
    per run.  ``rho`` only selects the estimate: an unstable step (relaxed
    central ssprk33 at ``dt_factor = 0.5`` has ``rho = 1.2``) keeps it and
    is not refused, so its chaotic trajectory stays that of the full
    estimate.  Raises :class:`EnergyBlowUpError` if the energy exceeds 1e3
    times its initial value.  Non-finite or non-positive
    ``t_end``/``dt_factor``, a non-finite advection speed, a nominal step
    that is zero or makes ``t_end / dt`` overflow, and a step count
    ``ceil(t_end / dt)`` past :data:`MAX_STEPS` raise :class:`ValueError`
    before any work is done.
    """
    for name in ("t_end", "dt_factor"):
        value = float(getattr(config, name))
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not math.isfinite(config.advection_speed):
        raise ValueError(f"advection_speed must be finite, got {config.advection_speed}")
    grid = ops.build_grid(config.n, config.x_min, config.x_max)
    t_end = float(config.t_end)
    dt_nominal = config.dt_factor * grid.dx
    if dt_nominal == 0.0 or not math.isfinite(t_end / dt_nominal):
        raise ValueError(
            f"time step dt = dt_factor * dx = {dt_nominal} is too small for t_end = {t_end}: "
            "the step count t_end / dt is not finite"
        )
    steps_nominal = math.ceil(t_end / dt_nominal)
    if steps_nominal > MAX_STEPS:
        raise ValueError(
            f"t_end = {t_end} takes {t_end / dt_nominal:.6g} steps of dt = dt_factor * dx = "
            f"{dt_nominal}, past the cap MAX_STEPS = {MAX_STEPS}"
        )
    scheme = make_scheme(grid, config.variant, config.advection_speed)
    method = resolve_method(config.rk)
    f0 = config.initial if config.initial is not None else default_initial
    u = project_initial(grid, f0)

    skip_estimate = False
    if config.relaxation and _estimate_vanishes(scheme):
        rho, tol = _amplification_radius(scheme, method, dt_nominal)
        skip_estimate = rho <= 1.0 + tol
    ws = Workspace.allocate(scheme, method, u, estimate=config.relaxation and not skip_estimate)
    e0 = scheme.energy(u, ws)
    times = [0.0]
    energies = [e0]
    gammas = [1.0]
    guard = 1e3 * max(e0, 1e-300)

    t = 0.0
    max_steps = 10 * steps_nominal + 1000
    steps = 0
    # Relaxed steps advance time by gamma*dt, so the loop usually ends with a
    # clipped partial step.  Remainders below 1e-9 of the nominal step are
    # dropped, and relaxation is skipped on steps below 1e-4 of it: there the
    # gamma quadratic is a ratio of O(dt^2) quantities swamped by rounding,
    # while a plain micro-step perturbs the energy only at O(dt).
    while t_end - t > 1e-9 * dt_nominal:
        dt = min(dt_nominal, t_end - t)
        u_next, stage_data = rk_step(scheme, method, u, dt, ws)
        # each new state overwrites the old one, which nothing reads after it
        if config.relaxation and dt > 1e-4 * dt_nominal:
            estimate_data = () if skip_estimate else stage_data
            gamma = relaxation_gamma(u, u_next, estimate_data, scheme.M_energy, dt, workspace=ws)
            if gamma <= 0.0:
                raise EnergyBlowUpError(
                    f"relaxation parameter became non-positive ({gamma:.3g}) at "
                    f"t = {t:.6g}; the step is likely outside the RK stability region"
                )
            np.add(u, np.multiply(gamma, ws.d, out=ws.tmp), out=u)
            t += gamma * dt
        else:
            gamma = 1.0
            # u_next belongs to the workspace, which the next step writes again
            np.copyto(u, u_next)
            t += dt
        energy = scheme.energy(u, ws)
        times.append(t)
        energies.append(energy)
        gammas.append(gamma)
        if not math.isfinite(energy) or energy > guard:
            raise EnergyBlowUpError(
                f"energy {energy:.6g} exceeded 1e3 x initial {e0:.6g} at t = {t:.6g}"
            )
        steps += 1
        if steps > max_steps:
            raise RuntimeError("time loop exceeded the step budget; check dt_factor")
    trace = EnergyTrace(
        times=np.asarray(times), energies=np.asarray(energies), gammas=np.asarray(gammas)
    )
    return trace, u
