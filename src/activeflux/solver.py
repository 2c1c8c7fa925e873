"""Semi-discrete advection schemes and energy-tracking explicit RK time loops.

The right-hand side is ``u_t = -a D u`` with D the central (skew) or upwind
(dissipative) derivative operator; energy is measured in the matching mass
inner product.  A relaxation parameter gamma rescales each RK update so the
discrete energy change matches the inner-product estimate of the true change,
which makes the central scheme conserve energy to rounding and keeps the
upwind scheme monotone.

The scheme is linear and its operators are block circulant, so one RK step
is a fixed polynomial of ``Z = -a dt D``: ``u_next = R(Z) u`` with ``R(z) =
sum_j c_j z^j`` (:func:`_stability_coefficients`).  A run whose loop reads
no stage data -- every unrelaxed run, and a relaxed one whose stage
estimate vanishes at a linearly stable step -- composes its steps: it
forms the difference ``d = R(Z) u - u = Z Q^(Z) u`` in two matvecs, ``d =
D^ (Q u)``, with ``D^`` the derivative's exact integer stencil, ``z = -a
dt / dx`` and ``Q = z sum_(j < s) c_(j+1) z^j D^^j``: ``z`` lives in
``Q``'s blocks, and both factors have scale 1, so neither matvec
multiplies by a scale.  The powers ``D^^j`` depend on neither ``n`` nor
``dt``: they are formed once per stencil and stage count
(:func:`_stencil_powers`), and each step size re-weights them in place
into the banded stack of ``Q`` that the run's workspace owns and has bound
once (:meth:`_ComposedStep._weigh`), with the bits of ``Q`` built through
the operator's constructor.  ``d`` is written as it is, never as ``u_next - u``, which cancels to an
error of eps ``|u|`` and, for small steps, moves the relaxation parameter
far past rounding.  A composed step makes 2 matvec calls, ``Q u`` and
``D^ q`` (and for the upwind mass one ``W`` product per energy and two
per gamma), where a stage step makes ``s + 1``: 9 for ``rk4x2``.

``D^`` stays a factor of its own.  Rounding ``Q``'s entries perturbs
``Q`` by a few eps relative, and the exact stencil annihilates the
constant part of that perturbation on the point rows and the average rows
alike, so the errors do not pile up from step to step.  One rounded ``P -
I = sum_(j >= 1) c_j Z^j`` of 17 blocks lets them pile up: over one period
of relaxed central ``rk4x2`` at n = 1200 it lands 2.3-3.8e-13 from an
80-bit run (two ways of forming it), where the split form lands
1.0-1.1e-14 (the stage loop 3.1-3.7e-14).

A run that keeps the stage estimate -- relaxed upwind runs, and relaxed
central runs whose step is not linearly stable -- steps through the
stages.  The estimate needs ``M f_i`` for every stage and the rescaling
needs ``M d``: its workspace forms all of them in one matvec call on the
stack of the stage derivatives and ``d`` (each row has the bits of its own
call), so such a step makes ``s + 1`` matvec calls, and one more for the
upwind energy's ``W u``: 10 for upwind ``rk4x2`` and 4 for central
``ssprk33``.  For the central scheme
the estimate is zero by construction: the SBP identity ``M D + D^T M = 0``
makes every stage term ``<y_i, M f_i>`` vanish, which
:func:`run_experiment` reads off the operators once per run.  Composing
the stage runs too was measured and left out while ``perfbench``'s
references pin their bits (to 1e-13): with the upwind estimate as one
quadratic form ``u^T sym(E) u`` the final states land 5e-13 to 1e-8 from
them at n = 16 to 128 (two ways of forming ``sym(E)``), and composing the
unstable central ``ssprk33`` step, which is chaotic, lands 4e-14 from them
at n = 16, 4e-6 at n = 64 and 3e-2 to 1e-1 at n = 96 and 128.

A stage step forms each stage state ``y_i = u + (dt a_i1) k_1 + ...``
and the update ``u + (dt b_1) k_1 + ...`` with the bits of folding their
nonzero terms into a copy of ``u`` one at a time; :attr:`RKMethod._folds`
plans the folds once per tableau, in two kinds.  A fold that is an earlier
fold of the step plus one term continues from that fold's result: one
multiply, one add.  Any other fold is products and one reduction: one
``np.multiply`` per run of consecutive stage derivatives, of its column of
``dt`` coefficients by those rows, into rows ``1..m`` of a product stack
whose row 0 holds ``u``, then one ``np.add.reduce`` over the stack's first
``m + 1`` rows (row 0 alone for a fold without terms, a copy of ``u``).  A
reduction over the outer axis adds the rows one after another, the fold's
own order.  Every fold writes its own array: ``rk4x2``'s update multiplies
all eight of its terms in one call.  A step's folds make 16 numpy calls
for ``rk4x2``, 8 for ``rk4`` and 6 for ``ssprk33``, where one multiply
and one add per term make 28, 14 and 12.  A lone term's coefficient is a 0-d view
of the ``dt c`` array, which numpy takes without the conversion a Python
float costs on every call.

At the benchmark's sizes (n = 16 to 128) a step's time is mostly the fixed
cost of its numpy calls, not their arithmetic.  A stage step's bound
matvec of a derivative makes six: three halo copies, one batched
``matmul`` (one BLAS ``dgemm`` per block), one reduction and one scaling;
one of the diagonal mass makes two multiplies (its elementwise rule).  A
composed step binds its products in the banded layout
(:meth:`~activeflux.operators.BlockCirculantOp.bind_banded`), on
ghost-celled arrays.  ``Q u`` and ``D^ q``, up to n = 8192 + P K, one
chunk, each refresh their operand's margins in two copies (a third where
the cells after the ring pass its end again, as for ``rk4x2`` at n = 16)
and make one ``matmul`` of one ``dgemm`` per residue mod ``P`` of the
groups of ``K`` cells, straight from the operand into ``q`` or ``d``: 5
for central ``rk4x2``'s ``Q`` and 2 for ``D^``.  Past one chunk each chunk
is one more ``matmul``.  No binding holds a halo, a product buffer or a
per-block product stack, and none has a scale multiply.  Both step
kinds measure the energy the same way, by weighted sums of squares
(:func:`_energy_form`, :meth:`Workspace.energy`): ``(w o u) . u`` with the
diagonal mass's weights, and ``(lambda o W u) . W u`` with ``W u`` one
banded product of the upwind mass's integer root ``W``
(:data:`_UPWIND_ROOT`), whose rounding stays relative to the energy where
``u . (M u)`` cancels (the upwind energy of smooth data is about ``n^-2``
of ``|u|^2``).  The composed step applies no mass at all: gamma's dots
are weighted sums too.  Nor does it form an update: ``u += d``
unrelaxed, ``u += gamma d`` relaxed.  At n = 1200 a relaxed central
composed step makes 13 numpy calls: 6 in ``Q u`` and ``D^ q``, 3 in
:func:`relaxation_gamma` (``w o d`` and two dots: the cut-off's ``u.Mu``
is the energy, read from the workspace), 2 for the relaxed update and 2
for the energy (``w o u`` and one dot).  An unrelaxed step makes 9: 6,
``u += d`` and the energy's 2; for the upwind mass 11, ``W u`` adding a
margin copy and a ``matmul``.  The stage estimate's dots ``y_i M f_i`` of
stages 2..s are one batched ``matmul`` of ``(s - 1, 1, 2n)`` by ``(s -
1, 2n, 1)``, which numpy takes row by row to the same ``cblas_ddot``.

:func:`run_experiment` constructs one :class:`Workspace` per run, of one
of two kinds: a :class:`_StageStep` or a :class:`_ComposedStep`.  Each holds
the run's state ``u``, its difference ``d`` and a scaled term, and every
array and binding its steps use.  Every
array operation of the time loop writes into it: the matvecs (their halo,
window and product buffers included), ``Q u`` and ``d`` of a composed step
and its weighted vectors, the scaled terms and products of the folds, the
stage states and derivatives of a stage step, and its products with
``M``; each new state overwrites the old one.  The steps allocate no array
of the state's size.  A stage workspace runs each operation as the plain
stage loop does, on the same operands in the same order, so its
trajectories are the same bits as fresh arrays; a composed one has the
bits of fresh banded bindings of ``Q``, ``D^`` and ``W``.  Either kind's
energy has the bits of the weighted sums on new arrays.  The stage step's
matvecs are per block but for its energy's ``W u``; the composed step's
are banded.

The workspace also does each step's set-up once per run.  A stage
workspace holds the folds' numpy calls with their arrays, the stage list,
one matvec binding
(:meth:`~activeflux.operators.BlockCirculantOp.bind`) per stage state and
derivative pair, the binding of the stack of ``M f_i`` and ``M d``, and
for the upwind mass the banded binding of ``W u``; each binding makes its
own scratch arrays.  A composed workspace holds the stencil powers, the
ghost-celled arrays of ``u``, ``q`` and ``d`` (and of ``W u`` and ``W d``
for the upwind mass), the tiled weights, ``Q``'s banded stack, and its
banded bindings: ``Q``'s and ``D^``'s, both on ``D^``'s ring, and,
upwind, ``W``'s of ``W u`` and ``W d``.  Each kind has a ``run(dt)``,
the step, an ``advance`` call to the unrelaxed update and a
``gamma_terms``, which gives :func:`relaxation_gamma` the step's dots;
the base's ``energy()`` measures either.

:func:`rk_step`, :func:`relaxation_gamma` and :meth:`Scheme.energy` each
have two paths.  Without a workspace they run on new arrays:
:func:`rk_step` is then the plain stage loop, naive folds over
``scheme.rhs(y)`` for any dtype and any object with an ``rhs``, and the
oracle of both workspace kinds, independent of the fold planner;
:func:`relaxation_gamma` makes one ``M @ x`` per product, and
:meth:`Scheme.energy` is ``u . (M @ u)``.  With one, they replay its
bindings, and take only the workspace's own state ``u``, scheme, method,
stage list and update (a composed workspace: its difference): anything
else raises :class:`ValueError`.  Both paths of :func:`relaxation_gamma`
share one tail.  Each step still calls :func:`rk_step`,
:func:`relaxation_gamma` (relaxed), :meth:`Scheme.energy` and, for every
product, ``BlockCirculantOp.matvec``, which are where its time is
measured.

A run's set-up is done where it changes, and no sooner or later:

- per stencil and stage count, cached: the stencil powers (60-80 us the
  first time, about 1 us after it);
- per stencil and ring, cached by value (:func:`_unscaled`): the
  operators of scale 1 a workspace binds, ``D^`` and the upwind root
  ``W``, with their banded stacks;
- per run's inputs, memoized by value in one LRU of 128 entries
  (:data:`_MEMO`, :func:`_memo_key`): the step-kind decision, ``M D +
  D^T M = 0`` (``_estimate_vanishes``) for a relaxed run and, for a
  relaxed central one, the amplification radius
  (``_amplification_radius``) on modes ``0..n//2`` from closed-form
  eigenvalues, keyed by ``n``, the offsets and bytes of the blocks of
  ``D`` and ``M``, ``z`` and the tableau;
- per run: the grid, scheme and initial state, the refusal of
  non-finite initial data, the workspace (its arrays, tiled weights and
  bindings) and the initial energy;
- per step size: a composed run re-weighs ``Q``'s stack in place, with no
  operator built and nothing bound, and a stage run forms ``dt`` times
  its coefficients.

Measured in process (thread CPU time, medians of 401 runs interleaved
with the former set-up, shared 2-vCPU host, one BLAS thread), a relaxed
central ``rk4x2`` run at n = 48 of one nominal step and one clipped step
takes 258 us with its memo and caches warm and 551 us cold, where
building ``Q`` per step size and the radius and the algebra per run took
568 and 647 us.

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
from .operators import BlockCirculantOp, Grid

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


_EPS = float(np.finfo(float).eps)


class EnergyBlowUpError(RuntimeError):
    """Raised when a run goes unstable.

    Either the traced energy exceeded 1e3 times its initial value, or the
    relaxation parameter is not positive — which happens when the base
    step amplifies energy faster than its own stage estimate, i.e. the time
    step is outside the method's stability region — or is NaN, when the
    step overflows.  The overflow itself raises no floating-point warning:
    the run takes it as a value and refuses the result.
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
        """How :func:`rk_step` forms stage states 2..s, then the update.

        Returns ``(coefficients, plan)``.  Fold ``i`` is stage ``i``'s state
        for ``i < s`` and the update for ``i = s``; fold 0 is ``u`` itself.
        ``plan[i - 1]`` lists fold ``i``'s calls, on fold numbers and rows,
        of one of two kinds:

        - ``("axpy", g, p, j)``: its terms are those of an earlier fold
          ``g`` plus one, added to fold ``g``'s result as ``(dt
          coefficients[p]) k_j`` through one scaled term;
        - ``("mul", p, j, w, r)`` calls then ``("sum", m)``: any other
          fold.  Rows ``1..m`` of the product stack, whose row 0 holds
          ``u``, take the fold's ``m`` products: per run of ``w``
          consecutive ``j``, rows ``r..r + w - 1`` are ``dt
          coefficients[p..p + w - 1]`` times ``k_j..k_{j + w - 1}``, in one
          multiply.  One reduction over the stack's first ``m + 1`` rows
          then sums them from ``u`` in row order; a fold without terms
          reduces row 0 alone, a copy of ``u``.

        Either kind adds the same terms to ``u`` one after another, so each
        result has the bits of folding its terms into a copy of ``u``, and
        each fold writes its own array.
        """
        folds = [tuple((j, c) for j, c in enumerate(row) if c != 0.0) for row in (*self.a, self.b)]
        coefficients, plan = [], []
        for i, terms in enumerate(folds[1:], 1):
            if terms and terms[:-1] in folds[:i]:
                coefficients.append(terms[-1][1])
                plan.append((("axpy", folds.index(terms[:-1]), len(coefficients) - 1, terms[-1][0]),))
                continue
            p = len(coefficients)
            coefficients += [c for _, c in terms]
            runs = []  # [p, j, w, r]: w products of consecutive k_j into rows r..
            for r, (j, _) in enumerate(terms, 1):
                if runs and runs[-1][1] + runs[-1][2] == j:
                    runs[-1][2] += 1
                else:
                    runs.append([p + r - 1, j, 1, r])
            plan.append((*(("mul", *run) for run in runs), ("sum", len(terms))))
        return tuple(coefficients), tuple(plan)

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

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """``-a D u`` as a new array; the time loop's stages bind the same product."""
        op, factor = self.rhs_operator
        f = op.matvec(u)
        if factor != 1.0:
            f *= factor
        return f

    def energy(self, u: np.ndarray, workspace: Optional["Workspace"] = None) -> float:
        """``u^T M u``; with a workspace, as weighted squares, stored in
        its ``uMu``, which :func:`relaxation_gamma` reads.

        Without a workspace it is ``u . (M @ u)``, the oracle.  Either
        workspace kind sums weighted squares (:meth:`Workspace.energy`,
        :func:`_energy_form`): ``(w o u) . u`` for the diagonal mass and
        ``(lambda o W u) . W u`` for the upwind one, with ``W u`` one
        banded product.  A workspace measures only its own state ``u``,
        for its own scheme: anything else raises :class:`ValueError`.
        """
        if workspace is None:
            return float(u @ (self.M_energy @ u))
        if u is not workspace.u or workspace.scheme is not self:
            raise ValueError("a workspace measures only its own state, for its own scheme")
        workspace.uMu = workspace.energy()
        return workspace.uMu


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


class Workspace:
    """The arrays one run's time loop writes, allocated once per run: base of the two step kinds.

    ``u`` is the run's state and ``d`` a step's difference.  ``tmp`` holds
    one scaled term, ``(dt c) k_j`` or ``gamma d``, before it is added, or
    a weighted vector of the energy or of gamma; ``uMu`` is the energy of
    the state last measured (NaN before the first).  ``stages`` is the
    stage list a step returns.  ``advance()`` moves ``u`` to a step's
    unrelaxed update.  Each kind's ``run(dt)`` is the step :func:`rk_step`
    replays on ``u``, and its ``gamma_terms`` gives :func:`relaxation_gamma`
    what it reads of the step.  The two kinds are :class:`_StageStep` and
    :class:`_ComposedStep`; each holds every array and binding its runs
    use.

    Both kinds measure ``u`` alike (:meth:`energy`), by the weighted
    squares of :func:`_energy_form`, with ``weights`` the form's ``w``
    tiled over the ring.  For the diagonal mass ``W`` and ``W_u`` are None
    and ``Wu`` is ``u`` itself.  For the upwind mass ``u`` is the ring of a
    ghost-celled array and ``Wu`` that of another, into which the banded
    binding ``W_u`` of ``W`` writes.  No other field is left unset.
    """

    __slots__ = ("scheme", "method", "u", "d", "tmp", "uMu", "stages", "advance", "W", "W_u", "Wu", "weights")

    def energy(self) -> float:
        """``(w o W u) . W u``, ``W u`` from the binding ``W_u`` (``u`` itself for the diagonal mass)."""
        if self.W is not None:
            self.W.matvec(self.W_u.u, self.W_u.out, self.W_u)
        return float(np.multiply(self.weights, self.Wu, self.tmp).dot(self.Wu))


class _StageStep(Workspace):
    """A workspace that steps through the stages, with its arrays and numpy calls resolved once.

    ``stack`` is the product stack of :attr:`RKMethod._folds`, whose row 0
    is the state ``u``.  Its rows are the rings of the ghost-celled rows of
    ``ghosted``, with the upwind root's ghost cells (none for the diagonal
    mass), so that ``W`` reads ``u`` where it is.  Stage states 2..s are
    the rows of ``Y``, the update is an array of its own, ``update``, which
    ``advance`` copies into ``u``, and ``tmp`` holds one scaled term before
    it is added.  ``kd`` holds the stage derivatives and then ``d`` as the
    rows of one ``(s + 1, 2n)`` array, and ``Mkd`` their products with
    ``M``, the ``M f_i`` and then ``Md``, through the per-block binding
    ``M_kd``.  ``dots`` holds the batched views of the stage estimate:
    stage states 2..s against their products ``M f_i``, and a ``(s - 1, 1,
    1)`` result.

    ``dtc`` holds ``dt`` times the method's coefficients for the ``dt`` it
    was last formed for.  ``calls`` is the step as one flat list of
    ``(function, arguments)``, which :meth:`run` replays in one loop: per
    stage its fold's calls, then the matvec of the scheme's right-hand side
    operator on its state ``y`` into its derivative ``k_i`` (a row of
    ``kd``), through a binding made once, and the multiply by the
    right-hand side's factor unless it is 1; then the update's fold.
    """

    __slots__ = (
        "ghosted", "stack", "Y", "kd", "Mkd", "Md", "M_kd", "dots", "update", "coefficients", "dtc", "dt", "calls",
    )

    def __init__(self, scheme: Scheme, method: RKMethod, u0: np.ndarray):
        coefficients, folds = method._folds
        n, s, size, M = scheme.grid.n, method.stages, 2 * scheme.grid.n, scheme.M_energy
        W, weights = _energy_form(scheme)
        before, after = ops._ghost_cells(*W._band[:2]) if W else (0, 0)
        rows = max((call[1] for calls in folds for call in calls if call[0] == "sum"), default=0)
        self.ghosted = np.zeros((rows + 1 + bool(W), 2 * (before + n + after)))  # the stack's rows, W u
        stack, Y = self.ghosted[: rows + 1, 2 * before : 2 * before + size], np.empty((s - 1, size))
        kd, Mkd = np.empty((s + 1, size)), np.empty((s + 1, size))
        self.scheme, self.method = scheme, method
        self.stack, self.Y, self.kd, self.Mkd = stack, Y, kd, Mkd
        self.u, self.d, self.Md, self.tmp = stack[0], kd[s], Mkd[s], np.empty(size)
        np.copyto(self.u, u0)
        self.uMu = math.nan
        self.W, self.weights = W, np.tile(weights, n)
        self.W_u = W.bind_banded(self.ghosted[0], self.ghosted[-1], before) if W else None
        self.Wu = self.ghosted[-1, 2 * before : 2 * before + size] if W else self.u
        self.coefficients = np.array(coefficients)
        self.dtc = np.empty_like(self.coefficients)
        results = [self.u, *Y, np.empty(size)]
        k = tuple(kd[:s])
        op, factor = scheme.rhs_operator
        calls = []
        for i, y in enumerate(results):
            for kind, *args in folds[i - 1] if i else ():
                if kind == "axpy":
                    g, p, j = args
                    calls.append((np.multiply, (self.dtc[p, ...], k[j], self.tmp)))
                    calls.append((np.add, (results[g], self.tmp, y)))
                elif kind == "mul":
                    p, j, w, r = args
                    column = self.dtc[p : p + w, None]
                    calls.append((np.multiply, (column, kd[j : j + w], stack[r : r + w])))
                else:
                    calls.append((np.add.reduce, (stack[: args[0] + 1], 0, None, y)))
            if i < s:
                calls.append((op.matvec, (y, k[i], op.bind(y, k[i]))))
            if i < s and factor != 1.0:
                calls.append((np.multiply, (k[i], np.array(factor), k[i])))
        self.calls, self.update, self.dt = tuple(calls), results[s], None
        self.advance = functools.partial(np.copyto, self.u, self.update)
        self.stages = [Stage(b=b, y=y, f=f) for b, y, f in zip(method.b, results, k)]
        self.M_kd = M.bind(kd, Mkd)
        self.dots = (Y[:, None, :], Mkd[1:s, :, None], np.empty((s - 1, 1, 1)))

    def run(self, dt: float) -> tuple[np.ndarray, list[Stage]]:
        if dt != self.dt:
            np.multiply(dt, self.coefficients, self.dtc)
            self.dt = dt
        for function, args in self.calls:
            function(*args)
        return self.update, self.stages

    def gamma_terms(self, u, u_next, stage_data, M) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """``d = u_next - u`` into ``d``, ``M d`` with every ``M f_i`` in one call into ``Mkd``, and ``u``.

        The dot of stage 1 is ``M f_1`` against ``u``; those of stages 2..s
        are one batched ``matmul`` of ``(s - 1, 1, 2n)`` by ``(s - 1, 2n,
        1)``, which numpy takes row by row to the same ``cblas_ddot``.
        """
        if u is not self.u or stage_data is not self.stages:
            raise ValueError("a stage workspace takes its own state and its own step's stage list")
        d = np.subtract(u_next, u, self.d)
        M.matvec(self.kd, self.Mkd, self.M_kd)
        left, right, out = self.dots
        dots = np.matmul(left, right, out).ravel().tolist()
        return d, self.Md, u, [float(self.Mkd[0].dot(u)), *dots]


def _stencil_powers(D: BlockCirculantOp, count: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The powers ``D^^0 .. D^^(count - 1)`` of the unscaled stencil of ``D``, on shared offsets.

    Returns the offsets where some power has a nonzero block, increasing
    and not reduced mod ``n``, and a read-only ``(count, #offsets, 2, 2)``
    stack whose row ``j`` holds the blocks of ``D^^j`` (zeros where it has
    none).  Power ``j`` is power ``j - 1`` times the stencil: one ``matmul``
    per block of ``D`` over the offsets of power ``j - 1``.  The offsets at
    either end where every power's block is zero are dropped, so ``Q``'s
    band is no wider than its blocks: ``D_-``'s block at +1 squares to
    zero, so its powers up to ``j`` reach only -j..1, not -j..j (``rk4x2``'s
    ``Q`` spans 9 offsets, not 15).  The powers are exact integers there,
    so the test for zero is exact.  Offsets that alias mod ``n`` (small n)
    stay apart; the composed workspace folds them as ``Q``'s constructor
    would (:meth:`_ComposedStep._weigh`).
    An entry of ``D^^j``, and every partial sum that forms it, is at most
    ``|D^|_inf^j``: 8**j for the central derivative and 12**j for the
    upwind ones (point rows ``2, -6, 4`` and ``-4, 6, -2``), so the powers
    are exact integers for up to 18 and 15 stages (measured at n = 3 to
    80: up to 28 and 27).  Past that they round by eps relative, as ``Q``'s
    weights and their products do anyway: the composed step's accuracy
    rests on ``D``'s exact stencil as its last factor, not on exact powers.
    The powers depend on neither ``n`` nor ``dt``, so they are cached per
    stencil and stage count, and each step size re-weights them.  The
    operator algebra's ``@`` forms the same powers five times slower.
    """
    return _powers(tuple(D.blocks), D.stack.tobytes(), count)


@functools.lru_cache(maxsize=16)
def _powers(offsets: tuple[int, ...], entries: bytes, count: int) -> tuple[tuple[int, ...], np.ndarray]:
    """:func:`_stencil_powers` of the stencil whose blocks at ``offsets``
    are the ``(#blocks, 2, 2)`` stack ``entries``, its bytes."""
    lo, hi = min([0, *offsets]), max([0, *offsets])
    first = (count - 1) * lo
    powers = np.zeros((count, (count - 1) * (hi - lo) + 1, 2, 2))
    powers[0, -first] = np.eye(2)
    blocks = tuple(zip(offsets, np.frombuffer(entries).reshape(-1, 2, 2)))
    for j in range(1, count):
        # the blocks of D^(j - 1) lie at offsets (j - 1) lo .. (j - 1) hi
        start, stop = (j - 1) * lo - first, (j - 1) * hi - first + 1
        for shift, block in blocks:
            powers[j, start + shift : stop + shift] += powers[j - 1, start:stop] @ block
    kept = np.flatnonzero(powers.any(axis=(0, 2, 3)))  # offset 0 always: D^^0 = I
    a, b = kept[0], kept[-1] + 1
    stack = powers[:, a:b]
    stack.setflags(write=False)
    return tuple(range(first + a, first + b)), stack


#: The upwind mass as weighted squares, ``M_+ = dx W^T Lambda W``: ``W`` is
#: this integer stencil of two blocks and ``Lambda = diag(1/4, 1/12)``
#: weighs each cell's two entries of ``W u``: ``2 (a - (p + p_+) / 2)`` and
#: ``p_+ - p``, with ``p``, ``p_+`` the cell's interface values and ``a``
#: its average.
_UPWIND_ROOT = {0: ((-1.0, 2.0), (-1.0, 0.0)), 1: ((-1.0, 0.0), (1.0, 0.0))}


#: The key of :data:`_UPWIND_ROOT` for :func:`_unscaled`: its offsets and the bytes of its blocks.
_ROOT_KEY = (tuple(_UPWIND_ROOT), np.array([*_UPWIND_ROOT.values()]).tobytes())


@functools.lru_cache(maxsize=64)
def _unscaled(n: int, dx: float, offsets: tuple[int, ...], entries: bytes) -> BlockCirculantOp:
    """The operator of scale 1 whose blocks at ``offsets`` are the ``(#blocks, 2, 2)`` stack ``entries``, its bytes.

    A run's ``D^`` and the upwind root ``W`` are such operators, on the
    run's ring of ``n`` cells of width ``dx``.  They are cached by value,
    so runs on one ring and stencil share one operator and its banded
    stack (:attr:`~activeflux.operators.BlockCirculantOp._band`), and
    each workspace makes only its own bindings.  An entry holds blocks
    and one ``(2 P K, 2 K)`` stack, nothing of the ring's size.
    """
    return BlockCirculantOp(n, dx, 1.0, dict(zip(offsets, np.frombuffer(entries).reshape(-1, 2, 2))))


def _energy_form(scheme: Scheme) -> tuple[Optional[BlockCirculantOp], np.ndarray]:
    """The scheme's mass as weighted squares, ``M = W^T diag(w) W``: ``W``, and ``w`` over one cell.

    The diagonal mass is its own weights, ``w = scale (1/4, 3/4)`` (the
    mass's stored diagonal times its scale) with ``W`` the identity, given
    as None.  Any other mass is :func:`make_scheme`'s upwind mass, whose
    ``W`` is :data:`_UPWIND_ROOT`, of scale 1 (:func:`_unscaled`), with
    ``w = scale (1/4, 1/12)``.  Its entries are integers, so a banded ``W
    u`` rounds only in its sums: an entry ``p_+ - p`` is one subtraction,
    within eps/2 of itself, and ``2 a - p - p_+`` is two.
    The energy of smooth data then keeps its relative accuracy, where
    ``u . M u`` cancels: a smooth state lies near ``M_+``'s kernel, which
    amplifies the rounding of ``M``'s entries and of ``M u`` by ``|u|^2 /
    E``, about ``n^2``.
    """
    M = scheme.M_energy
    if M._diagonal is not None:
        return None, np.multiply(M.scale, M._diagonal)
    return _unscaled(M.n, M.dx, *_ROOT_KEY), np.multiply(M.scale, (0.25, 1.0 / 12.0))


class _ComposedStep(Workspace):
    """A workspace whose step forms ``d = D^ (Q u)`` in two banded matvecs, measured by weighted squares.

    ``stencil`` is ``D^``, the scheme's derivative with scale 1
    (:func:`_unscaled`).  ``u``, ``q`` (``Q u``) and ``d`` are the rings
    of the first three ghost-celled arrays ``ghosted``, each with
    ``ghosts`` cells before the ring and enough after it for every band
    (:func:`operators._ghost_cells`): ``Q`` reads ``u`` and writes ``q``,
    ``D^`` reads ``q`` and writes ``d``, straight from and into those
    arrays.  No update is formed: the loop adds ``d`` to ``u`` in place,
    through ``advance`` (``u += d``) or relaxed (``u += gamma d``).

    ``Q`` is ``Q``'s band as :attr:`~activeflux.operators.BlockCirculantOp._band`
    gives an operator's, ``(lo, span, stack)``, with a ``(2 P K, 2 K)``
    stack that the workspace owns.  The band is ``Q``'s widest:
    the offsets of the stencil ``powers`` reduced mod ``n``, as the normal
    form stores them.  Both bindings are made once, on ``D^``'s ring:
    ``Q_u`` of that band
    (:meth:`~activeflux.operators.BlockCirculantOp._bind_band`) and
    ``D_q`` of ``D^``.  When ``dt`` changes, :meth:`_weigh` rewrites the
    stack in place; no operator is built and nothing is bound again.  A
    block of ``Q`` that is zero at some ``dt`` stays in the band as exact
    zeros, which leave every sum of the banded product as it is.

    The mass is never applied.  The energy and gamma's dots are weighted
    sums of ``W u`` and ``W d`` (:func:`_energy_form`).  For the diagonal
    mass ``Wd`` is ``d`` itself and ``W_d`` None; for the upwind mass
    ``Wu`` and ``Wd`` are the rings of two more ghost-celled arrays, into
    which the banded bindings ``W_u`` and ``W_d`` write.  No stage is
    formed, so the stage list is empty, and no binding is per block.
    """

    __slots__ = ("q", "ghosted", "ghosts", "powers", "folds", "stencil", "D_q", "dt", "Q", "Q_u", "W_d", "Wd")

    def __init__(self, scheme: Scheme, method: RKMethod, u0: np.ndarray):
        n, D = scheme.grid.n, scheme.D_effective
        self.scheme, self.method, self.stages, self.uMu, self.dt = scheme, method, (), math.nan, None
        offsets, self.powers = _stencil_powers(D, method.stages)
        self.stencil = _unscaled(n, D.dx, tuple(D.blocks), D.stack.tobytes())
        W, weights = _energy_form(scheme)
        reduced = (np.array(offsets) + n // 2) % n - n // 2  # the normal form's offsets
        lo, span = int(reduced.min()), int(reduced.max() - reduced.min()) + 1
        bands = [(lo, span), self.stencil._band[:2], *([W._band[:2]] if W else [])]
        before, after = (max(cells) for cells in zip(*(ops._ghost_cells(*b) for b in bands)))
        self.ghosted = tuple(np.zeros(2 * (before + n + after)) for _ in range(3 if W is None else 5))
        rings = [x[2 * before : 2 * (before + n)] for x in self.ghosted]
        self.u, self.q, self.d = rings[:3]
        self.Wu, self.Wd = rings[3:] or (self.u, self.d)
        self.tmp, self.ghosts, self.weights = np.empty(2 * n), before, np.tile(weights, n)
        np.copyto(self.u, u0)
        # the powers' offsets are consecutive, so any n of them in a row
        # reduce to distinct offsets: fold k takes offsets k n .. k n + n - 1
        self.folds = tuple((reduced[k : k + n] - lo, slice(k, k + n)) for k in range(0, len(offsets), n))
        self.Q = lo, span, np.array(ops._grouped(np.zeros((span, 2, 2))))  # a writable copy, zeros
        self.Q_u = self.stencil._bind_band(*self.ghosted[:2], before, self.Q)
        self.D_q = self.stencil.bind_banded(*self.ghosted[1:3], before)
        pairs = zip(self.ghosted[:3:2], self.ghosted[3:])  # u into W u, d into W d
        self.W, (self.W_u, self.W_d) = W, [W.bind_banded(x, Wx, before) for x, Wx in pairs] or (None, None)
        self.advance = functools.partial(np.add, self.u, self.d, self.u)

    def _weigh(self, dt: float) -> None:
        """Rewrite ``Q``'s stack in place for steps of ``dt``: ``z sum_j c_(j+1) z^j D^^j``.

        With ``Z = -a dt D = z D^`` (``D^`` the unscaled stencil, ``z = -a
        dt / dx``) and ``R(z) = sum_j c_j z^j`` (:func:`_stability_coefficients`),
        one step's difference is ``R(Z) u - u = Z Q^(Z) u = D^ (z Q^ u)``
        with ``Q^ = sum_(j < s) c_(j+1) z^j D^^j``.  The stencil powers'
        blocks (:func:`_stencil_powers`) are weighted by ``c_(j+1) z^j``,
        summed over ``j`` in order and multiplied by ``z``, so ``D^`` has
        scale 1 and neither matvec multiplies by a scale.  Then they go
        into the stack by normal-form offset, transposed, in ``folds``:
        the first power offset of each offset is assigned, and where
        offsets alias mod ``n`` (n <= 14 for ``rk4x2``) each further one
        is added in increasing offset order, as the operator's constructor
        sums them.  So the stack holds, bit for bit, the blocks the
        constructor would store, and exact zeros wherever it would store
        none.
        """
        z = -self.scheme.advection_speed * dt * self.scheme.D_effective.scale
        zj, weights = 1.0, []
        for c in _stability_coefficients(self.method)[1:]:
            weights.append(c * zj)
            zj *= z
        band = z * np.add.reduce(np.multiply(np.array(weights)[:, None, None, None], self.powers), 0)
        blocks, ((at, of), *rest) = ops._diagonals(self.Q[2], self.Q[1]), self.folds
        blocks[:, at] = band[of].transpose(0, 2, 1)
        for at, of in rest:
            blocks[:, at] += band[of].transpose(0, 2, 1)

    def run(self, dt: float) -> tuple[np.ndarray, tuple]:
        u, q, d = self.ghosted[:3]
        if dt != self.dt:
            self._weigh(dt)
            self.dt = dt
        self.stencil.matvec(u, q, self.Q_u)  # Q's band, bound on D^'s ring
        self.stencil.matvec(q, d, self.D_q)
        return self.d, self.stages

    def gamma_terms(self, u, d, stage_data, M) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """``W d``, ``w o W d`` and ``W u`` for the step's own ``d``, never ``u_next - u``; no stage dots.

        ``W u`` is formed again with ``W d``, so gamma does not depend on
        when ``u`` was last measured (for the diagonal mass both are ``u``
        and ``d`` themselves).
        """
        if u is not self.u or d is not self.d or stage_data or M is not self.scheme.M_energy:
            raise ValueError("a composed workspace takes its own state, difference and mass, no stage data")
        if self.W is not None:
            self.W.matvec(self.W_u.u, self.W_u.out, self.W_u)
            self.W.matvec(self.W_d.u, self.W_d.out, self.W_d)
        return self.Wd, np.multiply(self.weights, self.Wd, self.tmp), self.Wu, []


def rk_step(
    scheme: Scheme,
    method: RKMethod,
    u: np.ndarray,
    dt: float,
    workspace: Optional[Workspace] = None,
) -> tuple[np.ndarray, Sequence[Stage]]:
    """One explicit RK step; returns the update (a composed workspace: the difference) and per-stage data.

    The stage data (weights, stage states, stage derivatives) is exactly what
    :func:`relaxation_gamma` needs, so a caller can rescale the update without
    recomputing any right-hand sides.  ``u`` is not written to.

    Without a workspace this is the plain stage loop, the oracle of both
    workspace kinds: each stage state and the update fold their nonzero
    terms ``(dt a_ij) k_j`` into a copy of ``u`` one at a time, in an
    array of ``u``'s dtype promoted to float, and each derivative is a copy
    of ``scheme.rhs(y)``, so ``scheme`` needs nothing else.  The first stage
    state is ``u`` itself; every other returned array is new.

    With a workspace, ``u`` must be its own state and ``scheme`` and
    ``method`` those it was allocated for (``is``); any other raises
    :class:`ValueError`.  The step is the workspace's ``run(dt)``, and what
    it returns are its own arrays, which the next call overwrites: treat
    them as read-only.  A stage workspace (:class:`_StageStep`) returns the
    update and the stage list, with the bits of the plain loop.  A composed
    one (:class:`_ComposedStep`) forms no update: it writes ``d = D^ (Q
    u)`` into its ``d`` and returns that difference, ``R(Z) u - u`` to
    rounding (not bit for bit the stages'), with an empty stage list.  The
    caller advances ``u`` by it in place, ``u += d`` (the workspace's
    ``advance``) or ``u += gamma d``, and passes it to
    :func:`relaxation_gamma` in place of the update.
    """
    ws = workspace
    if ws is None:
        dtype = np.promote_types(np.asarray(u).dtype, float)
        k, stages = [], []
        for i, b in enumerate(method.b):
            y = u if i == 0 else _fold(u, method.a[i], k, dt, dtype)
            k.append(np.array(scheme.rhs(y), dtype))
            stages.append(Stage(b=b, y=y, f=k[i]))
        return _fold(u, method.b, k, dt, dtype), stages
    if ws.u is not u or ws.scheme is not scheme or ws.method is not method:
        raise ValueError("the workspace was allocated for another state, scheme or method")
    return ws.run(dt)


def _fold(u, weights, k, dt, dtype) -> np.ndarray:
    """``u + (dt w_1) k_1 + ...`` over the nonzero weights, added in turn to a copy of ``u``."""
    y = np.array(u, dtype)
    for w, k_j in zip(weights, k):
        if w != 0.0:
            y += (dt * w) * k_j
    return y


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
    ``gamma = (e - 2 u.Md) / d.Md``, where ``d = u_next - u`` (with a
    composed workspace, ``u_next`` is the difference :func:`rk_step`
    returned, ``d`` itself) and ``e = 2 dt
    sum_i b_i <y_i, f_i>_M`` is the inner-product estimate of the energy
    change.  Empty ``stage_data`` means ``e = 0``, which holds when ``M D +
    D^T M = 0`` makes every stage term vanish.

    Returns 1 when rounding alone could set gamma: when ``|d|_M <= 8 n eps
    |u|_M``, tested as ``d.Md <= (8 n eps)^2 u.Mu``.  Each dot product of
    ``2n`` terms rounds by at most ``2n eps sum_i |x_i| |y_i|`` (Higham,
    Thm. 3.1), which is at most ``2n eps |x|_M |y|_M`` for a diagonal ``M``
    (Cauchy-Schwarz).  So ``2 u.Md`` errs by up to ``4n eps |u|_M |d|_M``,
    and ``e`` by about as much again: its stage states are of the size of
    ``u``, and ``dt`` times its derivatives of the size of ``d``.  Over
    ``d.Md = |d|_M^2`` that moves gamma by up to ``8 n eps |u|_M / |d|_M``.
    At the cut-off that bound reaches 1, and gamma says nothing.  Both sides scale with the square of the data, so
    the decision does not depend on its size (an absolute cut-off switched
    relaxation off for data of size 1e-16), and ``d = 0`` or ``u = 0``
    returns 1 too.

    The tail reads three arrays ``x``, ``y`` and ``v`` with ``d.Md =
    x.y`` and ``u.Md = y.v``, and the stage dots.  Without a workspace
    they are ``d``, ``M d`` and ``u``, with ``d``, ``M d``, ``M u`` and
    each ``M f_i`` new arrays, one ``M @ x`` each, and each dot product one
    ``cblas_ddot``.  With one, its ``gamma_terms`` gives them: a stage
    workspace ``d``, ``M d`` and ``u``, with the same bits, and a composed
    one its weighted squares, ``W d``, ``w o W d`` and ``W u``
    (:func:`_energy_form`; ``d`` and ``u`` for the diagonal mass), from
    its own ``d``, never ``u_next - u``.  ``u.Mu`` is then read from the
    workspace's ``uMu``, the weighted squares :meth:`Scheme.energy` formed
    when it measured the state (the time loop measures every state before
    it steps it), so the cut-off alone may decide otherwise than without a
    workspace, and only within rounding of its threshold.  Both paths then
    share the same tail.
    """
    if workspace is None:
        x, v = u_next - u, u
        y, uMu = M @ x, float((M @ u).dot(u))
        dots = [float(st.y @ (M @ st.f)) for st in stage_data]
    else:
        (x, y, v, dots), uMu = workspace.gamma_terms(u, u_next, stage_data, M), workspace.uMu
    d2 = float(x.dot(y))
    if d2 <= (4 * u.size * _EPS) ** 2 * uMu:
        return 1.0
    e = 0.0
    for st, dot in zip(stage_data, dots):
        e += st.b * dot
    e *= 2.0 * dt
    return (e - 2.0 * float(y.dot(v))) / d2


#: The memo of the step-kind decision: one LRU of at most 128 entries,
#: each a key of :func:`_memo_key` and a bool or two floats, in a dict in
#: the order of their last use.
_MEMO, _MEMO_SIZE = {}, 128


def _memo_key(scheme: Scheme, method: Optional[RKMethod] = None, dt: Optional[float] = None) -> tuple:
    """All that :func:`_estimate_vanishes` and :func:`_amplification_radius` read, by value.

    ``n``, the offsets and the bytes of the stored blocks of the derivative
    and of the mass, ``z = -a dt / dx`` and the tableau, by the
    coefficients of its stability polynomial, all the radius reads of it
    (both None without ``dt``): O(1) in size, nothing of the ring's.  The operators are in
    normal form, so equal operators have equal keys however their offsets
    were written.  The scales are left out: ``M D + D^T M`` has one scale
    in both terms, so its blocks decide, and the radius reads ``D`` only
    through its unscaled stencil and ``z``.
    """
    D, M = scheme.D_effective, scheme.M_energy
    z, R = (None, None) if dt is None else (-scheme.advection_speed * dt * D.scale, _stability_coefficients(method))
    return D.n, tuple(D.blocks), D.stack.tobytes(), tuple(M.blocks), M.stack.tobytes(), z, R


def _memoized(function: Callable) -> Callable:
    """``function(scheme, *args)``, memoized in :data:`_MEMO` under its name and :func:`_memo_key`."""

    @functools.wraps(function)
    def memoized(scheme: Scheme, *args):
        key = (function.__name__, *_memo_key(scheme, *args))
        value = _MEMO.pop(key, None)
        if value is None:
            value = function(scheme, *args)
        _MEMO[key] = value  # the most recently used, last
        if len(_MEMO) > _MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
        return value

    return memoized


@_memoized
def _estimate_vanishes(scheme: Scheme) -> bool:
    """True when ``M D + D^T M`` has no blocks, so ``<y, M D y> = 0`` for every y.

    Operators are stored in normal form (offsets reduced mod ``n``, aliased
    blocks summed, zero blocks dropped), so no blocks means the zero
    operator however the offsets of ``D`` were written.  The blocks of the
    two terms cancel exactly or not at all: the central pair cancels, the
    upwind pairs leave their dissipation.  The sum is one construction:
    ``(M D)^T``'s block ``A_j^T`` goes in at offset ``2n - j``, past every
    normal-form offset, which the normal form reduces to ``-j`` and adds
    to ``M D``'s block there, as ``MD + MD.T`` would.
    """
    MD = scheme.M_energy @ scheme.D_effective
    both = {**MD.blocks, **{2 * MD.n - j: a.T for j, a in MD.blocks.items()}}
    return not BlockCirculantOp(MD.n, MD.dx, 1.0, both).blocks


@functools.lru_cache(maxsize=16)
def _stability_coefficients(method: RKMethod) -> tuple[float, ...]:
    """Coefficients ``(1, b.1, b.A1, ..., b.A^(s-1)1)`` of ``R(z)``, constant term first.

    Cached per tableau (equal tableaux have equal coefficients).
    """
    A, v = np.array(method.a), np.ones(method.stages)
    coeffs = [1.0]
    for _ in range(method.stages):
        coeffs.append(float(np.dot(method.b, v)))
        v = A @ v
    return tuple(coeffs)


@_memoized
def _amplification_radius(scheme: Scheme, method: RKMethod, dt: float) -> tuple[float, float]:
    """``rho = max_k rho(P_k)`` over the per-mode step matrices, and the tolerance of ``rho <= 1``.

    One unrelaxed step maps the mode coefficients ``fft(u.reshape(n, 2),
    axis=0)[k]`` to ``P_k = R(Z_k)`` times them, with ``Z_k = -a dt
    B_k(D) = z B^_k``, ``B^_k`` the symbol of the derivative's unscaled
    stencil and ``z = -a dt / dx``.  By the spectral mapping theorem the
    eigenvalues of ``P_k`` are ``R(lambda)`` for the eigenvalues
    ``lambda`` of ``Z_k``, so no matrix is formed: the closed-form roots
    of ``spectral._eig_roots`` go through Horner's rule for ``R`` as
    complex numbers.  They are the roots of ``B^_k``, whose entries are a
    few units, times ``z``: the roots of ``Z_k`` itself overflow in their
    quotient ``det / lambda_1`` once ``|z|`` is subnormal (a speed of
    1e-310), and those of ``B_k`` in their squares on a domain of 1e-200,
    either way giving NaN.  Only the modes
    ``k = 0..n//2`` are evaluated: ``Z_{n-k} = conj(Z_k)`` (the blocks are
    real), whose eigenvalues are the conjugates, and ``R`` has real
    coefficients, so mode ``n - k`` has the same radius.

    Tolerance ``16 s eps p(|z| max_k |B^_k|)``, with ``p(x) = sum_j |c_j|
    x^j`` and ``|B^_k|`` the infinity norm, so ``|z| |B^_k|`` is ``|Z_k|``
    up to rounding.  The symbols and the closed form give
    each ``lambda`` to a few eps times ``|Z_k|`` times the conditioning of
    its eigenvector basis (sqrt(3) for the central symbols, which are skew
    in the ``M_k`` inner product); an error ``delta`` in ``lambda`` moves
    ``R(lambda)`` by at most ``p'(|Z_k|) delta``, and ``x p'(x) <= s
    p(x)``.  Horner's rule adds about ``2 s eps p(|lambda|)``, with
    ``|lambda| <= |Z_k|``.  ``p`` is increasing, so its value at the
    largest norm bounds every mode.  Measured on the stable pairs at n = 16
    to 1200, dt = dx/4 and dx/2: ``rho - 1 <= 2.2e-16`` against tolerances
    of 5e-14 to 8e-12; the unstable ones sit at ``rho - 1 >= 0.19``.
    """
    D = scheme.D_effective
    stencil = spectral._Stack(D.n, tuple(D.blocks), D.stack[:, None], np.ones(1))
    B = spectral._stacked(*spectral._half_symbols(stencil))[0]
    z = -scheme.advection_speed * dt * D.scale
    znorm = abs(z) * float(np.abs(B).sum(axis=2).max())
    lam = np.stack(spectral._eig_roots(B))
    lam *= z
    coeffs = _stability_coefficients(method)
    R, bound = np.full_like(lam, coeffs[-1]), abs(coeffs[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # rho = inf or NaN fails rho <= 1 + tol
        for c in reversed(coeffs[:-1]):
            R *= lam
            R += c
            bound = bound * znorm + abs(c)
    rho = float(np.abs(R).max())
    return rho, 16.0 * method.stages * _EPS * bound


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
        """The largest one-step energy change; 0.0 for a run that takes no step."""
        return float(np.diff(self.energies).max()) if len(self.energies) > 1 else 0.0


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
    past it for the default central run (its last gamma is 1 + 3.2e-8, the
    method's, not rounding), 3.5e-4 for n = 24 with ``dt_factor = 100``.
    Relaxed central ``rk4x2`` at n = 50 over 200 steps of ``dt_factor`` 1e-5
    to 1e-8 keeps gamma within 1 +- 1.1e-6 and lands within 1.4e-16 of
    ``t_end``.

    Unrelaxed runs compose their steps (see the module docstring).  Relaxed
    runs do too, with ``e = 0`` and no stage data, when the operators
    satisfy ``M D + D^T M = 0`` and the nominal step is linearly stable,
    ``rho = max_k rho(P_k) <= 1`` up to rounding, with ``P_k`` the per-mode
    step matrices.  Both are decided once per run.  ``rho`` only selects
    the path: an unstable step (relaxed central ssprk33 at ``dt_factor =
    0.5`` has ``rho = 1.2``) keeps the stage estimate and is not refused,
    so its chaotic trajectory stays that of the full estimate.  Raises
    :class:`EnergyBlowUpError` if the energy exceeds 1e3 times its initial
    value or is not finite, or if gamma is not positive (NaN included); a
    step that overflows (a speed of 1e100 at n = 16) ends there, with no
    floating-point warning.  Non-finite or non-positive
    ``t_end``/``dt_factor``, a non-finite advection speed, a nominal step
    that is zero or makes ``t_end / dt`` overflow, and a step count
    ``ceil(t_end / dt)`` past :data:`MAX_STEPS` raise :class:`ValueError`
    before any work is done, before the grid's O(n) arrays too; so do
    initial data whose projection holds NaN or infinity and initial data
    whose energy overflows, before the first step.  The returned state is
    the run's workspace state.
    """
    for name in ("t_end", "dt_factor"):
        value = float(getattr(config, name))
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not math.isfinite(config.advection_speed):
        raise ValueError(f"advection_speed must be finite, got {config.advection_speed}")
    # the grid's arrays are O(n): the step count is refused before they are built
    n, x_min, x_max, dx = ops._grid_spacing(config.n, config.x_min, config.x_max)
    t_end = float(config.t_end)
    dt_nominal = config.dt_factor * dx
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
    grid = ops.build_grid(n, x_min, x_max)
    scheme = make_scheme(grid, config.variant, config.advection_speed)
    method = resolve_method(config.rk)
    f0 = config.initial if config.initial is not None else default_initial
    u0 = project_initial(grid, f0)
    finite = np.isfinite(u0)
    if not finite.all():
        raise ValueError(
            f"initial data must be finite: the projected state has "
            f"{u0.size - np.count_nonzero(finite)} non-finite values, the first at dof "
            f"{int(np.argmin(finite))} of {u0.size}"
        )

    # a run that reads no stage data composes its steps: every unrelaxed
    # run, and a relaxed one whose estimate vanishes at a stable step
    composed = not config.relaxation
    if config.relaxation and _estimate_vanishes(scheme):
        rho, tol = _amplification_radius(scheme, method, dt_nominal)
        composed = rho <= 1.0 + tol
    ws = (_ComposedStep if composed else _StageStep)(scheme, method, u0)
    u = ws.u
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        e0 = scheme.energy(u, ws)
    if not math.isfinite(e0):
        raise ValueError(
            f"initial energy u^T M u = {e0} is not finite: the initial data is too large "
            "for float64 (scale it down)"
        )
    times = [0.0]
    energies = [e0]
    gammas = [1.0]
    guard = 1e3 * max(e0, 1e-300)

    t = 0.0
    max_steps = 10 * steps_nominal + 1000
    steps = 0
    relaxation, M, d, tmp, advance = config.relaxation, scheme.M_energy, ws.d, ws.tmp, ws.advance
    stop, shortest_relaxed = 1e-9 * dt_nominal, 1e-4 * dt_nominal
    # Relaxed steps advance time by gamma*dt, so the loop usually ends with a
    # clipped partial step.  Remainders below 1e-9 of the nominal step are
    # dropped, and relaxation is skipped on steps below 1e-4 of it: there the
    # gamma quadratic is a ratio of O(dt^2) quantities swamped by rounding,
    # while a plain micro-step perturbs the energy only at O(dt).
    # an overflow gives a non-finite gamma or energy, which the loop refuses
    with np.errstate(over="ignore", invalid="ignore"):
        while t_end - t > stop:
            dt = min(dt_nominal, t_end - t)
            u_next, stage_data = rk_step(scheme, method, u, dt, ws)
            # each new state overwrites the old one, which nothing reads after it
            if relaxation and dt > shortest_relaxed:
                gamma = relaxation_gamma(u, u_next, stage_data, M, dt, workspace=ws)
                if not gamma > 0.0:  # NaN too
                    raise EnergyBlowUpError(
                        f"relaxation parameter is not positive ({gamma:.3g}) at "
                        f"t = {t:.6g}; the step is likely outside the RK stability region"
                    )
                np.add(u, np.multiply(gamma, d, tmp), u)
                t += gamma * dt
            else:
                gamma = 1.0
                # u = u_next, or u += d: both read the workspace's own arrays
                advance()
                t += dt
            energy = scheme.energy(u, ws)
            times.append(t)
            energies.append(energy)
            gammas.append(gamma)
            if not math.isfinite(energy) or energy > guard:
                why = f"exceeded 1e3 x initial {e0:.6g}" if math.isfinite(energy) else "is not finite"
                raise EnergyBlowUpError(f"energy {energy:.6g} {why} at t = {t:.6g}")
            steps += 1
            if steps > max_steps:
                raise RuntimeError("time loop exceeded the step budget; check dt_factor")
    trace = EnergyTrace(
        times=np.asarray(times), energies=np.asarray(energies), gammas=np.asarray(gammas)
    )
    return trace, u
