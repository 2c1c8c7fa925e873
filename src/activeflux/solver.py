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
forms the difference ``d = R(Z) u - u = Z Q(Z) u`` in two matvecs, ``d = D
(Q u)``, with ``Q = -a dt sum_(j < s) c_(j+1) z^j D^^j``, ``D^`` the
derivative's exact integer stencil and ``z = -a dt / dx``.  The powers
``D^^j`` are formed once per run (:func:`_stencil_powers`); each step size
re-weights them into one operator (:func:`_composed_factor`), so a clipped
last step forms no new powers.  ``d`` is written as it is, never as
``u_next - u``, which cancels to an error of eps ``|u|`` and, for small
steps, moves the relaxation parameter far past rounding.  A composed step
makes 4 matvec calls relaxed (``Q u``, ``D (Q u)``, ``M d`` and the energy's
``M u``) and 3 unrelaxed, where the stages made ``s + 2`` and ``s + 1``: 10
and 9 for ``rk4x2``.

``D`` stays a factor of its own, with its own ``1/dx`` scale.  Rounding
``Q``'s entries perturbs ``Q`` by a few eps relative, and the exact stencil
annihilates the constant part of that perturbation on the point rows and
the average rows alike, so the errors do not pile up from step to step.
One rounded ``P - I = sum_(j >= 1) c_j Z^j`` of 17 blocks lets them pile
up: over one period of relaxed central ``rk4x2`` at n = 1200 it lands
2.3-3.8e-13 from an 80-bit run (two ways of forming it), where the split
form lands 1.3-1.4e-14 (the stage loop 3.1-3.7e-14).

A run that keeps the stage estimate -- relaxed upwind runs, and relaxed
central runs whose step is not linearly stable -- steps through the
stages.  The estimate needs ``M f_i`` for every stage and the rescaling
needs ``M d``: its workspace forms all of them in one matvec call on the
stack of the stage derivatives and ``d`` (each row has the bits of its own
call), so such a step makes ``s + 2`` matvec calls, the energy's
included: 10 for ``rk4x2`` and 5 for ``ssprk33``.  For the central scheme
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
plans the folds once per tableau.  A fold that is an earlier fold of the
step plus one term continues from that fold's result: one multiply, one
add.  A fold of two terms or more is one product and one reduction: one
``np.multiply`` of its column of ``dt`` coefficients by consecutive rows of
the stage derivatives, into rows ``1..m`` of a product stack whose row 0
holds ``u``, then one ``np.add.reduce`` over the stack's first ``m + 1``
rows.  A reduction over the outer axis adds the rows one after another,
the fold's own order.  Rows that still hold an earlier fold's products are
kept: ``rk4x2``'s update multiplies only its second half step's four
terms, and its reduction adds the first half's four products again.  A
step's folds make 16 numpy calls for ``rk4x2`` (28 as one multiply and one
add per term), 8 for ``rk4`` (14) and 6 for ``ssprk33`` (12).  A lone
term's coefficient is a 0-d view of the ``dt c`` array, which numpy takes
without the conversion a Python float costs on every call.

At the benchmark's sizes (n = 16 to 128) a step's time is mostly the fixed
cost of its numpy calls, not their arithmetic.  A stage step's bound
matvec of a derivative makes six: three halo copies, one batched
``matmul`` (one BLAS ``dgemm`` per block), one reduction and one scaling;
one of the diagonal mass makes three.  A composed step binds ``Q u`` and
``D (Q u)`` in the banded layout
(:meth:`~activeflux.operators.BlockCirculantOp.bind_banded`): each makes
three halo copies (the wrapped cells before 0, the ring, and the wrapped
and padding cells after it, which take a fourth copy where they pass the
ring's end again, as for ``rk4x2`` at n = 16), one ``matmul`` of one
``dgemm`` per residue of the offset span, and one scaling.  At n = 1200 a
relaxed composed step makes 23 numpy calls: 10 in ``Q u`` and ``D (Q u)``, 1 for
``u + d``, 6 in :func:`relaxation_gamma` (``M d`` and three dots, one of
them the cut-off's ``u.Mu``), 2 for the relaxed update and 4 for the
energy.  The stage estimate's dots ``y_i M f_i`` of stages 2..s are one
batched ``matmul`` of ``(s - 1, 1, 2n)`` by ``(s - 1, 2n, 1)``, which
numpy takes row by row to the same ``cblas_ddot``.  Measured in process
(shared 2-vCPU host, one BLAS thread, the second fastest to the second
slowest of 8 runs alternating with per-block bindings of ``Q`` and
``D``), a relaxed central ``rk4x2``
run of one period takes 135-178 ms instead of 227-293 ms at n = 1200 (the
stage loop: 545-580 ms), and 6.9-8.6 ms instead of 7.6-9.6 ms at n = 128;
unrelaxed central and upwind ``rk4x2`` at n = 1200 take 85-92 and 95-130
ms instead of 157-188 and 149-204 ms.  Banded, the composed ``Q`` of
``rk4x2`` (15 blocks) writes no 15-row product stack to sum, which at n
>= 5000 no longer fits in cache: 150 relaxed central steps (medians) take
42 instead of 95 ms at n = 8200 and 101 instead of 182 ms at n = 20000.

:func:`run_experiment` allocates one :class:`Workspace` per run, of one of
two kinds: a :class:`_StageStep` or a :class:`_ComposedStep`.  Each holds
the run's state ``u``, its difference ``d``, ``M d``, ``M u`` and a scaled
term, and every array and binding its steps use; neither kind leaves a
field unset.  Every array operation of the time loop writes
into it: the matvecs (their halo, window and product buffers included),
``Q u`` and ``d`` of a composed step, the scaled terms and products of the
folds, the stage states and derivatives of a stage step, and the products
with ``M``; each new state overwrites the old one.  The steps allocate no
array of the state's size.  A stage workspace runs each operation as the
plain stage loop does, on the same operands in the same order, so its
trajectories are the same bits as fresh arrays; a composed one has the
bits of fresh banded bindings of ``Q`` and ``D``.

The workspace also does each step's set-up once per run.  A stage
workspace holds the folds' numpy calls with their arrays, the stage list,
one matvec binding
(:meth:`~activeflux.operators.BlockCirculantOp.bind`) per stage state and
derivative pair, and the bindings of ``M u`` and of the stack of ``M f_i``
and ``M d``.  The first stage's binding and that of ``M u`` make their
scratch arrays and layout; the other stages take them and make only their
own views.  A composed workspace holds the stencil powers, ``Q`` with its
banded binding (made again when ``dt`` changes), the banded binding of
``D (Q u)``, and the per-block bindings of ``M u`` and ``M d``, which
takes ``M u``'s scratch and layout.  Each kind
has a ``run(dt)``, the step, and a ``gamma_terms``, which gives
:func:`relaxation_gamma` the step's ``d``, ``M d`` and stage dots.

:func:`rk_step`, :func:`relaxation_gamma` and :meth:`Scheme.energy` each
have two paths.  Without a workspace they run on new arrays:
:func:`rk_step` is then the plain stage loop, naive folds over
``scheme.rhs(y)`` for any dtype and any object with an ``rhs``, and the
oracle of both workspace kinds, independent of the fold planner; and
:func:`relaxation_gamma` makes one ``M @ x`` per product.  With one, they
replay its bindings, and take only the workspace's own state ``u``,
scheme, method, stage list and update: anything else raises
:class:`ValueError`.  Both paths of :func:`relaxation_gamma` share one
tail.  Each step still calls :func:`rk_step`, :func:`relaxation_gamma`,
:meth:`Scheme.energy` and ``BlockCirculantOp.matvec``, which are where its
time is measured.

Before its first step a run builds its grid, scheme and initial state,
refuses non-finite initial data, allocates its workspace and measures the
initial energy.  A relaxed run also checks ``M D + D^T M = 0``
(``_estimate_vanishes``), and a relaxed central run computes the
amplification radius (``_amplification_radius``) on modes ``0..n//2``
from closed-form eigenvalues, with no 2x2 matrix product.  Measured in
process at n = 32 and 128 (medians, shared 2-vCPU host): the radius takes
80-90 us and a stage workspace 120 us.  A composed workspace takes about
as long as a stage one (145-175 against 145-170 us in a busier hour), the
stencil powers' 100-110 us in place of the stage bindings; forming ``Q``
for a step size takes 23-36 us and its banded binding 13-27 us (the
per-block one took 31-44 us).

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
        """How :func:`rk_step` forms stage states 2..s, then the update.

        Returns ``(coefficients, plan)``.  Fold ``i`` is stage ``i``'s state
        for ``i < s`` and the update for ``i = s``; fold 0 is ``u`` itself.
        ``plan[i - 1]`` lists fold ``i``'s calls, on fold numbers and rows:

        - ``("copy", g)``: its terms are fold ``g``'s, so it copies that
          result (the update instead takes fold ``g``'s array);
        - ``("axpy", g, p, j)``: one term more than fold ``g``, the longest
          earlier fold whose terms start its own, added as
          ``(dt coefficients[p]) k_j`` through one scaled term;
        - ``("mul", p, j, w, r)`` calls then ``("sum", m)``: two terms or
          more.  Rows ``1..m`` of the product stack, whose row 0 holds
          ``u``, take the fold's ``m`` products: per run of ``w``
          consecutive ``j``, rows ``r..r + w - 1`` are ``dt
          coefficients[p..p + w - 1]`` times ``k_j..k_{j + w - 1}``, in one
          multiply.  Rows that still hold the same products from an earlier
          fold of the step are kept.  One reduction over the stack's first
          ``m + 1`` rows then sums them from ``u`` in row order.

        Every path adds the same terms to ``u`` one after another, so each
        result has the bits of folding its terms into a copy of ``u``.
        """
        folds = [tuple((j, c) for j, c in enumerate(row) if c != 0.0) for row in (*self.a, self.b)]
        coefficients, plan, rows = [], [], []
        for i, terms in enumerate(folds[1:], 1):
            g = max(
                (g for g in range(i) if terms[: len(folds[g])] == folds[g]),
                key=lambda g: len(folds[g]),
            )
            extra = terms[len(folds[g]) :]
            if not extra:
                plan.append((("copy", g),))
                continue
            if len(extra) == 1:
                coefficients.append(extra[0][1])
                plan.append((("axpy", g, len(coefficients) - 1, extra[0][0]),))
                continue
            keep = 0
            while keep < min(len(rows), len(terms)) and rows[keep] == terms[keep]:
                keep += 1
            calls = []
            for r in range(keep, len(terms)):
                j, c = terms[r]
                coefficients.append(c)
                if r > keep and terms[r - 1][0] == j - 1:  # the run goes on
                    _, p, j0, w, r0 = calls[-1]
                    calls[-1] = ("mul", p, j0, w + 1, r0)
                else:
                    calls.append(("mul", len(coefficients) - 1, j, 1, r + 1))
            rows[: len(terms)] = terms
            plan.append((*calls, ("sum", len(terms))))
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
        """``u^T M u``; with a workspace, ``M u`` goes into its ``Mu`` buffer.

        A workspace takes only its own state ``u``: the binding of ``M u``
        refuses any other array with :class:`ValueError`.
        """
        if workspace is None:
            return float(u @ (self.M_energy @ u))
        return float(self.M_energy.matvec(u, workspace.Mu, workspace.M_u).dot(u))


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

    ``u`` is the run's state, ``d`` a step's difference and ``Md`` its
    product with ``M``.  ``tmp`` holds one scaled term, ``(dt c) k_j`` or
    ``gamma d``, before it is added, and ``Mu`` takes ``M u``, through the
    binding ``M_u``.  ``update`` is the state ``u + d`` a step returns and
    ``stages`` the stage list it returns with it.  Each kind's ``run(dt)`` is
    the step :func:`rk_step` replays on ``u``, and its ``gamma_terms`` gives
    :func:`relaxation_gamma` what it reads of the step.  The two kinds are
    :class:`_StageStep` and :class:`_ComposedStep`; each holds every array
    and binding its runs use, and none of its fields is left unset.
    """

    __slots__ = ("scheme", "method", "u", "d", "Md", "tmp", "Mu", "M_u", "update", "stages")

    @staticmethod
    def allocate(
        scheme: Scheme, method: RKMethod, u0: np.ndarray, *, composed: bool = False
    ) -> "Workspace":
        """A workspace for real states of ``scheme`` stepped by ``method``, starting from ``u0``.

        Its own state ``u`` holds a copy of ``u0``.  A stage workspace
        (:class:`_StageStep`, the default) holds the stage data and the stack
        of products of the stage estimate; ``composed=True`` allocates a
        :class:`_ComposedStep`.
        """
        return (_ComposedStep if composed else _StageStep)(scheme, method, u0)


class _StageStep(Workspace):
    """A workspace that steps through the stages, with its arrays and numpy calls resolved once.

    ``stack`` is the product stack of :attr:`RKMethod._folds`, whose row 0
    is the state ``u``.  Stage states 2..s are the rows of ``Y``, the update
    is an array of its own (or the array of the fold it repeats), and
    ``tmp`` holds one scaled term before it is added.  ``kd`` holds the stage
    derivatives and then ``d`` as the rows of one ``(s + 1, 2n)`` array, and
    ``Mkd`` their products with ``M``, the ``M f_i`` and then ``Md``, through
    the binding ``M_kd``.  ``dots`` holds the batched views of the stage
    estimate: stage states 2..s against their products ``M f_i``, and a
    ``(s - 1, 1, 1)`` result.

    ``dtc`` holds ``dt`` times the method's coefficients for the ``dt`` it
    was last formed for.  ``plan`` holds one entry per stage and one for
    the update: its calls ``(function, arguments)``, and for a stage its
    state ``y``, its derivative ``k_i`` (a row of ``kd``) and the binding of
    the scheme's right-hand side operator ``op`` to that pair (the bindings
    share the first one's scratch and layout).
    """

    __slots__ = (
        "stack", "Y", "kd", "Mkd", "M_kd", "dots",
        "coefficients", "dtc", "dt", "plan", "op", "factor",
    )

    def __init__(self, scheme: Scheme, method: RKMethod, u0: np.ndarray):
        coefficients, folds = method._folds
        s, size, M = method.stages, 2 * scheme.grid.n, scheme.M_energy
        rows = max((call[1] for calls in folds for call in calls if call[0] == "sum"), default=0)
        stack, Y = np.empty((rows + 1, size)), np.empty((s - 1, size))
        kd, Mkd = np.empty((s + 1, size)), np.empty((s + 1, size))
        self.scheme, self.method = scheme, method
        self.stack, self.Y, self.kd, self.Mkd = stack, Y, kd, Mkd
        self.u, self.d, self.Md = stack[0], kd[s], Mkd[s]
        self.tmp, self.Mu = np.empty(size), np.empty(size)
        np.copyto(self.u, u0)
        self.coefficients = np.array(coefficients)
        self.dtc = np.empty_like(self.coefficients)
        results = [self.u, *Y, np.empty(size)]
        k = tuple(kd[:s])
        self.op, self.factor = scheme.rhs_operator
        plan, share = [], None
        for i in range(s + 1):
            calls = []
            for call in folds[i - 1] if i else ():
                kind = call[0]
                if kind == "copy" and i == s:
                    results[s] = results[call[1]]
                elif kind == "copy":
                    calls.append((np.copyto, (results[i], results[call[1]])))
                elif kind == "axpy":
                    _, g, p, j = call
                    calls.append((np.multiply, (self.dtc[p, ...], k[j], self.tmp)))
                    calls.append((np.add, (results[g], self.tmp, results[i])))
                elif kind == "mul":
                    _, p, j, w, r = call
                    column = self.dtc[p : p + w, None]
                    calls.append((np.multiply, (column, kd[j : j + w], stack[r : r + w])))
                else:
                    calls.append((np.add.reduce, (stack[: call[1] + 1], 0, None, results[i])))
            if i < s:
                share = self.op.bind(results[i], k[i], share)
                plan.append((tuple(calls), results[i], k[i], share))
            else:
                plan.append((tuple(calls), None, None, None))
        self.plan, self.update, self.dt = tuple(plan), results[s], None
        self.stages = [Stage(b=b, y=y, f=f) for b, (_, y, f, _) in zip(method.b, plan)]
        self.M_u, self.M_kd = M.bind(self.u, self.Mu), M.bind(kd, Mkd)
        self.dots = (Y[:, None, :], Mkd[1:s, :, None], np.empty((s - 1, 1, 1)))

    def run(self, dt: float) -> tuple[np.ndarray, list[Stage]]:
        if dt != self.dt:
            np.multiply(dt, self.coefficients, self.dtc)
            self.dt = dt
        op, factor = self.op, self.factor
        for calls, y, f, binding in self.plan:
            for function, args in calls:
                function(*args)
            if binding is not None:
                op.matvec(y, f, binding)
                if factor != 1.0:
                    f *= factor
        return self.update, self.stages

    def gamma_terms(self, u, u_next, stage_data, M) -> tuple[np.ndarray, np.ndarray, list]:
        """``d = u_next - u`` into ``d``, and ``M d`` with every ``M f_i`` in one call into ``Mkd``.

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
        return d, self.Md, [float(self.Mkd[0].dot(u)), *dots]


def _stencil_powers(D: BlockCirculantOp, count: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The powers ``D^^0 .. D^^(count - 1)`` of the unscaled stencil of ``D``, on shared offsets.

    Returns the offsets of the highest power, increasing and not reduced
    mod ``n``, and a ``(count, #offsets, 2, 2)`` stack whose row ``j``
    holds the blocks of ``D^^j`` (zeros where it has none).  Power ``j`` is
    power ``j - 1`` times the stencil: one ``matmul`` per block of ``D``
    over the offsets of power ``j - 1``.  Offsets that alias mod ``n``
    (small n) stay apart; the operator :func:`_composed_factor` builds from
    them reduces and sums them, as every ``BlockCirculantOp`` does.  An
    entry of ``D^^j``, and every partial sum that forms it, is at most
    ``|D^|_inf^j``: 8**j for the central derivative and 12**j for the
    upwind ones (point rows ``2, -6, 4`` and ``-4, 6, -2``), so the powers
    are exact integers for up to 18 and 15 stages (measured at n = 3 to
    80: up to 28 and 27).  Past that they round by eps relative, as ``Q``'s weights and
    their products do anyway: the composed step's accuracy rests on ``D``'s
    exact stencil as its last factor, not on exact powers.  The powers do
    not depend on ``dt``: a run forms them once and re-weights them for
    each step size.  The operator algebra's ``@`` forms the same powers
    five times slower (530 against 100 us for ``rk4x2`` at n = 128), which
    showed in ``perfbench`` ``solve-mix-small`` as 3.6-6.8 % more
    ``op_p50_s``.
    """
    lo, hi = min([0, *D.blocks]), max([0, *D.blocks])
    first = (count - 1) * lo
    powers = np.zeros((count, (count - 1) * (hi - lo) + 1, 2, 2))
    powers[0, -first] = np.eye(2)
    for j in range(1, count):
        # the blocks of D^(j - 1) lie at offsets (j - 1) lo .. (j - 1) hi
        start, stop = (j - 1) * lo - first, (j - 1) * hi - first + 1
        for shift, block in D.blocks.items():
            powers[j, start + shift : stop + shift] += powers[j - 1, start:stop] @ block
    return tuple(range(first, first + powers.shape[1])), powers


def _composed_factor(scheme: Scheme, method: RKMethod, dt: float, powers: tuple) -> BlockCirculantOp:
    """``Q`` of one step ``d = D (Q u)`` of size ``dt``: ``sum_j c_(j+1) Z^j``, scaled by ``-a dt``.

    With ``Z = -a dt D = z D^`` (``D^`` the unscaled stencil, ``z = -a dt
    / dx``) and ``R(z) = sum_j c_j z^j`` (:func:`_stability_coefficients`),
    one step's difference is ``R(Z) u - u = Z Q(Z) u = D (-a dt Q^ u)``
    with ``Q^ = sum_(j < s) c_(j+1) z^j D^^j``.  The blocks are the stencil
    ``powers`` (:func:`_stencil_powers`) times the weights ``c_(j+1)
    z^j``, summed over ``j`` in order, and then over offsets that alias mod
    ``n`` by the operator's normal form; ``-a dt`` is the operator's scale,
    which its matvec applies once.
    """
    D = scheme.D_effective
    scale = -scheme.advection_speed * dt
    z, zj, weights = scale * D.scale, 1.0, []
    for c in _stability_coefficients(method)[1:]:
        weights.append(c * zj)
        zj *= z
    offsets, stack = powers
    blocks = np.add.reduce(np.multiply(np.array(weights)[:, None, None, None], stack), 0)
    return BlockCirculantOp(D.n, D.dx, scale, dict(zip(offsets, blocks)))


class _ComposedStep(Workspace):
    """A workspace whose step forms ``d = D (Q u)`` in two matvecs, then ``u + d``.

    ``Q`` comes from :func:`_composed_factor` and ``D`` is the scheme's
    derivative with its own ``1/dx`` scale, a second matvec.  ``q`` takes
    ``Q u``, ``d`` the step's difference and ``update`` the state ``u +
    d``.  ``powers`` are the run's stencil powers; ``Q`` and its banded
    binding ``Q_u`` to ``u`` and ``q`` are made again only when ``dt``
    changes (a run's clipped last step), and ``D_q`` binds ``D`` to ``q``
    and ``d`` in the banded layout too.  ``M d`` is bound per block as
    ``M_d``, which shares ``M_u``'s scratch.  No stage is formed, so the
    stage list is empty.
    """

    __slots__ = ("q", "powers", "D_q", "M_d", "dt", "Q", "Q_u")

    def __init__(self, scheme: Scheme, method: RKMethod, u0: np.ndarray):
        size, M = 2 * scheme.grid.n, scheme.M_energy
        self.scheme, self.method, self.stages = scheme, method, ()
        arrays = (np.empty(size) for _ in range(7))
        self.u, self.q, self.d, self.update, self.tmp, self.Md, self.Mu = arrays
        np.copyto(self.u, u0)
        self.powers = _stencil_powers(scheme.D_effective, method.stages)
        self.D_q = scheme.D_effective.bind_banded(self.q, self.d)
        self.M_u = M.bind(self.u, self.Mu)
        self.M_d = M.bind(self.d, self.Md, self.M_u)
        self.dt = self.Q = self.Q_u = None

    def run(self, dt: float) -> tuple[np.ndarray, tuple]:
        if dt != self.dt:
            self.Q = _composed_factor(self.scheme, self.method, dt, self.powers)
            self.Q_u = self.Q.bind_banded(self.u, self.q)
            self.dt = dt
        self.Q.matvec(self.u, self.q, self.Q_u)
        self.scheme.D_effective.matvec(self.q, self.d, self.D_q)
        return np.add(self.u, self.d, self.update), self.stages

    def gamma_terms(self, u, u_next, stage_data, M) -> tuple[np.ndarray, np.ndarray, list]:
        """The ``d`` that :meth:`run` formed, never ``u_next - u``, and ``M d``; no stage dots."""
        if u is not self.u or u_next is not self.update or stage_data:
            raise ValueError("a composed workspace takes its own state and update, no stage data")
        return self.d, M.matvec(self.d, self.Md, self.M_d), []


def rk_step(
    scheme: Scheme,
    method: RKMethod,
    u: np.ndarray,
    dt: float,
    workspace: Optional[Workspace] = None,
) -> tuple[np.ndarray, Sequence[Stage]]:
    """One explicit RK step; returns the update and per-stage data.

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
    :class:`ValueError`.  The step is the workspace's ``run(dt)``, and the
    update and stage list are its own arrays, which the next call
    overwrites: treat them as read-only.  A stage workspace
    (:class:`_StageStep`) gives the bits of the plain loop.  A composed one
    (:class:`_ComposedStep`) writes ``d = D (Q u)`` into its ``d`` and
    returns ``u + d`` with an empty stage list; it agrees with the stages to
    rounding, not bit for bit.
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
    ``gamma = (e - 2 u.Md) / d.Md``, where ``d = u_next - u`` and ``e = 2 dt
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

    Without a workspace ``d``, ``M d``, ``M u`` and each ``M f_i`` are new
    arrays, one ``M @ x`` each, and each dot product one ``cblas_ddot``.
    With one, its ``gamma_terms`` gives ``d``, ``M d`` and the
    stage dots with the same bits (a composed workspace gives its own
    ``d``, never ``u_next - u``), and ``M u`` is read from its ``Mu``, which
    :meth:`Scheme.energy` wrote when it measured the state: the time loop
    measures every state before it steps it.  Both paths then share the
    same tail.
    """
    if workspace is None:
        d = u_next - u
        Md, Mu = M @ d, M @ u
        dots = [float(st.y @ (M @ st.f)) for st in stage_data]
    else:
        (d, Md, dots), Mu = workspace.gamma_terms(u, u_next, stage_data, M), workspace.Mu
    d2 = float(d.dot(Md))
    if d2 <= (4 * u.size * _EPS) ** 2 * float(Mu.dot(u)):
        return 1.0
    e = 0.0
    for st, dot in zip(stage_data, dots):
        e += st.b * dot
    e *= 2.0 * dt
    return (e - 2.0 * float(Md.dot(u))) / d2


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


def _amplification_radius(scheme: Scheme, method: RKMethod, dt: float) -> tuple[float, float]:
    """``rho = max_k rho(P_k)`` over the per-mode step matrices, and the tolerance of ``rho <= 1``.

    One unrelaxed step maps the mode coefficients ``fft(u.reshape(n, 2),
    axis=0)[k]`` to ``P_k = R(Z_k)`` times them, with ``Z_k = -a dt
    B_k(D)``.  By the spectral mapping theorem the eigenvalues of ``P_k``
    are ``R(lambda)`` for the eigenvalues ``lambda`` of ``Z_k``, so no
    matrix is formed: the closed-form roots of ``spectral._eig_roots`` go
    through Horner's rule for ``R`` as complex numbers.  Only the modes
    ``k = 0..n//2`` are evaluated: ``Z_{n-k} = conj(Z_k)`` (the blocks are
    real), whose eigenvalues are the conjugates, and ``R`` has real
    coefficients, so mode ``n - k`` has the same radius.

    Tolerance ``16 s eps p(max_k |Z_k|)``, with ``p(x) = sum_j |c_j| x^j``
    and ``|Z_k|`` the infinity norm.  The symbols and the closed form give
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
    stack = spectral._Stack.of(scheme.D_effective)
    Z = spectral._stacked(*spectral._half_symbols(stack))[0]
    Z *= -scheme.advection_speed * dt
    znorm = float(np.abs(Z).sum(axis=2).max())
    lam = np.stack(spectral._eig_roots(Z))
    coeffs = _stability_coefficients(method)
    R, bound = np.full_like(lam, coeffs[-1]), abs(coeffs[-1])
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
    value.  Non-finite or non-positive
    ``t_end``/``dt_factor``, a non-finite advection speed, a nominal step
    that is zero or makes ``t_end / dt`` overflow, and a step count
    ``ceil(t_end / dt)`` past :data:`MAX_STEPS` raise :class:`ValueError`
    before any work is done; so do initial data whose projection holds NaN
    or infinity and initial data whose energy overflows, before the first
    step.  The returned state is the run's workspace state.
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
    ws = Workspace.allocate(scheme, method, u0, composed=composed)
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
    relaxation, M, d, tmp = config.relaxation, scheme.M_energy, ws.d, ws.tmp
    stop, shortest_relaxed = 1e-9 * dt_nominal, 1e-4 * dt_nominal
    # Relaxed steps advance time by gamma*dt, so the loop usually ends with a
    # clipped partial step.  Remainders below 1e-9 of the nominal step are
    # dropped, and relaxation is skipped on steps below 1e-4 of it: there the
    # gamma quadratic is a ratio of O(dt^2) quantities swamped by rounding,
    # while a plain micro-step perturbs the energy only at O(dt).
    while t_end - t > stop:
        dt = min(dt_nominal, t_end - t)
        u_next, stage_data = rk_step(scheme, method, u, dt, ws)
        # each new state overwrites the old one, which nothing reads after it
        if relaxation and dt > shortest_relaxed:
            gamma = relaxation_gamma(u, u_next, stage_data, M, dt, workspace=ws)
            if gamma <= 0.0:
                raise EnergyBlowUpError(
                    f"relaxation parameter became non-positive ({gamma:.3g}) at "
                    f"t = {t:.6g}; the step is likely outside the RK stability region"
                )
            np.add(u, np.multiply(gamma, d, tmp), u)
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
