"""Executable verification of every operator property, with quantified tolerances.

Each check returns a :class:`CheckReport` whose invariant is
``passed == (residual <= tolerance)``; residuals are normalized by operator
norms (or spectral radii) so tolerances are independent of ``n`` and ``dx``.
:func:`run_all` bundles the full battery for one grid.

Identities are checked on the 2x2 blocks and Fourier symbols; the mass
uniqueness recovery is a least-squares system on residual blocks whose size
does not depend on ``n``.  Dense 2n x 2n matrices appear only as oracles:
the nullspace SVD, spectrum equivalence and DFT block diagonalization.
Spectrum equivalence pairs the symbol and dense eigenvalues by an exact
bottleneck matching, the pairing whose largest distance is smallest.

At large ``n`` the battery makes each O(n) pass once, in one operand and
one result array of 2n floats, and no temporary is larger.  Consistency
and normalization apply an operator to the constant state, where every
block row does the same arithmetic: one block row on a small ring gives the
bits of every row, and a normalization tiles it into the operand for
numpy's pairwise sum.  Exactness forms its samples in the operand and its
residuals in place in the result.  The dissipation spectrum reads the
eigenvalue pairs of modes ``0..n//2`` (mode ``n - k`` holds their
conjugates), and the three definiteness checks classify one mass at a
time.  Every report is bit for bit that of the full-size
formulas.  At n = 1e6 a ``verify`` call takes 0.31-0.35 s (0.48-0.57 s
with full-size temporaries) and peaks at 56 MB under tracemalloc (105 MB),
grid included (shared 2-vCPU x86 host, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional, Sequence

import numpy as np

from . import operators as ops
from . import spectral
from .operators import BlockCirculantOp, Grid, MassParams

__all__ = [
    "CheckReport",
    "check_central_sbp",
    "check_mass_definiteness",
    "check_nullspace",
    "check_upwind_sbp",
    "run_all",
]

#: Grid used to classify mass families over modes: divisible by 4 so that
#: theta = 0, pi/2, pi, 3pi/2 are sampled exactly (the singular modes of the
#: special parameter values lie at theta = +-pi/2).
_CLASSIFY_N = 360

#: The reference grid itself; grids are immutable, so every call shares it.
_CLASSIFY_GRID = ops.build_grid(_CLASSIFY_N, 0.0, float(_CLASSIFY_N))


@dataclasses.dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: dict

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _report(name: str, residual: float, tolerance: float, **details) -> CheckReport:
    residual = float(residual)
    tolerance = float(tolerance)
    return CheckReport(
        name=name,
        passed=bool(residual <= tolerance),
        residual=residual,
        tolerance=tolerance,
        details=details,
    )


def check_central_sbp(M: BlockCirculantOp, D: BlockCirculantOp) -> CheckReport:
    """Skew-symmetry of D under the M inner product: ``M D + D^T M = 0``.

    The residual is ``||M D + D^T M||_inf / (||M||_inf ||D||_inf)``; the
    identity holds to machine precision for every mass matrix of the
    admissible families paired with the central derivative operator.
    """
    M._require_compatible(D)
    defect = (M @ D + D.T @ M).norm_inf()
    norms = M.norm_inf() * D.norm_inf()
    residual = defect / max(norms, 1e-300)
    return _report(
        "central_sbp",
        residual,
        1e-13,
        n=M.n,
        defect=float(defect),
        mass_norm=M.norm_inf(),
        derivative_norm=D.norm_inf(),
    )


def check_upwind_sbp(
    M: BlockCirculantOp, Dp: BlockCirculantOp, Dm: BlockCirculantOp
) -> CheckReport:
    """Adjointness ``M D_+ + D_-^T M = 0`` plus negative semidefinite dissipation.

    Two residuals are combined: the normalized adjointness defect
    (tolerance 1e-13) and the largest eigenvalue of ``sym(M (D_+ - D_-))``
    (tolerance ``1e-10 *`` spectral radius).  The report's residual is the
    larger of the two ratios residual/tolerance, with tolerance 1, so the
    CheckReport invariant still reads ``passed == residual <= tolerance``.
    """
    M._require_compatible(Dp)
    M._require_compatible(Dm)
    adj_defect = (M @ Dp + Dm.T @ M).norm_inf()
    norms = M.norm_inf() * max(Dp.norm_inf(), Dm.norm_inf())
    adj_residual = adj_defect / max(norms, 1e-300)
    adj_tol = 1e-13

    K = M @ (Dp - Dm)
    sym_K = 0.5 * (K + K.T)
    cls = spectral.hermitian_classify(sym_K)
    radius = max(abs(cls.min_eigenvalue), abs(cls.max_eigenvalue))
    diss_tol = 1e-10 * max(radius, 1e-300)
    residual = max(adj_residual / adj_tol, cls.max_eigenvalue / diss_tol)
    return _report(
        "upwind_sbp",
        residual,
        1.0,
        n=M.n,
        adjointness_residual=float(adj_residual),
        adjointness_tolerance=adj_tol,
        dissipation_max_eigenvalue=cls.max_eigenvalue,
        dissipation_tolerance=diss_tol,
        dissipation_min_eigenvalue=cls.min_eigenvalue,
    )


def check_mass_definiteness(
    m_v: float, m_p: float | Sequence[float]
) -> spectral.Definiteness | list[spectral.Definiteness]:
    """Classify the pentadiagonal mass family (``m_vv = 0``) at (m_v, m_p).

    Classifies :func:`operators.banded_mass` on a reference grid whose mode
    set contains theta = 0 and +-pi/2 exactly, where the family's zero
    eigenvalues occur.  A number ``m_p`` gives one
    :class:`spectral.Definiteness`, a sequence (a whole sweep) a list, one
    per value; a number is the sweep of length one.  Each pass of
    :func:`spectral.operators_per_pass` values (90 on the reference grid) is
    built as one block stack straight from the coefficients
    (:func:`operators.banded_mass_stack`, no operator per value) and
    classified by :func:`spectral.classify_stack`, bit for bit as its stack
    of one, :func:`spectral.hermitian_classify`, classifies each matrix.
    """
    grid = _CLASSIFY_GRID
    values = np.asarray(m_p, dtype=float).reshape(-1)
    per_pass = spectral.operators_per_pass(grid.n)
    out: list[spectral.Definiteness] = []
    for start in range(0, values.size, per_pass):
        offsets, blocks = ops.banded_mass_stack(grid, m_v, values[start : start + per_pass])
        out += spectral.classify_stack(grid.n, grid.dx, offsets, blocks)
    return out[0] if np.ndim(m_p) == 0 else out


def check_nullspace(D: BlockCirculantOp) -> tuple[int, list[np.ndarray]]:
    """Kernel dimension and an orthonormal kernel basis, via dense SVD.

    Singular values below ``1e-10 * sigma_max`` count as zero; singular
    vectors are used instead of eigenvectors so the result is robust for the
    non-normal derivative operators.
    """
    dense = D.dense()
    _, sigma, vh = np.linalg.svd(dense)
    cut = 1e-10 * float(sigma.max(initial=0.0))
    null_rows = [vh[i] for i in range(len(sigma)) if sigma[i] <= cut]
    return len(null_rows), null_rows


# ---------------------------------------------------------------------------
# helpers for the aggregate battery
# ---------------------------------------------------------------------------

def _interior(op: BlockCirculantOp) -> range:
    """Block rows whose stencil does not wrap across the periodic seam."""
    offsets = op.offsets() + [0]
    return range(-min(offsets), op.n - max(offsets))


def _interior_block_rows(op: BlockCirculantOp) -> np.ndarray:
    """:func:`_interior` as an index array."""
    rows = _interior(op)
    return np.arange(rows.start, rows.stop)


#: q(x) = a x^2 + b x + c of the quadratic exactness checks
_QUADRATIC = (1.0, -0.7, 0.3)


def _quadratic_samples(
    grid: Grid, a: float, b: float, c: float, u: np.ndarray, scratch: np.ndarray
) -> None:
    """Exact dof samples of ``q(x) = a x^2 + b x + c``, written into ``u``.

    ``scratch`` holds ``2n`` floats.  Each sample is formed by the same
    operations, in the same order, as the one-line formulas in the comments.
    """
    x, dx = grid.interfaces, grid.dx
    s, t = scratch.reshape(2, -1)
    # points: a * x**2 + b * x + c
    np.multiply(x, x, out=s)
    s *= a
    np.multiply(b, x, out=t)
    s += t
    np.add(s, c, out=u[0::2])
    # cell averages in a cancellation-free form (the antiderivative difference
    # (x_r^3 - x_l^3)/(3 dx) loses ~dx worth of digits on fine grids):
    # a * (x**2 + x * dx + dx**2 / 3.0) + b * (x + dx / 2.0) + c
    np.multiply(x, x, out=s)
    np.multiply(x, dx, out=t)
    s += t
    s += dx**2 / 3.0
    s *= a
    np.add(x, dx / 2.0, out=t)
    t *= b
    s += t
    np.add(s, c, out=u[1::2])


def _quadratic_dofs(grid: Grid, a: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact dof samples of ``q(x) = a x^2 + b x + c`` and q' at interfaces."""
    u = np.empty(2 * grid.n)
    _quadratic_samples(grid, a, b, c, u, np.empty(2 * grid.n))
    return u, 2.0 * a * grid.interfaces + b


def _ring_row(D: BlockCirculantOp) -> np.ndarray:
    """The two entries of every block row of ``D @ ones(2n)``.

    A constant operand makes every block row do the same 2x2 products and
    the same block-order sum, so one block row of ``D``'s blocks on a ring
    of ``max(3, 2h + 1)`` cells, ``h`` the halo width, gives each row's
    bits: the offsets stay distinct there, in their order.
    """
    h = max(map(abs, D.blocks), default=0)
    ring = BlockCirculantOp(max(3, 2 * h + 1), D.dx, D.scale, D.blocks)
    return (ring @ np.ones(2 * ring.n))[:2]


def _consistency(name: str, D: BlockCirculantOp) -> CheckReport:
    # integer stencil rows sum to zero, so the constant state is annihilated
    # exactly in floating point
    residual = float(np.abs(_ring_row(D)).max())
    return _report(f"consistency_{name}", residual, 0.0, n=D.n)


def _linear_deviation(w: np.ndarray, rows: slice) -> float:
    """``max |w - 1|`` over both dof parities: x' = 1 on points and averages."""
    np.subtract(w, 1.0, out=w)
    np.abs(w, out=w)
    return max(float(w[:, p].max()) for p in (0, 1))


def _quadratic_deviation(grid: Grid, w: np.ndarray, rows: slice) -> float:
    """``max |w - q'|`` on points only; the averages column holds q' = 2 a x + b."""
    a, b, _ = _QUADRATIC
    points, slope = w[:, 0], w[:, 1]
    np.multiply(2.0 * a, grid.interfaces[rows], out=slope)
    slope += b
    np.subtract(points, slope, out=points)
    np.abs(points, out=points)
    return float(points.max())


def _exactness(kind: str, derivatives, u: np.ndarray, w: np.ndarray, deviation) -> list[CheckReport]:
    # u holds the dofs and w receives each D @ u; deviation(block rows of w,
    # their slice) compares the interior block rows with the exact
    # derivative, in place.  The defect is normalized by ||D||_inf ||u||_inf,
    # the scale at which the matvec rounds; this keeps the residual
    # n-independent (the raw defect grows like 1/dx through cancellation)
    reports = []
    u_max = float(np.abs(u, out=w).max())
    for name, D in derivatives:
        rows = _interior(D)
        dev = 0.0
        if rows:
            D.matvec(u, out=w)
            inner = slice(rows.start, rows.stop)
            dev = deviation(w.reshape(-1, 2)[inner], inner)
            dev /= max(D.norm_inf() * u_max, 1e-300)
        reports.append(_report(
            f"{kind}_exactness_{name}", dev, 1e-14, n=D.n, interior_rows=len(rows)
        ))
    return reports


def _nullspace_report(
    name: str, D: BlockCirculantOp, expected_dim: int, targets: list[np.ndarray]
) -> CheckReport:
    dim, basis = check_nullspace(D)
    if dim != expected_dim:
        return _report(
            f"nullspace_{name}", 1.0, 1e-10, expected_dim=expected_dim, found_dim=dim
        )
    V = np.stack(basis, axis=1) if basis else np.zeros((2 * D.n, 0))
    dev = 0.0
    for t in targets:
        t_hat = t / np.linalg.norm(t)
        dev = max(dev, float(np.linalg.norm(t_hat - V @ (V.T @ t_hat))))
    return _report(
        f"nullspace_{name}", dev, 1e-10, expected_dim=expected_dim, found_dim=dim
    )


def _definiteness_reports(masses) -> list[CheckReport]:
    """``definiteness_<name>`` for each ``(name, M, kind, multiplicity)`` of ``masses``.

    Each mass is classified alone, by one :func:`spectral.hermitian_classify`
    call, so the per-mode arrays of one mass are freed before the next.
    """
    reports = []
    for name, M, kind, mult in masses:
        cls = spectral.hermitian_classify(M)
        ok = cls.kind == kind and (mult is None or cls.zero_multiplicity == mult)
        reports.append(_report(
            f"definiteness_{name}",
            0.0 if ok else 1.0,
            0.5,
            expected_kind=kind,
            found_kind=cls.kind,
            zero_multiplicity=cls.zero_multiplicity,
        ))
    return reports


def _dissipation_spectrum_report(K: BlockCirculantOp, buf: np.ndarray) -> CheckReport:
    """Per-mode eigenvalues of M (D_+ - D_-): one zero plus the closed form

    ``f = -(2/3) (18 + 17 cos(theta) + cos(2 theta))``, dimensionless because
    the mass dx cancels against the derivative 1/dx.  ``buf`` holds ``2n``
    floats, for ``f`` at all ``n`` modes (``cos`` is not mirror-exact) and
    one temporary.  The pairs are read for ``k = 0..n//2`` only: mode
    ``n - k`` has the same real parts, each in its place, and the negated
    imaginary parts (``spectral._half_pairs``), so every residual term is
    that of the full spectrum.
    """
    n = K.n
    f, tmp = buf.reshape(2, n)
    # theta = 2 pi k / n, then f, each by the same operations as the formula
    f[:] = np.arange(n)
    np.multiply(2.0 * np.pi, f, out=tmp)
    tmp /= n
    np.cos(tmp, out=f)
    tmp *= 2.0
    np.cos(tmp, out=tmp)
    f *= 17.0
    f += 18.0
    f += tmp
    f *= -(2.0 / 3.0)
    radius = float(np.abs(f, out=tmp).max())
    e, chunks = spectral._half_pairs(K)
    mirror = n - n // 2  # modes 1..mirror - 1 mirror to n - 1..n//2 + 1
    terms: list[list[float]] = [[], [], []]
    for modes, pairs in chunks:
        spectral._scale_back(pairs, e)
        re = pairs[:, 0].real
        terms[0].append(np.abs(re - f[modes]).max())
        k0, k1 = max(modes.start, 1), min(modes.stop, mirror)
        if k0 < k1:  # these modes k stand for the modes n - k too
            mirrored = f[n - k1 + 1 : n - k0 + 1][::-1]
            terms[0].append(np.abs(re[k0 - modes.start : k1 - modes.start] - mirrored).max())
        terms[1].append(np.abs(pairs[:, 1].real).max())
        terms[2].append(np.abs(pairs.imag).max())
    # np.max over the chunks' maxima: a NaN wins, as in one max over all modes
    dev = max(float(np.max(t)) for t in terms)
    return _report("dissipation_spectrum", dev, 1e-10, n=n, radius=radius)


#: unit coupling patterns of the symmetric pentadiagonal mass family
_M_VP = {0: [[0.0, 1.0], [1.0, 0.0]]}
_M_VP_NEIGHBOR = {1: [[0.0, 0.0], [1.0, 0.0]], -1: [[0.0, 1.0], [0.0, 0.0]]}
_M_PP = {1: [[1.0, 0.0], [0.0, 0.0]], -1: [[1.0, 0.0], [0.0, 0.0]]}


def _mass_recovery_report(
    name: str, grid: Grid, Dp: BlockCirculantOp, Dm: BlockCirculantOp,
    fixed: dict, basis: list[dict], expected: list[float],
) -> CheckReport:
    """Recover mass coefficients from ``M D_+ + D_-^T M = 0`` by least squares.

    ``M`` is ``fixed`` plus a free multiple of each ``basis`` pattern (all
    with prefactor dx).  Every block row of the identity states the same
    equations, one per entry of each residual block, so the system has
    4 rows per occupied offset and one column per pattern at every ``n``;
    its rank, solution and residual are those of the full 2n x 2n identity.
    """

    def residual(blocks: dict) -> dict[int, np.ndarray]:
        P = BlockCirculantOp(grid.n, grid.dx, grid.dx, blocks)
        R = P @ Dp + Dm.T @ P
        return {j: R.scale * a for j, a in R.blocks.items()}

    residuals = [residual(B) for B in [fixed, *basis]]
    offsets = sorted(set().union(*residuals), key=lambda j: j % grid.n)
    system = np.array(
        [np.concatenate([r.get(j, np.zeros((2, 2))).ravel() for j in offsets]) for r in residuals]
    ).T
    A, b = system[:, 1:], -system[:, 0]
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    lsq_res = float(np.abs(A @ sol - b).max())
    entry_max = max(float(np.abs(Dp.scale * a).max()) for a in Dp.blocks.values())
    scale = max(1.0, entry_max * grid.dx)
    dev = 1.0 if rank < len(basis) else max(float(np.abs(sol - expected).max()), lsq_res / scale)
    return _report(
        name, dev, 1e-9, rank=int(rank),
        recovered=[float(s) for s in sol], expected=[float(e) for e in expected],
    )


def _banded_uniqueness_report(grid: Grid, Dc: BlockCirculantOp) -> CheckReport:
    """Recover the pentadiagonal couplings forced by central skew-symmetry.

    A generic symmetric pentadiagonal matrix has independent couplings
    (m_vp, m_vp', m_pp); requiring ``M D + D^T M = 0`` pins them to the
    closed forms m_vp = m_vp' = (m_v - 3 m_p)/2, m_pp = (3 m_p - m_v + 2 m_vv)/6
    uniquely (full-rank least squares), with (m_v, m_p, m_vv) free.
    """
    m_v, m_p, m_vv = 1.0, 0.4, 0.07
    fixed = {0: [[m_p, 0.0], [0.0, m_v]], -1: [[0.0, 0.0], [0.0, m_vv]], 1: [[0.0, 0.0], [0.0, m_vv]]}
    expected = [(m_v - 3 * m_p) / 2, (m_v - 3 * m_p) / 2, (3 * m_p - m_v + 2 * m_vv) / 6]
    return _mass_recovery_report(
        "banded_mass_uniqueness", grid, Dc, Dc, fixed, [_M_VP, _M_VP_NEIGHBOR, _M_PP], expected
    )


def _upwind_uniqueness_report(
    grid: Grid, Dp: BlockCirculantOp, Dm: BlockCirculantOp
) -> CheckReport:
    """Recover the unique pentadiagonal mass adjoint-pairing D_+ and D_-.

    With m_v normalized, adjointness ``M D_+ + D_-^T M = 0`` forces
    m_p = 2 m_v/3, m_vp = m_vp' = -m_v/2, m_pp = m_v/6, m_vv = 0.
    """
    m_p = {0: [[1.0, 0.0], [0.0, 0.0]]}
    m_vv = {1: [[0.0, 0.0], [0.0, 1.0]], -1: [[0.0, 0.0], [0.0, 1.0]]}
    return _mass_recovery_report(
        "upwind_mass_uniqueness", grid, Dp, Dm, {0: [[0.0, 0.0], [0.0, 1.0]]},  # m_v = 1
        [m_p, _M_VP, _M_VP_NEIGHBOR, _M_PP, m_vv], [2.0 / 3.0, -0.5, -0.5, 1.0 / 6.0, 0.0],
    )


def _bottleneck_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The smallest ``t`` such that a one-to-one pairing of ``a`` with ``b``
    (equal-size complex multisets) has every pair distance ``<= t``.

    The optimum is one of the pair distances and is at least the largest
    distance from any point to its nearest partner.  That lower bound is
    tried first (it was optimal for every battery spectrum at n = 3..64);
    otherwise the larger distances are binary-searched.  Each threshold is tested for
    a perfect matching with augmenting paths (Kuhn's algorithm), whose
    recursion depth is at most ``len(a)``.
    """
    cost = np.abs(a[:, None] - b[None, :])
    m = len(cost)

    def perfect(t: float) -> bool:
        rows, cols = np.nonzero(cost <= t)  # row-major, so rows are sorted
        adj = [c.tolist() for c in np.split(cols, np.searchsorted(rows, np.arange(1, m)))]
        owner = [-1] * m  # column -> matched row

        def augment(i: int, seen: set) -> bool:
            for j in adj[i]:
                if owner[j] < 0:
                    owner[j] = i
                    return True
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    if augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False

        return all(augment(i, set()) for i in range(m))

    lower = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    if perfect(lower):
        return float(lower)
    candidates = np.unique(cost[cost > lower])  # the largest one always matches
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def _spectrum_equivalence_report(name: str, op: BlockCirculantOp) -> CheckReport:
    sym_eigs = spectral.eigenvalues(op)
    dense_eigs = np.linalg.eigvals(op.dense())
    radius = max(float(np.abs(sym_eigs).max()), 1e-300)
    residual = _bottleneck_distance(sym_eigs, dense_eigs) / radius
    return _report(f"spectrum_equivalence_{name}", residual, 1e-9, n=op.n)


def _block_diag_report(name: str, op: BlockCirculantOp) -> CheckReport:
    residual = spectral.block_diagonalize_check(op) / max(op.norm_inf(), 1e-300)
    return _report(f"block_diagonalization_{name}", residual, 1e-12, n=op.n)


# ---------------------------------------------------------------------------
# the full battery
# ---------------------------------------------------------------------------

#: dense-oracle checks (SVD, eigensolves) run only up to here
_ORACLE_N = 64

def run_all(
    grid: Grid,
    *,
    central_d: Optional[BlockCirculantOp] = None,
    d_plus: Optional[BlockCirculantOp] = None,
    d_minus: Optional[BlockCirculantOp] = None,
) -> list[CheckReport]:
    """Run the complete verification battery on one grid.

    Operator overrides exist for fault injection; by default the operators are
    built from the grid.  Structural checks (consistency, exactness, SBP
    identities, normalization, dissipation spectrum, definiteness) run at any
    ``n``; dense-oracle checks (nullspaces, spectrum equivalence, block
    diagonalization) run for ``n <= 64``.  Uniqueness recovery is block
    algebra and costs the same at every ``n``; it stays in the ``n <= 64``
    group (and needs ``n >= 4``) only so that the report set, and with it
    the ``verify`` output, is unchanged.

    A domain whose quadratic samples, or the derivative stencil sums of
    them, would overflow is refused up front with :class:`ValueError`.
    """
    # the samples reach about (|x| + dx)**2; a derivative stencil row sums up
    # to 12 of them (the absolute entries of a one-sided point row) before
    # its 1/dx, and 16 covers that with the samples' lower-order terms
    reach = max(abs(grid.x_min), abs(grid.x_max)) + grid.dx
    if not math.isfinite(16.0 * reach * reach):
        raise ValueError(
            f"domain [{grid.x_min}, {grid.x_max}] too large for the quadratic exactness "
            f"checks: 16 (max |x| + dx)**2 overflows"
        )
    Dc = central_d if central_d is not None else ops.central_D(grid)
    Dp = d_plus if d_plus is not None else ops.upwind_D_plus(grid)
    Dm = d_minus if d_minus is not None else ops.upwind_D_minus(grid)
    diag = ops.diagonal_mass(grid)
    banded = ops.banded_mass(grid, MassParams(m_v=1.0, m_p=0.4, m_vv=0.07))
    extended = ops.extended_mass(grid, MassParams(1.0, 1.0 / 3.0, 0.0, 0.1, 0.05))
    upw = ops.upwind_mass(grid, 1.0)
    scaled = ops.scaled_central_mass(grid, 1.0, 0.4)

    derivatives = (("central_d", Dc), ("d_minus", Dm), ("d_plus", Dp))
    reports = [_consistency(name, D) for name, D in derivatives]
    # the O(n) passes share one operand u and one result w of 2n floats
    u, w = np.empty(2 * grid.n), np.empty(2 * grid.n)
    u[0::2], u[1::2] = grid.interfaces, grid.centers
    reports += _exactness("linear", derivatives, u, w, _linear_deviation)
    _quadratic_samples(grid, *_QUADRATIC, u, w)
    reports += _exactness("quadratic", derivatives, u, w, functools.partial(_quadratic_deviation, grid))
    del w  # the classifications below cache their waves in its place

    avg_defect = (0.5 * (Dp + Dm) - Dc).norm_inf() / max(Dc.norm_inf(), 1e-300)
    reports.append(_report("averaging_identity", avg_defect, 1e-14, n=grid.n))

    for mass_name, M in (("diagonal_mass", diag), ("banded_mass", banded), ("extended_mass", extended)):
        rep = check_central_sbp(M, Dc)
        reports.append(dataclasses.replace(rep, name=f"central_sbp_{mass_name}"))
    reports.append(check_upwind_sbp(upw, Dp, Dm))

    length = grid.length
    for mass_name, M in (("diagonal_mass", diag), ("scaled_central_mass", scaled)):
        # numpy's blocked pairwise sum rounds to about (16 + log2(2n/128)) eps,
        # below 1e-14 for n up to ~1e10 (a plain dot product grows like n eps);
        # the tiled rows are M @ ones, so the sum sees its values in its order
        u[0::2], u[1::2] = _ring_row(M)
        total = float(np.sum(u))
        reports.append(
            _report(
                f"normalization_{mass_name}",
                abs(total - length) / length,
                1e-14,
                total=total,
                domain_length=length,
            )
        )

    K = upw @ (Dp - Dm)
    sym_defect = (K - K.T).norm_inf() / max(K.norm_inf(), 1e-300)
    reports.append(_report("dissipation_symmetry", sym_defect, 1e-13, n=grid.n))
    reports.append(_dissipation_spectrum_report(K, u))
    del u  # each classification's chunks come on top of the waves

    edge = ops.banded_mass(grid, MassParams(m_v=1.0, m_p=2.0 / 9.0))
    reports += _definiteness_reports((
        ("inside_window", banded, "positive_definite", None),
        ("window_edge", edge, "positive_semidefinite", 1),
        ("upwind_mass", upw, "positive_semidefinite", 1),
    ))

    if grid.n <= _ORACLE_N:
        one = np.ones(2 * grid.n)
        # the central operator's second kernel vector: points +1, averages -1
        alternating = np.ones(2 * grid.n)
        alternating[1::2] = -1.0
        reports.append(_nullspace_report("central_d", Dc, 2, [one, alternating]))
        reports.append(_nullspace_report("d_minus", Dm, 1, [one]))
        reports.append(_nullspace_report("d_plus", Dp, 1, [one]))
        if grid.n >= 4:
            # on the 3-cell ring the +/-1 bands alias (+1 = -2 mod 3) and the
            # recovery systems drop rank, so uniqueness is undefined there
            reports.append(_banded_uniqueness_report(grid, Dc))
            reports.append(_upwind_uniqueness_report(grid, Dp, Dm))
        for op_name, op in (
            ("central_d", Dc),
            ("d_minus", Dm),
            ("d_plus", Dp),
            ("diagonal_mass", diag),
            ("banded_mass", banded),
            ("extended_mass", extended),
            ("upwind_mass", upw),
            ("dissipation", K),
        ):
            reports.append(_spectrum_equivalence_report(op_name, op))
        reports.append(_block_diag_report("central_d", Dc))
        reports.append(_block_diag_report("upwind_mass", upw))

    return reports
