"""Block-circulant operators for the periodic Active Flux discretization.

The semi-discrete scheme evolves, per cell ``i`` of a uniform periodic mesh,
one interface point value and one cell average.  All state vectors use the
interleaved layout

    index 2i   -> point value  u_{i-1/2}  (left interface of cell i),
    index 2i+1 -> cell average u_i,

with the periodic identification ``u_{n-1/2} == u_{-1/2}``.  Every operator in
this module (derivative operators, mass matrices) is block circulant with
2x2 blocks: block row ``i`` applies the block ``A_j`` to the dofs of cell
``(i + j) mod n``.  Blocks are stored by their signed stencil offset ``j``
together with a single scalar prefactor (``1/dx`` for derivatives, ``dx`` for
mass matrices) so that stencil entries stay exact integers or exact
parameter expressions in floating point.

An operator is built into one normal form, which every reader takes as
stored: each offset moves by a multiple of ``n`` into ``[-n//2, n - n//2)``,
blocks landing on one offset (e.g. ``-2`` and ``+1`` at ``n = 3``) are summed
in insertion order, and zero blocks are dropped, so an operator without
blocks is exactly the zero operator.

``BlockCirculantOp.matvec`` is the one evaluation kernel, with two binding
layouts and one pass over the chunks behind both (see below).  In the
per-block layout, a plan cached on the frozen operator holds the first
window ``-h`` and the window count ``2h + 1`` of the halo width ``h = max
|j|``, the transposed blocks stacked in insertion order, and
which windows of a halo-extended copy of the input (the input with ``h``
wrapped cells on each side) they read.  The ``2h + 1`` windows of a run of
cells are one strided ``(2h + 1, cells, 2)`` view (``_windows``).  Each
chunk of cells (see below) reads its windows straight from the input,
through that kind of view, where they do not wrap across the seam, and
otherwise from a halo of its own: cells ``c - h .. stop + h - 1`` (mod n)
of the input, copied in runs of slices by one rule (``_halo``).  At three
chunks or more only the first and the last chunk wrap, and at ``h = 0``
none.  Every chunk copies its own halo when ``out`` shares memory with the
input, whose cells the results would overwrite before later chunks read
them, or when the input is not C-contiguous (a strided view, which BLAS
would not take as it is).  Which windows a call reads from the input changes
neither the kernel nor the chunk edges nor the products.  One batched
``matmul`` then forms every block's ``(cells, 2) @ (2, 2)`` product into a
product stack (one ``matmul`` per block where the windows are not
consecutive), ``np.add.reduce`` sums the products over the blocks, in
insertion order and starting from ``+0.0``, and the sum is multiplied by
``scale`` once.  Each product row is the two-term dot product a per-block
product computes, and a reduction over the block axis adds the products one
after another, so results are bit-for-bit those of rolling the operand once
per block and accumulating into zeros.  Cells go through in chunks of
``_CHUNK`` (the last one may take one cell more), so the product stack
holds at most ``#blocks * (_CHUNK + 1)`` cells whatever ``n`` is, and a
large operand needs no per-block temporary of its size.

A *diagonal* operator -- one block at offset 0 with zero off-diagonals,
such as the diagonal mass -- is bound by its own rule in the same pass,
in either layout below (the operator decides, not the caller): per
chunk, one multiply of the input's cells by the block's diagonal,
tiled over one chunk of cells in an array the binding holds, and one by
``scale``.  No window, halo, product stack or ``matmul``: at n = 1200 the
bound product takes about 2.6 instead of 6 us.  The bits are the
per-block ones, because the 2x2 product of a diagonal block is
``round(c x + 0 y)``, and ``0 y`` is an exact zero, so with or without a
fused multiply-add that is ``round(c x)``, the elementwise product; the
sum from ``+0.0`` over one block adds nothing else.  Two exceptions: the
sign of a zero result (the per-block sum turns ``-0.0`` into ``+0.0``,
the elementwise product keeps it, before ``scale``), and a cell whose
other entry ``y`` is infinite or NaN, which the 2x2 product spreads as
``0 y = NaN`` and the diagonal rule does not.

The operand may also be a stack of ``rows`` operands, shape ``(rows,
2n)``, and the kernel is the same with one more leading axis: ``(rows,
cells + 2h, 2)`` halos filled by the same copies, ``(rows, 2h + 1, cells,
2)`` window views, one batched ``matmul`` per chunk into a ``(rows,
#blocks, cells, 2)`` product stack, one reduction over its block axis and
one scaling.  Each row goes through the 2x2 products and the sums of a
single-operand call, so it gets that call's bits.  The chunk shrinks by
powers of two as ``rows`` grows, to the largest whose stack stays within
``#blocks * (_CHUNK + 1)`` cells (never below two cells), so its edges
still fall where a BLAS product over all ``n`` cells ends its row blocks.
The diagonal rule holds no product stack, so its chunk does not shrink.
A 1-D operand is a stack of one, and a stack of one runs without the
leading axis.  The relaxed time stepper forms ``M d`` and every ``M f_i``
in one such call.

A caller that applies an operator to the same arrays many times, like the
time loop, binds the call once: ``BlockCirculantOp.bind(u, out)`` checks
the operand and ``out`` and makes, in one pass over the chunks and straight
from ``u`` and ``out``, the scratch arrays (each wrapping chunk's halo and
one product buffer, or the tiled diagonal) and one flat list of the numpy
calls over them, ``(function, args)`` in order: the halo copies, then per
chunk its products, block sum and scale multiply, each with its part of
``out``.  It returns them as a ``MatvecBinding``.  ``matvec(u, out,
binding)`` on that very operator, ``u`` and ``out`` (``is``) replays the
calls in one loop, reading whatever ``u`` holds then; a binding made for
any other call raises.  A one-shot call makes the same calls
(``BlockCirculantOp._calls``) and replays them once, with no binding
around them.  Every binding makes
its own scratch arrays and lends them to none, so bindings of one operator
may be replayed in any order.  The kernel's scalars, the ``+0.0`` of the
sums and ``scale``, are numpy scalars made once, which spares each call a
conversion, and a scale of exactly 1 makes no multiply at all, since ``x *
1`` is ``x`` bit for bit.  Every call runs one kernel body, so a bound call
gives the bits of a one-shot call: the 2x2 products go to BLAS either way,
because every operand and output view keeps unit stride in its last axis
and at least two rows (OpenBLAS rounds with fused multiply-adds, which an
elementwise product or numpy's fallback loop would not).

Both layouts make their bindings in that one pass
(``BlockCirculantOp._calls``), and ``matvec`` replays both with one loop.
A BLAS row is a window of ``w`` cells times ``A`` and gives ``K`` cells:
``w = K = 1`` and ``A`` a block per-block, ``w = P K`` and ``A`` the band's
grouped stack banded.  A chunk from cell ``c`` has ``span`` runs of rows
that start ``K`` cells apart (per block one for each block, banded one for
each residue), each of ``m = ceil(cells / w)`` rows ``w`` cells apart, and
reads ``m w + (span - 1) K`` cells from ``c`` plus the lowest offset; the
last chunk takes a tail of ``w`` cells or fewer, so that a run is one row
only where the whole ring is no more than ``w`` cells (numpy sends a
one-row product to BLAS's vector kernel, which rounds differently).  Per
block, a chunk reads its cells from the input where they do not wrap and
from a halo of its own where they do, sums its products into its entries
of ``out`` and multiplies them there by ``scale``.

- The *per-block* layout is the kernel above, with its bit contract: every
  one-shot call (``op @ u``, ``Scheme.rhs``, ``checks``, ``spectral``) and
  every :meth:`BlockCirculantOp.bind`.  Of the time loop, only the stage
  steps use it, their mass products included, since ``perfbench``'s
  references pin their bits to 1e-13.
- The *banded* layout (:meth:`BlockCirculantOp.bind_banded`) serves every
  product of the composed time step: its two factors, ``Q u`` and ``D^
  q``, and for the upwind energy the mass's integer root, ``W u`` and ``W
  d`` (the composed step applies no mass).  ``B`` is the span of the
  stored offsets, ``max - min + 1``, at most ``n`` in the normal form.
  Cell ``i``'s result is the ``2B`` doubles of cells ``i + min .. i + max``
  times the transposed blocks by offset.  A BLAS row gives ``K = 4``
  consecutive cells (one at ``B = 1``: :func:`_grouping`), whose results
  read ``K + B - 1`` cells: its window is ``P K`` cells, ``P = ceil((K + B
  - 1) / K)``, times ``A``, the ``(2 P K, 2 K)`` block-Toeplitz
  expansion of the band (:func:`_grouped`): block ``(b + s, b)`` holds
  ``A_(min + s)^T``, and every other entry is an exact zero.  The windows
  of neighbouring rows overlap, and BLAS takes a matrix as it is only if
  its row stride is at least its row length.  So a chunk's groups of ``K``
  cells are split by residue mod ``P``: the windows of groups ``r, r + P,
  ...`` are consecutive rows of ``2 P K`` doubles, a matrix whose row
  stride equals its row length.  Its operand and ``out`` are *ghost-celled*: arrays that
  hold the ring's cells with margins around them (``_ghost_cells``),
  ``-min`` cells before it and ``min + 2 P K - K - 1`` after it to read
  (a chunk's last row reads that far past its end), of which ``P K - 1``
  also take the products of the last residues' rows past the ring.  A
  call first refreshes the operand's margins from its ring, one copy per
  side (more where a margin passes the ring's end again, at small n).
  Then each chunk is one ``matmul`` of the ``(P, m, 2 P K)`` strided view
  of the operand itself by ``A``, whose ``(P, m, 2 K)`` products go, in
  cell order, straight into a strided view of ``out`` from the chunk's
  first cell (each residue has ``m`` rows, so the last may pass the
  chunk's end, into cells the next chunk writes again).  That is ``P``
  ``dgemm`` calls of ``2 K`` columns per chunk: 5 for ``rk4x2``'s central
  ``Q`` (B = 15) and 2 for ``D^`` (B = 3), where the residues of single
  cells (``K = 1``, ``P = B``) made ``B`` calls of two columns, OpenBLAS's
  narrowest kernel, each paying the per-call cost again.  There is no
  halo, no product buffer, no product stack and no reduction, and the
  scale multiply reads ``out``'s own entries (none at scale 1: the
  composed step's factors have scale 1).  The banded chunk does not
  shrink as ``rows`` grows: a residue's rows are one ``dgemm``, whose bits
  follow the chunk's edges (halving them moved ``Q``'s results by
  rounding), so each row of a stack keeps its one-row call's bits.  Each
  result is one ``2 P K``-term dot in BLAS's order, scaled once.  All but
  ``2B`` of its terms are exact zeros, which leave every partial sum as it
  is, in any order, so it lies within ``2B eps |scale| (|A| |u|)_i + eps
  |result_i|`` of the exact product (Higham 2002, Thm 3.1), but it has not
  the per-block bits, and past one chunk (n > ``_CHUNK`` + P K) not those
  of one ``dgemm`` over the whole ring either.  A non-finite operand entry
  spreads, as ``0 inf = NaN``, to the results of every row whose window
  holds it, not only to the cells its band reaches.
  OpenBLAS's threaded ``dgemm`` splits the rows and columns of a product,
  not its dots: composed runs at n = 1200, 8200 and 1e5 end in the same
  bits with one and with two threads.  With every matvec banded (by
  residues of single cells), the stage steps too, relaxed upwind
  ``rk4x2`` (n = 48, a = -1) landed 1.25e-11 from ``perfbench``'s
  references and the chaotic relaxed central ``ssprk33`` (n = 128)
  6.25e-2: the per-block layout stays for the stage steps until those
  references are re-recorded.  A bound call at n = 1200 takes 5.5 us for
  the central ``rk4x2`` ``Q`` (8.3 by residues of single cells), 3.2 us
  for ``D^`` (4.3) and 3.0 us for the upwind root ``W`` (B = 2; 3.6); at
  n = 8200, 35, 17 and 17 us (48, 27 and 17); at n = 128, 2.3, 1.8 and
  1.5 us (3.9, 2.0 and 1.8).  Medians of 11 alternating rounds in one
  process, shared 2-vCPU x86 host, one BLAS thread (OpenBLAS 0.3.31,
  SkylakeX kernels).

The relaxed time stepper depends on the per-block layout's exactness: its
step rescaling divides energy estimates that nearly cancel, so a kernel
that only reassociates the sums (a CSR matrix, or ``scale`` folded into
the entries) moves relaxed trajectories by far more than rounding.
Folding ``scale`` in would also break the exactly-zero integer row sums
the consistency checks rely on.  (The composed step's ``Q`` is another
matter: it is banded, with a rounding bound and no bit contract, and
takes ``-a dt / dx`` into its blocks.)  A factor applied after the matvec
is another matter too: ``(x * scale) * c`` and ``x * (scale * c)`` are
the same bits whenever multiplying by ``c`` is exact.  At ``c = -1`` it
always is, since rounding is symmetric, so the solver folds ``-a`` into
the scale at ``|a| = 1``.  At other powers of two it is exact only while
nothing is subnormal: a subnormal ``x * scale`` has already lost bits that
``x * (2 scale)`` keeps, so there both roundings stay.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "DENSE_LIMIT",
    "BlockCirculantOp",
    "DofVector",
    "Grid",
    "MassParams",
    "MatvecBinding",
    "banded_mass",
    "banded_mass_stack",
    "build_grid",
    "cell_averages",
    "central_D",
    "coordinate_dofs",
    "diagonal_mass",
    "extended_mass",
    "interleave",
    "point_values",
    "read_number",
    "scaled_central_mass",
    "upwind_D_minus",
    "upwind_D_plus",
    "upwind_mass",
]

#: Interleaved state vector of length 2n; see the module docstring for layout.
DofVector = np.ndarray

#: Largest n for which dense materialization is permitted (oracle cross-checks
#: only; everything structural runs on blocks and Fourier symbols).
DENSE_LIMIT = 2048

#: Cells per stacked block product in ``BlockCirculantOp.matvec``.  A power
#: of two, so chunk edges fall where the row blocks of a BLAS product over
#: all ``n`` cells end too, and small enough that the ``(#blocks, _CHUNK, 2)``
#: products stay in cache.
_CHUNK = 8192

#: The ``+0.0`` every block sum starts from, as a numpy scalar: a Python
#: float ``initial`` costs ``np.add.reduce`` a conversion on every call.
_ZERO = np.float64(0.0)

#: Cells per BLAS row of the banded layout, ``K`` of :func:`_grouping`.
_GROUP = 4


def _windows(x: np.ndarray, first: int, shape: tuple[int, int, int], step: int, w: int) -> np.ndarray:
    """A strided view of flat interleaved ``x``: ``shape`` is ``(span, rows, entries)``.

    Entry ``(s, k, e)`` of each row of ``x`` is entry ``e`` counted from
    cell ``first + s step + k w``: ``span`` runs that start ``step`` cells
    apart, each ``rows`` rows of ``entries`` values, ``w`` cells apart.
    ``x`` must be C-contiguous, except for a view of one plain run of
    cells (``span`` 1, ``entries`` ``2w``), which reshapes any ``x``.
    """
    span, rows, entries = shape
    if span == 1 and entries == 2 * w:
        return x[..., 2 * first : 2 * (first + rows * w)].reshape(*x.shape[:-1], *shape)
    item = x.itemsize
    strides = (*x.strides[:-1], 2 * step * item, 2 * w * item, item)
    return np.ndarray((*x.shape[:-1], *shape), x.dtype, x, 2 * first * item, strides)


def _halo(first: int, count: int, n: int) -> list[tuple[slice, slice]]:
    """The copies that fill a halo with operand cells ``first .. first + count - 1`` (mod n).

    Each run is a ``(halo entries, operand entries)`` pair of slices of
    interleaved arrays: halo cell ``k`` gets operand cell ``(first + k) mod
    n``, and a new run starts wherever the cells pass the ring's end.
    """
    runs, k = [], 0
    while k < count:
        c = (first + k) % n
        run = min(count - k, n - c)
        runs.append((slice(2 * k, 2 * (k + run)), slice(2 * c, 2 * (c + run))))
        k += run
    return runs


def _grouping(span: int) -> tuple[int, int]:
    """Cells ``K`` per BLAS row and row groups ``P`` of the banded layout of ``span`` (B) offsets.

    A row of ``K`` cells reads a window of ``P K`` cells with ``P =
    ceil((K + B - 1) / K)``, the fewest whole groups that hold the ``K + B
    - 1`` cells its results need.  ``K`` is :data:`_GROUP`, but 1 for a
    band of one offset: ``P`` is 1 either way, and single cells read no
    margin past the offset's own reach (none at offset 0).
    """
    group = _GROUP if span > 1 else 1
    return group, -(-(group + span - 1) // group)


def _ghost_cells(lo: int, span: int) -> tuple[int, int]:
    """Cells a ghost-celled array holds before and after its ring, for a band of ``span`` from ``lo``.

    A banded chunk of ``m`` rows per residue writes ``m P`` groups of
    ``K`` cells (:func:`_grouping`), up to ``P K - 1`` cells past its end,
    and its last row reads ``P K`` cells from ``lo + (m P - 1) K`` past the
    chunk's first cell, up to ``lo + 2 P K - K - 1`` past its end.  So the
    operand reads ``-lo`` cells before the ring and ``lo + 2 P K - K - 1``
    after it, and ``out`` takes ``P K - 1`` after it.
    """
    group, rows = _grouping(span)
    return max(0, -lo), max(rows * group - 1, lo + (2 * rows - 1) * group - 1)


def _grouped(band: np.ndarray) -> np.ndarray:
    """The ``(2 P K, 2 K)`` banded-layout stack of a ``(B, 2, 2)`` band of transposed blocks.

    Block ``(b + s, b)`` of the stack is ``band[s]``, for ``b < K`` and ``s
    < B``, and every other entry is an exact zero (:func:`_grouping` gives
    ``K`` and ``P``): row ``t`` of the stack meets cell ``t`` of a row's
    window, column pair ``b`` gives that row's cell ``b``.  The band goes in
    by one assignment, broadcast over a strided view of the stack's ``K``
    block diagonals, read-only.
    """
    span = len(band)
    group, rows = _grouping(span)
    stack = np.zeros((2 * rows * group, 2 * group))
    item = stack.itemsize
    # column pair b from row pair b on: entry (b, s, i, j) at 2K (2 (b + s) + i) + 2b + j
    strides = ((4 * group + 2) * item, 4 * group * item, 2 * group * item, item)
    np.ndarray((group, span, 2, 2), float, stack, 0, strides)[...] = band
    stack.setflags(write=False)
    return stack


def _norm_inf(parts: np.ndarray) -> np.ndarray:
    """Largest absolute row sum of each operator with scaled blocks ``parts[:, b]``.

    The rows of the blocks are added in block order from ``+0.0``: the one
    kernel of :meth:`BlockCirculantOp.norm_inf` and of the stacked norms
    and defects of ``spectral``.
    """
    row = np.zeros(parts.shape[1:3])
    for r in np.abs(parts).sum(axis=3):
        row += r
    return row.max(axis=1, initial=0.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only: the grid owns the arrays it is built from."""
    a.setflags(write=False)
    return a


@dataclasses.dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic 1-D mesh with ``n`` cells on ``[x_min, x_max]``.

    ``interfaces[i]`` is the coordinate of point dof ``2i`` (the left interface
    of cell ``i``); ``centers[i]`` is the midpoint of cell ``i``.
    """

    n: int
    x_min: float
    x_max: float
    dx: float
    interfaces: np.ndarray
    centers: np.ndarray

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


def _grid_spacing(n: int, x_min: float, x_max: float) -> tuple[int, float, float, float]:
    """``n``, ``x_min``, ``x_max`` and ``dx`` of the grid :func:`build_grid`
    builds, checked by its rules, with nothing of size ``n`` allocated: a
    run is refused by its step count before its grid is built."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 3:
        raise ValueError(f"need at least 3 cells, got n={n}")
    x_min = float(x_min)
    x_max = float(x_max)
    if not all(map(math.isfinite, (x_min, x_max, x_max - x_min))):
        raise ValueError(f"domain must be finite: x_min={x_min}, x_max={x_max}")
    if not (x_max > x_min):
        raise ValueError(f"empty domain: x_max={x_max} must exceed x_min={x_min}")
    dx = (x_max - x_min) / n
    if dx == 0.0 or not math.isfinite(32.0 / dx):
        raise ValueError(
            f"cells too small: dx = {dx} on [{x_min}, {x_max}] with n={n}, so 32/dx is not finite"
        )
    return n, x_min, x_max, dx


def build_grid(n: int, x_min: float = 0.0, x_max: float = 2.0 * math.pi) -> Grid:
    """Build a uniform periodic grid with ``n >= 3`` cells.

    ``n < 3`` is rejected: the three-cell stencils would make distinct
    entries collide on the same dof.  The domain ends and length must be
    finite, and so must ``32/dx``: a sum of operators whose prefactors
    differ folds ``+-1/dx`` into its blocks, and the largest row sum the
    battery and the spectra form, of ``D_+ - D_-``, is ``|-2| + |6| + |-8|
    + |6| + |-2| = 24`` over ``dx``.  32 is a power of two, so ``32/dx``
    overflows exactly when ``32 * (1/dx)`` does.
    """
    n, x_min, x_max, dx = _grid_spacing(n, x_min, x_max)
    # x_min + i dx and x_min + (i + 0.5) dx, formed in place (addition commutes)
    i = np.arange(n)
    interfaces = i * dx
    interfaces += x_min
    centers = i + 0.5
    centers *= dx
    centers += x_min
    return Grid(
        n=n,
        x_min=x_min,
        x_max=x_max,
        dx=dx,
        interfaces=_frozen(interfaces),
        centers=_frozen(centers),
    )


@dataclasses.dataclass(frozen=True)
class MassParams:
    """Free coefficients of the mass-matrix families.

    The primary five are stored; the coupling coefficients are always derived:

        m_pp = (3 m_p - m_v + 2 m_vv) / 6,      m_vp = (m_v - 3 m_p) / 2,

    and for the seven-band family additionally

        y = (3 m_p - m_v + 2 m_vv - 2 m_vvp) / 6.
    """

    m_v: float
    m_p: float
    m_vv: float = 0.0
    m_vvp: float = 0.0
    m_vvv: float = 0.0

    @property
    def m_pp(self) -> float:
        return (3.0 * self.m_p - self.m_v + 2.0 * self.m_vv) / 6.0

    @property
    def m_vp(self) -> float:
        return (self.m_v - 3.0 * self.m_p) / 2.0

    @property
    def y(self) -> float:
        return (3.0 * self.m_p - self.m_v + 2.0 * self.m_vv - 2.0 * self.m_vvp) / 6.0


class MatvecBinding(NamedTuple):
    """One :meth:`BlockCirculantOp.matvec` call's set-up, from :meth:`BlockCirculantOp.bind`
    or :meth:`BlockCirculantOp.bind_banded`.

    ``calls`` is the call's numpy calls, ``(function, args)`` in order,
    which ``matvec`` replays only when it is a call of ``op`` on ``u`` into
    ``out``, all three the very objects bound: first the copies into the
    halos (per block) or the operand's margins (banded), each a
    ``__setitem__`` of its destination, then per chunk its products
    (``np.matmul`` of the windows into the product stack, per block, or
    into a strided view of ``out``, banded; ``np.multiply`` of the chunk's
    cells by the tiled diagonal into its entries of ``out``, by the
    diagonal rule in either layout), per block the ``np.add.reduce`` of the
    product stack into the chunk's entries of ``out``, and the multiply of
    those entries by the scale, unless the scale is 1.  The halos, the
    product stack and the tiled diagonal are the binding's own: no other
    binding writes them.
    """

    op: "BlockCirculantOp"
    u: np.ndarray
    out: np.ndarray
    calls: tuple


@dataclasses.dataclass(frozen=True, eq=False)
class BlockCirculantOp:
    """Operator on interleaved dof vectors, given by a ring of 2x2 blocks.

    ``blocks[j]`` acts on cell ``i + j`` from block row ``i`` and is stored
    unscaled, in the normal form of the module docstring; the effective
    matrix is ``scale * circulant(blocks)``.  ``stack`` is the stored
    blocks in insertion order, one read-only ``(#blocks, 2, 2)`` array of
    which the values of ``blocks`` are views; every reader of the whole
    normal form reads it.
    """

    n: int
    dx: float
    scale: float
    blocks: Mapping[int, np.ndarray]
    stack: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        # one conversion for all blocks; one at a time only to name a bad block
        try:
            stack = np.array([*self.blocks.values()], dtype=float)
        except (TypeError, ValueError):
            stack = None
        if stack is None or stack.shape != (len(self.blocks), 2, 2):
            converted = []
            for j, a in self.blocks.items():
                a = np.asarray(a, dtype=float)
                if a.shape != (2, 2):
                    raise ValueError(f"block at offset {j} has shape {a.shape}, want (2, 2)")
                converted.append(a)
            stack = np.array(converted).reshape(-1, 2, 2)
        offsets = [(int(j) + n // 2) % n - n // 2 for j in self.blocks]
        if len(set(offsets)) < len(offsets):  # aliased offsets (n = 3, 4)
            merged: dict[int, np.ndarray] = {}
            for r, a in zip(offsets, stack):
                merged[r] = merged[r] + a if r in merged else a
            offsets, stack = [*merged], np.array([*merged.values()])
        # the blocks are read-only views of one array; any() counts NaN as
        # nonzero and -0.0 as zero
        keep = stack.reshape(-1, 4).any(axis=1)
        stack = stack[keep]
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "blocks", dict(zip(itertools.compress(offsets, keep), stack)))

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.n, 2 * self.n)

    def offsets(self) -> list[int]:
        return sorted(self.blocks)

    # -- evaluation --------------------------------------------------------

    @functools.cached_property
    def _scale(self) -> np.ndarray:
        """``scale`` as a read-only 0-d array, the same value: a multiply by
        it skips the conversion a Python float costs on every call."""
        scale = np.array(self.scale)
        scale.setflags(write=False)
        return scale

    @functools.cached_property
    def _diagonal(self) -> Optional[np.ndarray]:
        """The block's diagonal ``(point, average)`` when the operator is one
        block at offset 0 with zero off-diagonals, which either layout applies
        elementwise (:meth:`_calls`); None for any other operator."""
        a = self.blocks.get(0)
        if len(self.blocks) != 1 or a is None or a[0, 1] != 0.0 or a[1, 0] != 0.0:
            return None
        return a.diagonal().copy()

    @functools.cached_property
    def _plan(self) -> tuple[int, int, slice | np.ndarray, np.ndarray]:
        """First window ``-h`` and window count ``2h + 1`` for the halo width ``h = max |j|``,
        window selector and stacked ``A_j^T``.

        Block ``i`` in insertion order reads the operand window that starts
        at cell ``h + j_i`` of the halo-extended copy.  The selector picks
        those windows: a slice when the starts are consecutive (every
        builder's blocks are inserted by increasing offset), an index array
        otherwise.  The transposed blocks are stacked in the same order into
        one contiguous ``(#blocks, 2, 2)`` array.  O(#blocks): nothing of
        size O(n) is cached.
        """
        h = max(map(abs, self.blocks), default=0)
        starts = [h + j for j in self.blocks]
        first = starts[0] if starts else 0
        consecutive = starts == list(range(first, first + len(starts)))
        select = slice(first, first + len(starts)) if consecutive else np.array(starts)
        return -h, 2 * h + 1, select, self.stack.transpose(0, 2, 1).copy()

    def _operands(self, u, out, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``u`` as an array of shape ``(size,)`` or ``(rows, size)``, and
        ``out`` of its shape and the result dtype (None makes a new one);
        anything else raises :class:`ValueError`."""
        u = np.asarray(u)
        if u.shape != (size,) and (u.ndim != 2 or u.shape[1] != size or not len(u)):
            raise ValueError(f"expected shape ({size},) or (rows, {size}), got {u.shape}")
        dtype = np.promote_types(u.dtype, float)
        # the result before the scratch arrays: it outlives them, and large
        # scratch arrays freed above it leave the heap less fragmented
        if out is None:
            out = np.empty(u.shape, dtype)
        elif not isinstance(out, np.ndarray) or out.shape != u.shape or out.dtype != dtype:
            got = f"{out.shape} {out.dtype}" if isinstance(out, np.ndarray) else type(out).__name__
            raise ValueError(f"out must be a {u.shape} array of {dtype}, got {got}")
        return u, out

    def bind(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> MatvecBinding:
        """The set-up of a :meth:`matvec` call on ``u`` into ``out`` in the per-block layout.

        A window is one cell, and the ``2h + 1`` windows around a cell hold
        every block's operand; each block's products go to the product
        stack, whose block sum goes to ``out``.  Windows selected by a
        slice make one batched product per chunk; by an index array, one
        product per block, since a gathered copy would not see the next
        operand.  A diagonal operator is two multiplies per chunk instead,
        with the same bits (see :meth:`_calls`).
        """
        u, out = self._operands(u, out, 2 * self.n)
        return MatvecBinding(self, u, out, self._calls(u, out))

    def _calls(self, u, out, ghosts=None) -> tuple:
        """The calls of a binding: the one pass over the chunks behind :meth:`bind`,
        :meth:`bind_banded` and every one-shot :meth:`matvec`.

        ``u`` and ``out`` come checked (:meth:`_operands`).  Row ``k`` of
        run ``s`` of a chunk from cell ``c`` multiplies the window of ``w``
        cells from ``c + lo + s K + k w`` by ``A``; the module docstring has
        the rest.  ``ghosts`` an int is the banded layout on ghost-celled
        arrays: the ring starts at cell ``ghosts`` of both, and the calls
        begin by refreshing ``u``'s margins.  A diagonal operator
        (:attr:`_diagonal`) takes the diagonal rule in either layout, at
        ``lo = 0`` and ``span = w = 1`` (so it has no margins to refresh):
        each chunk multiplies its cells by the diagonal, tiled over the
        largest chunk's cells, and by ``scale``.  Any other banded call
        reads every chunk's windows from ``u`` and writes its products into
        ``out``.  Any other call is per block: a chunk reads its cells from
        the operand where they do not wrap, if ``u`` is C-contiguous and
        ``out`` does not overlap it, and always at span 1 from ``lo = 0``;
        any other chunk reads them from a halo of its own.  A scale of
        exactly 1 makes no multiply: ``x * 1`` is ``x``, bit for bit.  The
        calls' arrays are views, valid as long as ``u``, ``out`` and the
        binding's own scratch arrays are.
        """
        n, diagonal = self.n, self._diagonal
        if diagonal is not None:  # either layout; a banded Q may store zero blocks around it
            lo, span, w = 0, 1, 1
        elif ghosts is None:  # per block: a run for each block, of windows of one cell
            (lo, runs, select, a_t), w = self._plan, 1
        else:  # banded: a row gives K cells from a window of P K, a run for each residue mod P
            lo, span, a_t = self._band
            group, runs = _grouping(span)
            w = runs * group
        rows = len(u) if u.ndim == 2 else 1
        operand, result = (u[0], out[0]) if u.ndim == 2 and rows == 1 else (u, out)
        stack = (rows,) if rows > 1 else ()
        # per block, the largest power of two whose chunks, the last one's
        # lone cell included, keep the stack within #blocks * (_CHUNK + 1)
        # cells, but never a one-cell chunk
        chunk = _CHUNK
        while ghosts is None and diagonal is None and chunk > 2 and rows * (chunk + 1) > _CHUNK + 1:
            chunk //= 2
        # the last chunk takes a tail of w cells or fewer: no one-row product,
        # which numpy sends to BLAS's vector kernel, which rounds differently
        edges = [0, *range(chunk, n - w, chunk), n]
        most = -(-min(n, chunk + w) // w)  # rows of the largest chunk
        copies, calls, g = [], [], ghosts or 0
        if ghosts is not None:
            before, after = _ghost_cells(lo, span)
            # the margins: cells -before..-1 and n..n + after - 1 of the ring
            ring = operand[..., 2 * g : 2 * (g + n)]
            for first, count in ((-before, before), (n, after)):
                margin = operand[..., 2 * (g + first) :]
                copies += [(margin[..., to].__setitem__, (..., ring[..., c])) for to, c in _halo(first, count, n)]
        if diagonal is not None:
            a_t = np.tile(diagonal, most)
        elif ghosts is None:
            products = np.empty((*stack, len(a_t), most, 2), result.dtype)
        for c, stop in zip(edges, edges[1:]):
            m = -(-(stop - c) // w)
            entries = result[..., 2 * (g + c) : 2 * (g + stop)]
            if diagonal is not None:
                cells = operand[..., 2 * (g + c) : 2 * (g + stop)]
                calls.append((np.multiply, (cells, a_t[: 2 * (stop - c)], entries)))
            elif ghosts is not None:
                windows = _windows(operand, g + c + lo, (runs, m, 2 * w), group, w)
                products = _windows(result, g + c, (runs, m, 2 * group), group, w)
                calls.append((np.matmul, (windows, a_t, products)))
            else:
                first, count = c + lo, m + runs - 1
                inside = 0 <= first and first + count <= n  # windows that do not wrap
                if runs == 1 and not lo or inside and u.flags.c_contiguous and not np.may_share_memory(u, out):
                    x = operand
                else:
                    x, first = np.empty((*stack, 2 * count), u.dtype), 0
                    halo = _halo(c + lo, count, n)
                    copies += [(x[..., into].__setitem__, (..., operand[..., cells])) for into, cells in halo]
                windows = _windows(x, first, (runs, m, 2), 1, 1)
                part = products[..., :m, :]
                if isinstance(select, slice):
                    calls.append((np.matmul, (windows[..., select, :, :], a_t, part)))
                else:
                    for i, s in enumerate(select.tolist()):
                        calls.append((np.matmul, (windows[..., s, :, :], a_t[i], part[..., i, :, :])))
                sums = part.reshape(*stack, len(a_t), 2 * m)
                calls.append((np.add.reduce, (sums, -2, None, entries, False, _ZERO)))
            if self.scale != 1.0:
                calls.append((np.multiply, (entries, self._scale, entries)))
        return (*copies, *calls)

    @functools.cached_property
    def _band(self) -> tuple[int, int, np.ndarray]:
        """First offset ``lo``, span ``B`` and the ``(2 P K, 2 K)`` stack of the banded layout.

        The stack is :func:`_grouped` of the band whose entry ``k`` is
        ``A_(lo + k)^T``, zero where no block is stored; an operator without
        blocks has ``B = 1`` and a zero stack.  The normal form keeps ``B <=
        n``.
        """
        lo = min(self.blocks, default=0)
        span = max(self.blocks, default=0) - lo + 1
        band = np.zeros((span, 2, 2))
        band[[j - lo for j in self.blocks]] = self.stack.transpose(0, 2, 1)
        return lo, span, _grouped(band)

    @classmethod
    def _from_band(cls, n: int, dx: float, lo: int, band: np.ndarray) -> "BlockCirculantOp":
        """The operator of scale 1 whose banded layout multiplies by ``band``, built without a dict.

        ``band`` is a C-contiguous ``(B, 2, 2)`` stack of the transposed
        blocks at offsets ``lo .. lo + B - 1``, all in the normal form's
        range ``[-n//2, n - n//2)``: the caller has summed the offsets that
        alias.  :attr:`_band` groups it as it is, zero blocks included, and
        ``blocks`` and ``stack`` hold its nonzero blocks by increasing
        offset, the normal form of the same operator.
        """
        span = len(band)
        if lo < -(n // 2) or lo + span > n - n // 2:
            raise ValueError(f"offsets {lo}..{lo + span - 1} are not reduced mod n = {n}")
        band.setflags(write=False)
        keep = band.reshape(span, 4).any(axis=1)
        stack = band.transpose(0, 2, 1)[keep]
        stack.setflags(write=False)
        op = object.__new__(cls)
        blocks = dict(zip(itertools.compress(range(lo, lo + span), keep), stack))
        for name, value in zip(("n", "dx", "scale", "blocks", "stack"), (n, dx, 1.0, blocks, stack)):
            object.__setattr__(op, name, value)
        op.__dict__["_band"] = (lo, span, _grouped(band))
        return op

    def bind_banded(self, u: np.ndarray, out: np.ndarray, ghosts: int) -> MatvecBinding:
        """The set-up of a :meth:`matvec` call on ghost-celled ``u`` and ``out`` in the banded layout.

        A row of ``K`` cells from cell ``i`` is its window, cells ``i + lo
        .. i + lo + P K - 1``, times the ``(2 P K, 2 K)`` stack of
        ``_band`` (:func:`_grouping`, :func:`_grouped`), so ``w`` is ``P
        K``: a chunk's groups of ``K`` cells by residue mod ``P`` are one
        ``(P, m, 2 P K)`` strided view of ``u`` and one ``matmul`` into a
        ``(P, m, 2 K)`` strided view of ``out`` (see the module docstring
        and :meth:`_calls`).  ``u`` and ``out`` are ghost-celled: of one
        shape, ``(size,)`` or ``(rows, size)``, with the ring's ``2n``
        entries from cell ``ghosts`` on and at least the cells
        :func:`_ghost_cells` gives before and after it.  Both are
        C-contiguous and do not overlap.  Each call first refreshes ``u``'s
        margins from its ring, and writes ``out``'s ring and the cells after
        it.  Each result is one ``2 P K``-term dot in BLAS's order, all
        but ``2B`` of whose terms are exact zeros, scaled once: within
        ``2B eps |scale| (|A| |u|)_i + eps |result_i|`` of the exact
        product, not the bits of :meth:`bind`'s per-block layout.
        """
        lo, span, _ = self._band
        before, after = _ghost_cells(lo, span)
        size = np.shape(u)[-1] if np.ndim(u) else 0
        fits = isinstance(ghosts, int) and ghosts >= before and size % 2 == 0
        if not (fits and size // 2 - ghosts - self.n >= after):
            raise ValueError(
                f"a banded operand holds at least {before} ghost cells before its {self.n} "
                f"and {after} after them, got {ghosts} before in {size} entries"
            )
        u, out = self._operands(u, out, size)
        if not (u.flags.c_contiguous and out.flags.c_contiguous) or np.may_share_memory(u, out):
            raise ValueError("a banded operand and out must be C-contiguous and must not overlap")
        return MatvecBinding(self, u, out, self._calls(u, out, ghosts))

    def matvec(
        self,
        u: np.ndarray,
        out: Optional[np.ndarray] = None,
        binding: Optional[MatvecBinding] = None,
    ) -> np.ndarray:
        """``scale * circulant(blocks) @ u``, one stacked product per chunk.

        Bit-exactness contract: the result equals, bit for bit, rolling the
        operand once per block (``np.roll(x, -j) @ A_j^T``), accumulating
        into zeros in block insertion order and multiplying by ``scale``
        once.  The windows of each chunk of ``_CHUNK`` cells are a strided
        view of the operand, or of the chunk's halo copy where they wrap
        (see the module docstring); per chunk, one batched ``matmul`` forms
        every block's product into the product stack and ``np.add.reduce``
        over the block axis, from ``initial=0.0``, adds them in insertion
        order (the ``+0.0`` start turns a ``-0.0`` first product into
        ``+0.0``, as zeros do).  See the module docstring for why no
        reassociating kernel (CSR) is used.
        Windows that are not consecutive in insertion order are multiplied
        block by block, with the same 2x2 products.  A diagonal operator is
        applied elementwise, with the same bits but for two exceptions (see
        the module docstring): the sign of a zero result, and a non-finite
        neighbour entry, which the 2x2 product spreads as NaN.

        ``u`` may be a stack of operands, shape ``(rows, 2n)``: the result
        has its shape, and each row is the call on that row alone, bit for
        bit, with chunks of ``_CHUNK`` halved until ``rows`` of them fit in
        one chunk's product stack (see the module docstring).

        ``out`` (of ``u``'s shape and the result dtype) receives the result
        and is returned; it may be ``u`` itself.  Without ``binding`` the
        call is one-shot: the calls ``bind(u, out)`` would hold, made and
        replayed once, with a new array when ``out`` is None.  With a
        ``binding`` from :meth:`bind` for this operator, ``u`` and ``out``,
        it replays the bound calls.
        A binding from :meth:`bind_banded` replays the banded layout on its
        ghost-celled arrays through the same loop, with that layout's
        rounding instead of the contract above.  An operand or ``out`` that
        does not fit, or a binding made for another call, raises
        :class:`ValueError`.
        """
        if binding is None:
            u, out = self._operands(u, out, 2 * self.n)
            calls = self._calls(u, out)
        else:
            op, bound_u, bound_out, calls = binding
            if op is not self or bound_u is not u or bound_out is not out:
                raise ValueError("the binding was made for another operator, operand or out")
        for function, args in calls:
            function(*args)
        return out

    def dense(self) -> np.ndarray:
        """Materialize the full ``2n x 2n`` matrix (guarded by DENSE_LIMIT)."""
        if self.n > DENSE_LIMIT:
            raise ValueError(f"n={self.n} exceeds the dense limit {DENSE_LIMIT}")
        out = np.zeros(self.shape)
        cells = out.reshape(self.n, 2, self.n, 2)
        rows = np.arange(self.n)
        for j, a in self.blocks.items():
            # each block is written once; adding to zeros keeps +0.0 for 0 * scale
            cells[rows, :, (rows + j) % self.n, :] += self.scale * a
        return out

    def norm_inf(self) -> float:
        """Matrix infinity norm (maximum absolute row sum)."""
        return float(_norm_inf(self.scale * self.stack[:, None])[0])

    # -- algebra -----------------------------------------------------------

    def _require_compatible(self, other: "BlockCirculantOp") -> None:
        if self.n != other.n or self.dx != other.dx:
            raise ValueError(
                f"incompatible operators: (n={self.n}, dx={self.dx}) "
                f"vs (n={other.n}, dx={other.dx})"
            )

    def __add__(self, other: "BlockCirculantOp") -> "BlockCirculantOp":
        if not isinstance(other, BlockCirculantOp):
            return NotImplemented
        self._require_compatible(other)
        if self.scale == other.scale:
            merged = {j: a.copy() for j, a in self.blocks.items()}
            for j, a in other.blocks.items():
                merged[j] = merged[j] + a if j in merged else a.copy()
            return BlockCirculantOp(self.n, self.dx, self.scale, merged)
        # unequal prefactors: fold them into the blocks
        merged = {j: self.scale * a for j, a in self.blocks.items()}
        for j, a in other.blocks.items():
            b = other.scale * a
            merged[j] = merged[j] + b if j in merged else b
        return BlockCirculantOp(self.n, self.dx, 1.0, merged)

    def __sub__(self, other: "BlockCirculantOp") -> "BlockCirculantOp":
        if not isinstance(other, BlockCirculantOp):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, c: float) -> "BlockCirculantOp":
        if not isinstance(c, (int, float, np.floating, np.integer)):
            return NotImplemented
        return BlockCirculantOp(self.n, self.dx, self.scale * float(c), dict(self.blocks))

    __rmul__ = __mul__

    def __neg__(self) -> "BlockCirculantOp":
        return (-1.0) * self

    def __matmul__(self, other):
        if isinstance(other, BlockCirculantOp):
            self._require_compatible(other)
            conv: dict[int, np.ndarray] = {}
            for i, a in self.blocks.items():
                for j, b in other.blocks.items():
                    # row picks A_i from cell k+i, whose row picks B_j from cell k+i+j
                    k = i + j
                    ab = a @ b
                    conv[k] = conv[k] + ab if k in conv else ab
            return BlockCirculantOp(self.n, self.dx, self.scale * other.scale, conv)
        if isinstance(other, np.ndarray):
            return self.matvec(other)
        return NotImplemented

    @property
    def T(self) -> "BlockCirculantOp":
        """Transpose: block at offset ``j`` becomes the transpose at ``-j``."""
        return BlockCirculantOp(
            self.n, self.dx, self.scale, {-j: a.T for j, a in self.blocks.items()}
        )

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dx": self.dx,
            "scale": self.scale,
            "blocks": [
                {"offset": j, "rows": self.blocks[j].tolist()} for j in self.offsets()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlockCirculantOp":
        """Read :meth:`to_json_dict` output; the entry point for outside input.

        Every value goes through :func:`read_number`: ``n`` and the offsets
        must be integers (a float with a fractional part is refused, not
        truncated), ``dx``, ``scale`` and every block entry numbers, and
        none of them a boolean or a string.  ``dx``, ``scale`` and the
        entries must also be finite.
        """
        try:
            n = read_number(data["n"], "n", integer=True)
            offsets = [read_number(b["offset"], "a block offset", integer=True) for b in data["blocks"]]
            dx, scale = (read_number(data[key], key) for key in ("dx", "scale"))
            rows = [
                np.array([[read_number(v, "a block entry") for v in row] for row in b["rows"]])
                for b in data["blocks"]
            ]
            if not all(np.isfinite(v).all() for v in (dx, scale, *rows)):
                raise ValueError("dx, scale and the block rows must be finite")
            return cls(n, dx, scale, dict(zip(offsets, rows)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed operator description: {exc}") from exc


def read_number(value, what: str, *, integer: bool = False) -> float | int:
    """``value`` from outside input as a float, or with ``integer`` as an int.

    Only real numbers pass: a boolean or a string raises
    :class:`ValueError` (JSON ``true`` is not 1, ``"0.5"`` is not 0.5),
    and so does an integer past the float range and, with ``integer``, a
    number with a fractional part (it is not truncated).  ``what`` names
    the value in the message.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if integer:
        if not isinstance(value, numbers.Integral) and not float(value).is_integer():
            raise ValueError(f"{what} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is past the float range: {value!r}") from None


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------

def central_D(grid: Grid) -> BlockCirculantOp:
    """Central derivative operator.

    Point rows approximate the derivative at the interface from both adjacent
    parabolae,

        (u_{i-1/2} - 3 u_i + 3 u_{i+1} - u_{i+3/2}) / dx,

    and average rows apply the flux difference ``(u_{i+1/2} - u_{i-1/2})/dx``.
    Stencil entries are exact integers; the only scaling is the 1/dx prefactor.
    """
    blocks = {
        -1: [[1.0, -3.0], [0.0, 0.0]],
        0: [[0.0, 3.0], [-1.0, 0.0]],
        1: [[-1.0, 0.0], [1.0, 0.0]],
    }
    return BlockCirculantOp(grid.n, grid.dx, 1.0 / grid.dx, blocks)


def upwind_D_minus(grid: Grid) -> BlockCirculantOp:
    """One-sided derivative operator biased left (advection speed > 0).

    Point rows differentiate the parabola of the cell to the left of the
    interface, ``(2 u_{i-1/2} - 6 u_i + 4 u_{i+1/2}) / dx``; average rows are
    shared with :func:`central_D`.
    """
    blocks = {
        -1: [[2.0, -6.0], [0.0, 0.0]],
        0: [[4.0, 0.0], [-1.0, 0.0]],
        1: [[0.0, 0.0], [1.0, 0.0]],
    }
    return BlockCirculantOp(grid.n, grid.dx, 1.0 / grid.dx, blocks)


def upwind_D_plus(grid: Grid) -> BlockCirculantOp:
    """One-sided derivative operator biased right (advection speed < 0).

    Point rows differentiate the parabola of the cell to the right of the
    interface, ``(-4 u_{i+1/2} + 6 u_{i+1} - 2 u_{i+3/2}) / dx``; average rows
    are shared with :func:`central_D`.  Averaging the two one-sided operators
    recovers the central one entrywise.
    """
    blocks = {
        0: [[-4.0, 6.0], [-1.0, 0.0]],
        1: [[-2.0, 0.0], [1.0, 0.0]],
    }
    return BlockCirculantOp(grid.n, grid.dx, 1.0 / grid.dx, blocks)


# ---------------------------------------------------------------------------
# mass matrices
# ---------------------------------------------------------------------------

def diagonal_mass(grid: Grid) -> BlockCirculantOp:
    """Diagonal mass matrix: ``dx/4`` on points, ``3 dx/4`` on averages.

    Normalized so that ``1^T M 1 = x_max - x_min``; the induced quadrature is
    the chained trapezoidal rule through interface and reconstructed midpoint
    values.
    """
    return BlockCirculantOp(grid.n, grid.dx, grid.dx, {0: [[0.25, 0.0], [0.0, 0.75]]})


def banded_mass(grid: Grid, params: MassParams) -> BlockCirculantOp:
    """Symmetric pentadiagonal mass matrix family.

    Point rows carry ``(m_pp, m_vp, m_p, m_vp, m_pp) * dx`` and average rows
    ``(m_vv, m_vp, m_v, m_vp, m_vv) * dx`` with the derived couplings

        m_vp = (m_v - 3 m_p) / 2,        m_pp = (3 m_p - m_v + 2 m_vv) / 6,

    which make the matrix skew-symmetrize the central derivative operator for
    every parameter choice.  Definiteness depends on the parameters and is
    classified separately.
    """
    if params.m_vvp != 0.0 or params.m_vvv != 0.0:
        raise ValueError(
            "banded_mass takes m_vvp = m_vvv = 0; use extended_mass for the seven-band family"
        )
    # rebuilt with m_vvp = +0.0: -0.0 passes the guard but would store signed zeros
    return extended_mass(grid, MassParams(params.m_v, params.m_p, params.m_vv))


def upwind_mass(grid: Grid, m_v: float = 1.0) -> BlockCirculantOp:
    """The unique pentadiagonal mass matrix adjoint-pairing the one-sided operators.

    Equals :func:`banded_mass` at ``m_p = 2 m_v / 3``, ``m_vv = 0`` (hence
    ``m_vp = -m_v/2``, ``m_pp = m_v/6``).  In exact arithmetic it is
    positive semidefinite for ``m_v > 0`` with one zero eigenvalue,
    eigenvector ``1``, and every row sums to zero.  The stored
    coefficients are not exact: ``1/6`` and ``2/3`` round, so at ``m_v =
    1`` the stored point row ``(1/6, -1/2, 2/3, -1/2, 1/6)`` sums to
    ``-2**-54`` (-5.6e-17) exactly and to -8.3e-17 as the matvec adds it,
    ``M @ 1`` has point entries of -8.3e-17 dx (the average rows sum to
    zero), and ``1^T M 1`` is -5.2e-16 on ``[0, 2 pi]`` at every n: in
    float64 the stored mass is indefinite.
    """
    m_v = float(m_v)
    return banded_mass(grid, MassParams(m_v=m_v, m_p=2.0 * m_v / 3.0))


def scaled_central_mass(grid: Grid, m_v: float, m_p: float) -> BlockCirculantOp:
    """Positive definite pentadiagonal mass, rescaled to unit-measure rows.

    Requires the open definiteness window ``2 m_v/9 < m_p < 2 m_v/3`` (with
    ``m_v > 0``); the window boundary gives a singular matrix and is rejected.
    The raw banded matrix has per-cell row sum ``(8 m_v - 12 m_p)/3 * dx``, so
    multiplying by ``3 / (8 m_v - 12 m_p)`` restores ``1^T M 1 = x_max - x_min``.
    """
    m_v = float(m_v)
    m_p = float(m_p)
    if not m_v > 0.0:
        raise ValueError(f"need m_v > 0, got m_v={m_v}")
    if not (2.0 * m_v / 9.0 < m_p < 2.0 * m_v / 3.0):
        raise ValueError(
            f"m_p={m_p} outside the open definiteness window "
            f"({2.0 * m_v / 9.0}, {2.0 * m_v / 3.0}) for m_v={m_v}"
        )
    factor = 3.0 / (8.0 * m_v - 12.0 * m_p)
    return factor * banded_mass(grid, MassParams(m_v=m_v, m_p=m_p))


def _mass_family(p: MassParams) -> tuple[dict, dict]:
    """The seven-band family at ``p``: every coefficient by name, and the blocks at -2..2.

    ``p``'s fields may be floats or arrays; each array entry goes through
    the same operations, in the same order, as a float.
    """
    m_vp, y, far = p.m_vp, p.y, (p.m_vvv - p.m_vvp) / 3.0
    coeffs = {**vars(p), "m_pp": p.m_pp, "m_vp": m_vp, "y": y, "(m_vvv - m_vvp)/3": far}
    blocks = {
        -2: [[far, p.m_vvp], [0.0, p.m_vvv]],
        -1: [[y, m_vp], [p.m_vvp, p.m_vv]],
        0: [[p.m_p, m_vp], [m_vp, p.m_v]],
        1: [[y, p.m_vvp], [m_vp, p.m_vv]],
        2: [[far, 0.0], [p.m_vvp, p.m_vvv]],
    }
    return coeffs, blocks


def extended_mass(grid: Grid, params: MassParams) -> BlockCirculantOp:
    """Symmetric seven-band mass matrix family.

    Point rows carry

        ((m_vvv - m_vvp)/3, m_vvp, y, m_vp, m_p, m_vp, y, m_vvp, (m_vvv - m_vvp)/3) * dx

    and average rows ``(0, m_vvv, m_vvp, m_vv, m_vp, m_v, m_vp, m_vv, m_vvp,
    m_vvv) * dx`` with ``y = (3 m_p - m_v + 2 m_vv - 2 m_vvp)/6``.  Reduces to
    :func:`banded_mass` at ``m_vvp = m_vvv = 0`` and skew-symmetrizes the
    central derivative operator for every parameter choice.  Every mass
    builder that takes coefficients passes through here, and a non-finite
    primary or derived coefficient is refused by name.
    """
    # Python floats overflow to inf without the warning numpy scalars give
    p = MassParams(*map(float, (params.m_v, params.m_p, params.m_vv, params.m_vvp, params.m_vvv)))
    coeffs, blocks = _mass_family(p)
    bad = ", ".join(f"{k} = {v}" for k, v in coeffs.items() if not math.isfinite(v))
    if bad:
        raise ValueError(f"mass coefficients must be finite, got {bad} for {p}")
    return BlockCirculantOp(grid.n, grid.dx, grid.dx, blocks)


def banded_mass_stack(
    grid: Grid, m_v: float, m_p: Sequence[float]
) -> tuple[tuple[int, ...], np.ndarray]:
    """The blocks ``banded_mass(grid, MassParams(m_v, m))`` stores for each ``m`` in ``m_p``, stacked.

    Returns the offsets and a ``(#offsets, len(m_p), 2, 2)`` array: bit for
    bit each value's stored blocks, zeros where a value stores none, and no
    offset at which every value's block is zero.  No operator is built:
    ``_mass_family`` applies the formulas to arrays.  The scale is
    ``grid.dx``.  The first value :func:`banded_mass` refuses raises its
    error.  Needs ``n >= 5``, where the offsets -2..2 are already reduced.
    """
    if grid.n < 5:
        raise ValueError(f"the stacked mass family needs n >= 5, got n={grid.n}")
    m_v, m_p = float(m_v), np.asarray(m_p, dtype=float)
    # arrays warn on overflow where floats do not; the refusal below names it
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, blocks = _mass_family(MassParams(m_v, m_p))
    finite = np.ones(m_p.shape, dtype=bool)
    for v in coeffs.values():
        finite &= np.isfinite(v)
    if not finite.all():
        banded_mass(grid, MassParams(m_v, float(m_p[np.argmin(finite)])))
    stack = np.empty((len(blocks), 2, 2, m_p.size))
    entries = (e for block in blocks.values() for row in block for e in row)
    for cell, e in zip(stack.reshape(-1, m_p.size), entries):
        cell[:] = e
    stack = stack.transpose(0, 3, 1, 2)
    # an offset where every value's block is zero (-0.0 counts) is dropped
    kept = stack.any(axis=(1, 2, 3))
    return tuple(j for j, k in zip(blocks, kept) if k), stack[kept]


# ---------------------------------------------------------------------------
# dof-vector helpers
# ---------------------------------------------------------------------------

def point_values(u: DofVector) -> np.ndarray:
    """The interface point values (even entries) of an interleaved state."""
    return np.asarray(u)[0::2]


def cell_averages(u: DofVector) -> np.ndarray:
    """The cell averages (odd entries) of an interleaved state."""
    return np.asarray(u)[1::2]


def interleave(points: np.ndarray, averages: np.ndarray) -> DofVector:
    points = np.asarray(points, dtype=float)
    averages = np.asarray(averages, dtype=float)
    if points.shape != averages.shape or points.ndim != 1:
        raise ValueError("points and averages must be 1-D arrays of equal length")
    out = np.empty(2 * points.size)
    out[0::2] = points
    out[1::2] = averages
    return out


def coordinate_dofs(grid: Grid) -> DofVector:
    """Samples of the identity map x: points at interfaces, averages at centers."""
    return interleave(grid.interfaces, grid.centers)
