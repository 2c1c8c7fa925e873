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
layouts (see below).  In the per-block layout, a plan cached on the frozen
operator holds the halo width ``h = max |j|``, the transposed
blocks stacked in insertion order, and which windows of a halo-extended copy
of the input (the input with ``h`` wrapped cells on each side) they read.  A
bound call copies the input into a halo buffer (no copy at all when ``h =
0``), whose ``2h + 1`` windows of ``n`` cells are one strided ``(2h + 1, n,
2)`` view.  A one-shot call reads the windows of each chunk of cells (see
below) that does not wrap across the seam straight from the input, through
the same kind of view, and copies a halo only for the chunks that wrap: at
three chunks or more, the first and the last.  It copies the whole halo
when ``out`` shares memory with the input, whose cells the results would
overwrite before later chunks read them, or when the input is not
C-contiguous (a strided view, which BLAS would not take as it is).  One batched ``matmul`` then
forms every block's ``(cells, 2) @ (2, 2)`` product into a product stack
(one ``matmul`` per block where the windows are not consecutive),
``np.add.reduce`` sums the products over the blocks, in insertion order
and starting from ``+0.0``, and the sum is multiplied by ``scale`` once.
Each product row is the two-term dot product a per-block product
computes, and a reduction over the block axis adds the products one after
another, so results are bit-for-bit those of rolling the operand once per
block and accumulating into zeros.  Cells go through
in chunks of ``_CHUNK`` (the last one may take one cell more), so the
product stack holds at most ``#blocks * (_CHUNK + 1)`` cells whatever ``n``
is, and a large operand needs no per-block temporary of its size.

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
A 1-D operand is a stack of one, and a stack of one runs without the
leading axis.  The relaxed time stepper forms ``M d`` and every ``M f_i``
in one such call.

A one-shot call makes its own scratch arrays: the halo buffers, their
window views and the product stack.  A caller that applies an operator to
the same arrays many times, like the time loop, binds the call once
instead: ``BlockCirculantOp.bind(u, out)`` checks the operand and ``out``,
makes the scratch arrays and the views of the halo copies and the windows,
and returns them as a ``MatvecBinding``.  ``matvec(u, out, binding)`` on that
very operator, ``u`` and ``out`` (``is``) replays the views, reading
whatever ``u`` holds then; a binding made for any other call raises.
Bindings whose calls never overlap can share one set of scratch arrays
(``bind(u, out, share=other)``), whose fit is checked when binding.  A
binding that shares one of the same operator, for an operand and ``out``
of the same shapes and dtypes, also takes its layout (the halo copies'
destinations and the window views) and makes only the views of its own
operand and ``out``: the time stepper's stage bindings share the first
stage's.  The kernel's scalars, the ``+0.0`` of the sums and ``scale``,
are numpy scalars made once, which spares each call a conversion.  Both
modes run one kernel body on the same operands, so a bound call gives the
bits of a one-shot call: the 2x2 products go to BLAS either way, because
every operand and output view keeps unit stride in its last axis and at
least two rows (OpenBLAS rounds with fused multiply-adds, which an
elementwise product or numpy's fallback loop would not).

A binding has one of two layouts, and ``matvec`` replays both with the
same loop: the halo copies, the ``matmul`` steps (each with its block sum,
if it has one), and one multiply by ``scale`` from the binding's result
view into ``out``, which is ``out`` itself in the per-block layout.

- The *per-block* layout is the kernel above, with its bit contract: every
  one-shot call (``op @ u``, ``Scheme.rhs``, ``checks``, ``spectral``) and
  every :meth:`BlockCirculantOp.bind`.  The time loop's stage steps use it,
  since ``perfbench``'s references pin their bits to 1e-13, and so do the
  mass products of both step kinds, so that the energy and the relaxation
  parameter keep the same bits on their one-shot and bound paths.
- The *banded* layout (:meth:`BlockCirculantOp.bind_banded`) serves the
  composed time step's two factors, ``Q u`` and ``D q``.  ``B`` is the span
  of the stored offsets, ``max - min + 1``, at most ``n`` in the normal
  form, and ``A`` the ``(2B, 2)`` stack of the transposed blocks by offset,
  with zero rows where no block is stored.  Cell ``i``'s result is its
  window, the ``2B`` doubles of cells ``i + min .. i + max``, times ``A``.
  The windows of neighbouring cells overlap, and BLAS takes a matrix as it
  is only if its row stride is at least its row length.  So the cells are
  grouped by residue mod ``B``: the windows of cells ``r, r + B, r + 2B,
  ...`` are consecutive rows of ``2B`` doubles in a halo copy of cells
  ``min, min + 1, ...`` (mod n), a matrix whose row stride equals its row
  length.  One ``matmul`` of the ``(B, M, 2B)`` strided view of those
  matrices, ``M = ceil(n / B)``, by ``A`` writes ``(B, M, 2)`` products
  into a result buffer of ``M B`` cells, padded past ``n`` so that every
  residue has ``M`` rows, and the scale multiply reads its first ``2n``
  entries.  There is no product stack and no reduction, and at ``B = 1``
  (the diagonal mass) a contiguous operand is its own window matrix.  Each
  result is one ``2B``-term dot in BLAS's order, scaled once, so it lies
  within ``2B eps |scale| (|A| |u|)_i + eps |result_i|`` of the exact
  product (Higham 2002, Thm 3.1), but it has not the per-block bits.
  OpenBLAS's threaded ``dgemm`` splits the rows and columns of a product,
  not its dots: unrelaxed composed runs at n = 8200 and 1e5 end in the
  same bits with one and with two threads.  With every matvec
  banded, relaxed upwind ``rk4x2`` (n = 48, a = -1) landed 1.25e-11 from
  ``perfbench``'s references and the chaotic relaxed central ``ssprk33``
  (n = 128) 6.25e-2: the per-block layout stays until those references are
  re-recorded.  At n = 1200 the composed ``rk4x2`` ``Q`` (B = 15) takes
  about 18 instead of 48 us per bound call and ``D`` 10 instead of 18 us;
  at n = 8200, 82 instead of 422 us and 49 instead of 93 us (shared 2-vCPU
  x86 host, one BLAS thread).

The relaxed time stepper depends on that exactness: its step rescaling
divides energy estimates that nearly cancel, so a kernel that only
reassociates the sums (a CSR matrix, or ``scale`` folded into the entries)
moves relaxed trajectories by far more than rounding.  Folding ``scale`` in
would also break the exactly-zero integer row sums the consistency checks
rely on.  A factor applied after the matvec is another matter:
``(x * scale) * c`` and ``x * (scale * c)`` are the same bits whenever
multiplying by ``c`` is exact.  At ``c = -1`` it always is, since rounding
is symmetric, so the solver folds ``-a`` into the scale at ``|a| = 1``.  At
other powers of two it is exact only while nothing is subnormal: a
subnormal ``x * scale`` has already lost bits that ``x * (2 scale)``
keeps, so there both roundings stay.
"""

from __future__ import annotations

import dataclasses
import functools
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


def _windows(x: np.ndarray, cells: int, h: int) -> np.ndarray:
    """The ``2h + 1`` windows of ``cells`` cells of flat interleaved ``x``, a strided view.

    Window ``s`` is cells ``s .. s + cells - 1`` of each row of ``x``.  At
    ``h > 0`` ``x`` must be C-contiguous.
    """
    if not h:
        return x.reshape(*x.shape[:-1], 1, cells, 2)
    item = x.itemsize
    shape, strides = (*x.shape[:-1], 2 * h + 1, cells, 2), (*x.strides[:-1], 2 * item, 2 * item, item)
    return np.ndarray(shape, x.dtype, buffer=x, strides=strides)


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

    A call replays ``copies`` and ``steps`` (see
    ``BlockCirculantOp._program``) through ``scratch`` (see
    ``BlockCirculantOp._scratch``) only when it is a call of ``op`` on
    ``u`` into ``out``, all three the very objects bound, and then
    multiplies ``result`` by the scale into ``out``.  ``layout`` is the
    part of the steps that holds no view of ``u`` or ``out`` (see
    ``BlockCirculantOp._layout``), which a binding sharing this one's
    scratch for the same operator takes as it is.  ``result`` is ``out``
    itself in the per-block layout; a banded binding's ``result`` is the
    first ``2n`` entries of its padded result buffer, and its ``layout`` is
    None: it lends nothing.
    """

    op: "BlockCirculantOp"
    u: np.ndarray
    out: np.ndarray
    scratch: tuple
    layout: Optional[tuple]
    copies: tuple
    steps: tuple
    result: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class BlockCirculantOp:
    """Operator on interleaved dof vectors, given by a ring of 2x2 blocks.

    ``blocks[j]`` acts on cell ``i + j`` from block row ``i`` and is stored
    unscaled, in the normal form of the module docstring; the effective
    matrix is ``scale * circulant(blocks)``.
    """

    n: int
    dx: float
    scale: float
    blocks: Mapping[int, np.ndarray]

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
        keep = [i for i, row in enumerate(stack.reshape(-1, 4).tolist()) if any(row)]
        stack.setflags(write=False)
        object.__setattr__(self, "blocks", {offsets[i]: stack[i] for i in keep})

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
    def _plan(self) -> tuple[int, slice | np.ndarray, np.ndarray]:
        """Halo width ``h = max |j|``, window selector and stacked ``A_j^T``.

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
        a_t = np.array([a.T for a in self.blocks.values()]).reshape(-1, 2, 2)
        return h, select, a_t

    def _scratch(self, dtype: np.dtype, rows: int, direct: bool = False) -> tuple:
        """Scratch arrays for a call on a stack of ``rows`` operands of ``dtype``.

        Returns ``(key, halos, chunks)``.  ``key`` is ``(rows, n, h,
        #blocks, operand dtype)``.  Every array below has a leading axis of
        ``rows`` operands, except for a single operand (a 1-D operand is a
        stack of one).  ``chunks`` lists each chunk's first and end cell
        with two views of the ``(#blocks, min(n, chunk + 1), 2)`` product
        stack: the chunk's ``(#blocks, cells, 2)`` products, and the same
        memory as ``(#blocks, 2 cells)`` rows, which sum straight into the
        flat result.  ``halos`` lists the halo copies ``(first, end, x)``:
        ``x`` holds cells ``first - h .. end + h - 1`` of the operand
        (mod n), for the chunks from cell ``first`` to ``end``.  Without
        ``direct`` one copy serves every chunk (none when ``h = 0``); with
        ``direct``, a chunk whose windows lie inside the operand reads them
        there, and only runs of chunks whose windows wrap across the seam
        get a copy.
        """
        h, _, a_t = self._plan
        n = self.n
        stack = (rows,) if rows > 1 else ()  # a stack of one runs as its 1-D row
        blocks = len(a_t)
        # the largest power of two whose chunks, the last one's lone cell
        # included, keep the stack within #blocks * (_CHUNK + 1) cells, but
        # never a one-cell chunk (see below)
        chunk = _CHUNK
        while chunk > 2 and rows * (chunk + 1) > _CHUNK + 1:
            chunk //= 2
        products = np.empty((*stack, blocks, min(n, chunk + 1), 2), np.promote_types(dtype, float))
        # no one-cell chunk: numpy sends a one-row product to BLAS's vector
        # kernel, which rounds complex products differently; the last chunk
        # takes that cell instead
        edges = [*range(0, n - 1, chunk), n]
        chunks, spans = [], []
        for c, stop in zip(edges, edges[1:]):
            part = products[..., : stop - c, :]
            chunks.append((c, stop, part, part.reshape(*stack, blocks, 2 * (stop - c))))
            if h and not (direct and h <= c and stop + h <= n):
                if spans and spans[-1][1] == c:
                    spans[-1][1] = stop
                else:
                    spans.append([c, stop])
        halos = tuple((c, stop, np.empty((*stack, 2 * (stop - c + 2 * h)), dtype)) for c, stop in spans)
        return (rows, n, h, blocks, dtype), halos, tuple(chunks)

    def bind(
        self,
        u: np.ndarray,
        out: np.ndarray,
        share: Optional[MatvecBinding] = None,
    ) -> MatvecBinding:
        """The set-up of a :meth:`matvec` call on ``u`` into ``out``, done once.

        ``u`` and ``out`` are checked as a call checks them, and the call's
        scratch arrays and steps are made.  A call of this operator with
        the binding and this very ``u`` and ``out`` (``is``, not equality)
        replays the steps, reading whatever ``u`` holds then.  ``share``, a
        binding whose calls never overlap this one's, lends its scratch
        arrays instead; they must fit this call (the same number of operand
        rows, ``n``, halo width, number of blocks and operand dtype), or
        :class:`ValueError` is raised.  A ``share`` of this very operator
        also lends its layout: the halo copies' destinations and the window
        views, so that only the views of ``u`` and ``out`` are made again.
        """
        if (
            share is not None
            and share.op is self
            and share.layout is not None
            and type(u) is type(out) is np.ndarray
            and (u.shape, u.dtype, out.shape, out.dtype)
            == (share.u.shape, share.u.dtype, share.out.shape, share.out.dtype)
        ):
            # share's checks, scratch and layout hold for this call as they are
            copies, steps = self._views(share.layout, u, out)
            return MatvecBinding(self, u, out, share.scratch, share.layout, copies, steps, out)
        return self._program(u, out, None if share is None else share.scratch)

    @functools.cached_property
    def _band(self) -> tuple[int, int, np.ndarray]:
        """First offset ``lo``, span ``B`` and the ``(2B, 2)`` stack of the banded layout.

        Rows ``2k`` and ``2k + 1`` of the stack hold ``A_(lo + k)^T``, and
        zeros where no block is stored; an operator without blocks has
        ``B = 1`` and a zero stack.  The normal form keeps ``B <= n``.
        """
        lo = min(self.blocks, default=0)
        span = max(self.blocks, default=0) - lo + 1
        stack = np.zeros((span, 2, 2))
        for j, a in self.blocks.items():
            stack[j - lo] = a.T
        stack = stack.reshape(2 * span, 2)
        stack.setflags(write=False)
        return lo, span, stack

    def bind_banded(self, u: np.ndarray, out: np.ndarray) -> MatvecBinding:
        """A :meth:`matvec` binding of ``u`` into ``out`` in the banded layout: one ``matmul``.

        Cell ``i``'s result is its window, cells ``i + lo .. i + lo + B -
        1`` (``2B`` doubles), times the ``(2B, 2)`` stack of ``_band``.
        The cells of one residue mod ``B`` have consecutive windows in a
        halo copy of the operand, so each residue's ``M = ceil(n / B)``
        windows are a ``(M, 2B)`` matrix with row stride ``2B``, which BLAS
        takes as it is; the residues make one ``(B, M, 2B)`` strided view,
        and one ``matmul`` writes its ``(B, M, 2)`` products into a result
        buffer of ``M B`` cells (padded past ``n``), whose first ``2n``
        entries the scale multiply reads.  At ``B = 1`` a C-contiguous
        operand is its own window matrix and needs no halo copy.

        ``u`` must be a 1-D float64 array of ``2n`` entries and ``out`` one
        of the same shape and dtype; it may be ``u`` itself.  Each result
        is one ``2B``-term dot in BLAS's order, scaled once: within
        ``2B eps |scale| (|A| |u|)_i + eps |result_i|`` of the exact
        product, not the bits of :meth:`bind`'s per-block layout.
        """
        n = self.n
        if type(u) is not np.ndarray or u.dtype != np.float64:
            raise ValueError(f"a banded binding takes a float64 array, got {getattr(u, 'dtype', type(u))}")
        if u.shape != (2 * n,):
            raise ValueError(f"expected shape ({2 * n},), got {u.shape}")
        if type(out) is not np.ndarray or out.shape != u.shape or out.dtype != u.dtype:
            got = f"{out.shape} {out.dtype}" if isinstance(out, np.ndarray) else type(out).__name__
            raise ValueError(f"out must be a {u.shape} array of float64, got {got}")
        lo, span, stack = self._band
        rows = -(-n // span)
        copies = []
        if span == 1 and u.flags.c_contiguous:
            halo = u
        else:
            # halo cell k holds operand cell (lo + k) mod n: a few runs of slices
            cells = (rows + 1) * span - 1
            halo = np.empty(2 * cells)
            k, c = 0, lo % n
            while k < cells:
                run = min(cells - k, n - c)
                copies.append((halo[2 * k : 2 * (k + run)], u[2 * c : 2 * (c + run)]))
                k, c = k + run, 0
        item = halo.itemsize
        windows = np.ndarray((span, rows, 2 * span), halo.dtype, halo, 0, (2 * item, 2 * span * item, item))
        padded = np.empty(2 * rows * span)
        products = np.ndarray((span, rows, 2), padded.dtype, padded, 0, (2 * item, 2 * span * item, item))
        steps = ((windows, stack, products, None, None),)
        # the key fits no per-block call: bind refuses to share this scratch
        scratch = (("banded", n, span), halo, padded)
        return MatvecBinding(self, u, out, scratch, None, tuple(copies), steps, padded[: 2 * n])

    def _layout(self, scratch: tuple) -> tuple:
        """The steps of a call through ``scratch`` that hold no view of its operand or result.

        Returns ``(pieces, steps)``.  ``pieces`` are the halo copies ``(x,
        entries)``: the ``entries`` (a slice) of the operand's rows go into
        ``x``, a view of a halo copy.  ``steps`` are the product steps
        ``(windows, A^T, products, sums, span)``.  ``windows`` is a strided
        view of the halo copy that holds the chunk, or ``(select, cells)``
        where the chunk reads the operand's own windows
        (``BlockCirculantOp._scratch``).  The last product step of a chunk
        also sums the products, as ``sums``, into the result's entries
        ``span``, a slice (the others carry ``None``).  Windows selected by a slice
        make one batched product per chunk; by an index array, one product
        per block, since a gathered copy would not see the next operand.
        """
        h, select, a_t = self._plan
        n = self.n
        _, halos, chunks = scratch
        pieces, sources, held = [], [], 0
        for c0, stop0, x in halos:
            # x holds cells lo .. hi - 1 of the operand, mod n: the wrapped
            # cells before 0, the cells inside, the wrapped cells from n on
            lo, hi = c0 - h, stop0 + h
            for start, stop, shift in ((lo, min(hi, 0), n), (max(lo, 0), min(hi, n), 0), (max(lo, n), hi, -n)):
                if start < stop:
                    dest = x[..., 2 * (start - lo) : 2 * (stop - lo)]
                    pieces.append((dest, slice(2 * (start + shift), 2 * (stop + shift))))
            sources.append((c0, stop0, _windows(x, stop0 - c0, h)))
            held += stop0 - c0
        if held < n:  # the chunks that no halo holds read the operand
            sources.append((h, n - h, None))
        steps = []
        for c, stop, products, sums in chunks:
            for c0, stop0, windows in sources:
                if c0 <= c and stop <= stop0:
                    break
            cells, span = slice(c - c0, stop - c0), slice(2 * c, 2 * stop)
            if isinstance(select, slice):
                view = (select, cells) if windows is None else windows[..., select, cells, :]
                steps.append((view, a_t, products, sums, span))
                continue
            for i, s in enumerate(select.tolist()):
                view = (s, cells) if windows is None else windows[..., s, cells, :]
                steps.append((view, a_t[i], products[..., i, :, :], None, None))
            steps[-1] = (*steps[-1][:3], sums, span)
        return tuple(pieces), tuple(steps)

    def _views(self, layout: tuple, u: np.ndarray, out: np.ndarray) -> tuple:
        """The copies and steps of a call on ``u`` into ``out`` through ``layout``.

        The copies are ``(destination, source)`` pairs of views, and the
        steps ``(windows, A^T, products, sums, part)``: ``_layout``'s steps
        with the operand's windows and, as ``part``, the chunk's part of
        ``out`` put in.  A stack of one runs as its 1-D row.
        """
        n, h = self.n, self._plan[0]
        operand, result = (u[0], out[0]) if u.ndim == 2 and len(u) == 1 else (u, out)
        pieces, steps = layout
        copies = tuple([(x, operand[..., cells]) for x, cells in pieces])
        own, placed = None, []
        for windows, a, products, sums, span in steps:
            if type(windows) is tuple:
                if own is None:
                    own = _windows(operand, n - 2 * h, h)
                windows = own[..., windows[0], windows[1], :]
            placed.append((windows, a, products, sums, None if span is None else result[..., span]))
        return copies, tuple(placed)

    def _program(self, u, out, scratch: Optional[tuple], direct: bool = False) -> MatvecBinding:
        """The per-block binding of a call on ``u`` (as an array) into ``out``.

        ``scratch`` is made unless given, and must then fit the call; the
        layout (``_layout``) is made for it, and the copies and steps
        (``_views``) for ``u`` and ``out``.  A chunk's windows are a
        strided view of the halo copy that holds it, or of the operand
        itself (``_scratch``): ``direct`` asks for the latter where the
        windows do not wrap, granted when ``out`` shares no memory with
        ``u`` and ``u`` is C-contiguous (BLAS then multiplies these windows
        as it does a copy's).  For a stack, each view holds every operand
        row along a leading axis; a stack of one runs as its 1-D row.  All
        of them are views, valid as long as ``u``, ``out`` and the scratch
        arrays are.
        """
        u = np.asarray(u)
        n = self.n
        if u.shape != (2 * n,) and (u.ndim != 2 or u.shape[1] != 2 * n or not len(u)):
            raise ValueError(f"expected shape ({2 * n},) or (rows, {2 * n}), got {u.shape}")
        rows = len(u) if u.ndim == 2 else 1
        h, _, a_t = self._plan
        dtype = np.promote_types(u.dtype, float)
        # the result before the scratch arrays: it outlives them, and large
        # scratch arrays freed above it leave the heap less fragmented
        if out is None:
            out = np.empty(u.shape, dtype)
        elif out.shape != u.shape or out.dtype != dtype:
            raise ValueError(
                f"out must be a {u.shape} array of {dtype}, got {out.shape} {out.dtype}"
            )
        elif direct:
            direct = not np.may_share_memory(u, out)
        if scratch is None:
            scratch = self._scratch(u.dtype, rows, direct and u.flags.c_contiguous)
        elif scratch[0] != (rows, n, h, len(a_t), u.dtype):
            raise ValueError(
                f"shared scratch for (rows, n, halo, blocks, dtype) = {scratch[0]} does not "
                f"fit {(rows, n, h, len(a_t), u.dtype)}"
            )
        layout = self._layout(scratch)
        return MatvecBinding(self, u, out, scratch, layout, *self._views(layout, u, out), out)

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
        once.  The windows of the operand are a strided view of it, or of a
        halo copy where they wrap (see the module docstring); per chunk of
        ``_CHUNK`` cells, one
        batched ``matmul`` forms every block's product into the product
        stack and ``np.add.reduce`` over the block axis, from
        ``initial=0.0``, adds them in insertion order (the ``+0.0`` start
        turns a ``-0.0`` first product into ``+0.0``, as zeros do).  See
        the module docstring for why no reassociating kernel (CSR) is used.
        Windows that are not consecutive in insertion order are multiplied
        block by block, with the same 2x2 products.

        ``u`` may be a stack of operands, shape ``(rows, 2n)``: the result
        has its shape, and each row is the call on that row alone, bit for
        bit, with chunks of ``_CHUNK`` halved until ``rows`` of them fit in
        one chunk's product stack (see the module docstring).

        ``out`` (of ``u``'s shape and the result dtype) receives the result
        and is returned; it may be ``u`` itself.  Without ``binding`` the
        call is one-shot: it checks ``u`` and ``out``, makes its scratch
        arrays, and returns a new array when ``out`` is None.  With a
        ``binding`` from :meth:`bind` for this operator, ``u`` and ``out``,
        it replays the bound set-up; the kernel is the same.  A binding
        from :meth:`bind_banded` replays the banded layout through the
        same loop, with that layout's rounding instead of the contract
        above.  An operand or ``out`` that does not fit, or a binding made
        for another call, raises :class:`ValueError`.
        """
        if binding is None:
            _, _, out, _, _, copies, steps, result = self._program(u, out, None, direct=True)
        else:
            op, bound_u, bound_out, _, _, copies, steps, result = binding
            if op is not self or bound_u is not u or bound_out is not out:
                raise ValueError("the binding was made for another operator, operand or out")
        for halo, cells in copies:
            halo[...] = cells
        # positional out: the same ufunc loops, with less argument parsing
        for windows, a_t, products, sums, part in steps:
            np.matmul(windows, a_t, products)
            if sums is not None:
                np.add.reduce(sums, -2, None, part, False, _ZERO)
        np.multiply(result, self._scale, out)
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
        row = np.zeros(2)
        for a in self.blocks.values():
            row += np.abs(self.scale * a).sum(axis=1)
        return float(row.max(initial=0.0))

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
    ``m_vp = -m_v/2``, ``m_pp = m_v/6``).  Positive semidefinite for
    ``m_v > 0`` with one zero eigenvalue, eigenvector ``1``; every row sums
    to zero.
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
