"""Grid, dof layout, block-circulant algebra, and operator stencils."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from activeflux import operators as ops
from activeflux import solver
from activeflux.operators import BlockCirculantOp, MassParams
from oracles import composed_factor


def test_build_grid_basic():
    g = ops.build_grid(8, 0.0, 4.0)
    assert g.n == 8
    assert g.dx == pytest.approx(0.5)
    assert g.length == pytest.approx(4.0)
    np.testing.assert_allclose(g.interfaces, 0.5 * np.arange(8))
    np.testing.assert_allclose(g.centers, 0.5 * np.arange(8) + 0.25)


def test_build_grid_default_domain():
    g = ops.build_grid(10)
    assert g.x_min == 0.0
    assert g.x_max == pytest.approx(2.0 * np.pi)


@pytest.mark.parametrize("bad_n", [2, 1, 0, -4])
def test_build_grid_too_few_cells(bad_n):
    with pytest.raises(ValueError):
        ops.build_grid(bad_n)


@pytest.mark.parametrize("bad_n", [4.0, "4", True])
def test_build_grid_non_integer(bad_n):
    with pytest.raises(TypeError):
        ops.build_grid(bad_n)


def test_build_grid_empty_domain():
    with pytest.raises(ValueError):
        ops.build_grid(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        ops.build_grid(4, 2.0, -1.0)


@pytest.mark.parametrize(
    "n, x_max",
    [
        (8, 1e-320),
        (np.int64(8), 1e-320),
        (3, 5e-324),
        (4, 4 * 2.0**-1024),
        (4, 4 * 2.0**-1023),
        (4, 4 * 2.0**-1019),
    ],
)
def test_build_grid_refuses_cells_whose_reciprocal_overflows(n, x_max):
    """dx = 0 or 1/dx = inf would put inf (then NaN) into every derivative,
    and so would a finite 1/dx whose folded stencil sums, up to 24/dx, are
    not; a numpy integer n is refused the same way, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="32/dx is not finite"):
            ops.build_grid(n, 0.0, x_max)


def test_build_grid_accepts_the_smallest_cells_with_a_finite_reciprocal():
    """The edge is exact: 32/dx is finite one float above dx = 2**-1019."""
    dx = float(np.nextafter(2.0**-1019, 1.0))
    g = ops.build_grid(4, 0.0, 4 * dx)
    assert g.dx == dx and math.isfinite(32 / dx) and 32 / 2.0**-1019 == math.inf


def test_grid_arrays_are_read_only():
    g = ops.build_grid(5)
    with pytest.raises(ValueError):
        g.interfaces[0] = 99.0


def test_interleave_round_trip():
    rng = np.random.default_rng(7)
    p = rng.normal(size=6)
    v = rng.normal(size=6)
    u = ops.interleave(p, v)
    assert u.shape == (12,)
    np.testing.assert_array_equal(ops.point_values(u), p)
    np.testing.assert_array_equal(ops.cell_averages(u), v)


def test_interleave_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        ops.interleave(np.zeros(3), np.zeros(4))


def test_coordinate_dofs_layout():
    g = ops.build_grid(4, 0.0, 4.0)
    x = ops.coordinate_dofs(g)
    np.testing.assert_allclose(ops.point_values(x), g.interfaces)
    np.testing.assert_allclose(ops.cell_averages(x), g.centers)


# ---------------------------------------------------------------------------
# stencil oracles: dense matrices rebuilt row by row from the defining
# reconstruction formulas, independently of the block machinery
# ---------------------------------------------------------------------------

def _dense_from_point_avg_rows(n, dx, point_row, avg_row):
    """point_row/avg_row: dicts flat-offset -> coefficient (before 1/dx)."""
    A = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for off, coef in point_row.items():
            A[2 * i, (2 * i + off) % (2 * n)] = coef / dx
        for off, coef in avg_row.items():
            A[2 * i + 1, (2 * i + 1 + off) % (2 * n)] = coef / dx
    return A


@pytest.mark.parametrize("n,dx", [(5, 1.0), (7, 0.35)])
def test_upwind_d_minus_matches_left_biased_stencil(n, dx):
    # point row: derivative of the parabola in the left cell at its right edge
    # (2 u_{i-3/2} - 6 ubar_{i-1} + 4 u_{i-1/2}) / dx; average row: flux difference
    g = ops.build_grid(n, 0.0, n * dx)
    expected = _dense_from_point_avg_rows(
        n, g.dx, {-2: 2.0, -1: -6.0, 0: 4.0}, {1: 1.0, -1: -1.0}
    )
    np.testing.assert_allclose(ops.upwind_D_minus(g).dense(), expected, atol=1e-14)


@pytest.mark.parametrize("n,dx", [(5, 1.0), (6, 2.5)])
def test_upwind_d_plus_matches_right_biased_stencil(n, dx):
    # point row: derivative of the parabola in the right cell at its left edge
    # (-4 u_{i-1/2} + 6 ubar_i - 2 u_{i+1/2}) / dx
    g = ops.build_grid(n, 0.0, n * dx)
    expected = _dense_from_point_avg_rows(
        n, g.dx, {0: -4.0, 1: 6.0, 2: -2.0}, {1: 1.0, -1: -1.0}
    )
    np.testing.assert_allclose(ops.upwind_D_plus(g).dense(), expected, atol=1e-14)


def test_central_d_is_average_of_upwind_pair():
    g = ops.build_grid(9, 0.0, 2 * np.pi)
    diff = 0.5 * (ops.upwind_D_plus(g) + ops.upwind_D_minus(g)) - ops.central_D(g)
    assert diff.norm_inf() == 0.0


def test_central_d_point_row_is_skew_stencil():
    g = ops.build_grid(6, 0.0, 3.0)
    expected = _dense_from_point_avg_rows(
        6, g.dx, {-2: 1.0, -1: -3.0, 1: 3.0, 2: -1.0}, {1: 1.0, -1: -1.0}
    )
    np.testing.assert_allclose(ops.central_D(g).dense(), expected, atol=1e-14)


def test_derivatives_annihilate_constants_exactly():
    g = ops.build_grid(11, 0.0, 2 * np.pi)
    one = np.ones(22)
    for D in (ops.central_D(g), ops.upwind_D_minus(g), ops.upwind_D_plus(g)):
        assert np.abs(D @ one).max() == 0.0


# ---------------------------------------------------------------------------
# mass matrices
# ---------------------------------------------------------------------------

def test_diagonal_mass_entries():
    g = ops.build_grid(4, 0.0, 2.0)
    M = ops.diagonal_mass(g).dense()
    expected = np.diag(np.tile([0.25 * g.dx, 0.75 * g.dx], 4))
    np.testing.assert_allclose(M, expected, atol=0.0)


def test_mass_params_closed_forms():
    p = MassParams(m_v=1.0, m_p=0.4, m_vv=0.07)
    assert p.m_vp == pytest.approx((1.0 - 3 * 0.4) / 2)
    assert p.m_pp == pytest.approx((3 * 0.4 - 1.0 + 2 * 0.07) / 6)
    q = MassParams(m_v=1.0, m_p=1 / 3, m_vvp=0.1, m_vvv=0.05)
    assert q.y == pytest.approx((3 * (1 / 3) - 1.0 + 0.0 - 2 * 0.1) / 6)


def test_banded_mass_is_symmetric_and_has_expected_bands():
    g = ops.build_grid(7, 0.0, 7.0)
    p = MassParams(m_v=1.3, m_p=0.5, m_vv=0.1)
    M = ops.banded_mass(g, p)
    assert (M - M.T).norm_inf() == 0.0
    dense = M.dense()
    # diagonal carries (m_p, m_v), the point-average coupling is m_vp
    assert dense[0, 0] == pytest.approx(p.m_p * g.dx)
    assert dense[1, 1] == pytest.approx(p.m_v * g.dx)
    assert dense[0, 1] == pytest.approx(p.m_vp * g.dx)
    assert dense[1, 2] == pytest.approx(p.m_vp * g.dx)
    assert dense[0, 2] == pytest.approx(p.m_pp * g.dx)
    assert dense[1, 3] == pytest.approx(p.m_vv * g.dx)


def test_banded_mass_rejects_extended_params():
    g = ops.build_grid(5)
    with pytest.raises(ValueError):
        ops.banded_mass(g, MassParams(m_v=1.0, m_p=0.4, m_vvp=0.1))


def test_upwind_mass_annihilates_constants():
    g = ops.build_grid(12, 0.0, 2 * np.pi)
    M = ops.upwind_mass(g, 1.0)
    assert np.abs(M @ np.ones(24)).max() < 1e-15
    # rows of the dense matrix sum to zero as well
    assert np.abs(M.dense().sum(axis=1)).max() < 1e-15


def test_upwind_mass_matches_banded_family_member():
    g = ops.build_grid(6)
    direct = ops.upwind_mass(g, 1.5)
    via_family = ops.banded_mass(g, MassParams(m_v=1.5, m_p=1.0))
    assert (direct - via_family).norm_inf() < 1e-15


def test_scaled_central_mass_normalization():
    g = ops.build_grid(9, 0.0, 5.0)
    M = ops.scaled_central_mass(g, 1.0, 0.4)
    one = np.ones(18)
    assert one @ (M @ one) == pytest.approx(5.0, rel=1e-14)


@pytest.mark.parametrize("m_p", [2 / 9, 2 / 3, 0.1, 0.9, -0.2])
def test_scaled_central_mass_rejects_outside_open_window(m_p):
    g = ops.build_grid(5)
    with pytest.raises(ValueError):
        ops.scaled_central_mass(g, 1.0, m_p)


@pytest.mark.parametrize("m_v", [1.0, 9.0, -0.0, 1e-300])
def test_banded_mass_stack_holds_each_values_stored_blocks(m_v):
    """Bit for bit the blocks banded_mass stores, zeros elsewhere, and only
    offsets some value stores: {0} at m_p = m_v/3, none for the zero matrix."""
    g = ops.build_grid(360, 0.0, 360.0)
    values = [m_v / 3.0, 0.0, -0.0, 2.0 * m_v / 9.0, -m_v, 0.4 * m_v, np.nextafter(m_v / 3.0, 1.0)]
    built = [ops.banded_mass(g, MassParams(m_v, m_p)) for m_p in values]
    for size in (1, 3, len(values)):
        offsets, stack = ops.banded_mass_stack(g, m_v, values[:size])
        assert stack.shape == (len(offsets), size, 2, 2)
        stored = [j for j in range(-2, 3) if any(j in op.blocks for op in built[:size])]
        assert offsets == tuple(stored)
        for b, op in enumerate(built[:size]):
            for i, j in enumerate(offsets):
                if j in op.blocks:
                    assert stack[i, b].tobytes() == op.blocks[j].tobytes()
                else:
                    assert not stack[i, b].any()
    with pytest.raises(ValueError, match="n >= 5"):
        ops.banded_mass_stack(ops.build_grid(4), 1.0, [0.4])


def test_extended_mass_symmetric_with_five_bands():
    g = ops.build_grid(9)
    M = ops.extended_mass(g, MassParams(1.0, 1 / 3, 0.0, 0.1, 0.05))
    assert sorted(M.offsets()) == [-2, -1, 0, 1, 2]
    assert (M - M.T).norm_inf() == 0.0


@pytest.mark.parametrize(
    "params, named",
    [
        (MassParams(1.0, float("inf")), "m_p = inf"),
        (MassParams(float("nan"), 0.4), "m_v = nan"),
        (MassParams(1e308, 1e308), "m_pp = inf, m_vp = -inf"),
        (MassParams(np.float64(1e308), np.float64(1e308)), "m_pp = inf, m_vp = -inf"),
        (MassParams(1.0, 0.4, 0.0, -1e308, 1e308), "y = inf, (m_vvv - m_vvp)/3 = inf"),
    ],
    ids=["primary_inf", "primary_nan", "couplings_overflow", "numpy_scalars", "far_band_overflows"],
)
def test_mass_builders_refuse_non_finite_coefficients_by_name(params, named):
    """Every mass builder passes through extended_mass, which names the
    non-finite coefficients; numpy scalars overflow without a warning."""
    g = ops.build_grid(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(named)):
            ops.extended_mass(g, params)
        if params.m_vvp == 0.0:
            with pytest.raises(ValueError, match=re.escape(named)):
                ops.banded_mass(g, params)


# ---------------------------------------------------------------------------
# block-circulant algebra
# ---------------------------------------------------------------------------

def _random_op(rng, n, dx, bandwidth=2, scale=1.0):
    blocks = {j: rng.normal(size=(2, 2)) for j in range(-bandwidth, bandwidth + 1)}
    return BlockCirculantOp(n, dx, scale, blocks)


def test_algebra_matches_dense():
    rng = np.random.default_rng(42)
    g = ops.build_grid(6, 0.0, 3.0)
    A = _random_op(rng, 6, g.dx, scale=0.7)
    B = _random_op(rng, 6, g.dx, scale=1.3)
    np.testing.assert_allclose((A + B).dense(), A.dense() + B.dense(), atol=1e-13)
    np.testing.assert_allclose((A - B).dense(), A.dense() - B.dense(), atol=1e-13)
    np.testing.assert_allclose((2.5 * A).dense(), 2.5 * A.dense(), atol=1e-13)
    np.testing.assert_allclose((-A).dense(), -A.dense(), atol=0.0)
    np.testing.assert_allclose(A.T.dense(), A.dense().T, atol=0.0)
    np.testing.assert_allclose((A @ B).dense(), A.dense() @ B.dense(), atol=1e-12)


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    g = ops.build_grid(8, 0.0, 2 * np.pi)
    A = _random_op(rng, 8, g.dx)
    u = rng.normal(size=16)
    np.testing.assert_allclose(A @ u, A.dense() @ u, atol=1e-13)


def test_matvec_shape_check():
    g = ops.build_grid(4)
    with pytest.raises(ValueError):
        ops.central_D(g) @ np.zeros(9)


def _calls(binding, kind):
    """The arguments of a binding's calls of one ``kind``, in order:
    ``"copy"`` (a ``__setitem__`` of a halo or margin, as ``(destination,
    source)``), ``"product"`` (a ``matmul``, or the diagonal rule's
    multiply by the tiled diagonal), ``"sum"`` (a block sum) or
    ``"scale"`` (the multiply by the operator's scale)."""
    found = []
    for function, args in binding.calls:
        if getattr(function, "__name__", None) == "__setitem__":
            found_kind, args = "copy", (function.__self__, args[1])
        elif function == np.add.reduce:
            found_kind = "sum"
        elif function is np.multiply and args[1] is binding.op._scale:
            found_kind = "scale"
        else:
            found_kind = "product"
        if found_kind == kind:
            found.append(args)
    return found


def _rolled_matvec(op, u):
    """Reference kernel: one rolled operand copy per block, in insertion order."""
    x = np.asarray(u).reshape(op.n, 2)
    out = np.zeros(x.shape, dtype=np.result_type(x.dtype, float))
    for j, a in op.blocks.items():
        out += np.roll(x, -j, axis=0) @ a.T
    return op.scale * out.reshape(-1)


def _assert_rolled_bits(op, u, got, want):
    """``got`` has the bits of the rolled kernel's ``want``.  The diagonal
    rule (one block at offset 0 with zero off-diagonals) multiplies each
    entry by its diagonal coefficient, then by ``scale``: the same bits
    but for the contract's two exceptions, the sign of a zero result (the
    rolled sum from ``+0.0`` turns ``-0.0`` into ``+0.0``) and a cell whose
    other entry is not finite (the 2x2 product's ``0 * inf`` is NaN)."""
    if op._diagonal is None:
        assert got.tobytes() == want.tobytes()
        return
    other = np.asarray(u).reshape(-1, 2)[:, ::-1].reshape(-1)
    same = (want != 0) & np.isfinite(other)
    assert got[same].tobytes() == want[same].tobytes()
    assert (got[want == 0] == 0).all()
    assert got.tobytes() == ((u * np.tile(op._diagonal, op.n)) * op.scale).tobytes()


def _every_builder(g):
    Dm, Dp, M = ops.upwind_D_minus(g), ops.upwind_D_plus(g), ops.upwind_mass(g)
    return [
        ops.central_D(g),
        Dm,
        Dp,
        ops.diagonal_mass(g),
        ops.banded_mass(g, MassParams(1.0, 0.4, 0.07)),
        M,
        ops.scaled_central_mass(g, 1.0, 0.4),
        ops.extended_mass(g, MassParams(1.0, 1 / 3, 0.0, 0.1, 0.05)),
        M @ (Dp - Dm),
        BlockCirculantOp.from_json_dict(
            {
                "n": g.n,
                "dx": g.dx,
                "scale": -0.3,
                "blocks": [
                    {"offset": 7, "rows": [[1.5, -2.0], [0.25, 3.0]]},
                    {"offset": -(10**12) - 1, "rows": [[0.1, 0.2], [-0.3, 0.7]]},
                    {"offset": 0, "rows": [[1.0, 0.0], [0.0, 1.0]]},
                ],
            }
        ),
        BlockCirculantOp(g.n, g.dx, -2.0, {}),
    ]


_C = ops._CHUNK


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 64, 1200, _C - 1, _C, _C + 1, 2 * _C + 1])
def test_matvec_is_bit_identical_to_rolled_kernel(n):
    """Across the chunk edges too: at n = _CHUNK + 1 a one-cell last chunk
    would round complex operands differently."""
    rng = np.random.default_rng(n)
    g = ops.build_grid(n)
    real = rng.normal(size=2 * n)
    signed_zeros = np.where(rng.random(2 * n) < 0.5, -0.0, 0.0)
    special = real.copy()
    special[rng.choice(2 * n, size=3, replace=False)] = [np.nan, np.inf, -np.inf]
    operands = [
        real,
        real + 1j * rng.normal(size=2 * n),
        np.arange(2 * n),
        signed_zeros,
        signed_zeros + 1j * signed_zeros[::-1],
        special,
    ]
    for op in _every_builder(g):
        for u in operands:
            with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf give NaN
                got, want = op @ u, _rolled_matvec(op, u)
            assert got.dtype == want.dtype
            # signed zeros and NaN bits too (the empty operator with
            # negative scale gives -0.0), but for the diagonal rule's exceptions
            _assert_rolled_bits(op, u, got, want)


def _wide_operands(rng, shape):
    """Entries of magnitude 1e-310 to 1e300 and either sign, about a fifth
    of them ``+0.0`` and a tenth ``-0.0``."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-310, 300, size=shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


@pytest.mark.parametrize("n", [3, 16, 1200, _C + 1, _C + 8])
def test_the_diagonal_rule_has_the_per_block_bits(n):
    """A diagonal operator (one block at offset 0, zero off-diagonals, a
    ``-0.0`` one included) is two multiplies per chunk, by its diagonal
    tiled over one chunk of cells and by ``scale`` (none at scale 1): no
    ``matmul``, no halo and no product stack, and a chunk that does not
    shrink as the rows grow.  Every entry has the bits of the ``np.roll``
    per-block reference but the sign of a zero result, for data of
    magnitude 1e-310 to 1e300 (products that round to subnormals and to
    zero) with signed zeros: single operands and ``(rows, 2n)`` stacks,
    one-shot, bound and in place, within one chunk and past it (n = 8193
    and 8200)."""
    rng = np.random.default_rng(n)
    g = ops.build_grid(n)
    operators = [
        ops.diagonal_mass(g),
        BlockCirculantOp(n, g.dx, -3.0, {0: [[0.5, -0.0], [0.0, -2.0]]}),
        BlockCirculantOp(n, g.dx, 1.0, {n: [[0.0, 0.0], [0.0, 7.0]]}),
    ]
    chunks = len(range(0, n - 1, _C))
    for op in operators:
        assert op._diagonal is not None
        for shape in ((2 * n,), (1, 2 * n), (3, 2 * n)):
            u = _wide_operands(rng, shape)
            out = np.full(shape, np.nan)
            bound = op.bind(u, out)
            v = u.copy()
            in_place = op.bind(v, v)
            for b in (bound, in_place):
                assert not _calls(b, "copy") and len(_calls(b, "product")) == chunks
                assert all(function is np.multiply for function, _ in b.calls)
                assert len(_calls(b, "scale")) == (0 if op.scale == 1.0 else chunks)
                assert _calls(b, "product")[0][1].base.size <= 2 * (_C + 1)
            results = (op.matvec(u), op.matvec(u, out, bound), op.matvec(v, v, in_place))
            for got in results:
                for row, r in zip(u.reshape(-1, 2 * n), got.reshape(-1, 2 * n), strict=True):
                    _assert_rolled_bits(op, row, r, _rolled_matvec(op, row))


def test_matvec_selects_windows_by_slice_or_by_index():
    """Offsets inserted in increasing order read their windows through a
    slice; any other order through an index array, in insertion order."""
    g = ops.build_grid(9)
    a, b = [[1.0, 2.0], [3.0, 4.0]], [[-0.5, 0.0], [0.25, 1.0]]
    consecutive = BlockCirculantOp(g.n, g.dx, 0.5, {-1: a, 0: b, 1: a})
    scattered = BlockCirculantOp(g.n, g.dx, 0.5, {2: a, -1: b, 0: a})
    assert consecutive._plan[2] == slice(0, 3)
    assert scattered._plan[2].tolist() == [4, 1, 2]
    u = np.random.default_rng(9).normal(size=2 * g.n)
    for op in (consecutive, scattered):
        assert (op @ u).tobytes() == _rolled_matvec(op, u).tobytes()


@pytest.mark.parametrize("n", [3, 4, 8])
def test_matvec_without_a_halo_reads_the_operand_in_place(n):
    """Offsets that reduce to 0 need no halo copy; the result is still the
    rolled kernel's, and the operand is left untouched."""
    g = ops.build_grid(n)
    blocks = {0: [[1.0, 2.0], [3.0, 4.0]], n: [[0.5, 0.0], [0.0, -1.0]]}
    op = BlockCirculantOp(n, g.dx, -1.5, blocks)
    assert op._plan[0] == 0
    u = np.random.default_rng(n).normal(size=2 * n)
    before = u.copy()
    got = op @ u
    assert got.tobytes() == _rolled_matvec(op, u).tobytes()
    np.testing.assert_array_equal(u, before)
    assert not np.shares_memory(got, u)


@pytest.mark.parametrize("n", [3, 4, _C, _C + 1, _C + 2, 20000])
def test_matvec_into_out_is_bit_identical(n):
    """``out``, one-shot or bound, gets the bits of a plain call, in the one
    chunk of n <= _CHUNK + 1 and across chunk edges, also when ``out`` is
    the operand itself."""
    rng = np.random.default_rng(n)
    real = rng.normal(size=2 * n)
    for op in _every_builder(ops.build_grid(n)):
        for u in (real, real + 1j * rng.normal(size=2 * n)):
            want = op.matvec(u)
            out = np.full(2 * n, np.nan, dtype=want.dtype)
            assert op.matvec(u, out=out) is out
            assert out.tobytes() == want.tobytes()
            bound = op.bind(u, out)
            for _ in range(2):
                out[:] = np.nan
                assert op.matvec(u, out, bound) is out
                assert out.tobytes() == want.tobytes()
            v = u.copy()
            assert op.matvec(v, out=v) is v
            assert v.tobytes() == want.tobytes()
            bound = op.bind(v, v)
            v[:] = u
            assert op.matvec(v, v, bound) is v
            assert v.tobytes() == want.tobytes()


def _scratch(binding):
    """The scratch arrays a binding writes or holds: its halos, and per
    product its product stack (per block) or its tiled diagonal (the
    diagonal rule)."""
    diagonal = binding.op._diagonal is not None
    held = [args[1] if diagonal else args[2] for args in _calls(binding, "product")]
    return [dest for dest, _ in _calls(binding, "copy")] + held


@pytest.mark.parametrize("n", [3, 16, _C + 1, 2 * _C + 1])
def test_bindings_of_one_operator_share_no_scratch(n):
    """Bindings of one operator on arrays of the same shapes and dtypes
    (two into ``out`` arrays of their own, one in place) each make their
    own halos and product stack: no two share memory.  Interleaved replays
    give each binding the bits of a one-shot call on its operand, for
    single operands, stacks of one and stacks of rows."""
    rng = np.random.default_rng(n)
    for op in _every_builder(ops.build_grid(n)):
        for shape in ((2 * n,), (1, 2 * n), (3, 2 * n)):
            for dtype in (float, complex):
                u, v, w = (rng.normal(size=shape).astype(dtype) for _ in range(3))
                calls = ((u, np.empty_like(u)), (v, np.empty_like(v)), (w, w))
                bindings = [op.bind(a, b) for a, b in calls]
                scratch = [_scratch(bound) for bound in bindings]
                for i, mine in enumerate(scratch):
                    for theirs in scratch[i + 1 :]:
                        assert not any(np.may_share_memory(x, y) for x in mine for y in theirs)
                for _ in range(2):
                    for (a, b), bound in zip(calls, bindings):
                        want = op.matvec(a.copy())
                        assert op.matvec(a, b, bound) is b
                        assert b.tobytes() == want.tobytes()
                        if a is not b:
                            a *= -0.5  # the next replay reads the new values


@pytest.mark.parametrize("n", [3, 16, _C + 1, 2 * _C + 1])
def test_bound_matvec_reads_the_operand_of_each_call(n):
    """A binding replays its views for its own operator, operand and
    ``out`` (identity, not equality), and no call sees stale data; a call
    with anything else raises."""
    rng = np.random.default_rng(n)
    for op in _every_builder(ops.build_grid(n)):
        for dtype in (float, complex):
            u = rng.normal(size=2 * n).astype(dtype)
            out = np.empty(2 * n, np.promote_types(dtype, float))
            bound = op.bind(u, out)
            assert bound.op is op and bound.u is u and bound.out is out
            for _ in range(2):
                want = op.matvec(u.copy())
                assert op.matvec(u, out, bound) is out
                assert out.tobytes() == want.tobytes()
                u *= -1.5  # in place: the next bound call reads the new values
            u[:] = rng.normal(size=2 * n)
            assert op.matvec(u, out, bound).tobytes() == op.matvec(u.copy()).tobytes()
            twin = BlockCirculantOp(n, op.dx, 2.0 * op.scale, op.blocks)
            for call in (
                lambda: op.matvec(u.copy(), out, bound),  # an equal operand
                lambda: op.matvec(u, np.empty_like(out), bound),  # another out
                lambda: op.matvec(u, None, bound),
                lambda: twin.matvec(u, out, bound),  # an operator of the same shape
            ):
                with pytest.raises(ValueError, match="another operator, operand or out"):
                    call()


def _chunk_reads(binding, u):
    """Each chunk's first and end cell, and whether its windows are read from ``u``.

    Per block, a chunk's block sum writes its part of ``out``, a view
    whose offset in ``out`` gives the chunk's first cell, and the windows
    of the product before it view either ``u`` or a halo copy, a separate
    array; by the diagonal rule the chunk's product multiplies ``u``'s
    cells into its part of ``out``.
    """
    parts, windows = [], None
    for function, args in binding.calls:
        if function is np.matmul:
            windows = args[0]
        elif function == np.add.reduce:
            parts.append((args[3], windows))
        elif function is np.multiply and args[1] is not binding.op._scale:
            parts.append((args[2], args[0]))
    cells = []
    for part, _ in parts:
        c = (part.ctypes.data - binding.out.ctypes.data) // (2 * part.strides[-1])
        cells.append((c, c + part.shape[-1] // 2))
    return cells, [np.may_share_memory(x, u) for _, x in parts]


@pytest.mark.parametrize("n", [3 * _C, 3 * _C + 1, 4 * _C + 5])
def test_one_shot_matvec_reads_interior_windows_from_the_operand(n):
    """At three chunks or more a one-shot call copies only the halos of the
    two chunks whose windows wrap across the seam, and reads every other
    chunk's windows from the operand: the rolled kernel's bits, for single
    operands, read-only operands and stacks.  An ``out`` that overlaps the
    operand, and an operand with a non-unit stride, give every chunk a
    halo copy of its own instead, with the same bits."""
    rng = np.random.default_rng(n)
    real = rng.normal(size=2 * n)
    for op in _every_builder(ops.build_grid(n)):
        h = -op._plan[0]
        if 0 < h < _C:
            cells, reads = _chunk_reads(op.bind(real), real)
            assert reads == [h <= c and stop + h <= n for c, stop in cells]
            assert not reads[0] and not reads[-1] and reads[1]
        spread = np.repeat(real, 2)[::2]  # the operand with stride 2
        for u, out in ((real, real), (real, real[::-1]), (spread, None)):
            windows = [args[0] for args in _calls(op.bind(u, out), "product")]
            assert h == 0 or not any(np.shares_memory(w, u) for w in windows)
        for u in (real, real + 1j * rng.normal(size=2 * n)):
            want = _rolled_matvec(op, u)
            _assert_rolled_bits(op, u, op.matvec(u), want)
            v = u.copy()
            assert op.matvec(v, out=v).tobytes() == want.tobytes()
            spread = np.repeat(u, 2)[::2]  # the operand with stride 2
            assert op.matvec(spread).tobytes() == want.tobytes()
            frozen = u.copy()
            frozen.setflags(write=False)
            assert op.matvec(frozen).tobytes() == want.tobytes()
        stack = _stack_operands(rng, n, 3)
        got = op.matvec(stack)
        for r, row in zip(got, stack, strict=True):
            _assert_rolled_bits(op, row, r, _rolled_matvec(op, row))


def _halos(binding):
    """The distinct halo arrays a per-block binding copies into."""
    return list({id(dest.base): dest.base for dest, _ in _calls(binding, "copy")}.values())


@pytest.mark.parametrize(
    "n, rows, chunks", [(_C + 4097, 1, 2), (3 * _C + 1, 1, 3), (1025, 9, 2), (2000, 9, 4)]
)
def test_a_bound_call_reads_the_windows_that_do_not_wrap_from_the_operand(n, rows, chunks):
    """A binding, like a one-shot call, reads a chunk's windows from the
    operand exactly where they do not wrap across the seam (every chunk
    without a halo, h = 0), and copies a halo of ``stop - c + 2h`` cells
    for each other chunk ``c .. stop - 1``.  An ``out`` that is the
    operand, or a strided operand, reads no window from the operand at h
    > 0: every chunk copies its own halo.  Every call has the bits of a
    direct one-shot call and of the rolled kernel: single rows of two and
    three chunks, and the ``(9, 2n)`` stack of ``rk4x2``'s stage
    derivatives and ``d``, whose chunks are 512 cells: two at n = 1025,
    both wrapping, and four at n = 2000."""
    rng = np.random.default_rng(n)
    shape = (rows, 2 * n) if rows > 1 else (2 * n,)
    for op in _every_builder(ops.build_grid(n)):
        h = -op._plan[0]
        u = rng.normal(size=shape)
        for got, row in zip(op.matvec(u).reshape(rows, -1), u.reshape(rows, -1), strict=True):
            assert got.tobytes() == _rolled_matvec(op, row).tobytes()
        v, spread = u.copy(), np.repeat(u, 2, axis=-1)[..., ::2]  # stride 2
        calls = ((u.copy(), np.empty(shape), True), (v, v, False), (spread, np.empty(shape), False))
        for a, b, direct in calls:
            bound = op.bind(a, b)
            cells, reads = _chunk_reads(bound, a)
            # the diagonal rule holds no product stack, so its chunk does not shrink
            assert len(cells) == (chunks if op._diagonal is None else len(range(0, n - 1, _C)))
            # the operator without blocks reads nothing
            wraps = [not (h == 0 or direct and h <= c and stop + h <= n) for c, stop in cells]
            assert reads == [bool(op.blocks) and not w for w in wraps]
            if direct and 0 < h < 512:
                assert wraps == [True, *[False] * (chunks - 2), True]
            want = [(*shape[:-1], 2 * (stop - c + 2 * h)) for (c, stop), w in zip(cells, wraps) if w]
            assert sorted(x.shape for x in _halos(bound)) == sorted(want)
            for x in (u, -1.5 * u):  # the second call reads the new values
                a[...] = x
                assert op.matvec(a, b, bound) is b
                assert b.tobytes() == op.matvec(x).tobytes()


@pytest.mark.parametrize(
    "first, count, n, runs",
    [
        (-3, 10, 16, 2),  # starts before cell 0
        (12, 10, 16, 2),  # ends past cell n - 1
        (-7, 44, 16, 4),  # longer than the ring: the banded halo of rk4x2's Q at n = 16
    ],
)
def test_halo_copies_a_run_of_cells_mod_n(first, count, n, runs):
    """``_halo`` fills halo cell ``k`` with operand cell ``(first + k) mod
    n``, in one run per pass over the ring."""
    u, halo = np.arange(2.0 * n), np.full(2 * count, np.nan)
    copies = ops._halo(first, count, n)
    assert len(copies) == runs
    for into, cells in copies:
        halo[into] = u[cells]
    assert halo.tolist() == u.reshape(n, 2)[np.arange(first, first + count) % n].ravel().tolist()


def _stack_operands(rng, n, rows):
    """``rows`` operand rows: normal entries, then rows of signed zeros and
    of subnormals, and normal rows with some entries of each kind."""
    normal = rng.normal(size=(rows, 2 * n))
    zeros = np.where(rng.random((rows, 2 * n)) < 0.5, -0.0, 0.0)
    tiny = 5e-324 * rng.integers(-(2**20), 2**20, size=(rows, 2 * n))
    mixed = normal.copy()
    mixed[rng.random(mixed.shape) < 0.2] = -0.0
    mixed[rng.random(mixed.shape) < 0.2] = 1e-310
    return np.concatenate([normal, zeros, tiny, mixed])[rng.permutation(4 * rows)[:rows]]


@pytest.mark.parametrize("n", [3, 4, 5, 17, _C + 1, _C + 8])
def test_every_row_of_a_stacked_matvec_is_the_call_on_that_row(n):
    """A ``(rows, 2n)`` stack of 1-9 operands, unbound or bound, with or
    without ``out``: every row is the single-operand call on that row, bit
    for bit.  The operators read their windows by slice and by index array
    (offsets 7 and -10**12 - 1), without a halo (h = 0), on the aliased
    rings n = 3, 4, and past one chunk, where the last chunk of a
    single-operand call takes a lone cell (n = 8193) or eight (n = 8200).
    There, products of subnormals are slow, so three stack sizes stand for
    the chunk sizes 8192, 2048 and 512."""
    rng = np.random.default_rng(n)
    operators = _every_builder(ops.build_grid(n))
    assert any(isinstance(op._plan[2], np.ndarray) for op in operators)
    assert any(op._plan[0] == 0 for op in operators)
    for rows in range(1, 10) if n < _C else (1, 3, 9):
        stack = _stack_operands(rng, n, rows)
        if rows == 4:
            stack = stack + 1j * _stack_operands(rng, n, rows)
        for op in operators:
            want = [op.matvec(row.copy()) for row in stack]
            out = np.full(stack.shape, np.nan, dtype=want[0].dtype)
            bound = op.bind(stack, out)
            got = [
                op.matvec(stack),
                op.matvec(stack, out=np.full_like(out, np.nan)),
                op.matvec(stack, out, bound).copy(),
            ]
            for result in got:
                assert result.shape == stack.shape
                for r, w in zip(result, want, strict=True):
                    assert r.tobytes() == w.tobytes()
            # the binding reads the stack's new values
            stack[::2] *= -1.5
            assert op.matvec(stack, out, bound) is out
            for r, row in zip(out, stack, strict=True):
                assert r.tobytes() == op.matvec(row.copy()).tobytes()
            stack[::2] /= -1.5


def test_stacked_matvec_chunks_keep_the_product_stack_to_one_chunk():
    """The chunk shrinks by powers of two as the rows grow, so the product
    stack never holds more than #blocks * (_CHUNK + 1) cells, down to two
    cells: no chunk is a lone cell."""
    op = ops.upwind_mass(ops.build_grid(_C + 8))
    for rows in (1, 2, 3, 9, 100):
        u = np.zeros((rows, 2 * op.n))
        bound = op.bind(u)
        cells = [stop - c for c, stop in _chunk_reads(bound, u)[0]]
        chunk = cells[0]
        assert chunk & (chunk - 1) == 0 and rows * (chunk + 1) <= _C + 1 < rows * (2 * chunk + 1)
        assert sum(cells) == op.n and min(cells) > 1
        products = _calls(bound, "product")[0][2]
        assert products.base.size <= len(op.blocks) * (_C + 1) * 2
    # past (_CHUNK + 1) / 3 rows the chunk stops at two cells
    small = ops.upwind_mass(ops.build_grid(9))
    stack = np.random.default_rng(9).normal(size=(4000, 18))
    assert [stop - c for c, stop in _chunk_reads(small.bind(stack), stack)[0]] == [2, 2, 2, 3]
    for got, row in zip(small.matvec(stack), stack, strict=True):
        assert got.tobytes() == small.matvec(row.copy()).tobytes()


def test_stacked_matvec_refuses_what_does_not_fit():
    g = ops.build_grid(16)
    D = ops.central_D(g)
    stack, out = np.ones((3, 32)), np.empty((3, 32))
    for bad in (np.ones((3, 31)), np.ones((0, 32)), np.ones((1, 3, 32)), np.ones(()), np.ones(64)):
        with pytest.raises(ValueError, match="expected shape"):
            D.matvec(bad)
        with pytest.raises(ValueError, match="expected shape"):
            D.bind(bad, out)
    for bad_out in (np.empty((2, 32)), np.empty(32), np.empty((3, 32), complex), np.empty((1, 3, 32))):
        with pytest.raises(ValueError, match="out must be"):
            D.matvec(stack, out=bad_out)
    with pytest.raises(ValueError, match="out must be"):
        D.matvec(np.ones(32), out=np.empty((1, 32)))
    # a stack of one runs as its 1-D row
    one, one_out = stack[:1], np.empty((1, 32))
    bound = D.bind(one, one_out)
    assert D.matvec(one, one_out, bound).tobytes() == D.matvec(stack[0]).tobytes()


def test_bound_matvec_refuses_what_a_call_refuses():
    g = ops.build_grid(16)
    D, u, out = ops.central_D(g), np.ones(32), np.empty(32)
    with pytest.raises(ValueError, match="expected shape"):
        D.bind(np.ones(31), out)
    with pytest.raises(ValueError, match="out must be"):
        D.bind(u, np.empty(32, complex))
    bound = D.bind(u, out)
    for other in (ops.extended_mass(g, MassParams(1.0, 0.4, 0.0, 0.1, 0.05)), ops.upwind_D_plus(g)):
        with pytest.raises(ValueError, match="another operator"):
            other.matvec(u, out, bound)
    with pytest.raises(ValueError, match="another operator"):
        D.matvec(u + 0j, np.empty(32, complex), bound)


def test_matvec_refuses_out_that_does_not_fit():
    """``out`` must have the operand's shape and the result dtype; a
    strided one of that shape gets the bits of a call without ``out``."""
    g = ops.build_grid(16)
    D, u = ops.central_D(g), np.ones(32)
    for out in (np.empty(31), np.empty(32, complex), np.empty((16, 2))):
        with pytest.raises(ValueError, match="out must be"):
            D.matvec(u, out=out)
    strided = np.empty(64)[::2]
    assert D.matvec(u, out=strided).tobytes() == D.matvec(u).tobytes()


_EPS = float(np.finfo(float).eps)


def _banded_operators(g):
    """Every builder's operator, a shift by three cells (one block, ``B =
    1`` from ``lo = 3``, whose last chunk wraps), and the composed ``Q`` of
    ``rk4``, ``ssprk33``, ``rk4x2`` and a 32-stage chain (its stencil powers
    round), central at dt = dx/2 and upwind at dx/4."""
    a = tuple(tuple(0.5 if j == i - 1 else 0.0 for j in range(32)) for i in range(32))
    chain = solver.RKMethod("chain32", a, (1.0 / 32,) * 32, (0.0,) + (0.5,) * 31)
    operators = _every_builder(g)[:8]
    operators.append(BlockCirculantOp(g.n, g.dx, 0.5, {3: [[1.5, -2.0], [0.25, 3.0]]}))
    for variant, dt in (("central", 0.5 * g.dx), ("upwind", 0.25 * g.dx)):
        scheme = solver.make_scheme(g, variant, 1.0)
        for method in (solver.RK4, solver.SSPRK33, solver.RK4X2, chain):
            operators.append(composed_factor(scheme, method, dt))
    return operators


def _banded_bound(op, u):
    """The product ``op u`` in ``np.longdouble`` and the banded layout's
    rounding bound on each entry, ``2B eps |scale| (|A| |u|)_i + eps
    |(op u)_i|``: a dot of ``2B`` terms rounds by at most ``gamma_2B``
    times the sum of their magnitudes, about ``B eps`` (Higham 2002, Thm
    3.1), and the scale multiply by ``eps/2`` relative."""
    x = u.astype(np.longdouble).reshape(op.n, 2)
    exact, sizes = np.zeros_like(x), np.zeros_like(x)
    for j, a in op.blocks.items():
        exact += np.roll(x, -j, axis=0) @ a.T.astype(np.longdouble)
        sizes += np.abs(np.roll(x, -j, axis=0)) @ np.abs(a.T).astype(np.longdouble)
    exact = np.longdouble(op.scale) * exact.ravel()
    span = op._band[1]
    bound = 2 * span * _EPS * abs(op.scale) * sizes.ravel() + _EPS * np.abs(exact)
    return exact, bound


def _within(got, exact, bound):
    return bool((np.abs(got.astype(np.longdouble) - exact) <= bound).all())


def _ghosted(op, u, fill=np.nan):
    """``u``'s ring in a ghost-celled array for ``op``'s band, with the
    fewest cells ``_ghost_cells`` allows before and after it, the margins
    holding ``fill``; returns that array, an ``out`` of its shape filled
    the same way, and the number of cells before the ring."""
    before, after = ops._ghost_cells(*op._band[:2])
    u = np.asarray(u)
    x = np.full((*u.shape[:-1], 2 * (before + op.n + after)), fill, dtype=u.dtype)
    x[..., 2 * before : 2 * (before + op.n)] = u
    return x, np.full(x.shape, fill, np.promote_types(u.dtype, float)), before


def _ring(x, ghosts, n):
    return x[..., 2 * ghosts : 2 * (ghosts + n)]


def _banded_matvec(op, u):
    """``op u`` as a new array, through a fresh banded binding on ghost-celled copies."""
    x, y, g = _ghosted(op, u)
    return _ring(op.matvec(x, y, op.bind_banded(x, y, g)), g, op.n).copy()


def _row_window(op):
    """The cells ``w`` of a banded row's window: ``P K`` of the grouped
    stack, one for the diagonal rule."""
    return 1 if op._diagonal is not None else len(op._band[2]) // 2


def _banded_chunks(op, n):
    """The chunks ``c .. stop - 1`` of a banded binding: every ``_CHUNK``
    cells, the last taking a tail of a row's window or fewer."""
    edges = [0, *range(_C, n - _row_window(op), _C), n]
    return list(zip(edges, edges[1:]))


def _banded_steps(binding, ghosts):
    """Each product's chunk ``(c, stop)``, from where its products, a
    strided view of ``out``, start (a chunk stops where the next one
    starts, the last at the ring's end); and whether its windows view the
    operand and its products ``out``."""
    firsts, views = [], []
    for windows, _, products in _calls(binding, "product"):
        firsts.append((products.ctypes.data - binding.out.ctypes.data) // (2 * products.strides[-1]) - ghosts)
        views.append(np.shares_memory(windows, binding.u) and np.shares_memory(products, binding.out))
    return list(zip(firsts, [*firsts[1:], binding.op.n])), views


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 1200, _C + 1, 2 * _C + 2, 20000, 100000])
def test_banded_binding_is_within_rounding_of_the_exact_product(n):
    """A banded binding on ghost-celled arrays gives every entry of the
    ring within its rounding bound of the product in extended precision
    (and of ``dense() @ u``, which rounds too, within twice it), reading
    the operand's values at each call.  An entry moved by twice its bound
    is caught.  At n = 3, 4 and 5 offsets alias and ``B = n``.  Every
    chunk, past one chunk too (n > _CHUNK + P K, with ``rk4x2``'s ``Q`` of
    B = 15 among the spans), is one step that reads its windows from the
    operand and writes its products into ``out``: there is no halo and no
    product buffer.  The copies refresh the operand's margins, which start
    as NaN, so a cell read unrefreshed would show."""
    rng = np.random.default_rng(n)
    g = ops.build_grid(n)
    operators = _banded_operators(g)
    assert n < 15 or 15 in [op._band[1] for op in operators]
    for op in operators:
        lo, span, stack = op._band
        group, rows = ops._grouping(span)
        assert span <= n and stack.shape == (2 * rows * group, 2 * group)
        u = rng.normal(size=2 * n)
        x, y, ghosts = _ghosted(op, u)
        bound = op.bind_banded(x, y, ghosts)
        assert (bound.op, bound.u, bound.out) == (op, x, y)
        chunks, views = _banded_steps(bound, ghosts)
        assert chunks == _banded_chunks(op, n) and all(views)
        assert not _calls(bound, "sum")
        assert all(dest.base is x and source.base is x for dest, source in _calls(bound, "copy"))
        for _ in range(2):
            assert op.matvec(x, y, bound) is y
            out = _ring(y, ghosts, n)
            exact, tol = _banded_bound(op, u)
            assert _within(out, exact, tol)
            if n <= ops.DENSE_LIMIT:
                np.testing.assert_array_less(np.abs(out - op.dense() @ u), 2 * tol.astype(float) + 1e-300)
            assert out.tobytes() == _banded_matvec(op, u).tobytes()
            u *= -1.5
            _ring(x, ghosts, n)[:] = u  # in place: the next call reads the new values
        # a fault of twice the bound at the entry where the bound is largest
        i = int(np.argmax(tol))
        faulty = out.copy()
        faulty[i] = float(exact[i] + 2 * tol[i])
        assert tol[i] > 0 and not _within(faulty, exact, tol)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("n", [3, 16, 1200, 2 * _C + 2])
def test_banded_binding_takes_stacks_and_complex_operands(n):
    """A banded binding takes a ``(3, size)`` stack of ghost-celled rows,
    each of whose rows gets the bits of its one-row call, and a complex
    operand, whose real and imaginary parts each lie within the rounding
    bound of their exact products (``A`` is real, so each part is a real
    dot of ``2B`` terms)."""
    rng = np.random.default_rng(n)
    for op in _banded_operators(ops.build_grid(n)):
        stack = rng.normal(size=(3, 2 * n))
        x, y, ghosts = _ghosted(op, stack)
        got = _ring(op.matvec(x, y, op.bind_banded(x, y, ghosts)), ghosts, n)
        assert got.shape == stack.shape
        for r, row in zip(got, stack, strict=True):
            assert r.tobytes() == _banded_matvec(op, row).tobytes()
            assert _within(r, *_banded_bound(op, row))
        z = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        got = _banded_matvec(op, z)
        assert got.dtype == complex
        assert _within(got.real, *_banded_bound(op, z.real))
        assert _within(got.imag, *_banded_bound(op, z.imag))


def _assert_grouped_banded(op, rng):
    """``op``'s grouped stack holds its band's blocks bit for bit and
    exact zeros elsewhere, and a banded binding of a ring, of a ``(3,
    size)`` stack of rings and of a complex ring gives every entry within
    its rounding bound, each stacked row with its one-row call's bits;
    returns the rows per residue of the last chunk."""
    n, (lo, span, stack) = op.n, op._band
    group, rows = ops._grouping(span)
    width = rows * group
    assert stack.shape == (2 * width, 2 * group) and not stack.flags.writeable
    cells = stack.reshape(width, 2, group, 2)
    for t in range(width):
        for b in range(group):
            block, s = cells[t, :, b, :], t - b
            if lo + s in op.blocks and 0 <= s < span:
                assert block.tobytes() == op.blocks[lo + s].T.tobytes()
            elif 0 <= s < span:  # a zero block the band holds (of either sign)
                assert not block.any()
            else:
                assert block.tobytes() == bytes(32)
    u = rng.normal(size=2 * n)
    x, y, ghosts = _ghosted(op, u)
    bound = op.bind_banded(x, y, ghosts)
    chunks, views = _banded_steps(bound, ghosts)
    assert chunks == _banded_chunks(op, n) and all(views)
    assert _within(_ring(op.matvec(x, y, bound), ghosts, n), *_banded_bound(op, u))
    stack = rng.normal(size=(3, 2 * n))
    x, y, ghosts = _ghosted(op, stack)
    got = _ring(op.matvec(x, y, op.bind_banded(x, y, ghosts)), ghosts, n)
    for r, row in zip(got, stack, strict=True):
        assert r.tobytes() == _banded_matvec(op, row).tobytes()
        assert _within(r, *_banded_bound(op, row))
    z = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    got = _banded_matvec(op, z)
    assert _within(got.real, *_banded_bound(op, z.real))
    assert _within(got.imag, *_banded_bound(op, z.imag))
    c, stop = chunks[-1]
    m = -(-(stop - c) // _row_window(op))
    if op._diagonal is None:
        assert _calls(bound, "product")[-1][2].shape == (rows, m, 2 * group)
    return m


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("n", range(3, 41))
def test_the_grouped_banded_layout_on_small_rings(n):
    """Every operator of :func:`_banded_operators` at n = 3 to 40 (see
    :func:`_assert_grouped_banded`), among them rings of fewer cells than
    a row's window, where a residue has a single row: ``rk4x2``'s ``Q``
    (P K = 20) up to n = 20 and the 32-stage chain's (P K = 68) at every
    n here.  The composed ``rk4x2`` ``Q``, B = 15, makes one ``matmul`` of
    P = 5 ``dgemm`` batches, not 15: a ``(5, m, 40)`` view by the ``(40,
    8)`` stack, and ``D^`` (B = 3) one of P = 2."""
    rng = np.random.default_rng(n)
    g = ops.build_grid(n)
    single = [_assert_grouped_banded(op, rng) == 1 for op in _banded_operators(g)]
    assert any(single) and (n <= 20 or not all(single))
    for variant in ("central", "upwind"):
        ws = solver._ComposedStep(solver.make_scheme(g, variant, 1.0), solver.RK4X2, np.ones(2 * n))
        ws.run(0.5 * g.dx)
        for band, binding in ((ws.Q, ws.Q_u), (ws.stencil._band, ws.D_q)):
            (windows, stack, _), = _calls(binding, "product")
            group, rows = ops._grouping(band[1])
            assert windows.shape[0] == rows and stack.shape == (2 * rows * group, 2 * group)
            assert rows < band[1] or band[1] == 1
        if variant == "central" and n >= 15:
            assert (ws.Q[1], _calls(ws.Q_u, "product")[0][0].shape[0]) == (15, 5)
            assert _calls(ws.D_q, "product")[0][0].shape[0] == 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_the_grouped_banded_layout_around_one_chunk(d):
    """Each operator of :func:`_banded_operators` at n = _CHUNK + w + d,
    ``w`` its row's window: one chunk whose last row ends mid-group (d =
    -1), one chunk of ``_CHUNK + w`` cells (d = 0) and two chunks, the
    last of ``w + 1`` cells (d = 1); see :func:`_assert_grouped_banded`."""
    rng = np.random.default_rng(100 + d)
    widths = sorted({_row_window(op) for op in _banded_operators(ops.build_grid(_C))})
    assert widths == [1, 8, 12, 20, 36, 68]
    for w in widths:
        n = _C + w + d
        for op in _banded_operators(ops.build_grid(n)):
            if _row_window(op) == w:
                _assert_grouped_banded(op, rng)
                assert len(_banded_chunks(op, n)) == 1 + (d == 1)


def test_banded_binding_refreshes_the_margins_and_writes_into_out():
    """At n = 25 the ``rk4x2`` central ``Q`` (offsets -7..7, B = 15) has
    rows of K = 4 cells with windows of P K = 20 (P = 5), so it reads 7
    cells before the ring and -7 + 2 P K - K - 1 = 28 after it, cells ``-7
    .. 52`` mod n: one copy before the ring and two after it, since 28
    cells pass the ring's end again.  Its one chunk has ``m = 2`` rows per
    residue, so its products fill 2 P K = 40 cells of ``out``, 15 past the
    ring.  The diagonal mass (B = 1) needs no ghost cells, copies nothing
    and gets the per-block bits, each result one two-term dot either way."""
    g = ops.build_grid(25)
    scheme = solver.make_scheme(g, "central", 1.0)
    Q = composed_factor(scheme, solver.RK4X2, 0.5 * g.dx)
    assert Q._band[:2] == (-7, 15) and ops._grouping(15) == (4, 5) and ops._ghost_cells(-7, 15) == (7, 28)
    x, y, ghosts = _ghosted(Q, np.arange(50.0))
    bound = Q.bind_banded(x, y, ghosts)
    assert [dest.size // 2 for dest, _ in _calls(bound, "copy")] == [7, 25, 3]
    [(windows, _, products)] = _calls(bound, "product")
    assert windows.shape == (5, 2, 40) and products.shape == (5, 2, 8)
    Q.matvec(x, y, bound)
    assert x.reshape(-1, 2)[:, 0].tolist() == [2 * ((k - 7) % 25) for k in range(60)]
    written = ~np.isnan(y.reshape(-1, 2)).any(axis=1)
    assert written.tolist() == [False] * ghosts + [True] * 40 + [False] * (len(written) - ghosts - 40)
    M = ops.diagonal_mass(g)
    assert ops._ghost_cells(*M._band[:2]) == (0, 0)
    u, q = np.arange(50.0), np.empty(50)
    bound = M.bind_banded(u, q, 0)
    assert not _calls(bound, "copy") and np.shares_memory(_calls(bound, "product")[0][0], u)
    assert M.matvec(u, q, bound).tobytes() == M.matvec(u).tobytes()


def test_banded_binding_refuses_what_does_not_fit():
    """Ghost-celled arrays of one shape with room for the band's margins,
    C-contiguous and apart; a replay refuses another operator, operand or
    out, as a per-block binding does."""
    g = ops.build_grid(16)
    D = ops.central_D(g)
    # B = 3: K = 4, P = 2, and -1 + 2 P K - K - 1 = 10 cells after the ring
    assert ops._ghost_cells(*D._band[:2]) == (1, 10)
    size = 2 * (1 + 16 + 10)
    u, out = np.ones(size), np.empty(size)
    shorts = ((np.ones(size - 2), 1), (u, 0), (u, 2), (np.ones(size + 1), 1), (u, 1.0))
    for bad, ghosts in shorts:
        with pytest.raises(ValueError, match="ghost cells"):
            D.bind_banded(bad, np.empty_like(bad), ghosts)
    for bad in (np.ones((0, size)), np.ones((1, 3, size)), np.ones(())):
        with pytest.raises(ValueError, match="expected shape|ghost cells"):
            D.bind_banded(bad, np.empty_like(bad), 1)
    for bad_out in (np.empty(size - 2), np.empty(size, complex), np.empty((1, size)), [0.0] * size):
        with pytest.raises(ValueError, match="out must be"):
            D.bind_banded(u, bad_out, 1)
    wide = np.ones(2 * size)
    overlaps = ((u, u), (wide[::2], out), (u, np.empty(2 * size)[::2]), (wide[:size], wide[size - 2 : 2 * size - 2]))
    for a, b in overlaps:
        with pytest.raises(ValueError, match="C-contiguous and must not overlap"):
            D.bind_banded(a, b, 1)
    bound = D.bind_banded(u, out, 1)
    twin = BlockCirculantOp(16, D.dx, 2.0 * D.scale, D.blocks)
    for call in (
        lambda: D.matvec(u.copy(), out, bound),
        lambda: D.matvec(u, np.empty(size), bound),
        lambda: D.matvec(u, None, bound),
        lambda: twin.matvec(u, out, bound),
        lambda: ops.upwind_D_plus(g).matvec(u, out, bound),
    ):
        with pytest.raises(ValueError, match="another operator, operand or out"):
            call()
    # D's scale 1/dx is one multiply of out's ring after the product; a
    # scale of exactly 1 makes none
    assert [len(_calls(bound, kind)) for kind in ("product", "scale")] == [1, 1]
    function, (entries, scale, into) = bound.calls[-1]
    assert function is np.multiply and scale is D._scale and into is entries
    assert entries.ctypes.data == _ring(out, 1, 16).ctypes.data and entries.size == 32
    stencil = BlockCirculantOp(16, D.dx, 1.0, D.blocks)
    assert not _calls(stencil.bind_banded(u, out, 1), "scale")


def test_norm_inf_matches_dense():
    rng = np.random.default_rng(11)
    A = _random_op(rng, 7, 0.5, scale=-1.7)
    assert A.norm_inf() == pytest.approx(np.abs(A.dense()).sum(axis=1).max(), rel=1e-14)


def test_offsets_wrap_and_accumulate_on_small_grids():
    """At n=3 the +-2 bands of the 7-band mass land on the same reduced
    offsets as the +-1 bands; every evaluation path must agree."""
    p = MassParams(1.0, 1 / 3, 0.0, 0.1, 0.05)
    for n in (3, 4):
        g = ops.build_grid(n, 0.0, float(n))
        M = ops.extended_mass(g, p)
        dense = M.dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-15)
        # dense() and matvec() must implement the same reduced operator
        eye = np.eye(2 * n)
        by_matvec = np.stack([M @ eye[:, j] for j in range(2 * n)], axis=1)
        np.testing.assert_allclose(by_matvec, dense, atol=1e-15)
        assert np.abs(dense.sum(axis=1) - (dense @ np.ones(2 * n))).max() < 1e-15


def test_transpose_involution_and_product_transpose():
    rng = np.random.default_rng(5)
    A = _random_op(rng, 5, 1.0)
    B = _random_op(rng, 5, 1.0)
    assert (A.T.T - A).norm_inf() == 0.0
    np.testing.assert_allclose((A @ B).T.dense(), (B.T @ A.T).dense(), atol=1e-12)


def test_dense_limit_guard():
    g = ops.build_grid(ops.DENSE_LIMIT + 1, 0.0, 1.0)
    D = ops.central_D(g)
    with pytest.raises(ValueError):
        D.dense()
    # matvec still works above the dense limit
    u = np.zeros(2 * g.n)
    u[0] = 1.0
    assert np.isfinite(D @ u).all()


def test_incompatible_operands_rejected():
    g1 = ops.build_grid(4)
    g2 = ops.build_grid(5)
    with pytest.raises(ValueError):
        ops.central_D(g1) + ops.central_D(g2)


def test_json_round_trip():
    g = ops.build_grid(5, 0.0, 2 * np.pi)
    M = ops.banded_mass(g, MassParams(1.0, 0.4, 0.07))
    doc = M.to_json_dict()
    # the document is plain JSON-typed data
    text = json.dumps(doc)
    M2 = BlockCirculantOp.from_json_dict(json.loads(text))
    assert (M - M2).norm_inf() == 0.0
    assert M2.n == M.n and M2.dx == M.dx


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"n": 5, "dx": 1.0, "scale": 1.0},
        {"n": 5, "dx": 1.0, "scale": 1.0, "blocks": [{"offset": 0}]},
        {"n": 5, "dx": 1.0, "scale": 1.0, "blocks": [{"offset": 0, "rows": [[1, 2]]}]},
        {"n": "five", "dx": 1.0, "scale": 1.0, "blocks": []},
        {"n": 5, "dx": 1.0, "scale": 1.0, "blocks": [{"offset": True, "rows": [[1, 0], [0, 1]]}]},
        {"n": 5, "dx": 1.0, "scale": 1.0, "blocks": [{"offset": False, "rows": [[1, 0], [0, 1]]}]},
    ],
)
def test_from_json_dict_rejects_malformed(doc):
    with pytest.raises(ValueError):
        BlockCirculantOp.from_json_dict(doc)


def _normal_form_block_by_block(n, blocks):
    """Reference normal form: each block converted, checked and reduced on
    its own, aliased offsets summed in insertion order, zero blocks dropped."""
    merged = {}
    for j, a in blocks.items():
        a = np.asarray(a, dtype=float)
        if a.shape != (2, 2):
            raise ValueError(f"block at offset {j} has shape {a.shape}, want (2, 2)")
        r = (int(j) + n // 2) % n - n // 2
        merged[r] = merged[r] + a if r in merged else a
    return {r: a for r, a in merged.items() if np.count_nonzero(a)}


@pytest.mark.parametrize("n", [3, 4, 5, 360])
def test_normal_form_is_that_of_one_block_at_a_time(n):
    """Same offsets in the same order and the same bits; NaN counts as
    nonzero, -0.0 as zero, and signed zeros inside a kept block stay."""
    rng = np.random.default_rng(n)
    cases = [
        {-2: rng.normal(size=(2, 2)), 1: rng.normal(size=(2, 2)), n + 1: [[1.0, -0.0], [0, 2]]},
        {0: [[-0.0, 0.0], [0.0, -0.0]], 1: [[np.nan, 0.0], [0.0, 0.0]], -1: np.eye(2, dtype=int)},
        {5 * n: [[0.0, -0.0], [1.0, 0.0]], -5 * n - 1: rng.normal(size=(2, 2)), 2: np.zeros((2, 2))},
        {j: rng.normal(size=(2, 2)) for j in (2, -1, 0, 1, -2)},
        {},
    ]
    for blocks in cases:
        op = BlockCirculantOp(n, 1.0, 1.0, blocks)
        want = _normal_form_block_by_block(n, blocks)
        assert list(op.blocks) == list(want)
        for j, a in op.blocks.items():
            assert a.tobytes() == want[j].tobytes()
            assert not a.flags.writeable


@pytest.mark.parametrize(
    "blocks",
    [
        {0: np.eye(2), 1: [1.0, 2.0], 2: np.eye(3)},
        {1: [[1.0, 2.0], [3.0]], 0: np.eye(2)},
        {0: np.eye(2), -1: "a"},
        {0: [1, 2, 3, 4]},
    ],
)
def test_a_block_that_is_not_2x2_raises_its_own_error(blocks):
    with pytest.raises(ValueError) as want:
        _normal_form_block_by_block(5, blocks)
    with pytest.raises(ValueError) as got:
        BlockCirculantOp(5, 1.0, 1.0, blocks)
    assert str(got.value) == str(want.value)


def test_operator_blocks_are_read_only():
    g = ops.build_grid(4)
    D = ops.central_D(g)
    with pytest.raises(ValueError):
        D.blocks[0][0, 0] = 5.0
