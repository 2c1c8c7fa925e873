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


def _rolled_matvec(op, u):
    """Reference kernel: one rolled operand copy per block, in insertion order."""
    x = np.asarray(u).reshape(op.n, 2)
    out = np.zeros(x.shape, dtype=np.result_type(x.dtype, float))
    for j, a in op.blocks.items():
        out += np.roll(x, -j, axis=0) @ a.T
    return op.scale * out.reshape(-1)


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
            np.testing.assert_array_equal(got, want)
            # signed zeros and NaN bits too (the empty operator with
            # negative scale gives -0.0)
            assert got.tobytes() == want.tobytes()


def test_matvec_selects_windows_by_slice_or_by_index():
    """Offsets inserted in increasing order read their windows through a
    slice; any other order through an index array, in insertion order."""
    g = ops.build_grid(9)
    a, b = [[1.0, 2.0], [3.0, 4.0]], [[-0.5, 0.0], [0.25, 1.0]]
    consecutive = BlockCirculantOp(g.n, g.dx, 0.5, {-1: a, 0: b, 1: a})
    scattered = BlockCirculantOp(g.n, g.dx, 0.5, {2: a, -1: b, 0: a})
    assert consecutive._plan[1] == slice(0, 3)
    assert scattered._plan[1].tolist() == [4, 1, 2]
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


@pytest.mark.parametrize("n", [3, 16, _C + 1, 2 * _C + 1])
def test_a_binding_that_shares_one_of_its_operator_takes_its_layout(n):
    """Sharing a binding of the same operator lends its scratch and its
    layout (halo destinations, window views): only the views of the new
    operand and ``out`` are made, and calls keep the bits of a one-shot
    call, for single operands, stacks of one and stacks of rows."""
    rng = np.random.default_rng(n)
    for op in _every_builder(ops.build_grid(n)):
        for shape in ((2 * n,), (1, 2 * n), (3, 2 * n)):
            for dtype in (float, complex):
                first = op.bind(np.zeros(shape, dtype), np.empty(shape, np.promote_types(dtype, float)))
                u = rng.normal(size=shape).astype(dtype)
                out = np.full(shape, np.nan, np.promote_types(dtype, float))
                bound = op.bind(u, out, first)
                assert bound.layout is first.layout and bound.scratch is first.scratch
                assert bound.u is u and bound.out is out
                assert op.matvec(u, out, bound) is out
                assert out.tobytes() == op.matvec(u.copy()).tobytes()
                u *= -0.5  # the next call reads the new values
                assert op.matvec(u, out, bound).tobytes() == op.matvec(u.copy()).tobytes()


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


@pytest.mark.parametrize("n", [3 * _C, 3 * _C + 1, 4 * _C + 5])
def test_one_shot_matvec_reads_interior_windows_from_the_operand(n):
    """At three chunks or more a one-shot call copies only the halos of the
    two chunks whose windows wrap across the seam, and reads every other
    chunk's windows from the operand: the rolled kernel's bits, for single
    operands, read-only operands and stacks.  An ``out`` that overlaps the
    operand, and an operand with a non-unit stride, go through one full
    halo copy instead, with the same bits."""
    rng = np.random.default_rng(n)
    real = rng.normal(size=2 * n)
    for op in _every_builder(ops.build_grid(n)):
        h = op._plan[0]
        halos = op._scratch(np.dtype(float), 1, direct=True)[1]
        if 0 < h < _C:
            (first, first_end, _), (last, last_end, _) = halos
            assert (first, first_end, last_end) == (0, _C, n) and last - first_end >= _C
        for u in (real, real + 1j * rng.normal(size=2 * n)):
            want = _rolled_matvec(op, u)
            assert op.matvec(u).tobytes() == want.tobytes()
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
            assert r.tobytes() == _rolled_matvec(op, row).tobytes()


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
    assert any(isinstance(op._plan[1], np.ndarray) for op in operators)
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
        chunks = op._scratch(np.dtype(float), rows)[2]
        cells = [stop - c for c, stop, _, _ in chunks]
        chunk = cells[0]
        assert chunk & (chunk - 1) == 0 and rows * (chunk + 1) <= _C + 1 < rows * (2 * chunk + 1)
        assert sum(cells) == op.n and min(cells) > 1
        products = chunks[0][2]
        assert products.base.size <= len(op.blocks) * (_C + 1) * 2
    # past (_CHUNK + 1) / 3 rows the chunk stops at two cells
    small = ops.upwind_mass(ops.build_grid(9))
    assert [stop - c for c, stop, _, _ in small._scratch(np.dtype(float), 4000)[2]] == [2, 2, 2, 3]
    stack = np.random.default_rng(9).normal(size=(4000, 18))
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
    for rows in (1, 2, 4):  # scratch for another number of rows
        other = D.bind(np.ones((rows, 32)), np.empty((rows, 32)))
        with pytest.raises(ValueError, match="does not fit"):
            D.bind(stack, out, other)
    three = D.bind(stack, out)
    with pytest.raises(ValueError, match="does not fit"):
        D.bind(np.ones(32), np.empty(32), three)
    with pytest.raises(ValueError, match="does not fit"):
        D.bind(stack + 0j, np.empty((3, 32), complex), three)
    # a stack of one shares the scratch of a 1-D operand
    one, one_out = stack[:1], np.empty((1, 32))
    bound = D.bind(one, one_out, D.bind(stack[0], np.empty(32)))
    assert D.matvec(one, one_out, bound).tobytes() == D.matvec(stack[0]).tobytes()


def test_bound_matvec_refuses_what_a_call_refuses():
    g = ops.build_grid(16)
    D, u, out = ops.central_D(g), np.ones(32), np.empty(32)
    with pytest.raises(ValueError, match="expected shape"):
        D.bind(np.ones(31), out)
    with pytest.raises(ValueError, match="out must be"):
        D.bind(u, np.empty(32, complex))
    with pytest.raises(ValueError, match="does not fit"):
        D.bind(u, out, ops.upwind_D_plus(g).bind(u, np.empty(32)))
    bound = D.bind(u, out)
    for other in (ops.extended_mass(g, MassParams(1.0, 0.4, 0.0, 0.1, 0.05)), ops.upwind_D_plus(g)):
        with pytest.raises(ValueError, match="another operator"):
            other.matvec(u, out, bound)
    with pytest.raises(ValueError, match="another operator"):
        D.matvec(u + 0j, np.empty(32, complex), bound)


def test_matvec_refuses_out_and_shared_scratch_that_do_not_fit():
    g = ops.build_grid(16)
    D, u = ops.central_D(g), np.ones(32)
    for other, operand in (
        (ops.central_D(ops.build_grid(17)), np.ones(34)),  # another n
        (ops.extended_mass(g, MassParams(1.0, 0.4, 0.0, 0.1, 0.05)), u),  # halo 2
        (ops.upwind_D_plus(g), u),  # two blocks, not three
        (D, u + 0j),  # another operand dtype
    ):
        share = other.bind(operand, None)
        with pytest.raises(ValueError, match="does not fit"):
            D.bind(u, np.empty(32), share)
    for out in (np.empty(31), np.empty(32, complex), np.empty((16, 2))):
        with pytest.raises(ValueError, match="out must be"):
            D.matvec(u, out=out)
    strided = np.empty(64)[::2]
    assert D.matvec(u, out=strided).tobytes() == D.matvec(u).tobytes()
    # scratch is only scratch: another operator of the same shape may share it
    Dm, out = ops.upwind_D_minus(g), np.empty(32)
    bound = Dm.bind(u, out, D.bind(u, np.empty(32)))
    assert Dm.matvec(u, out, bound).tobytes() == Dm.matvec(u).tobytes()


_EPS = float(np.finfo(float).eps)


def _banded_operators(g):
    """Every builder's operator and the composed ``Q`` of ``rk4``, ``ssprk33``,
    ``rk4x2`` and a 32-stage chain (its stencil powers round), central at
    dt = dx/2 and upwind at dx/4."""
    a = tuple(tuple(0.5 if j == i - 1 else 0.0 for j in range(32)) for i in range(32))
    chain = solver.RKMethod("chain32", a, (1.0 / 32,) * 32, (0.0,) + (0.5,) * 31)
    operators = _every_builder(g)[:8]
    for variant, dt in (("central", 0.5 * g.dx), ("upwind", 0.25 * g.dx)):
        scheme = solver.make_scheme(g, variant, 1.0)
        for method in (solver.RK4, solver.SSPRK33, solver.RK4X2, chain):
            powers = solver._stencil_powers(scheme.D_effective, method.stages)
            operators.append(solver._composed_factor(scheme, method, dt, powers))
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


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 1200, _C + 1])
def test_banded_binding_is_within_rounding_of_the_exact_product(n):
    """A banded binding gives every entry within its rounding bound of the
    product in extended precision (and of ``dense() @ u``, which rounds
    too, within twice it), into ``out`` or in place, reading the operand's
    values at each call.  An entry moved by twice its bound is caught.  At
    n = 3, 4 and 5 offsets alias and ``B = n``; at B = 1 (the diagonal
    mass) the operand is its own window matrix and is not copied."""
    rng = np.random.default_rng(n)
    g = ops.build_grid(n)
    for op in _banded_operators(g):
        lo, span, stack = op._band
        assert span <= n and stack.shape == (2 * span, 2)
        u = rng.normal(size=2 * n)
        out = np.full(2 * n, np.nan)
        bound = op.bind_banded(u, out)
        assert (bound.op, bound.u, bound.out, bound.layout) == (op, u, out, None)
        assert len(bound.steps) == 1 and (span == 1) == (not bound.copies)
        assert len(bound.copies) <= 4 and np.shares_memory(bound.result, bound.scratch[2])
        for _ in range(2):
            assert op.matvec(u, out, bound) is out
            exact, tol = _banded_bound(op, u)
            assert _within(out, exact, tol)
            if n <= ops.DENSE_LIMIT:
                np.testing.assert_array_less(np.abs(out - op.dense() @ u), 2 * tol.astype(float) + 1e-300)
            fresh = np.empty(2 * n)
            assert out.tobytes() == op.matvec(u, fresh, op.bind_banded(u, fresh)).tobytes()
            u *= -1.5  # in place: the next call reads the new values
        # a fault of twice the bound at the entry where the bound is largest
        i = int(np.argmax(tol))
        faulty = out.copy()
        faulty[i] = float(exact[i] + 2 * tol[i])
        assert tol[i] > 0 and not _within(faulty, exact, tol)
        # in place: out is the operand
        v = u.copy()
        in_place = op.bind_banded(v, v)
        assert op.matvec(v, v, in_place) is v
        assert v.tobytes() == op.matvec(u, out, bound).tobytes()


def test_banded_binding_pads_and_wraps_its_halo():
    """The halo holds operand cells ``lo, lo + 1, ...`` mod n for ``M + 1``
    windows of ``B`` cells less one, and the result buffer ``M B`` cells:
    at n = 17 the ``rk4x2`` central ``Q`` (offsets -7..7, B = 15) has
    ``M = 2`` and 13 padding cells.  The diagonal mass (B = 1) copies
    nothing, unless its operand is strided."""
    g = ops.build_grid(17)
    scheme = solver.make_scheme(g, "central", 1.0)
    powers = solver._stencil_powers(scheme.D_effective, solver.RK4X2.stages)
    Q = solver._composed_factor(scheme, solver.RK4X2, 0.5 * g.dx, powers)
    assert Q._band[:2] == (-7, 15)
    u, q = np.arange(34.0), np.empty(34)
    bound = Q.bind_banded(u, q)
    _, halo, padded = bound.scratch
    assert halo.shape == (2 * (3 * 15 - 1),) and padded.shape == (2 * 2 * 15,)
    for dest, cells in bound.copies:
        dest[...] = cells
    assert halo.reshape(-1, 2)[:, 0].tolist() == [(2 * ((k - 7) % 17)) for k in range(44)]
    M = ops.diagonal_mass(g)
    assert M._band[1] == 1 and M.bind_banded(u, q).copies == ()
    spread = np.arange(68.0)[::2]
    bound = M.bind_banded(spread, q)
    assert len(bound.copies) == 1
    assert M.matvec(spread, q, bound).tobytes() == M.matvec(spread).tobytes()


def test_banded_binding_refuses_what_does_not_fit():
    """Only a 1-D float64 array of 2n entries, into one of the same shape
    and dtype; a replay refuses another operator, operand or out, as a
    per-block binding does, and no per-block binding shares its scratch."""
    g = ops.build_grid(16)
    D, u, out = ops.central_D(g), np.ones(32), np.empty(32)
    for bad in (np.ones(32, complex), np.ones(32, np.float32), np.ones(32, int), [1.0] * 32):
        with pytest.raises(ValueError, match="takes a float64 array"):
            D.bind_banded(bad, out)
    for bad in (np.ones(31), np.ones((1, 32)), np.ones((3, 32)), np.ones(64)):
        with pytest.raises(ValueError, match="expected shape"):
            D.bind_banded(bad, np.empty_like(bad))
    for bad_out in (np.empty(31), np.empty(32, complex), np.empty((1, 32)), None, [0.0] * 32):
        with pytest.raises(ValueError, match="out must be"):
            D.bind_banded(u, bad_out)
    bound = D.bind_banded(u, out)
    twin = BlockCirculantOp(16, D.dx, 2.0 * D.scale, D.blocks)
    for call in (
        lambda: D.matvec(u.copy(), out, bound),
        lambda: D.matvec(u, np.empty(32), bound),
        lambda: D.matvec(u, None, bound),
        lambda: twin.matvec(u, out, bound),
        lambda: ops.upwind_D_plus(g).matvec(u, out, bound),
    ):
        with pytest.raises(ValueError, match="another operator, operand or out"):
            call()
    for op in (D, ops.upwind_D_plus(g)):
        with pytest.raises(ValueError, match="does not fit"):
            op.bind(u, np.empty(32), bound)
    # a per-block binding multiplies into out itself
    assert D.bind(u, out).result is out


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
