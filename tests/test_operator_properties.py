"""Property tests for the block-circulant algebra on random operators.

Every tolerance is a rounding bound: ``eps`` times the number of rounded
terms times a magnitude bound of the operands.  For an operator ``A`` the
magnitude bound is ``|A| = |scale| * sum_j ||A_j||_inf`` over its stored
blocks, which bounds every symbol entry and every row sum of the dense
matrix.  Blocks whose offsets alias are summed when an operator is built,
so every evaluation of a built operator reads the same stored blocks, and
a merge's rounding belongs to the operator, not to its evaluation.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from activeflux.operators import BlockCirculantOp
from activeflux.spectral import symbol

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _magnitudes(top):
    """0 or a float of magnitude 1/64 .. ``top``: no product can underflow,
    so the rounding model ``fl(x op y) = (x op y)(1 + d), |d| <= eps`` holds."""
    return st.one_of(st.just(0.0), st.floats(1 / 64, top), st.floats(-top, -1 / 64))


def _values(rng, shape):
    """Entries of magnitude 1/64 .. 4 with random signs, about one in eight zero."""
    v = rng.uniform(1 / 64, 4.0, shape) * rng.choice((-1.0, 1.0), shape)
    return np.where(rng.random(shape) < 0.125, 0.0, v)


@st.composite
def operators(draw, n, count=2, max_blocks=4, alias=False):
    """``count`` compatible operators on ``n`` cells; offsets in ``[-3n, 3n]``.

    Hypothesis draws the structure (block count, offsets, scale) and a seed
    for the block entries.  With ``alias`` each operator is also given a
    block ``q * n`` away from its first one (``q != 0``), so two given
    offsets reduce to one column.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(count):
        size = draw(st.integers(1, max_blocks))
        offsets = draw(st.lists(st.integers(-3 * n, 3 * n), min_size=size, max_size=size))
        if alias:
            offsets.append(offsets[0] + n * draw(st.sampled_from((-2, -1, 1, 2))))
        blocks = {j: _values(rng, (2, 2)) for j in offsets}
        out.append(BlockCirculantOp(n, 1.0 / n, draw(_magnitudes(3.0)), blocks))
    return out


def _size(op):
    return abs(op.scale) * sum(np.abs(a).sum(axis=1).max() for a in op.blocks.values())


def _reach(op):
    return max((abs(j) for j in op.blocks), default=0)


def _vector(n):
    return st.integers(0, 2**32 - 1).map(lambda seed: _values(np.random.default_rng(seed), 2 * n))


_n = st.integers(3, 12)


@PROPERTY
@given(st.data())
def test_symbol_of_product_is_product_of_symbols(data):
    n = data.draw(_n)
    A, B = data.draw(operators(n))
    AB = A @ B
    # mA * mB rounded products per entry on each side, plus the phase
    # exp(i theta j), whose argument theta * j is good to eps * 2 pi |j|
    terms = len(A.blocks) * len(B.blocks) + 2 * math.pi * (_reach(A) + _reach(B)) + 4
    tol = 8 * EPS * terms * _size(A) * _size(B)
    for k in range(n):
        lhs = symbol(AB, k).entries
        rhs = symbol(A, k).entries @ symbol(B, k).entries
        assert np.abs(lhs - rhs).max() <= tol


@PROPERTY
@given(st.data())
def test_transpose_of_product_reverses_the_factors(data):
    n = data.draw(_n)
    A, B = data.draw(operators(n))
    assert np.array_equal(A.T.dense(), A.dense().T)  # moving blocks rounds nothing
    lhs, rhs = (A @ B).T, B.T @ A.T
    assert lhs.scale == rhs.scale
    # the two sides sum the same products in different orders
    tol = 4 * EPS * len(A.blocks) * len(B.blocks) * _size(A) * _size(B)
    assert np.abs(lhs.dense() - rhs.dense()).max() <= tol


@PROPERTY
@given(st.data())
def test_sum_and_scalar_multiple_are_linear_under_matvec(data):
    n = data.draw(_n)
    A, B = data.draw(operators(n))
    alpha, beta = data.draw(_magnitudes(4.0)), data.draw(_magnitudes(4.0))
    u = data.draw(_vector(n))
    lhs = (alpha * A + beta * B) @ u
    rhs = alpha * (A @ u) + beta * (B @ u)
    # each matvec entry sums 2 products per block; scales and the final
    # combination add a few more roundings
    terms = 2 * (len(A.blocks) + len(B.blocks)) + 8
    tol = 2 * EPS * terms * (abs(alpha) * _size(A) + abs(beta) * _size(B)) * np.abs(u).max()
    assert np.abs(lhs - rhs).max() <= tol


@PROPERTY
@given(st.data())
def test_aliased_offsets_on_tiny_rings_match_dense(data):
    n = data.draw(st.sampled_from((3, 4)))
    (A,) = data.draw(operators(n, count=1, alias=True))
    u = data.draw(_vector(n))
    # the aliased blocks were merged when A was built: stored offsets are
    # distinct mod n and lie in [-n//2, n - n//2)
    assert len({j % n for j in A.blocks}) == len(A.blocks)
    assert all(-(n // 2) <= j < n - n // 2 for j in A.blocks)
    # matvec and dense() read the same stored blocks: both sum the same
    # 2 * #blocks products per entry, in different orders
    tol = 4 * EPS * (2 * len(A.blocks) + 2) * _size(A) * np.abs(u).max()
    assert np.abs(A.matvec(u) - A.dense() @ u).max() <= tol
