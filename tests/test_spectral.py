"""Fourier symbols, per-mode spectra, and Hermitian classification."""

import numpy as np
import pytest

from activeflux import operators as ops
from activeflux import spectral
from activeflux.operators import BlockCirculantOp, MassParams
from activeflux.spectral import DefectiveSymbolError


def _match_multisets(a, b):
    """Max pairing distance between two complex multisets (greedy-free)."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return cost[r, c].max()


def test_symbol_entries_of_central_d():
    g = ops.build_grid(8, 0.0, 8.0)  # dx = 1
    D = ops.central_D(g)
    for k in (0, 1, 3, 5):
        tau = np.exp(2j * np.pi * k / 8)
        expected = np.array([[1 / tau - tau, 3 - 3 / tau], [tau - 1, 0.0]])
        s = spectral.symbol(D, k)
        assert s.k == k and s.n == 8
        assert s.theta == pytest.approx(2 * np.pi * k / 8)
        np.testing.assert_allclose(s.entries, expected, atol=1e-14)


def test_symbol_respects_operator_scale():
    g = ops.build_grid(6, 0.0, 3.0)  # dx = 0.5
    s = spectral.symbol(ops.central_D(g), 2)
    g1 = ops.build_grid(6, 0.0, 6.0)
    s1 = spectral.symbol(ops.central_D(g1), 2)
    np.testing.assert_allclose(s.entries, s1.entries / g.dx, atol=1e-13)


def test_symbol_mode_range_check():
    g = ops.build_grid(5)
    with pytest.raises(ValueError):
        spectral.symbol(ops.central_D(g), 5)
    with pytest.raises(ValueError):
        spectral.symbol(ops.central_D(g), -1)


@pytest.mark.parametrize("n", [3, 4, 7, 12, 16])
def test_eigenvalues_match_dense_solver(n):
    g = ops.build_grid(n, 0.0, 2 * np.pi)
    rng = np.random.default_rng(100 + n)
    candidates = [
        ops.central_D(g),
        ops.upwind_D_minus(g),
        ops.upwind_D_plus(g),
        ops.banded_mass(g, MassParams(1.0, 0.4, 0.07)),
        BlockCirculantOp(n, g.dx, 1.0, {j: rng.normal(size=(2, 2)) for j in (-1, 0, 1)}),
    ]
    for op in candidates:
        lam = spectral.eigenvalues(op)
        assert lam.shape == (2 * n,)
        dense_lam = np.linalg.eigvals(op.dense())
        scale = max(np.abs(dense_lam).max(), 1e-300)
        assert _match_multisets(lam, dense_lam) <= 1e-9 * scale


@pytest.mark.parametrize("k", [400, 900, -700])
@pytest.mark.parametrize("n", [7, 16])
def test_eigenvalues_are_exact_under_power_of_two_scaling(n, k):
    """Scaling an operator by 2**k scales every eigenvalue by 2**k bit for bit,
    the signs of zero parts included, though squares of its symbols' entries
    leave the float range."""
    g = ops.build_grid(n)
    rng = np.random.default_rng(n)
    Dm, Dp = ops.upwind_D_minus(g), ops.upwind_D_plus(g)
    candidates = [
        ops.central_D(g),
        Dp,
        ops.upwind_mass(g) @ (Dp - Dm),
        ops.extended_mass(g, MassParams(1.0, 1 / 3, 0.0, 0.1, 0.05)),
        BlockCirculantOp(n, g.dx, 1.0, {j: rng.normal(size=(2, 2)) for j in (-1, 0, 2)}),
    ]
    for op in candidates:
        scaled = BlockCirculantOp(n, g.dx, op.scale, {j: np.ldexp(a, k) for j, a in op.blocks.items()})
        with np.errstate(all="raise"):
            want, got = spectral.eigenvalues(op), spectral.eigenvalues(scaled)
        for part in ("real", "imag"):
            assert np.ldexp(getattr(want, part), k).tobytes() == getattr(got, part).tobytes()


def test_eigenvalues_are_ordered_per_mode():
    g = ops.build_grid(6)
    lam = spectral.eigenvalues(ops.upwind_mass(g)).reshape(6, 2)
    # within each mode the pair is sorted by (real, imag)
    assert (lam[:, 0].real <= lam[:, 1].real + 1e-15).all()


def test_eigenvector_satisfies_eigen_equation():
    g = ops.build_grid(8, 0.0, 2 * np.pi)
    for op in (ops.central_D(g), ops.upwind_D_minus(g), ops.upwind_mass(g)):
        dense = op.dense()
        lam = spectral.eigenvalues(op).reshape(8, 2)
        for k in (1, 3, 6):
            for which in (0, 1):
                v = spectral.eigenvector(op, k, which)
                assert v.shape == (16,)
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                r = dense @ v - lam[k, which] * v
                assert np.linalg.norm(r) < 1e-10 * max(1.0, op.norm_inf())


@pytest.mark.parametrize("x_max", [1e-160, 1e160])
def test_eigenvector_is_that_of_the_exactly_rescaled_operator(x_max):
    """On cells so small or so large that the symbols' squares leave the
    float range, the eigenvector is finite and, bit for bit, that of the
    operator divided by the power of two of its scale."""
    g = ops.build_grid(8, 0.0, x_max)
    Dm, Dp = ops.upwind_D_minus(g), ops.upwind_D_plus(g)
    candidates = [ops.central_D(g), Dm, Dp, ops.diagonal_mass(g), ops.upwind_mass(g), Dp - Dm]
    for op in candidates:
        scaled = op * float(np.ldexp(1.0, -np.frexp(op.scale)[1]))
        assert 0.5 <= scaled.scale < 1.0
        for k in range(g.n):
            for which in (0, 1):
                try:
                    want = spectral.eigenvector(scaled, k, which)
                except DefectiveSymbolError:
                    with pytest.raises(DefectiveSymbolError):
                        spectral.eigenvector(op, k, which)
                    continue
                with np.errstate(all="raise"):
                    got = spectral.eigenvector(op, k, which)
                assert np.isfinite(got).all()
                assert got.tobytes() == want.tobytes()


def test_symbol_of_one_mode_is_that_mode_of_every_symbol():
    g = ops.build_grid(9)
    for op in (ops.central_D(g), ops.upwind_D_plus(g), ops.upwind_mass(g)):
        every = spectral._all_symbols(op)
        for k in range(g.n):
            assert spectral.symbol(op, k).entries.tobytes() == every[k].tobytes()


def test_eigenvector_k0_of_central_d_spans_constants():
    """At k = 0 the central symbol vanishes; the canonical basis is the
    all-ones vector and the point/average alternating vector."""
    g = ops.build_grid(6)
    v0 = spectral.eigenvector(ops.central_D(g), 0, 0)
    v1 = spectral.eigenvector(ops.central_D(g), 0, 1)
    one = np.ones(12) / np.sqrt(12)
    alt = np.tile([1.0, -1.0], 6) / np.sqrt(12)
    assert np.linalg.norm(np.abs(v0) - np.abs(one)) < 1e-12
    assert abs(abs(v0 @ one.conj()) - 1.0) < 1e-12
    assert abs(abs(v1 @ alt.conj()) - 1.0) < 1e-12


def test_eigenvector_which_out_of_range():
    g = ops.build_grid(4)
    with pytest.raises(ValueError):
        spectral.eigenvector(ops.central_D(g), 1, 2)


def test_defective_symbol_raises():
    # a single Jordan block has equal eigenvalues but a 1-d eigenspace
    op = BlockCirculantOp(4, 1.0, 1.0, {0: np.array([[0.0, 1.0], [0.0, 0.0]])})
    with pytest.raises(DefectiveSymbolError):
        spectral.eigenvector(op, 0, 0)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_block_diagonalize_residual_small(n):
    g = ops.build_grid(n, 0.0, 2 * np.pi)
    for op in (ops.central_D(g), ops.upwind_mass(g), ops.extended_mass(g, MassParams(1.0, 1 / 3, 0.0, 0.1, 0.05))):
        res = spectral.block_diagonalize_check(op)
        assert res <= 1e-12 * op.norm_inf()


def test_hermitian_classify_spd_mass():
    g = ops.build_grid(10)
    cls = spectral.hermitian_classify(ops.diagonal_mass(g))
    assert cls.kind == "positive_definite"
    assert cls.zero_multiplicity == 0
    assert cls.min_eigenvalue == pytest.approx(0.25 * g.dx)
    assert cls.max_eigenvalue == pytest.approx(0.75 * g.dx)


def test_hermitian_classify_degenerate_mass():
    g = ops.build_grid(16)
    cls = spectral.hermitian_classify(ops.upwind_mass(g))
    assert cls.kind == "positive_semidefinite"
    assert cls.zero_multiplicity == 1
    assert cls.min_eigenvalue >= -1e-14


@pytest.mark.parametrize(
    "build",
    [ops.upwind_mass, lambda g: ops.banded_mass(g, MassParams(1.0, 2.0 / 9.0))],
    ids=["upwind_mass", "window_edge"],
)
def test_hermitian_classify_zero_is_decided_per_mode_at_n_1e6(build):
    """The smallest genuine eigenvalue, ~(2 pi / n)^2 of its mode's scale,
    stays above that mode's rounding bound; exactly one eigenvalue is zero."""
    cls = spectral.hermitian_classify(build(ops.build_grid(1_000_000)))
    assert cls.kind == "positive_semidefinite"
    assert cls.zero_multiplicity == 1


def test_hermitian_classify_negative_and_indefinite():
    g = ops.build_grid(8)
    neg = spectral.hermitian_classify(-1.0 * ops.diagonal_mass(g))
    assert neg.kind == "negative_definite"
    ind = spectral.hermitian_classify(ops.banded_mass(g, MassParams(1.0, 0.1)))
    assert ind.kind == "indefinite"


def test_hermitian_classify_matches_dense_eigensolver():
    g = ops.build_grid(12)
    M = ops.banded_mass(g, MassParams(1.0, 0.5, 0.02))
    cls = spectral.hermitian_classify(M)
    w = np.linalg.eigvalsh(M.dense())
    assert cls.min_eigenvalue == pytest.approx(w.min(), rel=1e-10, abs=1e-12)
    assert cls.max_eigenvalue == pytest.approx(w.max(), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("k", [-900, -600, 600, 1020])
@pytest.mark.parametrize("ratio", [0.1, 2.0 / 9.0, 0.4, 2.0 / 3.0])
def test_hermitian_classify_is_exact_under_power_of_two_scaling(k, ratio):
    """Scaling by 2**k changes nothing but the eigenvalues, which scale exactly,
    even where the entries' squares and row sums leave the float range."""
    g = ops.build_grid(24, 0.0, 24.0)
    base = ops.banded_mass(g, MassParams(1.0, ratio))
    scaled = BlockCirculantOp(g.n, g.dx, g.dx, {j: np.ldexp(a, k) for j, a in base.blocks.items()})
    with np.errstate(all="raise"):
        want, got = spectral.hermitian_classify(base), spectral.hermitian_classify(scaled)
    assert (got.kind, got.zero_multiplicity) == (want.kind, want.zero_multiplicity)
    assert got.min_eigenvalue == np.ldexp(want.min_eigenvalue, k)
    assert got.max_eigenvalue == np.ldexp(want.max_eigenvalue, k)


def test_hermitian_classify_reports_an_eigenvalue_past_the_float_range_as_inf():
    # every symbol is [[1, 1], [1, 1]] * 1e308: eigenvalues 0 and 2e308
    op = BlockCirculantOp(8, 1.0, 1e308, {0: [[1.0, 1.0], [1.0, 1.0]]})
    with np.errstate(all="raise"):
        cls = spectral.hermitian_classify(op)
    assert (cls.kind, cls.zero_multiplicity) == ("positive_semidefinite", 8)
    assert cls.min_eigenvalue == 0.0
    assert cls.max_eigenvalue == np.inf


@pytest.mark.parametrize("params", [MassParams(float("nan"), 0.4), MassParams(1.0, float("inf"))])
def test_hermitian_classify_rejects_a_non_finite_symbol(params):
    """A NaN eigenvalue is neither negative nor zero; it must not be classified.

    The mass builders refuse these coefficients, so the operator is built
    from the family's diagonal block directly."""
    p = params
    M = BlockCirculantOp(8, 1.0, 1.0, {0: [[p.m_p, p.m_vp], [p.m_vp, p.m_v]]})
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        spectral.hermitian_classify(M)


def _bits(cls):
    return (
        cls.kind,
        cls.zero_multiplicity,
        np.float64(cls.min_eigenvalue).tobytes(),
        np.float64(cls.max_eigenvalue).tobytes(),
    )


def _hand_stack(operators, offsets):
    """The blocks of ``operators`` stacked per offset of ``offsets``, +0.0 where one has none."""
    zero = np.zeros((2, 2))
    blocks = np.array([[op.blocks.get(j, zero) for op in operators] for j in offsets])
    return blocks.reshape(len(offsets), len(operators), 2, 2)


def _mixed_mass_stack(g, size):
    """``size`` mass matrices cycling through window edges and +-3 ulps, m_p = -0.0,
    m_p = m_v/3 (no +-1 blocks), rescaled weights and negated copies, shuffled.

    Every one has the prefactor ``g.dx``: a negated copy negates its
    coefficients, which negates every stored entry exactly."""
    params = []
    for m_v in (1.0, 0.75, 1e-300, 2.0**1020, 1e308):
        # (2/3) 1e308 is refused: 3 m_p overflows
        edges = (m_v / 4.5,) if m_v == 1e308 else (m_v / 4.5, m_v / 1.5)
        points = [-0.0, m_v / 3.0, 0.1 * m_v]
        for edge in edges:
            below = above = edge
            points.append(edge)
            for _ in range(3):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                points += [below, above]
        params += [(m_v, float(m_p)) for m_p in points]
    params += [(-1.0, -m_p) for m_p in (0.4, 1.0 / 3.0, 2.0 / 9.0)]
    rows = [ops.banded_mass(g, MassParams(m_v, m_p)) for m_v, m_p in params]
    order = np.random.default_rng(size).permutation(size)
    return [rows[i % len(rows)] for i in order]


@pytest.mark.parametrize("n", [359, 360])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_stacked_classification_is_that_of_each_operator_alone(n, extra):
    """One mixed stack of the pass budget - 1, the budget and + 1 operators,
    stacked by hand: each result equals the one-operator call bit for bit."""
    g = ops.build_grid(n, 0.0, float(n))
    budget = spectral.operators_per_pass(n)
    stack = _mixed_mass_stack(g, budget + extra)
    assert any(tuple(op.blocks) == (0,) for op in stack)  # m_p = m_v/3 drops the +-1 blocks
    offsets = (-1, 0, 1)
    assert all(tuple(op.blocks) in (offsets, (0,)) for op in stack)
    alone = [spectral.hermitian_classify(op) for op in stack]
    assert any(c.kind.startswith("negative") for c in alone)
    alone = [_bits(c) for c in alone]
    stacked = spectral.classify_stack(n, g.dx, offsets, _hand_stack(stack, offsets))
    assert [_bits(c) for c in stacked] == alone


@pytest.mark.parametrize("n", [5, 64, 359])
def test_classify_stack_is_that_of_each_built_matrix(n):
    """A stack built from the mass family's coefficients, on a ring whose
    scale dx is not 1, classifies each matrix as the built operator does."""
    g = ops.build_grid(n)
    values = [1 / 3, 2 / 9, 2 / 3, 0.4, -0.0, -1.0, np.nextafter(2 / 9, 1.0)]
    offsets, blocks = ops.banded_mass_stack(g, 1.0, values)
    alone = [_bits(spectral.hermitian_classify(ops.banded_mass(g, MassParams(1.0, m)))) for m in values]
    assert [_bits(c) for c in spectral.classify_stack(n, g.dx, offsets, blocks)] == alone


@pytest.mark.parametrize("where", [0, 7, "past the pass budget"])
def test_a_failing_operator_in_a_stack_raises_its_own_error(where):
    """Each failing operator raises the error it raises alone, wherever it
    sits in a stack; dx = 1, so that the derivative shares the masses' prefactor."""
    g = ops.build_grid(64, 0.0, 64.0)
    budget = spectral.operators_per_pass(g.n)
    good = [ops.banded_mass(g, MassParams(1.0, m_p)) for m_p in np.linspace(-0.2, 1.2, budget + 20)]
    at = budget + 5 if where == "past the pass budget" else where
    skewed = dict(ops.upwind_mass(g).blocks)
    skewed[1] = skewed[1] + np.array([[0.0, 1e-9], [0.0, 0.0]])
    failing = [
        BlockCirculantOp(g.n, g.dx, g.dx, skewed),
        ops.central_D(g),
        BlockCirculantOp(g.n, g.dx, g.dx, {0: [[np.nan, 0.5], [0.5, 1.0]]}),  # offsets (0,)
    ]
    offsets = (-1, 0, 1)
    with np.errstate(invalid="ignore"):
        for bad in failing:
            with pytest.raises(ValueError) as alone:
                spectral.hermitian_classify(bad)
            stack = _hand_stack(good[:at] + [bad] + good[at:] + failing, offsets)
            with pytest.raises(ValueError) as stacked:
                spectral.classify_stack(g.n, g.dx, offsets, stack)
            assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9])
def test_symmetry_defect_is_that_of_the_difference_operator(n):
    """Read off the stored blocks, bit for bit as ``(op - op.T).norm_inf()``,
    at offsets that are their own mirror (0 and, for even n, -n/2) too, for
    each operator alone and inside a stack with mixed prefactors."""
    g = ops.build_grid(n)
    rng = np.random.default_rng(n)
    Dm, Dp = ops.upwind_D_minus(g), ops.upwind_D_plus(g)
    random_blocks = {j: rng.normal(size=(2, 2)) for j in (-(n // 2), -1, 0, 2)}
    operators = [
        ops.upwind_mass(g),
        ops.extended_mass(g, MassParams(1.0, 1 / 3, 0.0, 0.1, 0.05)),
        ops.central_D(g),
        Dp,
        ops.upwind_mass(g) @ (Dp - Dm),
        BlockCirculantOp(n, g.dx, -0.7, random_blocks),
        BlockCirculantOp(n, g.dx, 2.0, {}),
    ]
    want = [np.float64((op - op.T).norm_inf()).tobytes() for op in operators]
    assert [spectral._Stack.of(op).defects()[0].tobytes() for op in operators] == want
    # the extended mass's offsets hold the upwind mass's and the empty
    # operator's in order; the central ones (-1, 0, 1) only from n = 4, since
    # on the 3-cell ring the mass family stores them as (1, -1, 0)
    offsets = tuple(operators[1].blocks)
    members = [0, 1, 6] + [2] * (n > 3)
    stack = [operators[i] for i in members]
    scale = np.array([op.scale for op in stack])
    stacked = spectral._Stack(n, offsets, _hand_stack(stack, offsets), scale).defects()
    assert [d.tobytes() for d in stacked] == [want[i] for i in members]


def test_hermitian_classify_rejects_asymmetric():
    g = ops.build_grid(5)
    with pytest.raises(ValueError):
        spectral.hermitian_classify(ops.central_D(g))


@pytest.mark.parametrize("scale", [1.0, 1e308], ids=["unit", "norm_past_float_range"])
def test_hermitian_classify_rejects_a_slightly_asymmetric_mass(scale):
    g = ops.build_grid(16)
    blocks = dict(ops.upwind_mass(g).blocks)
    blocks[1] = blocks[1] + np.array([[0.0, 1e-9], [0.0, 0.0]])
    with np.errstate(all="raise"), pytest.raises(ValueError, match="not symmetric"):
        spectral.hermitian_classify(BlockCirculantOp(g.n, g.dx, scale, blocks))


def test_dissipation_operator_spectrum_closed_form():
    """Eigenvalues of M(D+ - D-) per mode: one zero and the closed form."""
    n = 20
    g = ops.build_grid(n, 0.0, float(n))
    K = ops.upwind_mass(g) @ (ops.upwind_D_plus(g) - ops.upwind_D_minus(g))
    lam = spectral.eigenvalues(K).reshape(n, 2)
    theta = 2 * np.pi * np.arange(n) / n
    f = -(2.0 / 3.0) * (18.0 + 17.0 * np.cos(theta) + np.cos(2 * theta))
    np.testing.assert_allclose(lam[:, 0].real, f, atol=1e-10)
    np.testing.assert_allclose(lam[:, 1].real, np.zeros(n), atol=1e-10)
    assert np.abs(lam.imag).max() < 1e-10
