"""The verification battery: clean operators pass, corrupted ones are caught."""

import itertools
import warnings

import numpy as np
import pytest

from activeflux import checks
from activeflux import operators as ops
from activeflux import spectral
from activeflux.operators import BlockCirculantOp, MassParams

REPORTS_WITH_ORACLES = 36
REPORTS_STRUCTURAL_ONLY = 21


def _grid(n, dx=None):
    if dx is None:
        return ops.build_grid(n, 0.0, 2 * np.pi)
    return ops.build_grid(n, 0.0, n * dx)


UNIQUENESS_RANKS = {"banded_mass_uniqueness": 3, "upwind_mass_uniqueness": 5}


def _uniqueness_details(reports):
    return {r.name: r.details for r in reports if r.name in UNIQUENESS_RANKS}


@pytest.mark.parametrize("n", [4, 6, 17, 64])
def test_full_battery_passes_on_clean_operators(n):
    reports = checks.run_all(_grid(n))
    assert len(reports) == REPORTS_WITH_ORACLES
    failed = [r.name for r in reports if not r.passed]
    assert failed == []
    # the recovery system is built from 2x2 blocks, so its rank and its
    # solution are the same at every n
    details = _uniqueness_details(reports)
    reference = _uniqueness_details(checks.run_all(_grid(4)))
    for name, rank in UNIQUENESS_RANKS.items():
        assert details[name]["rank"] == rank
        np.testing.assert_allclose(
            details[name]["recovered"], details[name]["expected"], rtol=0.0, atol=1e-12
        )
        assert details[name]["recovered"] == reference[name]["recovered"]


def test_battery_omits_uniqueness_on_three_cell_ring():
    """At n = 3 the +/-1 bands alias mod n and the recovery systems lose
    rank, so those two reports are skipped rather than reported as failures."""
    reports = checks.run_all(_grid(3))
    assert len(reports) == REPORTS_WITH_ORACLES - 2
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert "banded_mass_uniqueness" not in names
    assert "upwind_mass_uniqueness" not in names


def test_battery_skips_dense_oracles_on_large_grids():
    reports = checks.run_all(_grid(128))
    assert len(reports) == REPORTS_STRUCTURAL_ONLY
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert not any(name.startswith("nullspace_") for name in names)
    assert not any(name.startswith("spectrum_equivalence_") for name in names)


def test_battery_passes_where_plain_dot_normalization_failed():
    """From n ~ 1.5e4 a plain dot product missed the 1e-14 normalization
    bound (at n = 15641 with multithreaded BLAS); the pairwise sum does not."""
    failed = [r.name for r in checks.run_all(ops.build_grid(15641)) if not r.passed]
    assert failed == []


def test_normalization_passes_at_n_100000():
    reports = {r.name: r for r in checks.run_all(_grid(100_000))}
    assert reports["normalization_diagonal_mass"].passed
    assert reports["normalization_scaled_central_mass"].passed


@pytest.mark.parametrize("n", [99_999, 100_000])
def test_battery_passes_where_global_zero_threshold_failed(n):
    """The upwind mass's smallest genuine eigenvalues shrink like n**-2;
    zero is decided per mode, so they still count as nonzero at n ~ 1e5."""
    failed = [r.name for r in checks.run_all(ops.build_grid(n)) if not r.passed]
    assert failed == []


def test_report_invariant_and_serialization():
    for r in checks.run_all(_grid(5, dx=0.3)):
        assert r.passed == (r.residual <= r.tolerance)
        d = r.to_json_dict()
        assert set(d) == {"name", "passed", "residual", "tolerance", "details"}
        assert d["name"] == r.name
        assert isinstance(d["details"], dict)


def test_check_central_sbp_clean():
    g = _grid(8)
    rep = checks.check_central_sbp(ops.diagonal_mass(g), ops.central_D(g))
    assert rep.passed and rep.residual < 1e-14


def test_check_upwind_sbp_clean_and_details():
    g = _grid(8)
    rep = checks.check_upwind_sbp(
        ops.upwind_mass(g, 1.0), ops.upwind_D_plus(g), ops.upwind_D_minus(g)
    )
    assert rep.passed
    assert rep.details["adjointness_residual"] < 1e-14
    assert rep.details["dissipation_max_eigenvalue"] <= rep.details["dissipation_tolerance"]
    assert rep.details["dissipation_min_eigenvalue"] < 0.0


@pytest.mark.parametrize(
    "m_p,kind,mult",
    [
        (0.4, "positive_definite", 0),
        (2.0 / 9.0, "positive_semidefinite", 1),
        (2.0 / 3.0, "positive_semidefinite", 1),
        (0.1, "indefinite", 0),
    ],
)
def test_check_mass_definiteness_window(m_p, kind, mult):
    cls = checks.check_mass_definiteness(1.0, m_p)
    assert cls.kind == kind
    assert cls.zero_multiplicity == mult


def test_check_mass_definiteness_refuses_overflowing_couplings():
    """m_v = m_p = 1e308 are finite, but 3 m_p is not: the mass builder names
    the couplings instead of classifying a symbol full of NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="m_pp = inf, m_vp = -inf"):
            checks.check_mass_definiteness(1e308, 1e308)


def _bits(cls):
    return (
        cls.kind,
        cls.zero_multiplicity,
        np.float64(cls.min_eigenvalue).tobytes(),
        np.float64(cls.max_eigenvalue).tobytes(),
    )


def _edge_values(m_v):
    """m_p = m_v/3 (the +-1 blocks vanish), both window edges and their
    neighbouring floats, +-0.0 and negative m_p."""
    points = [m_v / 3.0, 2.0 * m_v / 9.0, 2.0 * m_v / 3.0, 0.0, -0.0, -abs(m_v), 0.4 * m_v]
    for edge in (2.0 * m_v / 9.0, 2.0 * m_v / 3.0):
        points += [np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    return [float(p) for p in points]


@pytest.mark.parametrize(
    "m_v, length",
    [(1.0, length) for length in (0, 1, 89, 90, 91, 181)]
    + [(m_v, 91) for m_v in (0.75, 9.0, 1e-300, 1e300, -1.0, -0.0)],
)
def test_mass_sweep_is_the_one_value_calls_bit_for_bit(m_v, length):
    """Every row of a sweep, in every pass of 90, equals the one-value call and
    the classification of the built matrix: kind, multiplicity and the bytes
    of both eigenvalues.  m_v = 1e-300 and 1e300 go through the rescale."""
    pool = _edge_values(m_v)
    if length > len(pool):
        pool += list(np.linspace(-0.25, 1.25, length - len(pool)) * m_v)
    values = [pool[i] for i in np.random.default_rng(length).permutation(length)]
    if length > 90:  # a last pass whose stack stores only the offset 0
        values[90:] = [m_v / 3.0] * (length - 90)
    grid = checks._CLASSIFY_GRID
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        swept = checks.check_mass_definiteness(m_v, values)
        assert [_bits(c) for c in checks.check_mass_definiteness(m_v, np.array(values))] == [
            _bits(c) for c in swept
        ]
        alone = [checks.check_mass_definiteness(m_v, m_p) for m_p in values]
        built = [
            spectral.hermitian_classify(ops.banded_mass(grid, MassParams(m_v, m_p)))
            for m_p in values
        ]
    assert isinstance(swept, list) and len(swept) == length
    assert [_bits(c) for c in swept] == [_bits(c) for c in alone] == [_bits(c) for c in built]


def test_mass_sweep_builds_its_block_stacks_one_pass_at_a_time(monkeypatch):
    sizes, build = [], ops.banded_mass_stack

    def recorded(grid, m_v, m_p):
        sizes.append(len(m_p))
        return build(grid, m_v, m_p)

    monkeypatch.setattr(checks.ops, "banded_mass_stack", recorded)
    checks.check_mass_definiteness(1.0, np.linspace(0.0, 1.0, 181))
    assert sizes == [90, 90, 1] == [spectral.operators_per_pass(checks._CLASSIFY_N)] * 2 + [1]


@pytest.mark.parametrize("at", [0, 89, 90, 150])
@pytest.mark.parametrize("bad", [1e308, -1e308, float("inf"), float("nan")])
def test_mass_sweep_raises_the_one_value_error_of_its_first_refused_value(at, bad):
    """Also when the first refused value sits in the second pass, and
    without a RuntimeWarning from the array arithmetic."""
    values = list(np.linspace(-0.25, 1.25, 181))
    values[at] = bad
    values[-1] = -float("inf")  # refused too, but later
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as alone:
            checks.check_mass_definiteness(1.0, bad)
        with pytest.raises(ValueError) as swept:
            checks.check_mass_definiteness(1.0, values)
        assert str(swept.value) == str(alone.value)
        for m_v in (float("inf"), float("nan")):
            with pytest.raises(ValueError) as alone:
                checks.check_mass_definiteness(m_v, values[0])
            with pytest.raises(ValueError) as swept:
                checks.check_mass_definiteness(m_v, values)
            assert str(swept.value) == str(alone.value)


def test_check_nullspace_dimensions():
    g = _grid(7)
    dim_c, basis_c = checks.check_nullspace(ops.central_D(g))
    assert dim_c == 2 and len(basis_c) == 2
    for v in basis_c:
        assert np.abs(ops.central_D(g) @ v).max() < 1e-12
    dim_m, basis_m = checks.check_nullspace(ops.upwind_D_minus(g))
    assert dim_m == 1
    # the one-sided kernel is the constant state
    v = basis_m[0]
    assert np.abs(v - v[0]).max() < 1e-12


def _corrupt(op: BlockCirculantOp, offset: int, entry: tuple[int, int]) -> BlockCirculantOp:
    blocks = {j: np.array(b) for j, b in op.blocks.items()}
    blocks[offset][entry] += 1e-3
    return BlockCirculantOp(op.n, op.dx, op.scale, blocks)


CENTRAL_FAIL = {
    "averaging_identity",
    "banded_mass_uniqueness",
    "central_sbp_banded_mass",
    "central_sbp_diagonal_mass",
    "central_sbp_extended_mass",
    "consistency_central_d",
    "linear_exactness_central_d",
    "nullspace_central_d",
    "quadratic_exactness_central_d",
}

D_PLUS_FAIL = {
    "averaging_identity",
    "consistency_d_plus",
    "dissipation_spectrum",
    "dissipation_symmetry",
    "linear_exactness_d_plus",
    "nullspace_d_plus",
    "quadratic_exactness_d_plus",
    "upwind_mass_uniqueness",
    "upwind_sbp",
}

D_MINUS_FAIL = {
    "averaging_identity",
    "consistency_d_minus",
    "dissipation_spectrum",
    "dissipation_symmetry",
    "linear_exactness_d_minus",
    "nullspace_d_minus",
    "upwind_mass_uniqueness",
    "upwind_sbp",
}


def test_fault_injection_corrupt_central_point_row():
    g = _grid(4)
    bad = _corrupt(ops.central_D(g), 0, (0, 1))
    reports = checks.run_all(g, central_d=bad)
    assert {r.name for r in reports if not r.passed} == CENTRAL_FAIL


def test_fault_injection_corrupt_d_plus_point_row():
    g = _grid(4)
    bad = _corrupt(ops.upwind_D_plus(g), 0, (0, 1))
    reports = checks.run_all(g, d_plus=bad)
    assert {r.name for r in reports if not r.passed} == D_PLUS_FAIL


def test_fault_injection_corrupt_d_minus_average_row():
    g = _grid(4)
    bad = _corrupt(ops.upwind_D_minus(g), 0, (1, 0))
    reports = checks.run_all(g, d_minus=bad)
    assert {r.name for r in reports if not r.passed} == D_MINUS_FAIL


def test_fault_injection_at_a_far_out_offset_fails_as_at_the_near_one():
    """A corrupted +1 block stored at 1 + 16 * 10**6 (the same column on 16
    cells) is the same operator, so the battery reports exactly what it
    reports for the near copy: both exactness checks fail on n - 2 rows."""
    g = _grid(16)
    near = _corrupt(ops.central_D(g), 1, (0, 0))
    blocks = dict(near.blocks)
    blocks[1 + 16 * 10**6] = blocks.pop(1)
    far = BlockCirculantOp(g.n, g.dx, near.scale, blocks)
    reports = checks.run_all(g, central_d=far)
    assert [r.to_json_dict() for r in reports] == [
        r.to_json_dict() for r in checks.run_all(g, central_d=near)
    ]
    for kind in ("linear", "quadratic"):
        (rep,) = [r for r in reports if r.name == f"{kind}_exactness_central_d"]
        assert not rep.passed
        assert rep.details["interior_rows"] == g.n - 2


def test_fault_injection_never_triggers_structural_false_positives():
    """A corrupted operator is still block circulant: the symbol/dense
    spectrum equivalence and block diagonalization must keep passing."""
    g = _grid(4)
    bad = _corrupt(ops.central_D(g), 0, (0, 1))
    for r in checks.run_all(g, central_d=bad):
        if r.name.startswith(("spectrum_equivalence_", "block_diagonalization_")):
            assert r.passed


def test_run_all_respects_grid_spacing():
    """Structural identities are dx-independent; the battery passes on a
    stretched grid too."""
    reports = checks.run_all(_grid(6, dx=7.3))
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# the bottleneck matching behind spectrum equivalence
# ---------------------------------------------------------------------------


def _pairings(a, b):
    """The pair distances of every one-to-one pairing of a with b."""
    cost = np.abs(a[:, None] - b[None, :])
    rows = np.arange(len(a))
    return [cost[rows, list(p)] for p in itertools.permutations(rows)]


def test_bottleneck_distance_equals_brute_force_on_small_multisets_with_ties():
    rng = np.random.default_rng(6)
    above_lower_bound = 0
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        # points of a 5 x 5 integer lattice, so values and distances repeat
        a, b = rng.integers(-2, 3, (2, m)) + 1j * rng.integers(-2, 3, (2, m))
        brute = min(d.max() for d in _pairings(a, b))
        assert checks._bottleneck_distance(a, b) == brute
        cost = np.abs(a[:, None] - b[None, :])
        above_lower_bound += brute > max(cost.min(axis=0).max(), cost.min(axis=1).max())
    # the binary search, not only the lower bound, is exercised
    assert above_lower_bound > 100


def test_bottleneck_distance_is_below_the_sum_optimal_maximum():
    """Pairing 0-0 and 2i-2 minimizes the sum (2 sqrt 2) with largest distance
    2 sqrt 2; pairing 0-2 and 2i-0 has largest distance 2."""
    a, b = np.array([0.0, 2j]), np.array([0.0, 2.0])
    sum_optimal = min(_pairings(a, b), key=lambda d: d.sum())
    assert sum_optimal.max() == pytest.approx(2.0 * np.sqrt(2.0))
    assert checks._bottleneck_distance(a, b) == 2.0


def test_bottleneck_distance_is_at_most_the_assignment_maximum_on_the_battery():
    """On every spectrum the battery compares, the bottleneck is no larger
    than the largest distance of scipy's sum-optimal assignment, and it passes."""
    from scipy.optimize import linear_sum_assignment

    for n in range(3, checks._ORACLE_N + 1):
        g = _grid(n)
        Dp, Dm = ops.upwind_D_plus(g), ops.upwind_D_minus(g)
        upw = ops.upwind_mass(g, 1.0)
        operators = [
            ops.central_D(g), Dm, Dp, ops.diagonal_mass(g),
            ops.banded_mass(g, MassParams(m_v=1.0, m_p=0.4, m_vv=0.07)),
            ops.extended_mass(g, MassParams(1.0, 1.0 / 3.0, 0.0, 0.1, 0.05)),
            upw, upw @ (Dp - Dm),
        ]
        for op in operators:
            sym_eigs = spectral.eigenvalues(op)
            dense_eigs = np.linalg.eigvals(op.dense())
            cost = np.abs(sym_eigs[:, None] - dense_eigs[None, :])
            r, c = linear_sum_assignment(cost)
            bottleneck = checks._bottleneck_distance(sym_eigs, dense_eigs)
            assert bottleneck <= cost[r, c].max()
            assert bottleneck <= 1e-9 * np.abs(sym_eigs).max()


# ---------------------------------------------------------------------------
# the O(n) checks against their one-shot formulas
# ---------------------------------------------------------------------------

_BIT_N = [4, 17, 8193, 16385, 100_003]


def _float_bits(x) -> bytes:
    return np.float64(x).tobytes()


def _noisy(op: BlockCirculantOp, rng) -> BlockCirculantOp:
    """``op`` with 1e-3 N(0, 1) added to every stored entry."""
    blocks = {j: a + 1e-3 * rng.normal(size=(2, 2)) for j, a in op.blocks.items()}
    return BlockCirculantOp(op.n, op.dx, op.scale, blocks)


def _exactness_reference(D, dofs, targets) -> float:
    """The one-shot exactness residual: ``D @ dofs`` against ``targets[p]``
    on the dofs of parity p, interior block rows only."""
    w = (D @ dofs).reshape(-1, 2)
    rows = checks._interior_block_rows(D)
    if not rows.size:
        return 0.0
    inner = slice(rows[0], rows[-1] + 1)
    dev = max(float(np.abs(w[inner, p] - t[inner]).max()) for p, t in enumerate(targets))
    return dev / max(D.norm_inf() * float(np.abs(dofs).max()), 1e-300)


def _dissipation_reference(K) -> tuple[float, float]:
    """The residual and radius of the dissipation spectrum from all ``2n`` eigenvalues."""
    n = K.n
    pairs = spectral.eigenvalues(K).reshape(n, 2)
    theta = 2.0 * np.pi * np.arange(n) / n
    f = -(2.0 / 3.0) * (18.0 + 17.0 * np.cos(theta) + np.cos(2.0 * theta))
    dev = max(
        float(np.abs(pairs[:, 0].real - f).max()),
        float(np.abs(pairs[:, 1].real).max()),
        float(np.abs(pairs.imag).max()),
    )
    return dev, float(np.abs(f).max())


@pytest.mark.parametrize("n", _BIT_N)
def test_o_n_checks_are_their_one_shot_formulas_bit_for_bit(n):
    """Consistency, exactness, dissipation spectrum and definiteness, for the
    built-in derivatives and for overrides corrupted in one entry or
    perturbed in every entry: each report holds the bits of the formula on
    full-size vectors and all 2n eigenvalues, and the classifications of
    one hermitian_classify call per mass."""
    g = _grid(n)
    rng = np.random.default_rng(n)
    built = {
        "central_d": ops.central_D(g), "d_minus": ops.upwind_D_minus(g), "d_plus": ops.upwind_D_plus(g)
    }
    overrides = [{}]
    for name, D in built.items():
        overrides += [{name: _corrupt(D, 0, (0, 1))}, {name: _noisy(D, rng)}]
    x, dx = g.interfaces, g.dx
    a, b, c = 1.0, -0.7, 0.3
    quadratic = ops.interleave(
        a * x**2 + b * x + c, a * (x**2 + x * dx + dx**2 / 3.0) + b * (x + dx / 2.0) + c
    )
    upw = ops.upwind_mass(g)
    masses = {
        "inside_window": ops.banded_mass(g, MassParams(1.0, 0.4, 0.07)),
        "window_edge": ops.banded_mass(g, MassParams(1.0, 2.0 / 9.0)),
        "upwind_mass": upw,
    }
    classes = {name: spectral.hermitian_classify(M) for name, M in masses.items()}
    for override in overrides:
        derivatives = {**built, **override}
        reports = {r.name: r for r in checks.run_all(g, **override)}
        for name, D in derivatives.items():
            want = np.abs(D @ np.ones(2 * n)).max()
            assert _float_bits(reports[f"consistency_{name}"].residual) == _float_bits(want)
            want = _exactness_reference(D, ops.coordinate_dofs(g), np.ones((2, n)))
            assert _float_bits(reports[f"linear_exactness_{name}"].residual) == _float_bits(want)
            want = _exactness_reference(D, quadratic, [2.0 * a * x + b])
            assert _float_bits(reports[f"quadratic_exactness_{name}"].residual) == _float_bits(want)
        rep = reports["dissipation_spectrum"]
        dev, radius = _dissipation_reference(upw @ (derivatives["d_plus"] - derivatives["d_minus"]))
        got = (_float_bits(rep.residual), _float_bits(rep.details["radius"]))
        assert got == (_float_bits(dev), _float_bits(radius))
        for name, cls in classes.items():
            details = reports[f"definiteness_{name}"].details
            found = (details["found_kind"], details["zero_multiplicity"])
            assert found == (cls.kind, cls.zero_multiplicity)


@pytest.mark.parametrize("n", _BIT_N)
def test_normalization_is_the_sum_of_the_full_mass_product_bit_for_bit(n):
    """The tiled block row of ``M @ ones`` sums, pairwise, to the bits of
    ``np.sum(M @ ones(2n))``: the battery's masses, the seven-band mass,
    whose +-2 blocks would alias on a ring of 2h cells, and perturbed
    copies."""
    g = _grid(n)
    rng = np.random.default_rng(n)
    diag, scaled = ops.diagonal_mass(g), ops.scaled_central_mass(g, 1.0, 0.4)
    reports = {r.name: r for r in checks.run_all(g)}
    for name, M in (("diagonal_mass", diag), ("scaled_central_mass", scaled)):
        want = np.sum(M @ np.ones(2 * n))
        assert _float_bits(reports[f"normalization_{name}"].details["total"]) == _float_bits(want)
    extended = ops.extended_mass(g, MassParams(1.0, 1.0 / 3.0, 0.0, 0.1, 0.05))  # h = 2
    for M in (diag, scaled, ops.upwind_mass(g), extended):
        for op in (M, _noisy(M, rng), _noisy(M, rng)):
            tiled = np.tile(checks._ring_row(op), n)
            assert _float_bits(np.sum(tiled)) == _float_bits(np.sum(op @ np.ones(2 * n)))


@pytest.mark.parametrize("n", [3, 4, 17, 8193])
@pytest.mark.parametrize("power", [0, -1000, 1000])
def test_dissipation_spectrum_from_half_modes_is_the_full_spectrum_residual(n, power):
    """Also for operators that the spectra divide by 2**e first (1e-301 and
    1e301 times the unit-scale norm), and for a perturbed, non-symmetric
    dissipation operator with complex eigenvalues."""
    g = _grid(n)
    rng = np.random.default_rng(n)
    upw, Dp, Dm = ops.upwind_mass(g), ops.upwind_D_plus(g), ops.upwind_D_minus(g)
    for K in (upw @ (Dp - Dm), upw @ (_noisy(Dp, rng) - Dm)):
        K = 2.0**power * K
        rep = checks._dissipation_spectrum_report(K, np.empty(2 * n))
        dev, radius = _dissipation_reference(K)
        got = (_float_bits(rep.residual), _float_bits(rep.details["radius"]))
        assert got == (_float_bits(dev), _float_bits(radius))


def test_battery_memory_grows_by_its_shared_arrays_only():
    """The tracemalloc peak of ``run_all`` grows by at most 48 bytes per cell
    from n = 2e5 to n = 4e5.

    Of its arrays of O(n) size the battery keeps the operand ``u`` and the
    result ``w`` of 2n floats each (32 bytes per cell) and the cached cos
    and sin of ``s theta`` for s = 1, 2 over the n/2 + 1 half modes (16
    bytes per cell), never all of them at once.  Everything else lives per
    chunk of at most 16384 modes or 8192 cells, whose memory does not grow
    with n: the difference of two peaks cancels it.  The grids are built
    before tracing starts.  The one-shot battery, with full-size vectors of
    ones, halo copies and the full spectrum, grew by about 88 bytes per
    cell."""
    import tracemalloc

    checks.run_all(_grid(5))  # lazy imports and caches of any n
    peaks = []
    for n in (200_000, 400_000):
        g = _grid(n)
        spectral._waves.cache_clear()
        tracemalloc.start()
        try:
            checks.run_all(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 48 * 200_000
