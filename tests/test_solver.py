"""Time integration: tableaux, relaxation, and the energy experiment."""

import collections
import dataclasses
import json
import math
import types

import numpy as np
import pytest

from activeflux import operators as ops
from activeflux import solver
from activeflux.solver import (
    RK4,
    RK4X2,
    SSPRK33,
    EnergyBlowUpError,
    EnergyTrace,
    ExperimentConfig,
    RKMethod,
    Scheme,
    make_scheme,
    project_initial,
    relaxation_gamma,
    resolve_method,
    rk_step,
    run_experiment,
)


def _r4(z):
    """Stability polynomial of the classical fourth-order method."""
    return 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def _scalar_scheme(lam):
    return types.SimpleNamespace(rhs=lambda u: lam * u)


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------


def test_rk4_scalar_decay_one_step():
    u, _ = rk_step(_scalar_scheme(-1.0), RK4, np.array([1.0]), 0.1)
    assert u[0] == pytest.approx(_r4(-0.1), rel=1e-15)
    assert u[0] == pytest.approx(0.90483749999999997, abs=1e-15)


@pytest.mark.parametrize("z", [-3.0, -0.5, 2.0j, -1.0 + 1.5j, 0.3 - 2.2j])
def test_rk4x2_realizes_composed_stability_function(z):
    u, _ = rk_step(_scalar_scheme(z), RK4X2, np.array([1.0 + 0.0j]), 1.0)
    assert u[0] == pytest.approx(_r4(z / 2) ** 2, rel=1e-14)


def test_rk4x2_shape_and_order():
    assert RK4X2.stages == 8
    assert RK4X2.order == 4
    b, c, a = np.array(RK4X2.b), np.array(RK4X2.c), np.array(RK4X2.a)
    # first few order conditions
    assert b.sum() == pytest.approx(1.0, abs=1e-15)
    assert (b @ c) == pytest.approx(0.5, abs=1e-15)
    assert (b @ c**2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert (b @ (a @ c)) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert (b @ c**3) == pytest.approx(0.25, abs=1e-15)


def test_rk4x2_stable_on_negative_real_axis_where_rk4_is_not():
    # z = -3 arises for the one-sided scheme at dt = dx/2
    assert abs(_r4(-3.0)) > 1.0
    assert abs(_r4(-1.5) ** 2) < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(a=((0.0, 0.5), (0.0, 0.0)), b=(0.5, 0.5), c=(0.5, 0.0)),  # not explicit
        dict(a=((0.0, 0.0), (0.5, 0.0)), b=(0.5, 0.5), c=(0.0, 0.9)),  # c != row sums
        dict(a=((0.0, 0.0), (0.5, 0.0)), b=(0.5, 0.4), c=(0.0, 0.5)),  # sum(b) != 1
        dict(a=((0.0,), (0.5, 0.0)), b=(0.5, 0.5), c=(0.0, 0.5)),  # ragged
    ],
)
def test_tableau_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        RKMethod(name="bad", **kwargs)


def test_from_butcher_json_roundtrip(tmp_path):
    path = tmp_path / "midpoint.json"
    path.write_text(
        json.dumps(
            {"name": "midpoint", "order": 2, "a": [[0, 0], [0.5, 0]], "b": [0, 1], "c": [0, 0.5]}
        )
    )
    m = RKMethod.from_butcher_json(str(path))
    assert m.name == "midpoint" and m.stages == 2 and m.order == 2
    u, _ = rk_step(_scalar_scheme(-1.0), m, np.array([1.0]), 0.1)
    assert u[0] == pytest.approx(1 - 0.1 + 0.005, rel=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        json.dumps([1, 2, 3]),
        json.dumps({"a": [[0]], "b": [1]}),  # missing c
        json.dumps({"a": [[0, 0], [0.5, 0]], "b": [0.5, 0.4], "c": [0, 0.5]}),
    ],
)
def test_from_butcher_json_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        RKMethod.from_butcher_json(str(path))


def test_from_butcher_json_missing_file():
    with pytest.raises(ValueError):
        RKMethod.from_butcher_json("/nonexistent/tableau.json")


def test_resolve_method():
    assert resolve_method(RK4) is RK4
    assert resolve_method("rk4") is RK4
    assert resolve_method("ssprk33") is SSPRK33
    assert resolve_method("rk4x2") is RK4X2
    with pytest.raises(ValueError):
        resolve_method("euler")


def test_resolve_method_custom_file(tmp_path):
    path = tmp_path / "heun.json"
    path.write_text(json.dumps({"a": [[0, 0], [1, 0]], "b": [0.5, 0.5], "c": [0, 1]}))
    m = resolve_method(f"custom:{path}")
    assert isinstance(m, RKMethod) and m.stages == 2


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


def test_make_scheme_central():
    g = ops.build_grid(8, 0.0, 2 * np.pi)
    s = make_scheme(g, "central", 2.0)
    np.testing.assert_allclose(s.D_effective.dense(), ops.central_D(g).dense())
    rng = np.random.default_rng(3)
    u = rng.normal(size=16)
    np.testing.assert_allclose(s.rhs(u), -2.0 * (ops.central_D(g) @ u), atol=1e-14)
    M = ops.diagonal_mass(g)
    assert s.energy(u) == pytest.approx(u @ (M @ u), rel=1e-14)


def test_make_scheme_upwind_follows_the_wind():
    g = ops.build_grid(8, 0.0, 2 * np.pi)
    fwd = make_scheme(g, "upwind", 1.0)
    np.testing.assert_allclose(fwd.D_effective.dense(), ops.upwind_D_minus(g).dense())
    rev = make_scheme(g, "upwind", -1.0)
    np.testing.assert_allclose(rev.D_effective.dense(), ops.upwind_D_plus(g).dense())


def test_make_scheme_rejects_bad_input():
    g = ops.build_grid(8, 0.0, 2 * np.pi)
    with pytest.raises(ValueError):
        make_scheme(g, "upwind", 0.0)
    with pytest.raises(ValueError):
        make_scheme(g, "lax-wendroff", 1.0)


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------


def _one_step(variant, rk=RK4X2, n=24):
    g = ops.build_grid(n, 0.0, 2 * np.pi)
    s = make_scheme(g, variant, 1.0)
    u0 = project_initial(g, solver.default_initial)
    dt = 0.5 * g.dx
    u1, stages = rk_step(s, rk, u0, dt)
    return s, u0, u1, stages, dt


def test_relaxation_matches_energy_to_stage_estimate():
    s, u0, u1, stages, dt = _one_step("upwind")
    gamma = relaxation_gamma(u0, u1, stages, s.M_energy, dt)
    e = 2.0 * dt * sum(st.b * float(st.y @ (s.M_energy @ st.f)) for st in stages)
    relaxed = u0 + gamma * (u1 - u0)
    assert s.energy(relaxed) - s.energy(u0) == pytest.approx(gamma * e, rel=1e-10)
    assert e < 0.0  # one-sided scheme dissipates
    assert 0.9 < gamma < 1.1


def test_relaxation_conserves_central_energy_exactly():
    s, u0, u1, stages, dt = _one_step("central")
    gamma = relaxation_gamma(u0, u1, stages, s.M_energy, dt)
    relaxed = u0 + gamma * (u1 - u0)
    assert abs(s.energy(relaxed) - s.energy(u0)) < 1e-13 * s.energy(u0)


def test_relaxation_gamma_degenerate_update_returns_one():
    s, u0, _, stages, dt = _one_step("central")
    assert relaxation_gamma(u0, u0, stages, s.M_energy, dt) == 1.0


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def test_project_initial_exact_for_polynomials():
    g = ops.build_grid(9, 0.0, 3.0)

    def f(x):
        return x**7 - 2.0 * x**4 + x

    def F(x):  # antiderivative
        return x**8 / 8 - 2.0 * x**5 / 5 + x**2 / 2

    dofs = project_initial(g, f)
    pts, avgs = ops.point_values(dofs), ops.cell_averages(dofs)
    np.testing.assert_allclose(pts, f(g.interfaces), rtol=1e-14)
    exact = (F(g.interfaces + g.dx) - F(g.interfaces)) / g.dx
    np.testing.assert_allclose(avgs, exact, rtol=1e-13)


def test_project_initial_accepts_scalar_only_callables():
    g = ops.build_grid(6, 0.0, 2 * np.pi)
    vec = project_initial(g, np.sin)
    scl = project_initial(g, lambda x: math.sin(x))
    np.testing.assert_allclose(scl, vec, atol=1e-15)


def test_default_initial():
    assert solver.default_initial(0.0) == pytest.approx(1.0)
    assert solver.default_initial(np.pi / 2) == pytest.approx(np.e, rel=1e-15)


# ---------------------------------------------------------------------------
# the energy experiment
# ---------------------------------------------------------------------------


def test_central_relaxed_run_conserves_energy():
    trace, u = run_experiment(ExperimentConfig(variant="central"))
    assert u.shape == (100,)
    assert trace.max_drift <= 1e-12 * trace.initial_energy
    # relaxed steps advance by gamma*dt, so the landing is exact only up to
    # |gamma - 1| * dt on the final clipped step
    assert trace.times[-1] == pytest.approx(2 * np.pi, abs=1e-4)
    assert np.all((trace.gammas > 0.9) & (trace.gammas < 1.1))


def test_upwind_relaxed_run_dissipates_monotonically():
    trace, _ = run_experiment(ExperimentConfig(variant="upwind"))
    e0 = trace.initial_energy
    assert trace.max_increment <= 1e-13 * e0
    assert trace.total_change < 0.0
    assert np.all((trace.gammas > 0.9) & (trace.gammas < 1.1))


def test_unrelaxed_central_drift_shrinks_like_high_order():
    """Without relaxation the conservation defect is a time-integration
    artifact; halving dt must shrink it by at least the order-4 factor 16
    (in practice ~32, one extra power from accumulation)."""
    drifts = []
    for f in (0.5, 0.25):
        trace, _ = run_experiment(
            ExperimentConfig(variant="central", rk="rk4", relaxation=False, dt_factor=f)
        )
        drifts.append(trace.max_drift)
    assert drifts[0] / drifts[1] >= 12.0


def test_upwind_classical_rk4_at_half_cfl_blows_up():
    """The one-sided scheme puts z = -3 on the negative real axis at
    dt = dx/2, outside the classical method's stability interval."""
    with pytest.raises(EnergyBlowUpError):
        run_experiment(ExperimentConfig(variant="upwind", rk="rk4", relaxation=False))


def test_relaxation_flags_unstable_base_step():
    with pytest.raises(EnergyBlowUpError, match="non-positive"):
        run_experiment(ExperimentConfig(variant="upwind", rk="ssprk33", relaxation=True))


def test_oversized_step_trips_energy_guard():
    with pytest.raises(EnergyBlowUpError, match="exceeded"):
        run_experiment(
            ExperimentConfig(variant="central", rk="rk4", relaxation=False, dt_factor=2.0)
        )


def test_step_counts_past_the_cap_are_refused_before_any_work(monkeypatch):
    """``ceil(t_end / dt)`` may reach MAX_STEPS, not pass it (checked here
    against a cap of 5), and a refused run builds no scheme."""
    dt = 0.5 * 2 * np.pi / 16
    monkeypatch.setattr(solver, "MAX_STEPS", 5)
    trace, _ = run_experiment(ExperimentConfig(n=16, t_end=5 * dt, relaxation=False))
    assert len(trace.times) == 6
    monkeypatch.setattr(solver, "make_scheme", None)  # any work would raise TypeError
    for t_end in (np.nextafter(5 * dt, np.inf), 6 * dt, 1e300):
        with pytest.raises(ValueError, match="past the cap MAX_STEPS = 5"):
            run_experiment(ExperimentConfig(n=16, t_end=t_end))


def test_config_validation():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(t_end=0.0))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(dt_factor=-0.5))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 8, "dt_factor": 1e-320},  # t_end / dt overflows
        {"n": 8, "t_end": 1e300, "x_max": 1e-300},
        {"n": 50, "dt_factor": 5e-324},  # dt_factor * dx rounds to zero
    ],
)
def test_a_step_count_that_overflows_is_refused_up_front(monkeypatch, kwargs):
    monkeypatch.setattr(solver, "project_initial", None)  # no work before the refusal
    with pytest.raises(ValueError, match="t_end / dt is not finite"):
        run_experiment(ExperimentConfig(**kwargs))


def test_final_partial_step_lands_on_t_end():
    g_dx = 2 * np.pi / 50
    dt = 0.5 * g_dx
    t_end = 3.5 * dt
    trace, _ = run_experiment(
        ExperimentConfig(variant="central", rk="rk4", relaxation=False, t_end=t_end)
    )
    assert len(trace.times) == 5  # three full steps plus the clipped half step
    assert trace.times[-1] == pytest.approx(t_end, rel=1e-15)


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(t_end=3.5 * 0.5 * 2 * np.pi / 50),
        ExperimentConfig(n=24, t_end=0.7, dt_factor=100.0),
    ],
    ids=["half_step", "one_clipped_step"],
)
def test_relaxed_final_step_ends_at_gamma_times_the_remainder(config):
    # the clipped last step is relaxed too, so a relaxed run does not land
    # on t_end; it misses it by |gamma - 1| times the clipped step
    trace, _ = run_experiment(config)
    t_prev, gamma = trace.times[-2], trace.gammas[-1]
    assert trace.times[-1] == t_prev + gamma * (config.t_end - t_prev)
    assert gamma != 1.0 and trace.times[-1] != config.t_end
    rounding = 4 * np.finfo(float).eps * config.t_end
    miss = abs(trace.times[-1] - config.t_end)
    assert miss <= abs(gamma - 1.0) * (config.t_end - t_prev) + rounding


def test_energy_trace_properties():
    tr = EnergyTrace(
        times=np.array([0.0, 1.0, 2.0]),
        energies=np.array([1.0, 1.5, 1.2]),
        gammas=np.array([1.0, 1.0, 1.0]),
    )
    assert tr.initial_energy == 1.0
    assert tr.max_drift == pytest.approx(0.5)
    assert tr.total_change == pytest.approx(0.2)
    assert tr.max_increment == pytest.approx(0.5)


def test_reversed_wind_still_dissipates():
    trace, _ = run_experiment(
        ExperimentConfig(variant="upwind", advection_speed=-1.0, t_end=1.0)
    )
    assert trace.total_change < 0.0
    assert trace.max_increment <= 1e-13 * trace.initial_energy


# ---------------------------------------------------------------------------
# relaxation from the SBP identity: the central estimate is structurally zero
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", [3, 4, 16])
def test_estimate_vanishes_for_central_and_not_for_upwind(n):
    g = ops.build_grid(n)
    central = make_scheme(g, "central", 1.0)
    assert solver._estimate_vanishes(central)
    # offsets shifted by q n name the same columns, and are stored reduced
    D = central.D_effective
    for q in (-2, -1, 1, 2):
        blocks = {j + q * n: a for j, a in D.blocks.items()}
        shifted = ops.BlockCirculantOp(n, D.dx, D.scale, blocks)
        assert solver._estimate_vanishes(dataclasses.replace(central, D_effective=shifted))
    for a in (1.0, -1.0):
        assert not solver._estimate_vanishes(make_scheme(g, "upwind", a))


def _reference_gamma(u, u_next, stages, M, dt):
    """``relaxation_gamma`` from fresh arrays: one plain ``M @ x`` per stage
    derivative and for ``d``, not the stacked product the solver makes, so
    that the fast path is compared with something other than itself."""
    d = u_next - u
    Md = M @ d
    d2 = float(d @ Md)
    if d2 < 1e-30:
        return 1.0
    e = 0.0
    for st in stages:
        e += st.b * float(st.y @ (M @ st.f))
    e *= 2.0 * dt
    return (e - 2.0 * float(u @ Md)) / d2


def _full_estimate_run(config):
    """The time loop of ``run_experiment``, always passing the stage data."""
    g = ops.build_grid(config.n, config.x_min, config.x_max)
    s = make_scheme(g, config.variant, config.advection_speed)
    method = resolve_method(config.rk)
    u = project_initial(g, solver.default_initial)
    dt_nominal, t, steps = config.dt_factor * g.dx, 0.0, 0
    while config.t_end - t > 1e-9 * dt_nominal:
        dt = min(dt_nominal, config.t_end - t)
        u_next, stages = rk_step(s, method, u, dt)
        gamma = 1.0
        if config.relaxation and dt > 1e-4 * dt_nominal:
            gamma = _reference_gamma(u, u_next, stages, s.M_energy, dt)
        u, t, steps = u + gamma * (u_next - u), t + gamma * dt, steps + 1
    return u, t, steps


@pytest.mark.parametrize(
    "variant, rk, per_step",
    [
        ("central", "rk4x2", 10),
        ("central", "rk4", 6),
        ("upwind", "rk4x2", 10),
        ("central", "ssprk33", 5),
    ],
)
def test_relaxed_matvecs_per_step(monkeypatch, variant, rk, per_step):
    """Stages + one mass product + one energy.  The mass product is M d
    alone, or M d stacked with every M f_i where the estimate is kept
    (upwind, and the linearly unstable central ssprk33)."""
    calls = []
    matvec = ops.BlockCirculantOp.matvec
    def counted(op, u, *args, **kwargs):
        calls.append(1)
        return matvec(op, u, *args, **kwargs)

    monkeypatch.setattr(ops.BlockCirculantOp, "matvec", counted)
    trace, _ = run_experiment(ExperimentConfig(variant=variant, rk=rk, n=16))
    steps = len(trace.times) - 1
    assert np.all(trace.gammas[1:] != 1.0)  # every step was relaxed
    assert len(calls) == 1 + per_step * steps  # one initial energy


@pytest.mark.parametrize("relaxation", [True, False], ids=["relaxed", "plain"])
@pytest.mark.parametrize(
    "variant, rk", [("central", "rk4x2"), ("upwind", "rk4x2"), ("central", "ssprk33")]
)
def test_time_loop_enters_each_traced_boundary_once_per_step(monkeypatch, variant, rk, relaxation):
    """``perfbench/tracer.py`` times a run by wrapping the module-level
    ``solver.rk_step`` and ``solver.relaxation_gamma``, ``Scheme.energy``
    and ``BlockCirculantOp.matvec``; a loop that went around them would
    zero its per-layer metrics without failing.  Per step: one ``rk_step``
    making the s stage products, one ``relaxation_gamma`` making one
    (relaxed steps only) and one ``energy`` making one, plus one energy at
    set-up, and every product is a ``matvec`` call."""
    calls, inside = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, inside[-1] if inside else None))
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    for owner, name in ((solver, "rk_step"), (solver, "relaxation_gamma"), (solver.Scheme, "energy")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    monkeypatch.setattr(
        ops.BlockCirculantOp, "matvec", counted("matvec", ops.BlockCirculantOp.matvec)
    )
    config = ExperimentConfig(variant=variant, rk=rk, relaxation=relaxation, n=16, t_end=1.0)
    trace, _ = run_experiment(config)
    steps = len(trace.times) - 1
    relaxed = steps if relaxation else 0
    assert steps > 3
    assert collections.Counter(calls) == collections.Counter({
        ("rk_step", None): steps,
        ("matvec", "rk_step"): resolve_method(rk).stages * steps,
        ("relaxation_gamma", None): relaxed,
        ("matvec", "relaxation_gamma"): relaxed,
        ("energy", None): steps + 1,
        ("matvec", "energy"): steps + 1,
    })


@pytest.mark.parametrize("a", [1.0, -1.0])
@pytest.mark.parametrize("n", [3, 16, 128])
@pytest.mark.parametrize("rk", ["rk4", "rk4x2"])
def test_skipped_estimate_agrees_with_the_full_estimate(rk, n, a):
    """``e = 0`` replaces a float64 sum of rounding errors (zero in exact
    arithmetic), so each step's gamma moves at rounding level; over a
    non-expanding map the states part by at most a few eps per step
    (measured: 0.52 steps eps)."""
    config = ExperimentConfig(rk=rk, n=n, advection_speed=a)
    trace, u = run_experiment(config)
    want, t_want, steps = _full_estimate_run(config)
    assert len(trace.times) == steps + 1
    assert np.abs(u - want).max() <= 4 * steps * EPS * np.abs(want).max()
    assert abs(trace.times[-1] - t_want) <= 4 * steps * EPS * config.t_end
    assert trace.max_drift <= 2 * n * EPS * trace.initial_energy


@pytest.mark.parametrize("a", [1.0, -1.0])
@pytest.mark.parametrize("n", [16, 32])
def test_unstable_central_ssprk33_keeps_the_full_estimate(n, a):
    """rho = 1.2 at dt = dx/2 makes the run chaotic; it keeps its estimate,
    so its states are those of the full-estimate loop, bit for bit."""
    config = ExperimentConfig(rk="ssprk33", n=n, advection_speed=a)
    trace, u = run_experiment(config)
    want, t_want, _ = _full_estimate_run(config)
    np.testing.assert_array_equal(u, want)
    assert trace.times[-1] == t_want


# ---------------------------------------------------------------------------
# amplification symbols: one step per mode is P_k = R(-a dt B_k(D))
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [1.0, -1.0])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
@pytest.mark.parametrize("rk", ["rk4", "ssprk33", "rk4x2"])
@pytest.mark.parametrize("variant", ["central", "upwind"])
def test_unrelaxed_run_equals_powers_of_the_amplification_symbols(variant, rk, n, a):
    config = ExperimentConfig(
        variant=variant, rk=rk, n=n, advection_speed=a, relaxation=False, dt_factor=0.25, t_end=1.0
    )
    _, u = run_experiment(config)
    g = ops.build_grid(n)
    s, method = make_scheme(g, variant, a), resolve_method(rk)
    dt_nominal = config.dt_factor * g.dx
    full, t = 0, 0.0
    while config.t_end - t > 1e-9 * dt_nominal and dt_nominal <= config.t_end - t:
        full, t = full + 1, t + dt_nominal
    P, _ = solver._amplification_symbols(s, method, dt_nominal)
    step = np.linalg.matrix_power(P, full)
    if config.t_end - t > 1e-9 * dt_nominal:  # the clipped last step
        step = solver._amplification_symbols(s, method, config.t_end - t)[0] @ step
        full += 1
    u0 = project_initial(g, solver.default_initial)
    uhat = np.fft.fft(u0.reshape(n, 2), axis=0)
    want = np.fft.ifft((step @ uhat[:, :, None])[:, :, 0], axis=0).real.reshape(-1)
    # each step and each matrix product rounds at a few eps per stage, with
    # no growth (rho <= 1 at dt = dx/4); the FFTs add O(log n) eps
    tol = 4 * method.stages * (full + np.log2(n)) * EPS * np.abs(want).max()
    assert np.abs(u - want).max() <= tol


@pytest.mark.parametrize("a", [1.0, -1.0])
@pytest.mark.parametrize(
    "variant, rk, lo, hi",
    [("central", "ssprk33", 0.19, 0.21), ("upwind", "rk4", 0.375 - 1e-9, 0.375 + 1e-9),
     ("upwind", "ssprk33", 0.99, 1.01)],
)
def test_amplification_radius_of_the_unstable_pairs_at_half_cfl(variant, rk, lo, hi, a):
    for n in (16, 128, 1200):
        g = ops.build_grid(n)
        scheme = make_scheme(g, variant, a)
        rho, _ = solver._amplification_radius(scheme, resolve_method(rk), 0.5 * g.dx)
        assert lo <= rho - 1.0 <= hi


@pytest.mark.parametrize("a", [1.0, -1.0])
@pytest.mark.parametrize(
    "variant, rk, dt_factor",
    [(v, rk, 0.25) for v in ("central", "upwind") for rk in ("rk4", "ssprk33", "rk4x2")]
    + [("central", "rk4", 0.5), ("central", "rk4x2", 0.5), ("upwind", "rk4x2", 0.5)],
)
def test_amplification_radius_of_the_stable_pairs(variant, rk, dt_factor, a):
    for n in (16, 128, 1200):
        g = ops.build_grid(n)
        scheme = make_scheme(g, variant, a)
        rho, tol = solver._amplification_radius(scheme, resolve_method(rk), dt_factor * g.dx)
        assert 1.0 <= rho + tol and rho <= 1.0 + tol  # mode k = 0 has rho = 1
        assert tol < 1e-10


# ---------------------------------------------------------------------------
# shared stage sums
# ---------------------------------------------------------------------------


def _reference_rk_step(scheme, method, u, dt, workspace=None):
    """Every stage state and the update folded into a fresh copy of ``u``,
    one term at a time, with the right-hand side scaled out of place (a
    workspace is accepted and left unused)."""
    k, stage_data = [], []
    for i in range(method.stages):
        y = u.copy()
        for j in range(i):
            if method.a[i][j] != 0.0:
                y += (dt * method.a[i][j]) * k[j]
        f = -scheme.advection_speed * (scheme.D_effective @ y)
        k.append(f)
        stage_data.append(solver.Stage(b=method.b[i], y=y, f=f))
    u_next = u.copy()
    for i in range(method.stages):
        if method.b[i] != 0.0:
            u_next += (dt * method.b[i]) * k[i]
    return u_next, stage_data


#: Stage 3 continues from stage 2's state, stage 4 from the partial sum
#: after stage 2's first term, and the update from stage 3's state.
_SHARED_PREFIXES = RKMethod(
    name="shared-prefixes",
    a=(
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (0.5, 0.0, 0.0, 0.0, 0.0),
        (0.3, 0.2, 0.0, 0.0, 0.0),
        (0.3, 0.2, 0.1, 0.0, 0.0),
        (0.3, 0.25, 0.0, 0.4, 0.0),
    ),
    b=(0.3, 0.2, 0.1, 0.0, 0.4),
    c=(0.0, 0.5, 0.5, 0.6, 0.95),
)


@pytest.mark.parametrize(
    "method, terms",
    [(RK4, 7), (SSPRK33, 6), (RK4X2, 14), (_SHARED_PREFIXES, 7)],
    ids=lambda m: getattr(m, "name", None),
)
def test_shared_prefixes_are_summed_once(method, terms):
    """rk4x2 sums its first half step once, for stages 5-8 and the update."""
    assert sum(len(steps) for _, steps in method._folds) == terms


@pytest.mark.parametrize("variant, a", [("central", 1.0), ("upwind", -1.0)])
@pytest.mark.parametrize("method", [RK4, SSPRK33, RK4X2, _SHARED_PREFIXES], ids=lambda m: m.name)
def test_rk_step_is_bit_identical_to_the_naive_folds(method, variant, a):
    g = ops.build_grid(17)
    scheme = make_scheme(g, variant, a)
    rng = np.random.default_rng(17)
    real = rng.normal(size=2 * g.n)
    for u in (real, real + 1j * rng.normal(size=2 * g.n)):
        before = u.copy()
        u.setflags(write=False)  # an in-place write to u would raise
        u_next, stages = rk_step(scheme, method, u, 0.37 * g.dx)
        want_next, want_stages = _reference_rk_step(scheme, method, u, 0.37 * g.dx)
        assert u.tobytes() == before.tobytes()
        assert u_next.dtype == want_next.dtype
        assert u_next.tobytes() == want_next.tobytes()
        assert len(stages) == len(want_stages)
        for got, want in zip(stages, want_stages):
            assert got.b == want.b
            assert got.y.tobytes() == want.y.tobytes()
            assert got.f.tobytes() == want.f.tobytes()


@pytest.mark.parametrize(
    "variant, rk", [("central", "rk4x2"), ("upwind", "rk4x2"), ("central", "ssprk33")]
)
def test_relaxed_run_is_bit_identical_with_the_naive_folds(variant, rk):
    """Relaxation divides nearly cancelling energy terms, so any change of
    rounding in the stages would show in the trajectory."""
    config = ExperimentConfig(variant=variant, rk=rk, n=24, t_end=2.0)
    _assert_run_matches_the_fresh_array_loop(config, _reference_rk_step)


# ---------------------------------------------------------------------------
# the run's workspace: same bits as fresh arrays
# ---------------------------------------------------------------------------


def _fresh_array_run(config, step=rk_step):
    """The time loop of ``run_experiment`` with no workspace: every step,
    gamma and energy makes new arrays, and ``step`` takes the place of
    ``rk_step``.  Raises what the run raises."""
    g = ops.build_grid(config.n, config.x_min, config.x_max)
    s = make_scheme(g, config.variant, config.advection_speed)
    method = resolve_method(config.rk)
    u = project_initial(g, config.initial or solver.default_initial)
    dt_nominal = config.dt_factor * g.dx
    skip = False
    if config.relaxation and solver._estimate_vanishes(s):
        rho, tol = solver._amplification_radius(s, method, dt_nominal)
        skip = rho <= 1.0 + tol
    e0 = s.energy(u)
    times, energies, gammas, t = [0.0], [e0], [1.0], 0.0
    while config.t_end - t > 1e-9 * dt_nominal:
        dt = min(dt_nominal, config.t_end - t)
        u_next, stages = step(s, method, u, dt)
        gamma = 1.0
        if config.relaxation and dt > 1e-4 * dt_nominal:
            gamma = _reference_gamma(u, u_next, () if skip else stages, s.M_energy, dt)
            if gamma <= 0.0:
                raise EnergyBlowUpError(
                    f"relaxation parameter became non-positive ({gamma:.3g}) at "
                    f"t = {t:.6g}; the step is likely outside the RK stability region"
                )
            u, t = u + gamma * (u_next - u), t + gamma * dt
        else:
            u, t = u_next, t + dt
        energy = s.energy(u)
        times.append(t)
        energies.append(energy)
        gammas.append(gamma)
        if not math.isfinite(energy) or energy > 1e3 * max(e0, 1e-300):
            raise EnergyBlowUpError(
                f"energy {energy:.6g} exceeded 1e3 x initial {e0:.6g} at t = {t:.6g}"
            )
    return EnergyTrace(np.array(times), np.array(energies), np.array(gammas)), u


@pytest.mark.parametrize(
    "n, t_end", [(3, 1.0), (4, 1.0), (16, 1.0), (16, 2 * math.pi), (8193, 0.01), (8200, 0.01)]
)
@pytest.mark.parametrize("a", [1.0, -1.0, 2.5, 0.5, -2.0, 0.7, 1e-3])
@pytest.mark.parametrize("relaxation", [True, False], ids=["relaxed", "plain"])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize("rk", ["rk4", "ssprk33", "rk4x2"])
def test_run_is_bit_identical_to_the_fresh_array_loop(rk, variant, relaxation, a, n, t_end):
    """Every t_end here ends on a clipped step.  A pair that blows up
    (unstable by design, or at the CFL numbers 1 and 1.25 of a = -2 and
    2.5) must blow up at the same step with the same message.  At a = +-1
    the right-hand side makes one scaling pass, elsewhere two."""
    config = ExperimentConfig(
        variant=variant, rk=rk, relaxation=relaxation, advection_speed=a, n=n, t_end=t_end
    )
    _assert_run_matches_the_fresh_array_loop(config)


#: b equals the last row of A, so the update is stage 3's state and no fold
#: of its own forms it.
_UPDATE_IS_A_STAGE = RKMethod(
    name="update-is-a-stage",
    a=((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.75, 0.0)),
    b=(0.25, 0.75, 0.0),
    c=(0.0, 0.5, 1.0),
)


@pytest.mark.parametrize("relaxation", [True, False], ids=["relaxed", "plain"])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize("method", [_SHARED_PREFIXES, _UPDATE_IS_A_STAGE], ids=lambda m: m.name)
def test_custom_tableau_run_is_bit_identical_to_the_fresh_array_loop(method, variant, relaxation):
    """The update may be a partial sum of another fold: its buffer then
    holds the next step's u and is written again during that step."""
    if method is _UPDATE_IS_A_STAGE:
        assert _UPDATE_IS_A_STAGE._folds[-1][1] == ()  # the update adds no term
    config = ExperimentConfig(
        variant=variant, rk=method, relaxation=relaxation, n=16, t_end=0.5, dt_factor=0.1
    )
    _assert_run_matches_the_fresh_array_loop(config)


def _assert_run_matches_the_fresh_array_loop(config, step=rk_step):
    try:
        want_trace, want_u = _fresh_array_run(config, step)
    except EnergyBlowUpError as exc:
        with pytest.raises(EnergyBlowUpError) as got:
            run_experiment(config)
        assert str(got.value) == str(exc)
        return
    trace, u = run_experiment(config)
    assert u.tobytes() == want_u.tobytes()
    for name in ("times", "energies", "gammas"):
        assert getattr(trace, name).tobytes() == getattr(want_trace, name).tobytes()
    assert config.t_end - trace.times[-2] < config.dt_factor * 2 * math.pi / config.n  # clipped


@pytest.mark.parametrize("method", [RK4, SSPRK33, RK4X2, _SHARED_PREFIXES], ids=lambda m: m.name)
def test_rk_step_without_a_workspace_returns_arrays_no_later_call_writes(method):
    g = ops.build_grid(16)
    s = make_scheme(g, "upwind", 1.0)
    u = project_initial(g, solver.default_initial)
    u1, stages = rk_step(s, method, u, 0.3 * g.dx)
    arrays = [u1, *(a for st in stages for a in (st.y, st.f))]
    before = [a.tobytes() for a in arrays]
    rk_step(s, method, u1, 0.3 * g.dx)
    rk_step(s, method, u, 0.1 * g.dx)
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("method", [RK4, SSPRK33, RK4X2, _SHARED_PREFIXES], ids=lambda m: m.name)
def test_rk_step_with_a_workspace_writes_its_buffers(method):
    """The update and the stage states other than u are the step program's
    arrays, the stage derivatives rows of ``kd``; the bits are those of
    fresh arrays."""
    g = ops.build_grid(17)
    s = make_scheme(g, "upwind", -1.0)
    u = project_initial(g, solver.default_initial)
    ws = solver.Workspace.allocate(s, method, u)
    u1, stages = rk_step(s, method, u, 0.3 * g.dx, ws)
    want, want_stages = rk_step(s, method, u, 0.3 * g.dx)
    assert u1.tobytes() == want.tobytes()
    assert u1 is ws.step.update and stages is ws.step.stages
    assert stages[0].y is u
    for st, row, want_st in zip(stages, ws.kd, want_stages):
        assert st.f.base is ws.kd and st.f.ctypes.data == row.ctypes.data
        assert st.y is u or not np.shares_memory(st.y, u)
        assert (st.y.tobytes(), st.f.tobytes()) == (want_st.y.tobytes(), want_st.f.tobytes())
    M = s.M_energy
    gamma = relaxation_gamma(u, u1, stages, M, 0.3 * g.dx, workspace=ws)
    assert gamma == relaxation_gamma(u, want, want_stages, M, 0.3 * g.dx)
    assert gamma == _reference_gamma(u, want, want_stages, M, 0.3 * g.dx)
    skipped = relaxation_gamma(u, u1, (), M, 0.3 * g.dx, workspace=ws)
    assert skipped == _reference_gamma(u, want, (), M, 0.3 * g.dx)
    assert s.energy(u, ws) == s.energy(u.copy())


@pytest.mark.parametrize("method", [RK4, SSPRK33, RK4X2], ids=lambda m: m.name)
def test_a_workspace_refuses_what_it_was_not_allocated_for(method):
    """A workspace steps only its own state, scheme and method, takes only
    its own stage list and mass operator, and measures only its own state."""
    g = ops.build_grid(17)
    s = make_scheme(g, "upwind", -1.0)
    u = project_initial(g, solver.default_initial)
    ws = solver.Workspace.allocate(s, method, u)
    twin = RKMethod(method.name, method.a, method.b, method.c)
    for scheme, m, v in ((s, method, u.copy()), (make_scheme(g, "upwind", -1.0), method, u), (s, twin, u)):
        with pytest.raises(ValueError, match="allocated for another"):
            rk_step(scheme, m, v, 0.3 * g.dx, ws)
    u1, stages = rk_step(s, method, u, 0.3 * g.dx, ws)
    want, want_stages = rk_step(s, method, u, 0.3 * g.dx)
    extra = solver.Stage(b=0.5, y=want, f=np.sin(want))
    for data in (want_stages, list(stages), [*stages, extra]):
        with pytest.raises(ValueError, match="its own step's stage list"):
            relaxation_gamma(u, u1, data, s.M_energy, 0.3 * g.dx, workspace=ws)
    with pytest.raises(ValueError, match="another operator"):
        relaxation_gamma(u, u1, stages, ops.upwind_mass(g), 0.3 * g.dx, workspace=ws)
    with pytest.raises(ValueError, match="another operator, operand or out"):
        s.energy(u1, ws)


@pytest.mark.parametrize("a", [1.0, -1.0, 2.0, 0.5, -2.0])
@pytest.mark.parametrize("variant", ["central", "upwind"])
def test_run_with_subnormal_derivatives_is_bit_identical(variant, a):
    """Where ``D u`` is subnormal, ``(x * scale) * -a`` and ``x * (-a scale)``
    round apart at a power of two other than +-1 (two roundings, then one):
    only +-1 may go into the scale.  The naive folds scale out of place."""
    config = ExperimentConfig(
        variant=variant,
        advection_speed=a,
        n=24,
        t_end=0.5,
        initial=lambda x: 1e-310 * np.exp(np.sin(x)),
    )
    g = ops.build_grid(config.n)
    f = make_scheme(g, variant, a).D_effective @ project_initial(g, config.initial)
    assert np.count_nonzero((f != 0.0) & (np.abs(f) < np.finfo(float).tiny)) > 0
    _assert_run_matches_the_fresh_array_loop(config)
    _assert_run_matches_the_fresh_array_loop(config, _reference_rk_step)


@pytest.mark.parametrize(
    "variant, a",
    [(v, a) for v in ("central", "upwind") for a in (1.0, -1.0, 2.5, -0.7, 2.0)] + [("central", 0.0)],
)
def test_rhs_folds_the_speed_into_the_scale_only_at_unit_speed(variant, a):
    g = ops.build_grid(16)
    s = make_scheme(g, variant, a)
    op, factor = s.rhs_operator
    D = s.D_effective
    if abs(a) == 1.0:
        assert (op.scale, factor) == (-a * D.scale, 1.0)
        assert op.blocks.keys() == D.blocks.keys()
    else:
        assert (op, factor) == (D, -a)
    u = np.random.default_rng(16).normal(size=2 * g.n)
    want = D @ u
    want *= -a
    assert s.rhs(u).tobytes() == want.tobytes()


@pytest.mark.parametrize("variant, a", [("central", 1.0), ("upwind", -1.0), ("central", 0.7)])
@pytest.mark.parametrize(
    "method", [RK4, SSPRK33, RK4X2, _SHARED_PREFIXES, _UPDATE_IS_A_STAGE], ids=lambda m: m.name
)
def test_rk_step_replays_its_program_on_new_values_and_time_steps(method, variant, a):
    """The step program reads the bound operand's values of each call and
    forms ``dt c`` again when dt changes; each call gives the fresh-array
    bits."""
    g = ops.build_grid(17)
    s = make_scheme(g, variant, a)
    u = project_initial(g, solver.default_initial)
    ws = solver.Workspace.allocate(s, method, u)
    for i, dt in enumerate((0.3, 0.3, 0.1, 0.1, 0.3)):
        if i % 2:
            u += 0.125 * np.sin(u)
        u_next, stages = rk_step(s, method, u, dt * g.dx, ws)
        want, want_stages = rk_step(s, method, u.copy(), dt * g.dx)
        assert stages is ws.step.stages and stages[0].y is u
        assert u_next.tobytes() == want.tobytes()
        for st, want_st in zip(stages, want_stages, strict=True):
            assert st.b == want_st.b
            assert (st.y.tobytes(), st.f.tobytes()) == (want_st.y.tobytes(), want_st.f.tobytes())
        gamma = relaxation_gamma(u, u_next, stages, s.M_energy, dt * g.dx, workspace=ws)
        assert gamma == relaxation_gamma(u, want, want_stages, s.M_energy, dt * g.dx)
        assert gamma == _reference_gamma(u, want, want_stages, s.M_energy, dt * g.dx)
        assert s.energy(u, ws) == s.energy(u.copy())


def test_workspace_binds_its_step_and_mass_matvecs():
    g = ops.build_grid(16)
    s = make_scheme(g, "central", 1.0)
    u = project_initial(g, solver.default_initial)
    ws = solver.Workspace.allocate(s, RK4X2, u)
    assert ws.step.u is u and ws.M_u.u is u and ws.M_u.out is ws.Mu
    assert ws.M_d.u is ws.d and ws.M_d.out is ws.Md
    assert ws.M_kd.u is ws.kd and ws.M_kd.out is ws.Mkd
    assert ws.M_d.scratch is ws.M_u.scratch  # M u and M d share scratch arrays
    # k_1..k_s and d are the rows of one stack, and so are their products
    assert ws.kd.shape == ws.Mkd.shape == (RK4X2.stages + 1, 2 * g.n)
    for row, want in zip((*(st.f for st in ws.step.stages), ws.d), ws.kd, strict=True):
        assert row.base is ws.kd and row.ctypes.data == want.ctypes.data
    assert ws.Md.base is ws.Mkd and ws.Md.ctypes.data == ws.Mkd[-1].ctypes.data


@pytest.mark.parametrize("variant", ["central", "upwind"])
def test_workspace_without_the_estimate_has_no_product_stack(variant):
    """Without the stage estimate only M u and M d are bound, M d into an
    array of its own: its gamma without stage data has the bits of a
    workspace that has the stack, and stage data raises."""
    g = ops.build_grid(16)
    s = make_scheme(g, variant, 1.0)
    u = project_initial(g, solver.default_initial)
    ws = solver.Workspace.allocate(s, RK4X2, u, estimate=False)
    assert ws.Mkd is None and ws.M_kd is None
    assert ws.Md.base is None and ws.Md.shape == (2 * g.n,)
    assert ws.M_d.u is ws.d and ws.M_d.out is ws.Md
    assert ws.kd.shape == (RK4X2.stages + 1, 2 * g.n)
    v, dt, M = u.copy(), 0.3 * g.dx, s.M_energy
    full = solver.Workspace.allocate(s, RK4X2, v)
    u1, stages = rk_step(s, RK4X2, u, dt, ws)
    want, want_stages = rk_step(s, RK4X2, v, dt, full)
    assert u1.tobytes() == want.tobytes()
    gamma = relaxation_gamma(u, u1, (), M, dt, workspace=ws)
    assert gamma == relaxation_gamma(v, want, (), M, dt, workspace=full)
    assert gamma == _reference_gamma(u, want, (), M, dt)
    with pytest.raises(ValueError, match="stack of products"):
        relaxation_gamma(u, u1, stages, M, dt, workspace=ws)


@pytest.mark.parametrize(
    "variant, rk, relaxation",
    [
        ("central", "rk4x2", True),
        ("upwind", "rk4x2", True),
        ("central", "ssprk33", True),
        ("upwind", "rk4", False),
    ],
)
def test_time_loop_matvecs_skip_the_per_call_set_up(monkeypatch, variant, rk, relaxation):
    """Every matvec of a run replays a binding made when its workspace is
    allocated: the set-up runs once per binding (a stage's derivative, then
    M u, M d and, for relaxed runs that keep the stage estimate, the
    stacked M k_i and M d), however many steps the run takes."""
    # relaxed central rk4x2 is stable at dt = dx/2 and M D + D^T M = 0: no
    # estimate; central ssprk33 (rho > 1 there) and upwind runs keep it
    stacked = relaxation and (variant, rk) != ("central", "rk4x2")
    programs = []
    program = ops.BlockCirculantOp._program

    def counted(op, *args):
        programs.append(op)
        return program(op, *args)

    monkeypatch.setattr(ops.BlockCirculantOp, "_program", counted)
    stages = resolve_method(rk).stages
    for t_end in (1.0, 3.0):
        programs.clear()
        trace, _ = run_experiment(
            ExperimentConfig(variant=variant, rk=rk, relaxation=relaxation, n=16, t_end=t_end)
        )
        assert len(trace.times) > 5
        assert len(programs) == stages + 2 + stacked
