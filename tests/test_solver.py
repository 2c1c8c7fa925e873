"""Time integration: tableaux, relaxation, and the energy experiment."""

import collections
import dataclasses
import fractions
import functools
import importlib.util
import json
import math
import operator
import pathlib
import sys
import types
import warnings

import numpy as np
import pytest

from activeflux import operators as ops
from activeflux import solver, spectral
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
from oracles import composed_factor


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


@pytest.mark.parametrize("variant", ["central", "upwind"])
def test_relaxation_gamma_of_zero_data_is_one(variant):
    """u = 0 makes ``d.Md`` and its cut-off ``(8 n eps)^2 u.Mu`` both zero."""
    s, u0, _, stages, dt = _one_step(variant)
    zero = np.zeros_like(u0)
    assert relaxation_gamma(zero, zero, [st._replace(f=zero) for st in stages], s.M_energy, dt) == 1.0


@pytest.mark.parametrize("ratio, relaxed", [(0.5, False), (2.0, True)])
@pytest.mark.parametrize("variant", ["central", "upwind"])
def test_relaxation_gamma_cut_off_is_8n_eps_of_the_state(variant, ratio, relaxed):
    """gamma is 1 where ``|d|_M`` is half of ``8 n eps |u|_M``, and computed
    where it is twice that (the update is not a step there, so gamma is far
    from 1)."""
    s, u0, _, _, dt = _one_step(variant)
    M, n = s.M_energy, u0.size // 2
    v = np.random.default_rng(n).normal(size=u0.size)
    d = v * (ratio * 8 * n * EPS * math.sqrt(s.energy(u0) / s.energy(v)))
    gamma = relaxation_gamma(u0, u0 + d, (), M, dt)
    assert (gamma != 1.0) == relaxed


@pytest.mark.parametrize("scale", [1.0, 1e-16])
@pytest.mark.parametrize("variant", ["central", "upwind"])
def test_relaxation_does_not_depend_on_the_size_of_the_data(variant, scale):
    """gamma's cut-off is relative to ``u.Mu`` (see ``relaxation_gamma``),
    so every step of a run from ``1e-16 exp(sin x)`` is relaxed, as from
    ``exp(sin x)``, and the central energy stays within ``2n eps E0`` (an
    absolute cut-off of 1e-30 relaxed none of them and let it drift 2e5
    times that).  Scaling the data by a power of two scales every rounding
    with it: the run's times and gammas keep their bits, and its energies
    and state scale exactly."""
    n = 50
    dx = 2 * math.pi / n
    config = ExperimentConfig(
        variant=variant, n=n, t_end=99.5 * 0.5 * dx, initial=lambda x: scale * np.exp(np.sin(x))
    )
    trace, u = run_experiment(config)
    assert len(trace.times) == 101 and np.all(trace.gammas[1:] != 1.0)
    bound = 2 * n * EPS * trace.initial_energy
    if variant == "central":
        assert trace.max_drift <= bound
    else:
        assert trace.max_increment <= bound
    tiny = 2.0**-60
    scaled = dataclasses.replace(config, initial=lambda x: tiny * scale * np.exp(np.sin(x)))
    tiny_trace, tiny_u = run_experiment(scaled)
    assert tiny_trace.times.tobytes() == trace.times.tobytes()
    assert tiny_trace.gammas.tobytes() == trace.gammas.tobytes()
    assert tiny_trace.energies.tobytes() == (tiny**2 * trace.energies).tobytes()
    assert tiny_u.tobytes() == (tiny * u).tobytes()


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


@pytest.mark.parametrize("variant, order, margin", [("central", 2.0, 0.01), ("upwind", 3.0, 0.05)])
def test_unrelaxed_rk4x2_converges_at_the_scheme_order(variant, order, margin):
    """One period of ``exp(sin x)`` returns to its projection exactly, so
    the final state minus the initial one is the scheme's error.  Unrelaxed
    ``rk4x2`` at dt = dx/4 (its time error is fourth order, far below the
    space error) over n = 64, 128, 256, 512: the observed orders
    ``log2(err_n / err_2n)`` in the max norm approach 2 for the central
    scheme and 3 for the upwind one from one side.  Measured: 2.004,
    2.002, 2.000 and 2.979, 2.996, 2.999.  The pre-asymptotic spread, the
    first pair's distance from the asymptotic order, is 0.004 and 0.021;
    each margin is twice that, rounded up, so an order off by more than
    the coarsest pair's own departure fails.  The errors (5.2e-3 down to
    8.0e-5 central, 8.8e-4 down to 1.8e-6 upwind) lie far above rounding,
    which reaches about ``steps eps |u|``, 1.2e-12 at n = 512."""
    errors = []
    for n in (64, 128, 256, 512):
        config = ExperimentConfig(variant=variant, n=n, relaxation=False, dt_factor=0.25)
        _, u = run_experiment(config)
        u0 = project_initial(ops.build_grid(n), solver.default_initial)
        errors.append(float(np.abs(u - u0).max()))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - order) <= margin), orders


def test_upwind_classical_rk4_at_half_cfl_blows_up():
    """The one-sided scheme puts z = -3 on the negative real axis at
    dt = dx/2, outside the classical method's stability interval."""
    with pytest.raises(EnergyBlowUpError):
        run_experiment(ExperimentConfig(variant="upwind", rk="rk4", relaxation=False))


def test_relaxation_flags_unstable_base_step():
    with pytest.raises(EnergyBlowUpError, match="not positive"):
        run_experiment(ExperimentConfig(variant="upwind", rk="ssprk33", relaxation=True))


@pytest.mark.parametrize(
    "variant, relaxation, speed",
    [
        ("central", True, 1e100),
        ("central", True, 1e300),
        ("central", True, -1e300),
        ("upwind", True, 1e100),
        ("central", False, 1e300),
        ("upwind", False, -1e300),
    ],
)
def test_a_nan_relaxation_parameter_is_refused_before_its_step(variant, relaxation, speed):
    """At these speeds the first step overflows.  A relaxed run gets gamma
    = NaN, which ``gamma <= 0`` would let through, and refuses it at t = 0,
    before applying it, and names it; an unrelaxed run refuses the NaN
    energy of its first step as not finite.  Neither raises a
    floating-point warning (the suite makes them errors): the radius and
    the time loop take the overflow as a value, and the guards refuse it."""
    want = r"parameter is not positive \(nan\) at t = 0;" if relaxation else "energy nan is not finite at t = "
    with pytest.raises(EnergyBlowUpError, match=want):
        run_experiment(
            ExperimentConfig(
                variant=variant, relaxation=relaxation, n=16, advection_speed=speed, t_end=0.5
            )
        )


@pytest.mark.parametrize(
    "speed, x_max",
    [(1e-310, 2 * math.pi), (-1e-320, 2 * math.pi), (5e-324, 2 * math.pi), (1.0, 1e-200)],
)
def test_relaxed_central_rk4x2_composes_at_extreme_scales(monkeypatch, speed, x_max):
    """With ``|a| dt / dx`` subnormal, or on a domain of 1e-200, the radius
    is 1, not NaN: its roots are those of the unscaled stencil's symbols,
    times ``z = -a dt / dx``, so neither ``z`` nor ``1/dx`` enters the
    closed form.  The run composes its steps, as at every stable step, and
    raises no warning."""
    kinds, composed = [], solver._ComposedStep
    for kind in (solver._StageStep, composed):
        def spy(*args, kind=kind):
            kinds.append(kind)
            return kind(*args)

        monkeypatch.setattr(solver, kind.__name__, spy)
    g = ops.build_grid(50, 0.0, x_max)
    rho, tol = solver._amplification_radius(make_scheme(g, "central", speed), RK4X2, 0.5 * g.dx)
    assert abs(rho - 1.0) <= tol
    t_end = x_max / 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace, u = run_experiment(
            ExperimentConfig(n=50, x_max=x_max, advection_speed=speed, t_end=t_end)
        )
    assert kinds == [composed]
    assert abs(trace.times[-1] - t_end) <= 1e-14 * t_end and np.isfinite(u).all()


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


def test_a_step_count_past_the_cap_is_refused_before_the_grid_is_built():
    """At n = 6e6 one period takes 1.2e7 steps of dx/2: the refusal comes
    before the grid's O(n) arrays (96 MB of them), within 1 MB of traced
    memory."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="past the cap MAX_STEPS"):
            run_experiment(ExperimentConfig(n=6_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_config_validation():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(t_end=0.0))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(dt_factor=-0.5))


@pytest.mark.parametrize("relaxation", [True, False], ids=["relaxed", "plain"])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize(
    "initial, match",
    [
        (lambda x: np.where(x > 3.0, np.nan, np.sin(x)), "initial data must be finite"),
        (lambda x: np.full_like(x, np.inf), "initial data must be finite"),
        (lambda x: 1e200 * np.exp(np.sin(x)), "initial energy .* is not finite"),
    ],
    ids=["nan", "inf", "energy-overflow"],
)
def test_non_finite_initial_data_is_refused_before_the_first_step(
    monkeypatch, initial, match, variant, relaxation
):
    """NaN, infinite values and data whose energy overflows raise
    ValueError up front, not EnergyBlowUpError after one step."""
    monkeypatch.setattr(solver, "rk_step", None)  # no step is taken
    config = ExperimentConfig(variant=variant, relaxation=relaxation, n=16, initial=initial)
    with pytest.raises(ValueError, match=match):
        run_experiment(config)


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


def test_a_run_that_takes_no_step_has_no_energy_increment():
    """``t_end`` below the dropped remainder of 1e-9 dt: the trace holds the
    initial energy alone, and every statistic of it is 0."""
    trace, _ = run_experiment(ExperimentConfig(n=16, t_end=1e-300))
    assert len(trace.energies) == 1
    assert (trace.max_increment, trace.max_drift, trace.total_change) == (0.0, 0.0, 0.0)


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


def _memo_pairs():
    """Calls of the two memoized step-kind functions, in pairs that differ
    in exactly one input, and whose answers differ: the sign of a (the
    upwind ``D_-`` at a = -1, against the wind, has rho > 1), ``dt_factor``
    by one ulp (the radius's tolerance moves), the tableau, and ``D``
    (through ``dataclasses.replace``): its blocks, ``D_-``'s at the central
    ``D``'s offsets, and its offsets, the central ``D`` shifted by one
    cell.  Neither keeps ``M D + D^T M = 0``, and the shift moves the
    radius."""
    g = ops.build_grid(16)
    dt, ulp = 0.5 * g.dx, np.nextafter(0.5, 1.0) * g.dx
    central, upwind = make_scheme(g, "central", 1.0), make_scheme(g, "upwind", 1.0)
    D = central.D_effective
    shifted = dataclasses.replace(
        central, D_effective=ops.BlockCirculantOp(g.n, D.dx, D.scale, {j + 1: a for j, a in D.blocks.items()})
    )
    radius, vanishes = solver._amplification_radius, solver._estimate_vanishes
    against = dataclasses.replace(upwind, advection_speed=-1.0)
    minus = dataclasses.replace(central, D_effective=upwind.D_effective)
    assert tuple(minus.D_effective.blocks) == tuple(D.blocks)
    return {
        "sign of a": ((radius, upwind, RK4X2, dt), (radius, against, RK4X2, dt)),
        "dt_factor": ((radius, central, RK4X2, dt), (radius, central, RK4X2, ulp)),
        "tableau": ((radius, central, RK4X2, dt), (radius, central, SSPRK33, dt)),
        "D's blocks": ((vanishes, central), (vanishes, minus)),
        "D's offsets": ((vanishes, central), (vanishes, shifted)),
        "D's offsets, radius": ((radius, central, RK4X2, dt), (radius, shifted, RK4X2, dt)),
    }


def _memo_answers(first, second):
    """``second``'s answer from a cleared memo, ``first``'s, and
    ``second``'s right after ``first``'s."""
    solver._MEMO.clear()
    cold = second[0](*second[1:])
    solver._MEMO.clear()
    return cold, first[0](*first[1:]), second[0](*second[1:])


def test_the_step_kind_memo_gives_what_a_cleared_memo_gives():
    """``_estimate_vanishes`` and ``_amplification_radius`` are memoized
    by value (``solver._memo_key``): after one call, a call that differs
    in exactly one input gets what it gets from a cleared memo, and a
    ``D`` whose offsets are shifted by multiples of n, stored in the same
    normal form, finds the first call's entry.  After one run, runs that
    differ in the sign of a, in ``dt_factor`` by one ulp or in the tableau
    (relaxed central ``ssprk33`` at dx/2 keeps the stage estimate) end in
    the bits they end in from a cleared memo.  No entry holds an array of
    the ring's size."""
    for first, second in _memo_pairs().values():
        cold, other, warm = _memo_answers(first, second)
        assert warm == cold != other
    g = ops.build_grid(16)
    central = make_scheme(g, "central", 1.0)
    D = central.D_effective
    solver._MEMO.clear()
    assert solver._estimate_vanishes(central)
    for q in (-2, -1, 1, 2):
        wrapped = ops.BlockCirculantOp(g.n, D.dx, D.scale, {j + q * g.n: a for j, a in D.blocks.items()})
        assert solver._estimate_vanishes(dataclasses.replace(central, D_effective=wrapped))
        assert len(solver._MEMO) == 1
    base = ExperimentConfig(variant="central", rk="rk4x2", n=16, t_end=1.0)
    for config in (
        dataclasses.replace(base, advection_speed=-1.0),
        dataclasses.replace(base, dt_factor=float(np.nextafter(0.5, 1.0))),
        dataclasses.replace(base, rk="ssprk33"),
    ):
        solver._MEMO.clear()
        cold = run_experiment(config)
        solver._MEMO.clear()
        run_experiment(base)
        warm = run_experiment(config)
        for got, want in zip((*warm[0].__dict__.values(), warm[1]), (*cold[0].__dict__.values(), cold[1])):
            assert got.tobytes() == want.tobytes()
    # (name, n, D's offsets and bytes, M's offsets and bytes, z, R's coefficients): 32 bytes a block
    assert 0 < len(solver._MEMO) <= solver._MEMO_SIZE
    # least recently used out first: dt_1 goes, dt_0, used again, stays
    solver._MEMO.clear()
    dts = [(0.5 - k / 1024) * g.dx for k in range(solver._MEMO_SIZE + 1)]
    for dt in (*dts[:-1], dts[0], dts[-1]):
        solver._amplification_radius(central, RK4X2, dt)
    held = [("_amplification_radius", *solver._memo_key(central, RK4X2, dt)) in solver._MEMO for dt in dts]
    assert len(solver._MEMO) == solver._MEMO_SIZE and held == [True, False] + [True] * (len(dts) - 2)
    for (_, n, *stencils, z, coefficients), value in solver._MEMO.items():
        assert n == 16 and len(stencils[1]) == 32 * len(stencils[0]) and len(stencils[3]) == 32 * len(stencils[2])
        assert type(value) is bool or all(isinstance(x, float) for x in value)


def _dropping(index, keep):
    """``solver._memo_key`` with its entry at ``index`` replaced by
    ``keep`` of it: a key that drops an input."""
    key = solver._memo_key

    def dropped(*args):
        k = list(key(*args))
        k[index] = keep(k[index])
        return tuple(k)

    return dropped


@pytest.mark.parametrize(
    "name, index, keep",
    [
        ("sign of a", 5, abs),  # z = -a dt / dx without its sign
        ("dt_factor", 5, lambda z: math.copysign(1.0, z)),  # z without its size
        ("tableau", 6, lambda coefficients: None),
        ("D's blocks", 2, lambda entries: None),
        ("D's offsets", 1, lambda offsets: None),
        ("D's offsets, radius", 1, lambda offsets: None),
    ],
)
def test_a_memo_key_that_drops_an_input_fails(monkeypatch, name, index, keep):
    """The check above fails for every input the memo's key could drop:
    after the first call of the pair, the second finds its entry and gets
    its answer, not its own."""
    monkeypatch.setattr(solver, "_memo_key", _dropping(index, keep))
    try:
        cold, other, warm = _memo_answers(*_memo_pairs()[name])
    finally:
        solver._MEMO.clear()
    assert warm == other != cold


def _rational(blocks):
    """Offset-to-block dict of ``Fraction`` 2x2 blocks (lists of rows)."""
    rows = {j: np.asarray(a).tolist() for j, a in blocks.items()}
    return {j: [[fractions.Fraction(x) for x in row] for row in a] for j, a in rows.items()}


def _rational_product(A, B):
    """``A B`` of two block-circulant operators in exact block algebra: the
    blocks at offsets ``i`` and ``j`` meet at ``i + j``; zero blocks dropped."""
    out = {}
    for i, a in A.items():
        for j, b in B.items():
            ab = [[sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2)] for r in range(2)]
            old = out.get(i + j, [[0, 0], [0, 0]])
            out[i + j] = [[old[r][c] + ab[r][c] for c in range(2)] for r in range(2)]
    return {j: a for j, a in out.items() if any(x != 0 for row in a for x in row)}


def test_the_weighted_squares_are_the_masses_exactly():
    """The forms the composed step measures with (``solver._energy_form``),
    in exact rational block algebra (``fractions``): the upwind mass at
    ``m_v = 1`` is ``dx W^T Lambda W``, ``Lambda = diag(1/4, 1/12)`` per
    cell, block for block, against the mass's exact coefficients (1/6,
    -1/2, 2/3 and 1), whose stored floats lie within a few roundings of
    them; the float ``W`` has exact integer entries and scale 1.  The
    central weights are the diagonal mass's entries, bit for bit, and the
    upwind weights ``dx (1/4, 1/12)``."""
    F = fractions.Fraction
    g = ops.build_grid(8)
    central, upwind = make_scheme(g, "central", 1.0), make_scheme(g, "upwind", 1.0)
    W, w = solver._energy_form(upwind)
    assert W.scale == 1.0 and w.tolist() == [g.dx * 0.25, g.dx * (1.0 / 12.0)]
    assert all(float(x).is_integer() for a in W.blocks.values() for x in a.ravel())
    root = _rational(W.blocks)
    assert root == _rational(solver._UPWIND_ROOT) == _rational(_UPWIND_ROOT)
    Lambda = {0: [[F(1, 4), 0], [0, F(1, 12)]]}
    transposed = {-j: [list(col) for col in zip(*a)] for j, a in root.items()}
    form = _rational_product(transposed, _rational_product(Lambda, root))
    exact = {
        -1: [[F(1, 6), F(-1, 2)], [0, 0]],
        0: [[F(2, 3), F(-1, 2)], [F(-1, 2), F(1)]],
        1: [[F(1, 6), 0], [F(-1, 2), 0]],
    }
    assert form == exact
    M = upwind.M_energy
    assert M.scale == g.dx and M.blocks.keys() == exact.keys()
    for j, a in _rational(M.blocks).items():
        for got, want in zip(sum(a, []), sum(exact[j], [])):
            assert abs(got - want) <= 2 * F(EPS) * abs(want)
    W, w = solver._energy_form(central)
    diagonal = central.M_energy.dense().diagonal()
    assert W is None and np.tile(w, g.n).tobytes() == diagonal.tobytes()
    assert np.count_nonzero(central.M_energy.dense()) == 2 * g.n


def _reference_gamma(u, u_next, stages, M, dt, d=None, uMu=None):
    """``relaxation_gamma`` from fresh arrays, written out on its own.
    ``d`` defaults to ``u_next - u``; a composed step passes its own.
    Gamma is 1 where ``d.Md <= (8 n eps)^2 u.Mu``, with ``u.Mu`` the
    energy a workspace measured, ``uMu``, or by default ``u.(M u)``."""
    if d is None:
        d = u_next - u
    Md = M @ d
    d2 = float(d @ Md)
    if uMu is None:
        uMu = float(u @ (M @ u))
    if d2 <= (4 * u.size * EPS) ** 2 * uMu:
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
    "variant, rk, initial, per_step",
    [
        ("central", "rk4x2", 0, 2),
        ("central", "rk4", 0, 2),
        ("upwind", "rk4x2", 1, 10),
        ("central", "ssprk33", 0, 4),
    ],
)
def test_relaxed_matvecs_per_step(monkeypatch, variant, rk, initial, per_step):
    """A composed step makes Q u and D (Q u), for any tableau, and its
    energy and gamma, weighted sums of the diagonal mass, make none.  A
    step that keeps the estimate (upwind, and the linearly unstable
    central ssprk33) makes its stages and M d stacked with every M f_i;
    its energy, weighted squares as a composed step's, makes the upwind
    root's W u and nothing for the diagonal mass, and so does the initial
    energy."""
    calls = []
    matvec = ops.BlockCirculantOp.matvec
    def counted(op, u, *args, **kwargs):
        calls.append(1)
        return matvec(op, u, *args, **kwargs)

    monkeypatch.setattr(ops.BlockCirculantOp, "matvec", counted)
    trace, _ = run_experiment(ExperimentConfig(variant=variant, rk=rk, n=16))
    steps = len(trace.times) - 1
    assert np.all(trace.gammas[1:] != 1.0)  # every step was relaxed
    assert len(calls) == initial + per_step * steps


@pytest.mark.parametrize("relaxation", [True, False], ids=["relaxed", "plain"])
@pytest.mark.parametrize(
    "variant, rk", [("central", "rk4x2"), ("upwind", "rk4x2"), ("central", "ssprk33")]
)
def test_time_loop_enters_each_traced_boundary_once_per_step(monkeypatch, variant, rk, relaxation):
    """``perfbench/tracer.py`` times a run by wrapping the module-level
    ``solver.rk_step`` and ``solver.relaxation_gamma``, ``Scheme.energy``
    and ``BlockCirculantOp.matvec``; a loop that went around them would
    zero its per-layer metrics without failing.  Per step: one ``rk_step``
    making the s stage products (two, ``Q u`` and ``D (Q u)``, for a
    composed step: unrelaxed, or relaxed central rk4x2), one
    ``relaxation_gamma`` (relaxed steps only) and one ``energy``, plus one
    energy at set-up, and every product is a ``matvec`` call.  A stage
    step's gamma makes one product with ``M``, and a composed step's one
    with the upwind root ``W``.  Either kind's energy makes one with ``W``,
    and none for the diagonal mass, whose weighted sums need no product."""
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
    composed = not relaxation or (variant, rk) == ("central", "rk4x2")
    mass = 0 if composed and variant == "central" else 1
    assert steps > 3
    assert collections.Counter(calls) == collections.Counter({
        ("rk_step", None): steps,
        ("matvec", "rk_step"): (2 if composed else resolve_method(rk).stages) * steps,
        ("relaxation_gamma", None): relaxed,
        ("matvec", "relaxation_gamma"): mass * relaxed,
        ("energy", None): steps + 1,
        ("matvec", "energy"): (variant == "upwind") * (steps + 1),
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


def _amplification_symbols(scheme, method, dt):
    """Per-mode step matrices ``P_k = R(Z_k)``, ``Z_k = -a dt B_k(D)``, for all
    n modes, by Horner's rule on the stacked 2x2 matrices, and the bound
    ``p(|Z_k|)`` of each: the oracle of the unrelaxed runs and of the
    half-mode radius."""
    Z = (-scheme.advection_speed * dt) * spectral._all_symbols(scheme.D_effective)
    znorm = np.abs(Z).sum(axis=2).max(axis=1)
    coeffs = solver._stability_coefficients(method)
    eye = np.eye(2)
    P, bound = np.broadcast_to(coeffs[-1] * eye, Z.shape), np.full_like(znorm, abs(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        P, bound = P @ Z + c * eye, bound * znorm + abs(c)
    return P, bound


def _all_mode_radius(scheme, method, dt):
    """The radius from every mode's step matrix and the tolerance ``16 s eps
    p(|z| max_k |B^_k|)``, ``B^_k`` the symbols of the unscaled stencil and
    ``z = -a dt / dx``, formed as the half-mode radius forms it: the
    decision the half-mode radius must reproduce."""
    P, _ = _amplification_symbols(scheme, method, dt)
    rho = float(np.abs(spectral._eig_pairs(P)).max())
    D = scheme.D_effective
    stencil = spectral._all_symbols(ops.BlockCirculantOp(D.n, D.dx, 1.0, D.blocks))
    znorm = abs(-scheme.advection_speed * dt * D.scale) * float(np.abs(stencil).sum(axis=2).max())
    bound = 0.0
    for c in reversed(solver._stability_coefficients(method)):
        bound = bound * znorm + abs(c)
    return rho, 16.0 * method.stages * EPS * bound


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
    P, _ = _amplification_symbols(s, method, dt_nominal)
    step = np.linalg.matrix_power(P, full)
    if config.t_end - t > 1e-9 * dt_nominal:  # the clipped last step
        step = _amplification_symbols(s, method, config.t_end - t)[0] @ step
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


@pytest.mark.parametrize("a", [1.0, -1.0, 2.5])
@pytest.mark.parametrize("dt_factor", [0.25, 0.5])
@pytest.mark.parametrize("rk", ["rk4", "ssprk33", "rk4x2"])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 64])
def test_half_mode_radius_agrees_with_the_dense_step_matrix(n, variant, rk, dt_factor, a):
    """The spectral radius of the dense one-step matrix ``R(-a dt D)``,
    from LAPACK, is the half-mode radius within its tolerance."""
    g = ops.build_grid(n)
    scheme, method = make_scheme(g, variant, a), resolve_method(rk)
    dt = dt_factor * g.dx
    rho, tol = solver._amplification_radius(scheme, method, dt)
    Z = (-a * dt) * scheme.D_effective.dense()
    P = np.zeros_like(Z)
    for c in reversed(solver._stability_coefficients(method)):
        P = P @ Z + c * np.eye(2 * n)
    assert abs(rho - np.abs(np.linalg.eigvals(P)).max()) <= tol


@pytest.mark.parametrize("a", [1.0, -1.0])
@pytest.mark.parametrize("dt_factor", [0.25, 0.5])
@pytest.mark.parametrize("n", [16, 24, 32, 48, 64, 96, 128, 1200])
def test_half_mode_radius_keeps_the_all_mode_skip_decision(n, dt_factor, a):
    """For every (variant, tableau) the benchmark mixes, ``rho <= 1 + tol``
    reads the same from the half modes as from every mode's matrix."""
    g = ops.build_grid(n)
    for variant, rk in [("central", "rk4x2"), ("central", "rk4"), ("central", "ssprk33"),
                        ("upwind", "rk4x2")]:
        scheme, method = make_scheme(g, variant, a), resolve_method(rk)
        rho, tol = solver._amplification_radius(scheme, method, dt_factor * g.dx)
        want_rho, want_tol = _all_mode_radius(scheme, method, dt_factor * g.dx)
        assert (rho <= 1.0 + tol) == (want_rho <= 1.0 + want_tol)
        assert abs(rho - want_rho) <= tol and tol == want_tol


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


#: b equals the last row of A, so the update has stage 3's terms; it sums
#: them again, into an array of its own.
_UPDATE_IS_A_STAGE = RKMethod(
    name="update-is-a-stage",
    a=((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.75, 0.0)),
    b=(0.25, 0.75, 0.0),
    c=(0.0, 0.5, 1.0),
)

#: Stage 2 has no term, so its state is a copy of u.
_A_STAGE_IS_U = RKMethod(
    name="a-stage-is-u",
    a=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.0)),
    b=(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    c=(0.0, 0.0, 1.0),
)


def _folds_of(ws):
    """A stage workspace's flat call list split into its folds: the calls
    before each stage's matvec, and the update's after the last, leaving
    out the matvecs and the multiplies of a derivative by the right-hand
    side's factor; and the state each matvec reads."""
    folds, states, fold = [], [], []
    for function, args in ws.calls:
        if getattr(function, "__name__", None) == "matvec":
            folds.append(fold)
            states.append(args[0])
            fold = []
        elif not (function is np.multiply and args[0] is args[2]):
            fold.append((function, args))
    return [*folds, fold], states


@pytest.mark.parametrize(
    "method, calls",
    [(RK4, 8), (SSPRK33, 6), (RK4X2, 16), (_SHARED_PREFIXES, 11), (_UPDATE_IS_A_STAGE, 6),
     (_A_STAGE_IS_U, 5)],
    ids=lambda m: getattr(m, "name", None),
)
def test_shared_prefixes_are_summed_once(method, calls):
    """numpy calls of one step's folds: one multiply and one add per lone
    term, one multiply per run of consecutive products and one reduction
    per other fold.  rk4x2 sums its first half step once: stages 6-8
    continue from it, and the update multiplies its eight terms in one
    call.  _SHARED_PREFIXES continues stage 4 and the update from stage 3's
    and stage 4's states; its stage 5 multiplies two runs.
    _UPDATE_IS_A_STAGE sums the update's two terms again, and _A_STAGE_IS_U
    reduces row 0 alone, a copy of u, into its second stage."""
    g = ops.build_grid(16)
    ws = solver._StageStep(make_scheme(g, "central", 1.0), method, np.zeros(2 * g.n))
    assert type(ws) is solver._StageStep
    assert sum(len(fold) for fold in _folds_of(ws)[0]) == calls


@pytest.mark.parametrize("n", [3, 17, 1200])
@pytest.mark.parametrize("variant, a", [("central", 1.0), ("upwind", -1.0), ("central", 0.7)])
@pytest.mark.parametrize(
    "method",
    [RK4, SSPRK33, RK4X2, _SHARED_PREFIXES, _UPDATE_IS_A_STAGE, _A_STAGE_IS_U],
    ids=lambda m: m.name,
)
def test_rk_step_is_bit_identical_to_the_naive_folds(method, variant, a, n):
    """The stacked folds (one multiply per run of products, one reduction
    over up to nine rows for rk4x2's update) and the single-term folds
    give the bits of folding every term into a copy of u, one at a time,
    with and without a workspace."""
    g = ops.build_grid(n)
    scheme = make_scheme(g, variant, a)
    rng = np.random.default_rng(n)
    real = rng.normal(size=2 * g.n)
    ws = solver._StageStep(scheme, method, real)
    for u, workspace in ((real, None), (real + 1j * rng.normal(size=2 * g.n), None), (ws.u, ws)):
        before = u.copy()
        if workspace is None:
            u.setflags(write=False)  # an in-place write to u would raise
        u_next, stages = rk_step(scheme, method, u, 0.37 * g.dx, workspace)
        want_next, want_stages = _reference_rk_step(scheme, method, u, 0.37 * g.dx)
        assert u.tobytes() == before.tobytes()
        assert u_next.dtype == want_next.dtype
        assert u_next.tobytes() == want_next.tobytes()
        assert len(stages) == len(want_stages)
        for got, want in zip(stages, want_stages):
            assert got.b == want.b
            assert got.y.tobytes() == want.y.tobytes()
            assert got.f.tobytes() == want.f.tobytes()


def _chain(s):
    """An s-stage tableau, each stage half a step from the one before."""
    a = tuple(tuple(0.5 if j == i - 1 else 0.0 for j in range(s)) for i in range(s))
    return RKMethod(f"chain{s}", a, (1.0 / s,) * s, (0.0,) + (0.5,) * (s - 1))


@pytest.mark.parametrize(
    "method",
    [RK4, SSPRK33, RK4X2, _SHARED_PREFIXES, _UPDATE_IS_A_STAGE, _A_STAGE_IS_U, _chain(32)],
    ids=lambda m: m.name,
)
def test_every_fold_is_an_axpy_or_a_reduction_into_its_own_array(method):
    """The planner has two kinds: one ``axpy`` from an earlier fold that
    has all its terms but the last, or ``mul`` calls and one ``sum``.  Each
    fold's last call writes its own array (stage i's state, or the update),
    no two of them share memory, and the update is none of the stage
    states."""
    _, plan = method._folds
    assert len(plan) == method.stages
    for fold in plan:
        kinds = [call[0] for call in fold]
        assert kinds == ["axpy"] or (set(kinds[:-1]) <= {"mul"} and kinds[-1] == "sum")
    g = ops.build_grid(16)
    ws = solver._StageStep(make_scheme(g, "upwind", 1.0), method, np.zeros(2 * g.n))
    folds, states = _folds_of(ws)
    assert len(folds) == method.stages + 1 and not folds[0] and states[0] is ws.u
    outputs = [ws.u, *states[1:], ws.update]
    for i, calls in enumerate(folds[1:], 1):
        function, args = calls[-1]
        assert args[2 if function is np.add else 3] is outputs[i]
    for i, x in enumerate(outputs):
        assert not any(np.shares_memory(x, y) for y in outputs[i + 1 :])
    assert not any(np.shares_memory(ws.update, st.y) for st in ws.stages)


@pytest.mark.parametrize("stages", [2, 4, 10])
@pytest.mark.parametrize("n", [16, 1200, 8200])
def test_batched_stage_dots_are_the_per_row_dots(n, stages):
    """The workspace's batched ``matmul`` of ``(rows, 1, 2n)`` by ``(rows,
    2n, 1)`` gives each row the bits of ``float(y @ f)`` at 2n = 32, 2400
    and 16400, for stacks of 1, 3 and 9 rows (stages 2..s)."""
    g = ops.build_grid(n)
    rng = np.random.default_rng(n + stages)
    ws = solver._StageStep(make_scheme(g, "upwind", 1.0), _chain(stages), np.zeros(2 * n))
    left, right, out = ws.dots
    assert out.shape == (stages - 1, 1, 1)
    ws.Y[...] = rng.normal(size=ws.Y.shape)
    ws.Mkd[...] = rng.normal(size=ws.Mkd.shape)
    got = np.matmul(left, right, out).ravel().tolist()
    want = [float(y @ f) for y, f in zip(ws.Y, ws.Mkd[1:stages], strict=True)]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128], ids=["int", "real", "complex"])
@pytest.mark.parametrize("duck", [False, True], ids=["scheme", "duck-typed"])
@pytest.mark.parametrize(
    "method",
    [RK4, SSPRK33, RK4X2, _chain(32), _UPDATE_IS_A_STAGE, _A_STAGE_IS_U, _SHARED_PREFIXES],
    ids=lambda m: m.name,
)
def test_one_shot_rk_step_is_the_plain_stage_loop(method, duck, dtype):
    """Without a workspace a step needs only ``scheme.rhs``, which may
    return any array-like; the first stage state is ``u`` itself, every
    other returned array is new, of ``u``'s dtype promoted to float, and
    ``u`` is not written.  An integer state steps as its float copy does,
    and a duck-typed scheme as the scheme whose ``rhs`` it returns as a
    list, bit for bit."""
    g = ops.build_grid(17)
    scheme = make_scheme(g, "upwind", -1.0)
    rng = np.random.default_rng(17)
    u = rng.integers(-50, 50, size=2 * g.n).astype(dtype)
    if dtype is np.complex128:
        u += 1j * rng.integers(-50, 50, size=2 * g.n)
    u.setflags(write=False)  # an in-place write to u would raise
    promoted = np.promote_types(dtype, float)
    stepped = types.SimpleNamespace(rhs=lambda y: scheme.rhs(y).tolist()) if duck else scheme
    u_next, stages = rk_step(stepped, method, u, 0.37 * g.dx)
    assert stages[0].y is u and len(stages) == method.stages
    arrays = [u_next, *(st.y for st in stages[1:]), *(st.f for st in stages)]
    for i, x in enumerate(arrays):
        assert type(x) is np.ndarray and x.dtype == promoted and x.flags.writeable
        assert not np.shares_memory(x, u)
        assert not any(np.shares_memory(x, y) for y in arrays[i + 1 :])
    want_next, want_stages = rk_step(scheme, method, u.astype(promoted), 0.37 * g.dx)
    assert u_next.tobytes() == want_next.tobytes()
    for got, want in zip(stages, want_stages, strict=True):
        assert got.b == want.b
        assert got.y.astype(promoted).tobytes() == want.y.tobytes()
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


def _composes(config):
    """Whether ``run_experiment`` composes the steps of ``config``'s run:
    unrelaxed runs, and relaxed ones whose stage estimate vanishes (``M D +
    D^T M = 0``) at a linearly stable step."""
    if not config.relaxation:
        return True
    g = ops.build_grid(config.n, config.x_min, config.x_max)
    s = make_scheme(g, config.variant, config.advection_speed)
    if not solver._estimate_vanishes(s):
        return False
    rho, tol = solver._amplification_radius(s, resolve_method(config.rk), config.dt_factor * g.dx)
    return rho <= 1.0 + tol


def _banded_matvec(op, u):
    """``op u`` into a new array through a fresh banded binding, on
    ghost-celled copies with the fewest ghost cells the band allows."""
    before, after = ops._ghost_cells(*op._band[:2])
    x, y = np.zeros(2 * (before + op.n + after)), np.zeros(2 * (before + op.n + after))
    ring = slice(2 * before, 2 * (before + op.n))
    x[ring] = u
    return op.matvec(x, y, op.bind_banded(x, y, before))[ring].copy()


class _Mass:
    """The stage path's energy, the weighted squares of a composed run
    (:class:`_WeightedSquares`), and its ``d.(M d)`` and gamma
    (:func:`_reference_gamma`, cut off against that energy), from new
    arrays."""

    def __init__(self, scheme):
        self.M, self.energy = scheme.M_energy, _WeightedSquares(scheme).energy

    def norm2(self, d):
        return float(d @ (self.M @ d))

    def gamma(self, u, u_next, stages, dt, d):
        return _reference_gamma(u, u_next, stages, self.M, dt, d, self.energy(u))


#: The upwind mass's root: ``M_+ = dx W^T diag(1/4, 1/12) W`` per cell.
_UPWIND_ROOT = {0: [[-1.0, 2.0], [-1.0, 0.0]], 1: [[-1.0, 0.0], [1.0, 0.0]]}


class _WeightedSquares:
    """A composed run's energy, ``d.Md`` and gamma, from new arrays: the
    mass as weighted squares ``(w o W x) . W x``, with ``W`` the identity
    and ``w = dx (1/4, 3/4)`` for the diagonal mass, and ``W`` the
    upwind root through a fresh banded binding (:func:`_banded_matvec`)
    and ``w = dx (1/4, 1/12)`` for the upwind one; ``w`` tiled over the
    ring.  Gamma reads ``w o W d`` against ``W d`` and ``W u``, with ``e =
    0``."""

    def __init__(self, scheme):
        g, central = scheme.grid, scheme.variant == "central"
        self.W = None if central else ops.BlockCirculantOp(g.n, g.dx, 1.0, _UPWIND_ROOT)
        self.w = np.tile(np.multiply(g.dx, (0.25, 0.75) if central else (0.25, 1.0 / 12.0)), g.n)

    def root(self, x):
        return x if self.W is None else _banded_matvec(self.W, x)

    def energy(self, u):
        Wu = self.root(u)
        return float((self.w * Wu) @ Wu)

    def norm2(self, d):
        Wd = self.root(d)
        return float(Wd @ (self.w * Wd))

    def gamma(self, u, u_next, stages, dt, d):
        assert not stages
        Wd = self.root(d)
        wWd = self.w * Wd
        d2 = float(Wd @ wWd)
        if d2 <= (4 * u.size * EPS) ** 2 * self.energy(u):
            return 1.0
        return (0.0 - 2.0 * float(wWd @ self.root(u))) / d2


def _one_shot_composed_step(scheme, method):
    """The composed step from fresh arrays: ``d = D^ (Q u)`` in two
    matvecs, each through a fresh banded binding, ``Q`` built through the
    operator's constructor (:func:`oracles.composed_factor`) whenever
    ``dt`` changes and ``D^`` the derivative with scale 1; returns ``u +
    d`` and ``d``."""
    D = scheme.D_effective
    stencil = ops.BlockCirculantOp(D.n, D.dx, 1.0, D.blocks)
    factors = {}

    def step(s, m, u, dt):
        if dt not in factors:
            factors.clear()
            factors[dt] = composed_factor(s, m, dt)
        d = _banded_matvec(stencil, _banded_matvec(factors[dt], u))
        return u + d, d

    return step


def _fresh_array_run(config, step=rk_step, d_from="difference", d_error=0.0):
    """The time loop of ``run_experiment`` with no workspace: every step,
    gamma and energy makes new arrays.  Returns the trace, the final state
    and the run's gamma slack in time and in the state (see below).  Raises
    what the run raises.

    ``d_from`` says how a step forms its difference ``d``:

    - ``"difference"``: ``step`` (``rk_step`` or a stand-in) gives the
      update and ``d = u_next - u``, the stage path's own loop;
    - ``"stages"``: the same stage loop, with ``d = sum_j (dt b_j) k_j``
      from its stage data;
    - ``"composed"``: the composed step from fresh banded bindings
      (:func:`_one_shot_composed_step`), whose ``d`` is ``D (Q u)``, and
      its energy and gamma as weighted squares (:class:`_WeightedSquares`).

    The gamma slack bounds how far rounding moves ``t`` and ``u``: each
    relaxed step adds ``gamma dt`` and ``gamma d``, and ``gamma = -2 u.Md /
    d.Md`` (``e = 0``) rounds by at most ``4 n eps |u|_M / |d|_M`` plus a
    few eps, since each dot product of 2n terms rounds by at most ``2n eps
    sum_i |u_i| |Md_i|`` (Higham, Thm. 3.1) and that sum is at most ``|u|_M
    |d|_M`` for a diagonal ``M`` (Cauchy-Schwarz).  An error ``delta`` in
    ``d`` moves gamma by at most ``2 (|u|_M + gamma |d|_M) |delta|_M /
    |d|_M^2`` to first order, and ``|delta|_M <= sqrt(1^T M 1) |delta|``,
    with ``d_error`` times ``|u|`` the bound on ``|delta|`` in the max
    norm.  The slack
    sums both moves of gamma, times ``dt`` and times ``|d|`` in the max
    norm, over the relaxed steps of a run that skips the estimate."""
    g = ops.build_grid(config.n, config.x_min, config.x_max)
    s = make_scheme(g, config.variant, config.advection_speed)
    method = resolve_method(config.rk)
    u = project_initial(g, config.initial or solver.default_initial)
    dt_nominal = config.dt_factor * g.dx
    skip = False
    if config.relaxation and solver._estimate_vanishes(s):
        rho, tol = solver._amplification_radius(s, method, dt_nominal)
        skip = rho <= 1.0 + tol
    mass = _Mass(s)
    if d_from == "composed":
        step, mass = _one_shot_composed_step(s, method), _WeightedSquares(s)
    energy = mass.energy
    e0 = energy(u)
    times, energies, gammas, t, slack, u_slack = [0.0], [e0], [1.0], 0.0, 0.0, 0.0
    measure = math.sqrt(g.x_max - g.x_min)  # sqrt(1^T M 1) of the diagonal mass
    while config.t_end - t > 1e-9 * dt_nominal:
        dt = min(dt_nominal, config.t_end - t)
        if d_from == "composed":
            (u_next, d), stages = step(s, method, u, dt), ()
        else:
            u_next, stages = step(s, method, u, dt)
            d = u_next - u
            if d_from == "stages":
                terms = [(dt * st.b) * st.f for st in stages if st.b != 0.0]
                d = functools.reduce(operator.add, terms)
        gamma = 1.0
        if config.relaxation and dt > 1e-4 * dt_nominal:
            gamma = mass.gamma(u, u_next, () if skip else stages, dt, d)
            if not gamma > 0.0:
                raise EnergyBlowUpError(
                    f"relaxation parameter is not positive ({gamma:.3g}) at "
                    f"t = {t:.6g}; the step is likely outside the RK stability region"
                )
            d2 = mass.norm2(d)
            if skip and d2 > (4 * u.size * EPS) ** 2 * energy(u):  # gamma is 1 below it
                norm_u, norm_d = math.sqrt(energy(u)), math.sqrt(d2)
                moved = 4 * config.n * EPS * norm_u / norm_d
                moved += 2 * (norm_u + gamma * norm_d) * measure * d_error * np.abs(u).max() / d2
                slack += moved * dt
                u_slack += moved * float(np.abs(d).max())
            u, t = u + gamma * d, t + gamma * dt
        else:
            u, t = u_next, t + dt
        e = energy(u)
        times.append(t)
        energies.append(e)
        gammas.append(gamma)
        if not math.isfinite(e) or e > 1e3 * max(e0, 1e-300):
            why = f"exceeded 1e3 x initial {e0:.6g}" if math.isfinite(e) else "is not finite"
            raise EnergyBlowUpError(f"energy {e:.6g} {why} at t = {t:.6g}")
    return EnergyTrace(np.array(times), np.array(energies), np.array(gammas)), u, (slack, u_slack)


@pytest.mark.parametrize(
    "n, t_end", [(3, 1.0), (4, 1.0), (16, 1.0), (16, 2 * math.pi), (8193, 0.01), (8200, 0.01)]
)
@pytest.mark.parametrize("a", [1.0, -1.0, 2.5, 0.5, -2.0, 0.7, 1e-3])
@pytest.mark.parametrize("relaxation", [True, False], ids=["relaxed", "plain"])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize("rk", ["rk4", "ssprk33", "rk4x2"])
def test_run_is_bit_identical_to_the_fresh_array_loop(rk, variant, relaxation, a, n, t_end):
    """Every t_end here ends on a clipped step, but a relaxed composed run
    where 2 pi is a whole number of nominal steps may take its last step in
    full, its gamma within rounding of 1.  A pair that blows up (unstable
    by design, or at the CFL numbers 1 and 1.25 of a = -2 and 2.5) must
    blow up at the same step with the same message.
    At a = +-1 the right-hand side makes one scaling pass, elsewhere two.
    Composed runs are checked as :func:`_assert_run_matches_the_fresh_array_loop`
    says."""
    config = ExperimentConfig(
        variant=variant, rk=rk, relaxation=relaxation, advection_speed=a, n=n, t_end=t_end
    )
    _assert_run_matches_the_fresh_array_loop(config)


@pytest.mark.parametrize("relaxation", [True, False], ids=["relaxed", "plain"])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize(
    "method",
    [_SHARED_PREFIXES, _UPDATE_IS_A_STAGE, _A_STAGE_IS_U, _chain(32)],
    ids=lambda m: m.name,
)
def test_custom_tableau_run_is_bit_identical_to_the_fresh_array_loop(method, variant, relaxation):
    """The update may have the terms of another fold: it sums them again,
    into its own array.  A 32-stage tableau composes with stencil powers
    that round, from power 27 (upwind) or 29 (central) on."""
    if method is _UPDATE_IS_A_STAGE:
        # the update multiplies its two terms and reduces them from u
        assert _UPDATE_IS_A_STAGE._folds[1][-1] == (("mul", 3, 0, 2, 1), ("sum", 2))
    config = ExperimentConfig(
        variant=variant, rk=method, relaxation=relaxation, n=16, t_end=0.5, dt_factor=0.1
    )
    _assert_run_matches_the_fresh_array_loop(config)


def _step_rounding(scheme, method, dt):
    """The longest chains of roundings in one composed and one stage step
    of size ``dt``, and the step's majorant ``p(x)``; see
    :func:`_assert_run_matches_the_fresh_array_loop` for the argument."""
    s, D = method.stages, scheme.D_effective
    span_q = min(len(solver._stencil_powers(D, s)[0]), D.n)  # Q's widest band
    composed = 2 * s + 2 + 2 * span_q + 2 * D._band[1] + 5 * (s - 1)
    stage = s * (s + 9) + 2 * (s + 3)
    stencil = ops.BlockCirculantOp(D.n, D.dx, 1.0, D.blocks)
    x = abs(scheme.advection_speed * dt * D.scale) * stencil.norm_inf()
    A, b = np.abs(np.array(method.a)), np.abs(np.array(method.b))
    v, p, xj = np.ones(s), 1.0, 1.0
    for _ in range(s):
        xj *= x
        p += float(b @ v) * xj
        v = A @ v
    return composed, stage, p


def _assert_run_has_the_oracle_bits(config, step=rk_step, d_error=0.0):
    """``run_experiment(config)`` has the bits of the fresh-array loop
    (:func:`_fresh_array_run`): the composed one, with ``Q`` from the
    operator's constructor and fresh bindings, if the run composes, else
    the stage loop of ``step``.  Returns the run's trace and state and the
    oracle's gamma slack, or None for a run that raises the oracle's
    :class:`EnergyBlowUpError`, with its message."""
    try:
        want_trace, want_u, want_slack = _fresh_array_run(
            config, step, "composed" if _composes(config) else "difference", d_error
        )
    except EnergyBlowUpError as exc:
        with pytest.raises(EnergyBlowUpError) as got:
            run_experiment(config)
        assert str(got.value) == str(exc)
        return None
    trace, u = run_experiment(config)
    assert u.tobytes() == want_u.tobytes()
    for name in ("times", "energies", "gammas"):
        assert getattr(trace, name).tobytes() == getattr(want_trace, name).tobytes()
    return trace, u, want_slack


def test_clipped_steps_of_new_sizes_have_the_oracle_bits():
    """Runs one after another in one process, each ending on a clipped
    step of a size no run before it took: relaxed central ``rk4x2`` and
    ``rk4`` and unrelaxed upwind ``rk4x2`` compose, and each clipped step
    re-weighs ``Q`` in place, with the bits of ``Q`` built for it."""
    runs = (("central", "rk4x2", True), ("central", "rk4", True), ("upwind", "rk4x2", False))
    for k in range(4):
        for variant, rk, relaxation in runs:
            config = ExperimentConfig(
                variant=variant, rk=rk, relaxation=relaxation, n=24, t_end=1.0 + 0.0137 * k, dt_factor=0.4
            )
            assert _composes(config)
            trace, _, _ = _assert_run_has_the_oracle_bits(config)
            assert trace.times[-1] - trace.times[-2] < 0.99 * 0.4 * 2 * math.pi / 24


def _assert_run_matches_the_fresh_array_loop(config, step=rk_step):
    """A run on the stage path has the bits of the fresh-array loop of
    ``step``.  A composed run has the bits of the fresh-array composed loop
    (fresh banded ``Q``, ``D`` and ``M`` bindings), and lies within the
    rounding bound below of the stage loop of ``step``, in the max norm of
    its state and in its end time.  That stage loop forms ``d = sum_j (dt
    b_j) k_j``: its ``u_next - u`` cancels to an error of eps |u|, which
    moves gamma by about ``eps |u|^2 / |d|^2``, far past rounding for small
    steps (measured 4.6e6 steps eps from an 80-bit loop at n = 8193, a =
    1e-3, where the composed run is within 0.3 steps eps).

    The per-step bound.  Both loops evaluate ``R(Z) u = u + sum_(j >= 1)
    c_j Z^j u`` with ``Z = -a dt D`` by sums and products, each rounding by
    a factor ``(1 + delta)``, ``|delta| <= eps/2``, plus, in the subnormal
    range, an absolute error of at most half the smallest subnormal
    (Higham 2002, Sec. 2.2).  Expanded, every term of the computed result
    is its exact term times at most ``L`` such factors, ``L`` the longest
    chain of roundings from ``u`` to the result, so the result lies within
    ``gamma_L <= L eps`` (for ``L eps <= 1``) of the exact step, relative
    to the same expansion in absolute values: ``sum_j cbar_j |Z|^j |u|``,
    with ``cbar_j = |b|^T |A|^(j-1) 1`` and ``cbar_0 = 1``, whose max norm
    is at most ``p(x) |u|`` for ``p(x) = sum_j cbar_j x^j`` and ``x = |a
    dt / dx| |D^|_inf``, ``D^`` the unscaled stencil (:func:`_step_rounding`).
    The chains:

    - composed: ``z^j`` (up to ``s - 1`` multiplies), its weight and its
      product with the stencil power (2), the sum over ``s`` powers (``s
      - 1``) and ``z`` (1), a stencil power that rounds (up to ``5 (s -
      1)``: a 2x2 product and three block sums per power), ``Q u`` and
      ``D^ q`` (dots of ``2 B`` terms each, ``B`` the band's span), and
      ``u + d`` (1);
    - stage: per stage, ``dt a_ij`` and its product (2), the fold's adds
      (up to ``s - 1``) and the right-hand side (a 2x2 product, three
      block sums, the scale and ``-a``: 7), so ``s + 9`` per stage; then
      the update, and the loop's ``d`` and ``u + gamma d`` (``2 (s + 3)``).

    So the two loops part by at most ``(L_c + L_s) p(x) (eps |u| +
    smallest subnormal)`` per step, with ``|u|`` the largest max norm of
    the initial and both final states.  A step with ``rho > 1`` amplifies
    the rounding of the steps before it, by ``rho^steps`` at most.  Relaxed
    steps add gamma's rounding, and the move of gamma by ``d``'s error
    (``L p(x) eps |u|`` per loop), which each loop's gamma slack bounds in
    the state and in the end time (:func:`_fresh_array_run`); with it the
    runs may also end a dropped remainder apart, one micro-step more or
    less.  This is a worst case, not a fit: one ``rk4x2`` step from the 20
    random states of
    :func:`test_one_step_lies_within_its_rounding_bound_of_the_80_bit_step`
    (n = 3-16, a = -2) lands at most 16.6 eps |u| (composed) and 2.9 eps
    |u| (stages) from the 80-bit step, against chain bounds of 7.9e4 to
    1.1e6 and 1.9e5 to 2.1e6 eps |u|; the old bound, ``max(1, 2 |a| dt /
    dx) 4 eps |u|`` per step, was one state's reading and fails there.

    A run that blows up raises the fresh-array loop's error, and a composed
    one blows up where the stage loop does too."""
    composed = _composes(config)
    g = ops.build_grid(config.n, config.x_min, config.x_max)
    scheme, method = make_scheme(g, config.variant, config.advection_speed), resolve_method(config.rk)
    dt_nominal = config.dt_factor * g.dx
    chain_c, chain_s, majorant = _step_rounding(scheme, method, dt_nominal)
    got = _assert_run_has_the_oracle_bits(config, step, chain_c * majorant * EPS)
    if got is None:
        if composed:
            with pytest.raises(EnergyBlowUpError):
                _fresh_array_run(config, step, "stages")
        return
    trace, u, want_slack = got
    # the last step is clipped; a relaxed composed run whose t_end is a whole
    # number of nominal steps may take it in full, its gammas within rounding
    # of 1 (n = 16, t_end = 2 pi, a = 1e-3)
    landing = composed and config.relaxation and (config.t_end / dt_nominal).is_integer()
    assert config.t_end - trace.times[-2] < dt_nominal + (want_slack[0] if landing else 0.0)
    if composed:
        stage_trace, stage_u, stage_slack = _fresh_array_run(
            config, step, "stages", chain_s * majorant * EPS
        )
        steps = max(len(trace.times), len(stage_trace.times)) - 1
        rho, _ = solver._amplification_radius(scheme, method, dt_nominal)
        u0 = project_initial(g, config.initial or solver.default_initial)
        size = max(np.abs(x).max() for x in (u0, u, stage_u))
        per_step = (chain_c + chain_s) * majorant * (EPS * size + np.finfo(float).smallest_subnormal)
        slack = [w + s for w, s in zip(want_slack, stage_slack)]
        assert np.abs(u - stage_u).max() <= steps * per_step * max(1.0, rho) ** steps + slack[1]
        assert abs(trace.times[-1] - stage_trace.times[-1]) <= 4 * steps * EPS * config.t_end + slack[0]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("seed", range(20))
def test_one_step_lies_within_its_rounding_bound_of_the_80_bit_step(seed):
    """One unrelaxed ``rk4x2`` step of dt = dx/2 at a = -2 (``|a| dt / dx =
    1``, CFL 1) from a seeded random normal state at n = 3-16: the composed
    step and the stage loop each lie within their own chain's share of the
    bound of :func:`_assert_run_matches_the_fresh_array_loop`, ``L p(x) eps
    |u|``, of the 80-bit stage step from the same float64 state."""
    n = 3 + seed % 14
    g = ops.build_grid(n)
    scheme = make_scheme(g, "central" if seed % 2 else "upwind", -2.0)
    dt = 0.5 * g.dx
    u = np.random.default_rng(seed).normal(size=2 * n)
    chain_c, chain_s, majorant = _step_rounding(scheme, RK4X2, dt)
    want = u.astype(_LONG) + _long_double_difference(scheme, RK4X2, u, dt)
    composed, _ = _one_shot_composed_step(scheme, RK4X2)(scheme, RK4X2, u, dt)
    stages, _ = rk_step(scheme, RK4X2, u, dt)
    size = EPS * float(np.abs(u).max())
    for got, chain in ((composed, chain_c), (stages, chain_s)):
        assert float(np.abs(got - want).max()) <= chain * majorant * size


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
    """The state is row 0 of the stage workspace's product stack, whose rows
    are the rings of the ghost-celled ``ghosted``, the update and the stage
    states other than u are its arrays (the stage states rows of ``Y``),
    the stage derivatives rows of ``kd``; the bits are those of the plain
    stage loop, and the energy's those of the weighted squares."""
    g = ops.build_grid(17)
    s = make_scheme(g, "upwind", -1.0)
    ws = solver._StageStep(s, method, project_initial(g, solver.default_initial))
    u = ws.u
    assert type(ws) is solver._StageStep
    assert u.base is ws.stack.base is ws.ghosted and u.ctypes.data == ws.stack.ctypes.data
    u1, stages = rk_step(s, method, u, 0.3 * g.dx, ws)
    want, want_stages = rk_step(s, method, u, 0.3 * g.dx)
    assert u1.tobytes() == want.tobytes()
    assert u1 is ws.update and stages is ws.stages
    assert stages[0].y is u
    for st, row, want_st in zip(stages, ws.kd, want_stages):
        assert st.f.base is ws.kd and st.f.ctypes.data == row.ctypes.data
        assert st.y is u or st.y.base is ws.Y
        assert (st.y.tobytes(), st.f.tobytes()) == (want_st.y.tobytes(), want_st.f.tobytes())
    M = s.M_energy
    assert s.energy(u, ws) == _WeightedSquares(s).energy(u.copy())  # gamma's cut-off reads it
    gamma = relaxation_gamma(u, u1, stages, M, 0.3 * g.dx, workspace=ws)
    assert gamma == relaxation_gamma(u, want, want_stages, M, 0.3 * g.dx)
    assert gamma == _reference_gamma(u, want, want_stages, M, 0.3 * g.dx, uMu=ws.uMu)
    with pytest.raises(ValueError, match="its own step's stage list"):
        relaxation_gamma(u, u1, (), M, 0.3 * g.dx, workspace=ws)  # only composed steps skip it
    with pytest.raises(ValueError, match="its own state"):
        relaxation_gamma(u.copy(), u1, stages, M, 0.3 * g.dx, workspace=ws)


@pytest.mark.parametrize("method", [RK4, SSPRK33, RK4X2], ids=lambda m: m.name)
def test_a_workspace_refuses_what_it_was_not_allocated_for(method):
    """A workspace steps only its own state, scheme and method, takes only
    its own stage list and mass operator, and measures only its own state."""
    g = ops.build_grid(17)
    s = make_scheme(g, "upwind", -1.0)
    u0 = project_initial(g, solver.default_initial)
    ws = solver._StageStep(s, method, u0)
    u = ws.u
    with pytest.raises(ValueError, match="allocated for another"):
        rk_step(s, method, u0, 0.3 * g.dx, ws)  # the values it started from
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
    with pytest.raises(ValueError, match="measures only its own state"):
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


@pytest.mark.parametrize("n", [3, 17, 1200])
@pytest.mark.parametrize("variant, a", [("central", 1.0), ("upwind", -1.0), ("central", 0.7)])
@pytest.mark.parametrize(
    "method",
    [RK4, SSPRK33, RK4X2, _SHARED_PREFIXES, _UPDATE_IS_A_STAGE, _A_STAGE_IS_U, _chain(32)],
    ids=lambda m: m.name,
)
def test_rk_step_replays_its_program_on_new_values_and_time_steps(method, variant, a, n):
    """A stage workspace reads the bound operand's values of each call and
    forms ``dt c`` again when dt changes; each call gives the bits of the
    one-shot path: update, stage data and gamma, and the energy has those
    of the weighted squares from new arrays (:class:`_WeightedSquares`)."""
    g = ops.build_grid(n)
    s = make_scheme(g, variant, a)
    ws = solver._StageStep(s, method, project_initial(g, solver.default_initial))
    u = ws.u
    assert type(ws) is solver._StageStep
    for i, dt in enumerate((0.3, 0.3, 0.1, 0.1, 0.3)):
        if i % 2:
            u += 0.125 * np.sin(u)
        assert s.energy(u, ws) == _WeightedSquares(s).energy(u.copy()) == ws.uMu
        u_next, stages = rk_step(s, method, u, dt * g.dx, ws)
        want, want_stages = rk_step(s, method, u.copy(), dt * g.dx)
        assert stages is ws.stages and stages[0].y is u
        assert u_next.tobytes() == want.tobytes()
        for st, want_st in zip(stages, want_stages, strict=True):
            assert st.b == want_st.b
            assert (st.y.tobytes(), st.f.tobytes()) == (want_st.y.tobytes(), want_st.f.tobytes())
        gamma = relaxation_gamma(u, u_next, stages, s.M_energy, dt * g.dx, workspace=ws)
        assert gamma == relaxation_gamma(u, want, want_stages, s.M_energy, dt * g.dx)
        assert gamma == _reference_gamma(u, want, want_stages, s.M_energy, dt * g.dx, uMu=ws.uMu)


def test_workspace_binds_its_step_and_mass_matvecs():
    g = ops.build_grid(16)
    s = make_scheme(g, "central", 1.0)
    u0 = project_initial(g, solver.default_initial)
    ws = solver._StageStep(s, RK4X2, u0)
    u = ws.u  # the workspace's own state, a copy of u0
    assert type(ws) is solver._StageStep
    assert u is not u0 and u.tobytes() == u0.tobytes()
    assert ws.M_kd.u is ws.kd and ws.M_kd.out is ws.Mkd
    assert not any(hasattr(ws, name) for name in ("M_u", "Mu", "M_d"))  # M d is a row of the stacked product
    # the energy is the diagonal mass's weighted sum of u itself; every other field the two kinds share is set
    assert ws.W is ws.W_u is None and ws.Wu is u and ws.weights.size == 2 * g.n
    assert all(getattr(ws, name) is not None for name in set(solver.Workspace.__slots__) - {"W", "W_u"})
    # upwind, W u is one banded product from the stack's ghost-celled row 0 into the last row of ghosted
    up = solver._StageStep(make_scheme(g, "upwind", 1.0), RK4X2, u0)
    rows = [x.__array_interface__["data"] for x in (up.W_u.u, up.W_u.out, up.ghosted[0], up.ghosted[-1])]
    assert rows[:2] == rows[2:] and up.u.base is up.Wu.base is up.ghosted
    # k_1..k_s and d are the rows of one stack, and so are their products
    assert ws.kd.shape == ws.Mkd.shape == (RK4X2.stages + 1, 2 * g.n)
    for row, want in zip((*(st.f for st in ws.stages), ws.d), ws.kd, strict=True):
        assert row.base is ws.kd and row.ctypes.data == want.ctypes.data
    assert ws.Md.base is ws.Mkd and ws.Md.ctypes.data == ws.Mkd[-1].ctypes.data
    # the stage estimate's batched dots: stage states 2..s against M f_2..M f_s
    left, right, out = ws.dots
    assert left.shape == (RK4X2.stages - 1, 1, 2 * g.n) and left.base is ws.Y
    assert right.shape == (RK4X2.stages - 1, 2 * g.n, 1) and right.base is ws.Mkd
    assert right.ctypes.data == ws.Mkd[1].ctypes.data
    assert out.shape == (RK4X2.stages - 1, 1, 1)


def _absolute(op):
    """The operator of the absolute values of ``op``'s blocks and scale."""
    return ops.BlockCirculantOp(op.n, op.dx, abs(op.scale), {j: np.abs(a) for j, a in op.blocks.items()})


def _reads_and_writes_in_place(binding):
    """Whether a banded binding holds no halo and no product buffer: its
    copies refresh the operand's margins from its ring, and each product
    reads its windows from the operand and writes into ``out``."""
    for function, args in binding.calls:
        if getattr(function, "__name__", None) == "__setitem__":
            if not (function.__self__.base is binding.u and args[1].base is binding.u):
                return False
        elif not (function is np.matmul and args[0].base is binding.u and args[2].base is binding.out):
            return False
    return True


@pytest.mark.parametrize("variant", ["central", "upwind"])
def test_a_composed_workspace_holds_no_scratch_of_the_state_size(variant):
    """A composed workspace's banded bindings read and write its
    ghost-celled arrays in place (three central, five upwind) and hold no
    scratch.  At n = 2e5, after one step and one energy, tracemalloc finds
    no more than one chunk of cells (views, tuples and small arrays: the
    bindings' calls, the stencil powers and Q) beyond the ghost-celled
    arrays and the two state-sized ones, ``tmp`` and the tiled weights,
    for either variant; central held two tiled diagonals more when it
    bound its mass."""
    import tracemalloc

    n = 200_000
    g = ops.build_grid(n)
    s = make_scheme(g, variant, 1.0)
    u0 = project_initial(g, solver.default_initial)
    tracemalloc.start()
    try:
        ws = solver._ComposedStep(s, RK4X2, u0)
        rk_step(s, RK4X2, ws.u, 0.3 * g.dx, ws)
        s.energy(ws.u, ws)
        held = tracemalloc.get_traced_memory()[0] - sum(x.nbytes for x in ws.ghosted) - 2 * ws.u.nbytes
    finally:
        tracemalloc.stop()
    bindings = [b for b in (ws.Q_u, ws.D_q, ws.W_u, ws.W_d) if b is not None]
    assert len(bindings) == (2 if variant == "central" else 4) == len(ws.ghosted) - 1
    assert all(_reads_and_writes_in_place(b) for b in bindings)
    assert held <= 16 * (ops._CHUNK + 32)  # one chunk of cells


@pytest.mark.parametrize("a", [1.0, -1.0, 0.7])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize("n", [3, 16, 17, 1200, 8200])
def test_a_composed_workspace_forms_d_in_two_matvecs(n, variant, a):
    """A composed workspace holds no stage data, no stack of products, no
    update and no binding of ``M``.  Its state ``u``, ``q = Q u`` and
    ``d`` are the rings of three ghost-celled arrays, and, upwind, ``W u``
    and ``W d`` of two more, which its banded bindings read and write in
    place.  Its step writes ``d = D^ (Q u)`` into ``d``, with the bits of
    fresh banded bindings, and returns ``d``; ``Q``'s stack is re-weighted
    in place only when dt changes, and its binding is made once.
    ``advance`` adds ``d`` to ``u`` in place, the bits of ``u + d``.  Its energy and its gamma have the bits
    of the weighted squares from new arrays (:class:`_WeightedSquares`),
    and lie within rounding of ``u.(M u)`` and of the oracle's gamma;
    gamma does not read a ``W u`` the energy formed for an older state.
    Stage data, another difference, another mass, another state or
    another scheme raise."""
    g = ops.build_grid(n)
    s = make_scheme(g, variant, a)
    u0 = project_initial(g, solver.default_initial)
    ws = solver._ComposedStep(s, RK4X2, u0)
    u, M = ws.u, s.M_energy
    assert type(ws) is solver._ComposedStep
    assert u is not u0 and u.tobytes() == u0.tobytes()
    absent = ("kd", "Mkd", "M_kd", "dots", "stack", "Y", "update", "Mu", "Md", "M_u", "M_d")
    assert not any(hasattr(ws, name) for name in absent)
    unset = {"W", "W_u"} if variant == "central" else set()  # no root for the diagonal mass
    assert all(getattr(ws, name) is not None for name in set(solver.Workspace.__slots__) - unset)
    ring = slice(2 * ws.ghosts, 2 * (ws.ghosts + n))
    rings = (u, ws.q, ws.d) if variant == "central" else (u, ws.q, ws.d, ws.Wu, ws.Wd)
    for x, ghosted in zip(rings, ws.ghosted, strict=True):
        assert x.base is ghosted and x.ctypes.data == ghosted[ring].ctypes.data and x.size == 2 * n
    ghosted_u, ghosted_q, ghosted_d = ws.ghosted[:3]
    assert (ws.D_q.u, ws.D_q.out) == (ghosted_q, ghosted_d)
    if variant == "central":
        assert ws.W is ws.W_u is ws.W_d is None and ws.Wu is u and ws.Wd is ws.d
    else:
        assert (ws.W_u.u, ws.W_u.out) == (ghosted_u, ws.ghosted[3])
        assert (ws.W_d.u, ws.W_d.out) == (ghosted_d, ws.ghosted[4])
        assert ws.W.scale == 1.0 and ws.W._band[:2] == (0, 2)
    assert all(_reads_and_writes_in_place(b) for b in (ws.D_q, ws.W_u, ws.W_d) if b is not None)
    function, args = ws.advance.func, ws.advance.args
    assert function is np.add and args[0] is u and args[1] is ws.d and args[2] is u
    one_shot, squares = _one_shot_composed_step(s, RK4X2), _WeightedSquares(s)
    factors, binding = [], ws.Q_u
    for dt in (0.3 * g.dx, 0.3 * g.dx, 0.1 * g.dx):
        want_energy = squares.energy(u)
        assert s.energy(u, ws) == want_energy == ws.uMu
        # u.(M u) rounds by gamma_(2n + 10) |u|.(|M| |u|), the weighted
        # squares by gamma_(2n + 1) E plus 3 gamma_2 sum_i w_i (|W| |u|)_i^2
        size = float(np.abs(u) @ (_absolute(M) @ np.abs(u)))
        if squares.W is not None:
            Wabs = _absolute(squares.W) @ np.abs(u)
            size = max(size, float((squares.w * Wabs) @ Wabs))
        assert abs(want_energy - s.energy(u.copy())) <= (2 * n + 16) * EPS * size
        d, stages = rk_step(s, RK4X2, u, dt, ws)
        want, want_d = one_shot(s, RK4X2, u.copy(), dt)
        assert stages == () and d is ws.d
        assert d.tobytes() == want_d.tobytes()
        factors.append(ws.Q[2].tobytes())
        assert ws.Q_u is binding
        assert (ws.Q_u.u, ws.Q_u.out) == (ghosted_u, ghosted_q) and _reads_and_writes_in_place(ws.Q_u)
        gamma = relaxation_gamma(u, d, stages, M, dt, workspace=ws)
        assert gamma == squares.gamma(u, want, (), dt, want_d)
        if variant == "central":
            # each gamma's dots of 2n terms move it by up to 4 n eps (|u|_M /
            # |d|_M + gamma) (relaxation_gamma's cut-off argument, e = 0)
            ratio = math.sqrt(squares.energy(u) / squares.norm2(want_d))
            tol = 2 * 4 * n * EPS * (ratio + gamma) + 4 * EPS * gamma
            assert abs(gamma - _reference_gamma(u, want, (), M, dt, want_d)) <= tol
        v = u.copy()
        ws.advance()
        assert u.tobytes() == want.tobytes() and want.tobytes() == (v + want_d).tobytes()
        u += 0.125 * np.sin(u)
    assert factors[0] == factors[1] != factors[2]
    # u has changed since the last energy: gamma forms W u again
    d, _ = rk_step(s, RK4X2, u, 0.1 * g.dx, ws)
    gamma = relaxation_gamma(u, d, (), M, 0.1 * g.dx, workspace=ws)
    assert gamma == squares.gamma(u, None, (), 0.1 * g.dx, d)
    for call in (
        lambda: relaxation_gamma(u, d.copy(), (), M, 0.1 * g.dx, workspace=ws),
        lambda: relaxation_gamma(u.copy(), d, (), M, 0.1 * g.dx, workspace=ws),
        lambda: relaxation_gamma(u, d, [solver.Stage(b=1.0, y=u, f=d)], M, 0.1 * g.dx, workspace=ws),
        lambda: relaxation_gamma(u, d, (), make_scheme(g, variant, a).M_energy, 0.1 * g.dx, workspace=ws),
    ):
        with pytest.raises(ValueError, match="its own state, difference and mass, no stage data"):
            call()
    for v, scheme in ((u.copy(), s), (u, make_scheme(g, variant, a))):
        with pytest.raises(ValueError, match="measures only its own state, for its own scheme"):
            scheme.energy(v, ws)
    with pytest.raises(ValueError, match="allocated for another"):
        rk_step(s, RK4X2, u.copy(), 0.1 * g.dx, ws)


def test_a_relaxed_central_composed_step_makes_no_matmul_for_the_mass(monkeypatch):
    """The diagonal mass is applied elementwise: a relaxed central ``rk4x2``
    run makes two ``matmul`` calls per step, ``Q u`` and ``D^ q``, and
    none for ``M u`` or ``M d``."""
    calls = []
    matmul = np.matmul

    def counted(*args):
        calls.append(args[0].shape)
        return matmul(*args)

    monkeypatch.setattr(np, "matmul", counted)
    trace, _ = run_experiment(ExperimentConfig(variant="central", rk="rk4x2", n=16, t_end=1.0))
    steps = len(trace.times) - 1
    assert steps > 2 and len(calls) == 2 * steps


class _Counted:
    """A callable that logs each call of ``function`` and forwards its attributes."""

    def __init__(self, function, log):
        self.function, self.log = function, log

    def __call__(self, *args, **kwargs):
        self.log.append(self.function)
        return self.function(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.function, name)


class _CountingNumpy:
    """The numpy module, with every ufunc and ``copyto`` logged (:class:`_Counted`)."""

    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        value = getattr(np, name)
        return _Counted(value, self.log) if isinstance(value, np.ufunc) or name == "copyto" else value


@pytest.mark.parametrize(
    "variant, relaxation, per_step",
    [("central", True, 13), ("central", False, 9), ("upwind", False, 11)],
)
def test_a_composed_step_makes_the_fewest_numpy_calls(monkeypatch, variant, relaxation, per_step):
    """The numpy calls of each full step of a composed ``rk4x2`` run at n =
    1200, from one ``rk_step`` to the next, after the first.  ``Q u`` and ``D^ q`` make two
    margin copies and one ``matmul`` each (6).  Unrelaxed, ``u += d`` makes
    one add, and the energy one multiply and one dot for the diagonal mass
    (9), and for the upwind mass one copy and one ``matmul`` more for ``W
    u`` (11).  Relaxed central adds gamma's multiply and two dots and the
    relaxed update's multiply and add (13).  Every ufunc call of the
    solver is counted, every call a matvec replays (its binding's call
    list), and every method of an array or a ufunc the solver calls (its
    dots), through the profiler's ``c_call`` events."""
    log = []
    monkeypatch.setattr(solver, "np", _CountingNumpy(log))
    calls = ops.BlockCirculantOp._calls

    def counted_calls(*args):
        return tuple((_Counted(f, log), a) for f, a in calls(*args))

    monkeypatch.setattr(ops.BlockCirculantOp, "_calls", counted_calls)
    entries, step = [], solver.rk_step

    def counted_step(*args, **kwargs):
        entries.append(len(log))
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "rk_step", counted_step)

    def profile(frame, event, arg):
        owner = getattr(arg, "__self__", None)
        own = frame.f_code is _Counted.__call__.__code__  # logged already
        if event == "c_call" and isinstance(owner, (np.ndarray, np.ufunc)) and not own:
            log.append(arg)

    config = ExperimentConfig(variant=variant, rk="rk4x2", relaxation=relaxation, n=1200, t_end=0.05)
    sys.setprofile(profile)
    try:
        trace, _ = run_experiment(config)
    finally:
        sys.setprofile(None)
    # the first step also forms and binds Q
    assert len(entries) == len(trace.times) - 1 > 10
    assert set(np.diff(entries)[1:].tolist()) == {per_step}


def _set_up_log(monkeypatch):
    """A list that records, in order, each binding made (``"bind"`` per
    block; ``"banded"`` through ``BlockCirculantOp._bind_band``, which
    ``bind_banded`` calls), each set-up of a matvec's calls, a binding's or
    a one-shot matvec's (``"calls"``), each operator constructed
    (``"op"``), and each ``rk_step``'s entry and exit (``"step"``,
    ``"stepped"``)."""
    log, Op = [], ops.BlockCirculantOp

    def logging(kind, function):
        def logged(*args, **kwargs):
            log.append(kind)
            return function(*args, **kwargs)

        return logged

    for kind, name in (("bind", "bind"), ("banded", "_bind_band"), ("op", "__post_init__"), ("calls", "_calls")):
        monkeypatch.setattr(Op, name, logging(kind, getattr(Op, name)))
    step = solver.rk_step

    def stepped(*args, **kwargs):
        log.append("step")
        try:
            return step(*args, **kwargs)
        finally:
            log.append("stepped")

    monkeypatch.setattr(solver, "rk_step", stepped)
    return log


@pytest.mark.parametrize(
    "variant, rk",
    [("central", "rk4x2"), ("upwind", "rk4x2"), ("central", "ssprk33"), ("central", "rk4"), ("upwind", "rk4")],
)
def test_a_run_sets_up_before_its_first_step_and_never_again(monkeypatch, variant, rk):
    """The set-up contract, for relaxed and unrelaxed runs that end on a
    clipped step and on a whole one: every binding is made before the
    first step, and from the first step to the end of the last no binding
    is made, no one-shot matvec sets up its calls and no operator is
    constructed.  A composed run binds four banded products, ``Q u``,
    ``D^ q`` and, upwind, the root ``W`` on ``u`` and on ``d``, whatever
    its step sizes: a relaxed run whose last step is clipped makes the
    bindings of an unrelaxed one.  A stage run binds each stage derivative
    and the stacked ``M k_i`` and ``M d`` per block, and, upwind, ``W`` on
    ``u`` banded.  Unrelaxed runs and relaxed central ``rk4x2`` and
    ``rk4`` compose; relaxed upwind runs, and relaxed central ``ssprk33``
    (``rho > 1`` at dt = dx/2), step through the stages; unrelaxed upwind
    ``rk4`` blows up there, so it runs at dt = dx/4."""
    log = _set_up_log(monkeypatch)
    method = resolve_method(rk)
    counts = {}
    for relaxation in (False, True):
        composed = not relaxation or variant == "central" and rk != "ssprk33"
        for t_end in (1.0, 3.0, 2 * math.pi):
            log.clear()
            dt_factor = 0.25 if (variant, rk) == ("upwind", "rk4") else 0.5
            config = ExperimentConfig(variant, 16, t_end=t_end, rk=rk, relaxation=relaxation, dt_factor=dt_factor)
            trace, _ = run_experiment(config)
            first, last = log.index("step"), len(log) - log[::-1].index("stepped")
            assert len(trace.times) > 5 and set(log[first:last]) == {"step", "stepped"}
            binds = collections.Counter(log[:first])
            counts[relaxation, t_end] = binds["bind"], binds["banded"]
            if composed:
                assert counts[relaxation, t_end] == (0, 2 + 2 * (variant == "upwind"))
            else:
                assert counts[relaxation, t_end] == (method.stages + 1, variant == "upwind")
            if t_end != 2 * math.pi:  # the last step is clipped
                assert trace.times[-1] - trace.times[-2] < 0.99 * config.dt_factor * 2 * math.pi / 16
    if variant == "central" and rk != "ssprk33":
        assert len(set(counts.values())) == 1


# ---------------------------------------------------------------------------
# the composed step: d = D (Q u)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 4, 8, 15])
@pytest.mark.parametrize("n", [3, 4, 5, 15, 16])
@pytest.mark.parametrize("build", [ops.central_D, ops.upwind_D_minus, ops.upwind_D_plus])
def test_stencil_powers_are_the_exact_operator_powers(build, n, count):
    """Each row of the stack, as an operator (which sums the offsets that
    alias at small n), is the integer matrix power of the dense stencil, up
    to 15 stages, where the upwind powers' bound 12**14 is still below the
    2**53 that keeps them exact; the offsets are increasing, not reduced
    mod n, and span only what some power reaches."""
    D = build(ops.build_grid(n))
    stencil = ops.BlockCirculantOp(n, D.dx, 1.0, D.blocks).dense().astype(np.int64)
    offsets, powers = solver._stencil_powers(D, count)
    assert offsets == tuple(range(offsets[0], offsets[0] + len(offsets)))
    assert powers.shape == (count, len(offsets), 2, 2)
    # no offset at either end where every power's block is zero: D_-'s
    # powers reach -j..1, since its block at +1 squares to zero
    assert powers[:, 0].any() and powers[:, -1].any()
    reach = {ops.central_D: (1 - count, count - 1), ops.upwind_D_minus: (1 - count, min(1, count - 1))}
    assert (offsets[0], offsets[-1]) == reach.get(build, (0, count - 1))
    for j, row in enumerate(powers):
        got = ops.BlockCirculantOp(n, D.dx, 1.0, dict(zip(offsets, row))).dense()
        assert np.array_equal(got, np.linalg.matrix_power(stencil, j).astype(float))


def test_upwind_composed_bands_span_only_their_nonzero_blocks():
    """Upwind ``Q`` at a > 0 reaches offsets -(s - 1)..1, not -(s - 1)..s
    - 1: ``rk4`` at n = 6 stores 5 offsets and ``rk4x2`` at n = 14 stores
    9, in the normal form's range, where the untrimmed powers (7 and 15
    offsets) folded over the whole ring; at n >= s + 2 the band's end
    blocks are nonzero for every tableau, variant and sign.  A composed
    workspace binds that band, the constructor's (:func:`oracles.composed_factor`)."""
    for rk, n, band in (("rk4", 6, (-3, 5)), ("rk4x2", 14, (-7, 9))):
        scheme, method = make_scheme(ops.build_grid(n), "upwind", 1.0), resolve_method(rk)
        ws = solver._ComposedStep(scheme, method, np.zeros(2 * n))
        assert ws.Q[:2] == composed_factor(scheme, method, 0.5 * scheme.grid.dx)._band[:2] == band
    tableaux = [(rk, v, a) for rk in ("rk4", "ssprk33", "rk4x2") for v in ("central", "upwind") for a in (1.0, -1.0)]
    for rk, variant, a in tableaux:
        method = resolve_method(rk)
        scheme = make_scheme(ops.build_grid(2 * method.stages + 2), variant, a)
        Q = composed_factor(scheme, method, 0.5 * scheme.grid.dx)
        lo, span, _ = Q._band
        assert {lo, lo + span - 1} <= set(Q.blocks)
        assert solver._ComposedStep(scheme, method, np.zeros(2 * scheme.grid.n)).Q[:2] == (lo, span)


def _stored_blocks(ws):
    """The blocks a composed workspace's ``Q`` stack holds, by normal-form
    offset: its first block diagonal, transposed back."""
    lo, span, stack = ws.Q
    return {lo + k: block.T for k, block in enumerate(ops._diagonals(stack, span)[0])}


def _assert_stack_holds_the_constructor_blocks(ws, Q):
    """Every block of the workspace's band is the oracle ``Q``'s stored
    block, bit for bit, or zeros where ``Q`` stores none (an exact zero may
    carry either sign; it adds nothing to a sum), and every other entry of
    the stack is +0."""
    blocks = _stored_blocks(ws)
    assert set(Q.blocks) <= set(blocks)
    for j, block in blocks.items():
        if j in Q.blocks:
            assert block.tobytes() == Q.blocks[j].tobytes()
        else:
            assert not block.any()
    outside = ws.Q[2].copy()
    ops._diagonals(outside, ws.Q[1])[...] = 0.0
    assert not np.signbit(outside).any() and not outside.any()


@pytest.mark.parametrize("n", [3, 14, 15, 16, 17, 64])
@pytest.mark.parametrize("variant, a", [("central", 1.0), ("upwind", 1.0), ("upwind", -1.0)])
@pytest.mark.parametrize("rk", ["rk4", "ssprk33", "rk4x2"])
def test_composed_q_keeps_its_widest_band_at_every_step_size(rk, variant, a, n):
    """A composed workspace binds ``Q`` once, at its widest band: the
    normal form of a block at each of the stencil powers' offsets, which
    its ghost cells cover.  Each step size rewrites the stack in place,
    with the blocks the operator's constructor stores for that step, bit
    for bit, and zeros where it stores none; the binding stays.  The
    constructor drops zero blocks, so its band may be narrower: at a speed
    of 2e-45 the weight ``c_s z^s`` of the upwind ``rk4x2`` ``Q``'s end
    block underflows, and its band is (-6, 8) instead of (-7, 9) at a > 0
    and (0, 7) instead of (0, 8) at a < 0.  The workspace keeps (-7, 9)
    and (0, 8), whose exact zero blocks leave every sum of the banded
    product as it is: such a run composes with the bits of fresh banded
    bindings of the narrower band, and raises no warning."""
    g = ops.build_grid(n)
    scheme, method = make_scheme(g, variant, a), resolve_method(rk)
    ws = solver._ComposedStep(scheme, method, project_initial(g, solver.default_initial))
    offsets, _ = solver._stencil_powers(scheme.D_effective, method.stages)
    widest = ops.BlockCirculantOp(n, g.dx, 1.0, dict.fromkeys(offsets, np.ones((2, 2))))
    assert ws.Q[:2] == widest._band[:2]
    after = ws.ghosted[0].size // 2 - ws.ghosts - n
    assert ops._ghost_cells(*ws.Q[:2]) <= (ws.ghosts, after)
    binding = ws.Q_u
    for dt in (0.5 * g.dx, 0.123 * g.dx, 0.5 * g.dx):
        rk_step(scheme, method, ws.u, dt, ws)
        _assert_stack_holds_the_constructor_blocks(ws, composed_factor(scheme, method, dt))
        assert ws.Q_u is binding
    if (rk, n) != ("rk4x2", 64) or variant != "upwind":
        return
    tiny = make_scheme(g, variant, 2e-45 * a)
    Q = composed_factor(tiny, method, 0.5 * g.dx)
    assert ws.Q[:2] == ((-7, 9) if a > 0 else (0, 8)) and Q._band[:2] == ((-6, 8) if a > 0 else (0, 7))
    ws = solver._ComposedStep(tiny, method, project_initial(g, solver.default_initial))
    rk_step(tiny, method, ws.u, 0.5 * g.dx, ws)
    _assert_stack_holds_the_constructor_blocks(ws, Q)
    config = ExperimentConfig(variant=variant, rk=rk, relaxation=False, advection_speed=2e-45 * a, n=n, t_end=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_run_matches_the_fresh_array_loop(config)


@pytest.mark.parametrize("a", [1.0, -1.0, 0.7])
@pytest.mark.parametrize("variant", ["central", "upwind"])
@pytest.mark.parametrize("n", [3, 4, 15, 16])
@pytest.mark.parametrize(
    "rk", ["rk4", "ssprk33", "rk4x2", _chain(32)], ids=lambda m: getattr(m, "name", m)
)
def test_composed_factor_gives_the_step_matrix(rk, n, variant, a):
    """``D^ Q``, with ``D^`` the unscaled stencil and ``Q`` of scale 1, is
    ``R(Z) - I`` for the dense ``Z = -a dt D``, to the rounding of Horner's
    rule on dense matrices, ``p(|Z|)`` times a few eps per stage (as in
    ``_amplification_radius``), at every n, for the constructor's ``Q``
    (:func:`oracles.composed_factor`) and for a composed workspace's stack,
    which holds the same blocks.  The stencil powers of a
    32-stage tableau pass 2**53 and, at n = 3 and 16, round from power 27
    to 29 on, by eps relative, which that bound holds too.  Where no
    offsets of the powers alias mod n (n >= 15 for ``rk4x2``), ``Q``'s band
    spans the powers' offsets, and its blocks are, bit for bit, ``z`` times
    the weighted powers summed in order; where they alias, they are folded
    after ``z`` multiplies them."""
    g = ops.build_grid(n)
    scheme, method = make_scheme(g, variant, a), resolve_method(rk)
    D, dt = scheme.D_effective, 0.37 * g.dx
    Q = composed_factor(scheme, method, dt)
    ws = solver._ComposedStep(scheme, method, np.zeros(2 * n))
    ws.run(dt)
    _assert_stack_holds_the_constructor_blocks(ws, Q)
    assert Q.scale == 1.0
    Z = (-a * dt) * D.dense()
    P, bound = np.zeros_like(Z), 0.0
    znorm = np.abs(Z).sum(axis=1).max()
    for c in reversed(solver._stability_coefficients(method)):
        P, bound = P @ Z + c * np.eye(2 * n), bound * znorm + abs(c)
    got = (D.dense() / D.scale) @ Q.dense()
    assert np.abs(got - (P - np.eye(2 * n))).max() <= 16 * method.stages * EPS * bound
    z, zj, weights = -a * dt * D.scale, 1.0, []
    for c in solver._stability_coefficients(method)[1:]:
        weights.append(c * zj)
        zj *= z
    offsets, stack = solver._stencil_powers(D, method.stages)
    if not (-(n // 2) <= offsets[0] and offsets[-1] < n - n // 2):
        return
    weighted = z * np.add.reduce(np.array(weights)[:, None, None, None] * stack, 0)
    assert ws.Q[:2] == (offsets[0], len(offsets))
    assert np.array(list(_stored_blocks(ws).values())).tobytes() == weighted.tobytes()


def _weighted_powers(ws, dt):
    """``z`` and the workspace's stencil powers weighted and summed over
    ``j`` as ``_ComposedStep._weigh`` sums them, before ``z`` multiplies
    them."""
    z = -ws.scheme.advection_speed * dt * ws.scheme.D_effective.scale
    zj, weights = 1.0, []
    for c in solver._stability_coefficients(ws.method)[1:]:
        weights.append(c * zj)
        zj *= z
    return z, np.add.reduce(np.array(weights)[:, None, None, None] * ws.powers, 0)


def _weigh_with_z_after_the_fold(ws, dt):
    """``_ComposedStep._weigh`` with ``z`` multiplying the folded blocks:
    ``z (a + b)`` in place of the constructor's ``z a + z b``."""
    z, band = _weighted_powers(ws, dt)
    blocks, ((at, of), *rest) = ops._diagonals(ws.Q[2], ws.Q[1]), ws.folds
    blocks[:, at] = band[of].transpose(0, 2, 1)
    for at, of in rest:
        blocks[:, at] += band[of].transpose(0, 2, 1)
    np.multiply(z, blocks, blocks)


def _weigh_folding_in_reverse(ws, dt):
    """``_ComposedStep._weigh`` with the power offsets that alias added in
    decreasing offset order."""
    z, band = _weighted_powers(ws, dt)
    band *= z
    blocks, seen = ops._diagonals(ws.Q[2], ws.Q[1]), np.zeros(ws.Q[1], bool)
    for at, of in reversed(ws.folds):
        first = ~seen[at]
        blocks[:, at[first]] = band[of][first].transpose(0, 2, 1)
        blocks[:, at[~first]] += band[of][~first].transpose(0, 2, 1)
        seen[at] = True


@pytest.mark.parametrize(
    "n, weigh",
    [(14, _weigh_with_z_after_the_fold), (3, _weigh_with_z_after_the_fold), (3, _weigh_folding_in_reverse)],
)
def test_the_bit_check_catches_another_fold_order(monkeypatch, n, weigh):
    """Where the stencil powers' offsets alias (n <= 14 for central
    ``rk4x2``), the stack must fold them as the constructor does: ``z``
    multiplies each power offset's weighted sum, and then the aliased ones
    are added in increasing offset order.  With ``z`` multiplying the
    folded sums instead, or the sums added in decreasing order (at n = 3,
    where five power offsets share each block; at n = 14 only two do, and
    their sum does not depend on the order), the stack's blocks leave the
    constructor's, which the stack check catches.  At n = 3 the run's bits
    leave the oracle's too.  At n = 14 only the end blocks of ``z^7
    D^^7`` fold, about 1e-7 of ``Q``'s largest: no run of central
    ``rk4x2`` there (a = +-1, 0.7, 1.3 and -0.3, dt = dx/10 to dx/2,
    relaxed or not) moved by a bit, so the stack check is the one that
    catches it."""
    g = ops.build_grid(n)
    scheme = make_scheme(g, "central", 1.0)
    monkeypatch.setattr(solver._ComposedStep, "_weigh", weigh)
    ws = solver._ComposedStep(scheme, RK4X2, np.zeros(2 * n))
    ws.run(0.37 * g.dx)  # a z that is not a power of two, whose products round
    with pytest.raises(AssertionError):
        _assert_stack_holds_the_constructor_blocks(ws, composed_factor(scheme, RK4X2, 0.37 * g.dx))
    if n == 3:
        with pytest.raises(AssertionError):
            _assert_run_matches_the_fresh_array_loop(
                ExperimentConfig(variant="central", rk="rk4x2", relaxation=False, n=n, t_end=1.0)
            )


_LONG = np.longdouble


def _apply_long(op, x):
    """``op`` applied in extended precision: the operand rolled once per block."""
    cells = x.reshape(-1, 2)
    y = np.zeros_like(cells)
    for j, block in op.blocks.items():
        y += np.roll(cells, -j, axis=0) @ block.T.astype(_LONG)
    return (y * _LONG(op.scale)).reshape(-1)


def _long_double_difference(scheme, method, u, dt):
    """One step's ``d = sum_i (dt b_i) k_i`` in ``np.longdouble`` from ``u``,
    ``dt`` and the scheme's float64 operators and tableau: stages over
    rolled blocks."""
    speed, u, dt = _LONG(scheme.advection_speed), np.asarray(u).astype(_LONG), _LONG(dt)
    k = []
    for row in method.a:
        y = u.copy()
        for a_ij, k_j in zip(row, k):
            y += (dt * _LONG(a_ij)) * k_j
        k.append(-speed * _apply_long(scheme.D_effective, y))
    return sum((dt * _LONG(b_i)) * k_i for b_i, k_i in zip(method.b, k))


def _long_double_run(config):
    """The stage loop of ``run_experiment`` in ``np.longdouble``, with the
    same float64 initial state, step sizes, operators and tableau: stages
    over rolled blocks, ``d = sum_i (dt b_i) k_i``, and for relaxed runs
    ``gamma = -2 u.Md / d.Md`` (``e = 0``: the central estimate vanishes).
    Returns the final state and time and the step count."""
    g = ops.build_grid(config.n, config.x_min, config.x_max)
    s = make_scheme(g, config.variant, config.advection_speed)
    method = resolve_method(config.rk)
    u = project_initial(g, solver.default_initial).astype(_LONG)
    dt_nominal = config.dt_factor * g.dx
    t, t_end, steps = _LONG(0.0), _LONG(config.t_end), 0
    while t_end - t > _LONG(1e-9 * dt_nominal):
        dt = min(_LONG(dt_nominal), t_end - t)
        d = _long_double_difference(s, method, u, dt)
        gamma = _LONG(1.0)
        if config.relaxation and dt > _LONG(1e-4 * dt_nominal):
            Md = _apply_long(s.M_energy, d)
            gamma = -2 * (u @ Md) / (d @ Md)
        u, t, steps = u + gamma * d, t + gamma * dt, steps + 1
    return u, t, steps


@pytest.mark.skipif(np.finfo(_LONG).eps >= EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("a", [1.0, -1.0])
@pytest.mark.parametrize("variant, relaxation", [("central", True), ("upwind", False)])
def test_composed_run_stays_within_rounding_of_an_extended_precision_run(variant, relaxation, a):
    """One period of ``rk4x2`` at n = 128 (256 steps), composed, against
    the 80-bit stage loop: state within ``c steps eps |u|``, time within
    ``c steps eps t_end``, with ``c = 1/4``.

    Why ``c = 1/4``: the step is non-expanding (rho <= 1; relaxed central
    runs conserve the M-norm), so each step's rounding is carried, not
    amplified.  Rounding that recurs with the same sign every step adds
    linearly, about ``|delta P| |u|`` per step for a perturbation ``delta
    P`` of the step operator.  Rounding with changing signs adds like a
    random walk, ``sqrt(steps) sigma``, with ``sigma`` a few eps per
    entry (the update's ``u + gamma d`` rounds by up to ``eps/2 |u|``, and
    ``d`` carries the rounding of ``Q u`` through ``Z``); at 256 steps that
    is ``sigma / 16`` per step, and a max over 256 entries about three
    times the spread, so ``1/4`` leaves room for ``sigma`` up to about 1.3
    eps.  The split ``d = D (Q u)`` keeps the recurring part out: ``D``
    is the exact integer stencil with its own ``1/dx``, and it annihilates
    the constant part of the rounding of ``Q``'s entries on both the point
    and the average rows.  One rounded ``P - I`` of 17 blocks lets it in
    and lands at 0.61-0.71 steps eps (measured at n = 128 and 1200).
    Measured here: 0.08 and 0.07 (relaxed central), 0.04 and 0.03 (plain
    upwind), where ``Q`` with ``-a dt`` as its scale and ``D`` with
    ``1/dx`` read 0.07-0.10 and 0.04; the stage loop reads 0.09-0.15."""
    config = ExperimentConfig(
        variant=variant, rk="rk4x2", relaxation=relaxation, advection_speed=a, n=128
    )
    trace, u = run_experiment(config)
    assert _composes(config)
    want, t_want, steps = _long_double_run(config)
    assert len(trace.times) == steps + 1 and steps == 256
    c = 0.25
    assert float(np.abs(u - want).max()) <= c * steps * EPS * float(np.abs(want).max())
    assert abs(float(trace.times[-1] - t_want)) <= c * steps * EPS * config.t_end


def _upwind_mass_mismatch(scheme):
    """``|M_+ - M~|``, entry by entry, as an operator: ``M_+ = W^T diag(w)
    W`` the mass of the weighted squares, with their float weights ``w``,
    and ``M~`` the stored upwind mass times its scale, in exact rational
    arithmetic, rounded up."""
    g, M = scheme.grid, scheme.M_energy
    W, w = solver._energy_form(scheme)
    F = fractions.Fraction
    root = _rational(W.blocks)
    Lambda = {0: [[F(float(w[0])), 0], [0, F(float(w[1]))]]}
    transposed = {-j: [list(col) for col in zip(*a)] for j, a in root.items()}
    form = _rational_product(transposed, _rational_product(Lambda, root))
    stored = _rational(M.blocks)
    blocks = {}
    for j in form.keys() | stored.keys():
        a, b = form.get(j, [[0, 0], [0, 0]]), stored.get(j, [[0, 0], [0, 0]])
        blocks[j] = [[float(abs(a[r][c] - F(M.scale) * b[r][c])) * (1 + EPS) for c in range(2)] for r in range(2)]
    return ops.BlockCirculantOp(g.n, g.dx, 1.0, blocks)


def _gamma_k(k):
    """Higham's ``gamma_k = k u / (1 - k u)``, ``u = eps/2``."""
    return k * EPS / 2 / (1 - k * EPS / 2)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="np.longdouble is float64 here")
@pytest.mark.parametrize("relaxation", [False, True], ids=["plain", "relaxed"])
@pytest.mark.parametrize("n", [8200, 50000])
def test_upwind_energy_rises_by_no_more_than_its_rounding(n, relaxation):
    """Twenty upwind ``rk4x2`` steps of dt = dx/2 from the projected
    ``exp(sin x)``, unrelaxed (composed) and relaxed (stage steps, whose
    clipped last step is a micro-step): no traced energy rises by more
    than ``c eps E`` in one step, with ``c`` derived here from the rounding
    of ``W u``, of the weighted sum and, relaxed, of gamma and the update,
    and not fitted.  Both step kinds measure by the same weighted squares.

    The traced energy is ``E^ = fl(sum_i fl(w_i y^_i) y^_i)`` with ``y^ =
    fl(W u)`` (``solver._energy_form``).  ``W``'s entries are 0, +-1 and 2,
    so its products are exact and ``y^`` rounds only in its sums,
    whatever order BLAS takes: an odd entry ``p_+ - p`` is one rounding,
    ``y^ = y (1 + t)`` with ``|t| <= u = eps/2``, and an even entry ``2a -
    p - p_+`` two, ``y^ = (y + h)(1 + t)``, with ``|h| <= u s`` and ``s =
    |p| + 2|a| + |p_+|`` (the first partial sum is at most ``s``).  So
    ``sum_i w_i y^_i^2`` lies within ``(2u + u^2) E + 2u H + 2u^2 G`` of
    the exact ``E = sum_i w_i y_i^2``, where ``H = sum_even w |y| s`` and
    ``G = sum_even w s^2``.  The multiply and the dot of 2n nonnegative
    terms add ``gamma_(2n + 1) <= (2n + 1.01) u`` relative (Higham 2002,
    Thm 3.1).  Per evaluation, then, ``|E^ - E| <= ((n + 2) + h + eps g)
    eps E^`` with ``h = H / E^`` and ``g = G / E^``, where the half eps of
    slack covers ``E`` against ``E^`` (they part by about ``n eps``
    relative).  A step's rise is the difference of two evaluations plus
    the exact change: ``c = 2 (n + 2) + h_k + h_(k+1) + eps (g_k +
    g_(k+1))`` relative to the larger energy, about ``2n + 12`` here,
    since ``h`` is about 3.9 at every n (``y_even``, ``E`` and ``H`` all
    scale like ``dx^2``) and ``eps g`` below 1e-5.

    Unrelaxed, the exact change is the premise: the computed states do
    not raise the exact energy.  Relaxed, it is bounded.  With ``A = u^T
    M_+ d`` and ``B = d^T M_+ d`` in the weighted squares' own mass ``M_+
    = W^T diag(w) W``, and ``A^``, ``B^`` gamma's computed ``u.(M~ d)``
    and ``d.(M~ d)`` with the stored mass ``M~``, gamma's subtraction and
    division give ``gamma B^ = (e^ - 2 A^)(1 + t)``, ``|t| <= gamma_2``,
    so the exact change of ``u + gamma d`` is ``2 gamma A + gamma^2 B =
    gamma e^ + gamma (2 (A - A^) + gamma (B - B^) + t gamma B^ / (1 +
    t))``.  The computed estimate ``e^`` enters as it is, so its rounding
    needs no bound: its term ``gamma e^`` (the dissipation, negative) is
    read, and counted if it is positive.  ``|A - A^| <= |u|^T |M_+ - M~|
    |d| + gamma_5 |u|^T |M~| |d| + gamma_(2n) |u|^T |fl(M~ d)|``: the
    stored entries against the weighted squares' (exact, from fractions,
    :func:`_upwind_mass_mismatch`), the per-block matvec (a point row's
    2x2 product, block sum and scale: five roundings on its longest
    chain), and the dot of 2n terms; ``B^`` likewise.  The update ``u' =
    fl(u + fl(gamma d))`` moves each entry by at most ``gamma_1 (|u'| +
    |gamma d|)``, which moves the energy by at most ``2 gamma_1 sum_i w_i
    |y'_i| (|W| (|u'| + |gamma d|))_i``.  Gamma's share of ``c`` is then
    about ``29 n`` at both sizes, almost all from the matvec's ``gamma_5
    |u|^T |M~| |d|``: ``|M~| |d|`` does not cancel, where ``M~ d`` of the
    smooth ``d`` does.  The readings are at most 28 eps E at n = 8200 and
    471 at n = 50000, against ``c`` of 2.5e5 and 1.5e6 (``31 n``).

    The exact changes are checked in 80-bit arithmetic, where ``W u`` is
    exact and the sum rounds by ``(2n + 2) u_80`` relative, and that slack
    is added to the float bound.  ``u . (M u)``, the oracle's form and
    that of every step before the weighted squares, cancels (smooth
    states lie near ``M_+``'s kernel) and breaks the bound on the same
    states: unrelaxed 3.3e5 and 6.4e6 eps E at n = 8200 and 50000 against
    ``c`` of 1.6e4 and 1.0e5, relaxed 3.0e5 and 7.0e6 eps E against 2.5e5
    and 1.5e6 (the first by only 1.2 times, so the test asserts it at n =
    50000)."""
    g = ops.build_grid(n)
    steps, dt = 20, 0.5 * g.dx
    config = ExperimentConfig(variant="upwind", rk="rk4x2", relaxation=relaxation, n=n, t_end=steps * dt)
    trace, u_end = run_experiment(config)
    steps = len(trace.times) - 1
    assert steps == 20 + relaxation  # relaxed: a micro-step to t_end
    s = make_scheme(g, "upwind", 1.0)
    M = s.M_energy
    kind = solver._StageStep if relaxation else solver._ComposedStep
    ws = kind(s, RK4X2, project_initial(g, solver.default_initial))
    w = np.multiply(g.dx, (0.25, 1.0 / 12.0))
    mismatch, size_M, size_W = _upwind_mass_mismatch(s), _absolute(M), _absolute(ws.W)
    u80 = float(np.finfo(_LONG).eps) / 2
    traced, bounds, exact, slack, old, moved = [], [], [], [], [], []
    for k in range(steps + 1):
        # the run's own states: the workspace replays its steps bit for bit
        u = ws.u
        assert s.energy(u, ws) == trace.energies[k]
        p, a = u[0::2], u[1::2]
        p1 = np.roll(p, -1)
        size = np.abs(p) + 2 * np.abs(a) + np.abs(p1)
        H = float(np.sum(w[0] * np.abs(ws.Wu[0::2]) * size))
        G = float(np.sum(w[0] * size * size))
        E = trace.energies[k]
        traced.append(E)
        bounds.append(((n + 2) + (H + EPS * G) / E) * EPS * E)
        P, A, P1 = (x.astype(_LONG) for x in (p, a, p1))
        exact.append(np.sum(_LONG(w[0]) * (2 * A - P - P1) ** 2) + np.sum(_LONG(w[1]) * (P1 - P) ** 2))
        slack.append((2 * n + 2) * u80 * float(exact[-1]))
        old.append(float(u @ (M @ u)))
        if k == steps:
            break
        # the run's step sizes: its last one is clipped
        h = min(dt, config.t_end - trace.times[k])
        u_next, stages = rk_step(s, RK4X2, u, h, ws)
        if not (relaxation and h > 1e-4 * dt):
            ws.advance()
            moved.append(0.0)
            continue
        gamma = relaxation_gamma(u, u_next, stages, M, h, workspace=ws)
        assert gamma == trace.gammas[k + 1]
        d, Md, _, dots = ws.gamma_terms(u, u_next, stages, M)
        e = 0.0
        for st, dot in zip(stages, dots):
            e += st.b * dot
        e *= 2.0 * h
        rounded = []
        for x in (u, d):
            size_x, Mx = np.abs(x), np.abs(Md)
            rounded.append(
                float(size_x @ (mismatch @ np.abs(d)))
                + _gamma_k(5) * float(size_x @ (size_M @ np.abs(d)))
                + _gamma_k(2 * n) * float(size_x @ Mx)
            )
        gamma_d = gamma * d
        np.add(u, gamma_d, u)  # the run's relaxed update
        step = np.abs(u) + np.abs(gamma_d)
        update = 2 * _gamma_k(1) * float(np.tile(w, n) @ (np.abs(ws.W @ u) * (size_W @ step)))
        moved.append(
            max(0.0, gamma * e)
            + gamma * (2 * rounded[0] + gamma * rounded[1] + _gamma_k(2) * gamma * abs(float(d @ Md)))
            + update
        )
    assert ws.u.tobytes() == u_end.tobytes()
    premise = [float(exact[k + 1] - exact[k]) for k in range(steps)]
    assert all(rise <= moved[k] + slack[k] + slack[k + 1] for k, rise in enumerate(premise))
    allowed = [bounds[k] + bounds[k + 1] + moved[k] + slack[k] + slack[k + 1] for k in range(steps)]
    assert all(traced[k + 1] - traced[k] <= allowed[k] for k in range(steps))
    c = max((bounds[k] + bounds[k + 1] + moved[k]) / (EPS * max(traced[k : k + 2])) for k in range(steps))
    assert 2 * n + 4 < c < (32 * n if relaxation else 2 * n + 20)
    if not relaxation or n == 50000:
        assert max(old[k + 1] - old[k] - allowed[k] for k in range(steps)) > 0


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path: the benchmark's reference
    configurations, the key of each in ``refs.npz``, and its checks."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _perfbench_workloads()


def _small_ring_configs():
    """``perfbench``'s drawable triples at both signs of a on the small
    rings n = 3, 5, 7, 14 and 15, where ``Q``'s offsets alias (up to n =
    14 for central ``rk4x2``) or just fit (n = 15)."""
    for variant, rk, relaxation in _WORKLOADS.SMALL_SCHEMES:
        for speed in (1.0, -1.0):
            for n in (3, 5, 7, 14, 15):
                yield ExperimentConfig(variant=variant, n=n, rk=rk, relaxation=relaxation, advection_speed=speed)


@pytest.mark.parametrize(
    "config", [*_WORKLOADS.reference_configs(), *_small_ring_configs()], ids=_WORKLOADS.config_key
)
def test_reference_configurations_have_the_oracle_bits(config):
    """Every configuration of ``perfbench``'s references, and its triples
    on small rings (:func:`_small_ring_configs`): traces and final states
    have the bits of the fresh-array loop, composed runs those of ``Q``
    built through the operator's constructor and bound fresh
    (:func:`_assert_run_has_the_oracle_bits`).  A run that blows up must
    raise the oracle's error."""
    _assert_run_has_the_oracle_bits(config)


@pytest.mark.parametrize("config", list(_WORKLOADS.reference_configs()), ids=_WORKLOADS.config_key)
def test_composed_runs_stay_within_the_benchmark_references(config):
    """Every ``perfbench`` reference configuration ends within the
    benchmark's ``STATE_RTOL`` of its state in ``refs.npz``, relative in
    the max norm, and its trace passes the benchmark's energy check
    (``energy_outcome``: no relaxed central drift and no upwind rise past
    ``2n eps E0``).  The composed step's rounding moves the states of the
    runs that compose (relaxed central ``rk4x2`` at n = 1200 among them),
    and its weighted squares their energies, not the benchmark's
    references or its bound; the stage runs keep their bits."""
    w = _WORKLOADS
    trace, u = run_experiment(config)
    with np.load(w.REFS_FILE) as refs:
        ref = refs[w.config_key(config)]
    assert w._rel_err(u, ref) <= w.STATE_RTOL
    assert w.energy_outcome(config.variant, config.relaxation, trace.energies, config.n) == ""
