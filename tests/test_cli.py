"""Command-line interface: exit codes, formats, and deterministic output."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from activeflux import checks, cli, solver, spectral
from activeflux import operators as ops


def run_cli(*argv):
    return cli.main(list(argv))


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_cleanly(capsys):
    assert run_cli("--help") == 0
    out = capsys.readouterr().out
    for sub in ("verify", "spectrum", "solve", "mass-scan"):
        assert sub in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_prints_summary(capsys):
    assert run_cli("verify", "--n", "8") == 0
    out = capsys.readouterr().out
    assert "36/36 checks passed (n = 8)" in out
    assert "FAIL" not in out


def test_verify_on_three_cell_ring(capsys):
    assert run_cli("verify", "--n", "3") == 0
    assert "34/34 checks passed (n = 3)" in capsys.readouterr().out


def test_verify_json_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run_cli("verify", "--n", "6", "--format", "json", "--output", str(path)) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["command"] == "verify"
    assert len(payload["reports"]) == 36
    for rep in payload["reports"]:
        assert rep["passed"] is True
        assert rep["residual"] <= rep["tolerance"]


def test_verify_csv_output(tmp_path, capsys):
    path = tmp_path / "report.csv"
    assert run_cli("verify", "--n", "6", "--format", "csv", "--output", str(path)) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "name,passed,residual,tolerance"
    assert len(data) == 37
    assert all(row.split(",")[1] == "1" for row in data[1:])


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_default_operator(capsys):
    assert run_cli("spectrum", "--n", "12") == 0
    out = capsys.readouterr().out
    data = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert data[0] == "k,theta,re_lambda_1,im_lambda_1,re_lambda_2,im_lambda_2"
    assert len(data) == 13
    k0 = data[1].split(",")
    assert int(k0[0]) == 0 and float(k0[1]) == 0.0
    # the theta column is the scalar expression, bit for bit
    assert [row.split(",")[1] for row in data[1:]] == [
        "%.17g" % (2.0 * math.pi * k / 12) for k in range(12)
    ]


def test_spectrum_dissipation_matches_closed_form(capsys):
    n = 16
    assert run_cli("spectrum", "--operator", "dissipation", "--n", str(n)) == 0
    out = capsys.readouterr().out
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")][1:]
    for row in rows:
        theta = float(row[1])
        lams = sorted([float(row[2]), float(row[4])])
        expected = -(2.0 / 3.0) * (18.0 + 17.0 * np.cos(theta) + np.cos(2.0 * theta))
        assert lams[0] == pytest.approx(expected, abs=1e-10)
        assert lams[1] == pytest.approx(0.0, abs=1e-10)
        assert abs(float(row[3])) < 1e-13 and abs(float(row[5])) < 1e-13


def test_spectrum_prints_negative_zero_as_zero(tmp_path, capsys):
    """The n = 16 dissipation spectrum holds a -0.0; the writer prints it as 0."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        argv = ("spectrum", "--operator", "dissipation", "--n", "16", "--output", str(path))
        assert run_cli(*argv) == 0
    capsys.readouterr()
    text = paths[0].read_text()
    assert text == paths[1].read_text()
    fields = [f for ln in text.splitlines() if not ln.startswith("#") for f in ln.split(",")]
    assert "0" in fields
    assert "-0" not in fields


def test_spectrum_operator_file_roundtrip(tmp_path, capsys):
    op_path = tmp_path / "op.json"
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert (
        run_cli(
            "spectrum", "--n", "10", "--operator", "d-minus",
            "--dump-operator", str(op_path), "--output", str(out_a),
        )
        == 0
    )
    assert (
        run_cli(
            "spectrum", "--n", "10", "--operator", f"file:{op_path}", "--output", str(out_b)
        )
        == 0
    )
    capsys.readouterr()
    data_a = [ln for ln in out_a.read_text().splitlines() if not ln.startswith("#")]
    data_b = [ln for ln in out_b.read_text().splitlines() if not ln.startswith("#")]
    assert data_a == data_b


@pytest.mark.parametrize(
    "field, value",
    [
        ("dx", float("nan")),
        ("scale", float("inf")),
        ("rows", [[float("nan"), 0.0], [0.0, 1.0]]),
        ("n", 5.7),
        ("n", "5"),
        ("offset", "1"),
        ("dx", True),
        ("scale", True),
        ("rows", [[True, 0.0], [0.0, 1.0]]),
        ("rows", [["1", 0.0], [0.0, 1.0]]),
    ],
)
def test_spectrum_rejects_a_non_finite_or_fractional_operator_file(field, value, tmp_path, capsys):
    """Nothing is printed or dumped: no ``nan`` rows, no ``NaN`` JSON, no n = 5
    from 5.7, and no JSON string or boolean read as a number."""
    op = {"n": 5, "dx": 1.0, "scale": 1.0, "blocks": [{"offset": 0, "rows": [[1.0, 0.0], [0.0, 1.0]]}]}
    if field in ("rows", "offset"):
        op["blocks"][0][field] = value
    else:
        op[field] = value
    op_path, dump = tmp_path / "op.json", tmp_path / "dump.json"
    op_path.write_text(json.dumps(op))
    argv = ("spectrum", "--operator", f"file:{op_path}", "--dump-operator", str(dump))
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not dump.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed operator description")


def test_spectrum_unknown_operator(capsys):
    assert run_cli("spectrum", "--operator", "laplacian") == 2
    assert "error:" in capsys.readouterr().err


def test_spectrum_missing_operator_file(capsys):
    assert run_cli("spectrum", "--operator", "file:/nonexistent/op.json") == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_writes_energy_trace(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    assert (
        run_cli("solve", "--n", "24", "--t-end", "1.0", "--output", str(path)) == 0
    )
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert any(ln.startswith("#") for ln in lines)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t,energy,gamma"
    first = data[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 1.0
    energies = [float(ln.split(",")[1]) for ln in data[1:]]
    e = np.array(energies)
    assert np.abs(e - e[0]).max() <= 1e-12 * e[0]


@pytest.mark.parametrize("dt_factor", ["1e-5", "1e-6", "1e-8"])
def test_solve_with_tiny_relaxed_steps_conserves_energy_and_lands_on_t_end(dt_factor, tmp_path, capsys):
    """Relaxed central rk4x2 at n = 50 over 200 steps of dt_factor * dx.

    The composed step forms d itself, never as u_next - u, so gamma =
    -2 u.Md / d.Md stays within its rounding of 1.  Its dot products round
    it by up to ``4n eps |u|_M / |d|_M`` (Higham, Thm. 3.1, and
    Cauchy-Schwarz for the diagonal M); d's own rounding, a few eps of
    ``|Q u|`` left after the difference stencil's cancellation, adds about
    as much again, so the bound is ``8n eps |u|_M / |d|_M``, with ``|d|_M``
    about ``dt |D u0|_M``.  A relaxed step ends at ``t + gamma dt``, so
    the run misses t_end by at most that bound times dt, or by a dropped
    remainder below 1e-9 dt, plus the rounding of t.  Before, d = u_next -
    u cancelled to eps |u|: the run ended 1.37e-6 past t_end with gamma =
    8025.6 at 1e-5, and was refused mid-run at 1e-6 and 1e-8."""
    n, eps = 50, np.finfo(float).eps
    grid = ops.build_grid(n)
    dt = float(dt_factor) * grid.dx
    t_end = 200 * dt
    path = tmp_path / "trace.csv"
    argv = ["solve", "--relaxation", "--n", str(n), "--dt-factor", dt_factor]
    assert run_cli(*argv, "--t-end", repr(t_end), "--output", str(path)) == 0
    capsys.readouterr()
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]
    t, energy, gamma = np.array([[float(x) for x in ln.split(",")] for ln in rows]).T
    assert len(rows) >= 201
    assert np.abs(energy - energy[0]).max() <= 2 * n * eps * energy[0]
    scheme = solver.make_scheme(grid, "central", 1.0)
    u0 = solver.project_initial(grid, solver.default_initial)
    bound = 8 * n * eps * math.sqrt(scheme.energy(u0) / scheme.energy(scheme.rhs(u0))) / dt
    assert np.abs(gamma - 1.0).max() <= bound < 1e-3
    assert abs(t[-1] - t_end) <= max(bound, 1e-9) * dt + 4 * eps * t_end


@pytest.mark.parametrize("variant", ["upwind", "central"])  # stage and composed steps
def test_solve_output_is_deterministic(variant, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert (
            run_cli(
                "solve", "--variant", variant, "--n", "20", "--t-end", "0.8",
                "--output", str(path),
            )
            == 0
        )
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_solve_json_and_final_state(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    state_path = tmp_path / "state.json"
    assert (
        run_cli(
            "solve", "--n", "16", "--t-end", "0.5", "--format", "json",
            "--output", str(trace_path), "--final-state", str(state_path),
        )
        == 0
    )
    capsys.readouterr()
    trace = json.loads(trace_path.read_text())
    assert trace["config"]["variant"] == "central"
    times = trace["trace"]["times"]
    assert times[0] == 0.0 and len(times) == len(trace["trace"]["energies"])
    state = json.loads(state_path.read_text())
    assert len(state["u"]) == 32
    assert all(np.isfinite(state["u"]))


def test_solve_unstable_combination_fails_cleanly(capsys):
    code = run_cli("solve", "--variant", "upwind", "--rk", "rk4", "--no-relaxation")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [("--speed", "1e300"), ("--variant", "upwind", "--speed", "-1e300")],
    ids=["central", "upwind"],
)
def test_solve_refuses_a_nan_energy_as_not_finite(argv, tmp_path, capsys):
    """An unrelaxed run whose first step overflows exits 1 with one
    ``error:`` line that names its NaN energy as not finite (not as having
    exceeded the initial energy), with no warning and no output file."""
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "solve", "--no-relaxation", *argv, "--n", "16", "--t-end", "0.5", "--output", str(out)
        )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: energy nan is not finite at t = ")
    assert "exceeded" not in lines[0]


def test_solve_custom_tableau(tmp_path, capsys):
    path = tmp_path / "rk4.json"
    path.write_text(
        json.dumps(
            {
                "name": "classical",
                "a": [[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0]],
                "b": [1 / 6, 1 / 3, 1 / 3, 1 / 6],
                "c": [0, 0.5, 0.5, 1],
            }
        )
    )
    assert (
        run_cli("solve", "--n", "16", "--t-end", "0.5", "--rk", f"custom:{path}") == 0
    )
    capsys.readouterr()


def test_solve_bad_custom_tableau(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert run_cli("solve", "--rk", f"custom:{path}") == 2
    assert "error:" in capsys.readouterr().err


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("order", [_INF, [4], {"a": 1}, 4.7, True], ids=str)
def test_solve_refuses_a_custom_tableau_order_that_is_not_a_positive_integer(order, tmp_path, capsys):
    """``order`` is validated with the tableau: no traceback, no truncation
    of 4.7 to 4, no ``true`` read as 1."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"a": [[0, 0], [1, 0]], "b": [0.5, 0.5], "c": [0, 1], "order": order}))
    assert run_cli("solve", "--n", "8", "--rk", f"custom:{path}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "order" in lines[0]


@pytest.mark.parametrize(
    "tableau",
    [
        {"a": [[0, 0], [1, 0]], "b": [_NAN, _NAN], "c": [0, 1]},
        {"a": [[0, 0], [_INF, 0]], "b": [0.5, 0.5], "c": [0, _INF]},
        {"a": [[0, 0], [1, 0]], "b": [0.5, 0.5], "c": [0, _NAN]},
        {"a": [[0, 0], [True, 0]], "b": [0.5, 0.5], "c": [0, True]},
        {"a": [[0, 0], [1, 0]], "b": ["0.5", 0.5], "c": [0, 1]},
        {"a": [[0, 0], ["1", 0]], "b": [0.5, 0.5], "c": [0, 1]},
    ],
    ids=["b_nan", "a_c_inf", "c_nan", "a_c_bool", "b_string", "a_string"],
)
def test_solve_rejects_a_non_finite_custom_tableau_up_front(tableau, tmp_path, capsys):
    """NaN passes every ``abs(...) > 1e-12`` guard; it must not reach the
    stepper.  Neither may a JSON boolean or string read as a number."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tableau))  # writes NaN and Infinity
    assert run_cli("solve", "--n", "8", "--rk", f"custom:{path}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("count", [0, 1, cli._CSV_CHUNK, cli._CSV_CHUNK + 1, 2 * cli._CSV_CHUNK + 1])
def test_csv_written_chunk_by_chunk_is_the_text_of_one_join(tmp_path, capsys, count):
    """To a file and to stdout, from a float array and from rows of mixed cells."""
    rng = np.random.default_rng(count)
    table = rng.normal(size=(count, 3)) * 10.0 ** rng.integers(-300, 300, size=(count, 3))
    table[::7, 1] = -0.0
    rows = [("x", i, *r) for i, r in enumerate(table.tolist())]
    config = {"n": count}

    def one_join(columns, cells):
        lines = [f"# schema_version = {cli.SCHEMA_VERSION}", f"# config = {json.dumps(config)}"]
        lines.append(",".join(columns))
        for row in cells:
            lines.append(",".join(c if isinstance(c, str) else "%.17g" % (float(c) + 0.0) for c in row))
        return "\n".join(lines) + "\n"

    path = tmp_path / "table.csv"
    for columns, data, cells in ((("a", "b", "c"), table, table.tolist()), (tuple("sabcd"), rows, rows)):
        want = one_join(columns, cells)
        cli._write_csv(str(path), config, columns, data)
        assert path.read_text() == want
        cli._write_csv(None, config, columns, data if isinstance(data, np.ndarray) else iter(data))
        assert capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# mass-scan
# ---------------------------------------------------------------------------


def test_mass_scan_classifies_window(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    assert (
        run_cli(
            "mass-scan", "--mp-min", "0.1", "--mp-max", "0.7", "--steps", "4",
            "--output", str(path),
        )
        == 0
    )
    capsys.readouterr()
    data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert data[0] == "m_v,m_p,classification,zero_multiplicity,min_eigenvalue"
    rows = [ln.split(",") for ln in data[1:]]
    assert [r[2] for r in rows] == [
        "indefinite",          # 0.1
        "positive_definite",   # 0.3
        "positive_definite",   # 0.5
        "indefinite",          # 0.7 > 2/3
    ]
    assert all(float(r[0]) == 1.0 for r in rows)


def test_mass_scan_endpoint_semidefinite(capsys):
    assert (
        run_cli(
            "mass-scan",
            "--mp-min", str(2.0 / 3.0), "--mp-max", str(2.0 / 3.0), "--steps", "1",
        )
        == 0
    )
    out = capsys.readouterr().out
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1].split(",")
    assert row[2] == "positive_semidefinite"
    assert int(row[3]) == 1


def _scan_rows(capsys, *argv):
    """Data rows of a mass-scan printed to stdout, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("mass-scan", *argv) == 0
    out = capsys.readouterr().out
    return [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]


@pytest.mark.parametrize(
    "huge, unit",
    [
        # m_p / m_v = 0 and 1e-308
        (("--mv", "1e308", "--mp-min", "0", "--mp-max", "1", "--steps", "2"),
         ("--mv", "1", "--mp-min", "0", "--mp-max", "1e-308", "--steps", "2")),
        # 2**1020 times the window sweep, both edges included: an exact rescaling
        (("--mv", repr(2.0**1020), "--mp-min", "0", "--mp-max", repr(2.0**1020), "--steps", "10"),
         ("--mv", "1", "--mp-min", "0", "--mp-max", "1", "--steps", "10")),
        # tiny weights, whose squares used to underflow to zero
        (("--mv", "1e-300", "--mp-min", "0", "--mp-max", "1e-300", "--steps", "7"),
         ("--mv", "1", "--mp-min", "0", "--mp-max", "1", "--steps", "7")),
    ],
    ids=["mv_1e308", "mv_2_to_1020", "mv_1e-300"],
)
def test_mass_scan_of_extreme_finite_weights_is_scale_free(capsys, huge, unit):
    """Finite but huge or tiny weights neither overflow nor change the classification."""
    big, ref = _scan_rows(capsys, *huge), _scan_rows(capsys, *unit)
    assert [r[2:4] for r in big] == [r[2:4] for r in ref]
    assert all(math.isfinite(float(r[4])) for r in big)
    scale = float(huge[1])
    zero_tol = 16 * np.finfo(float).eps * scale  # the classification's zero bound
    for r, q in zip(big, ref):
        assert float(r[4]) == pytest.approx(scale * float(q[4]), rel=1e-14, abs=zero_tol)


@pytest.mark.parametrize(
    "m_v, lo, hi, steps",
    [(1.0, -0.25, 1.25, 200), (1e-300, 0.0, 1e-300, 95)],
    ids=["unit_weight", "rescaled_weight"],
)
def test_mass_scan_rows_match_scalar_calls_across_passes(capsys, m_v, lo, hi, steps):
    """Rows classified in stacked passes print as the one-value calls do."""
    assert steps > spectral._CHUNK // (checks._CLASSIFY_N // 2 + 1)  # more than one pass
    rows = _scan_rows(capsys, "--mv", repr(m_v), "--mp-min", repr(lo), "--mp-max", repr(hi),
                      "--steps", str(steps))
    want = []
    for m_p in np.linspace(lo, hi, steps):
        c = checks.check_mass_definiteness(m_v, float(m_p))
        cells = (m_v, m_p, c.kind, c.zero_multiplicity, c.min_eigenvalue)
        want.append([x if isinstance(x, str) else "%.17g" % (float(x) + 0.0) for x in cells])
    assert rows == want


@pytest.mark.parametrize(
    "argv, flag, m_p",
    [
        (("--mv", "1e308", "--mp-min", "0", "--mp-max", "1e308", "--steps", "10"),
         "--mp-max", "1e+308"),
        (("--mv", "1e308", "--mp-min", "-3e307", "--mp-max", "0"), "--mp-min", "-3e+307"),
        (("--mv", "-1e308", "--mp-min", "0", "--mp-max", "3e307"), "--mp-max", "3e+307"),
    ],
    ids=["3_mp_overflows", "3_mp_minus_mv_overflows", "negative_mv"],
)
def test_mass_scan_rejects_overflowing_mass_coefficients_up_front(argv, flag, m_p, capsys):
    """Finite flags whose derived m_pp and m_vp overflow: exit 2, no warning, named cause."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("mass-scan", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: mass coefficients overflow")
    assert f"m_p = {m_p} ({flag})" in lines[0]
    assert "m_pp = (3 m_p - m_v) / 6 = " in lines[0] and "m_vp = (m_v - 3 m_p) / 2 = " in lines[0]


def test_mass_scan_just_below_the_overflow_runs_without_warnings(capsys):
    argv = ("--mv", "1e308", "--mp-min", "-2.5e307", "--mp-max", "5e307", "--steps", "4")
    rows = _scan_rows(capsys, *argv)
    assert [r[2] for r in rows] == ["indefinite"] * 2 + ["positive_definite"] * 2
    # the first row's true minimum eigenvalue lies past the float range
    assert float(rows[0][4]) == -math.inf
    assert all(math.isfinite(float(r[4])) for r in rows[1:])


def test_mass_scan_rejects_bad_ranges(capsys):
    assert run_cli("mass-scan", "--mp-min", "0.5", "--mp-max", "0.2") == 2
    assert run_cli("mass-scan", "--mp-min", "0.2", "--mp-max", "0.5", "--steps", "0") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "8", "--dt-factor", "1e-320"),
        ("solve", "--n", "8", "--t-end", "1e300", "--x-max", "1e-300"),
        ("solve", "--n", "50", "--dt-factor", "5e-324"),
        ("solve", "--n", "8", "--x-max", "1e-320"),
        ("spectrum", "--n", "8", "--x-max", "1e-320"),
        ("verify", "--n", "8", "--x-max", "1e-320"),
        # dx = 2**-1023: 1/dx is finite, the folded stencil sums are not
        ("spectrum", "--n", "4", "--x-max", "4.450147717014403e-308"),
        # dx = 2**-1019, one float past the smallest accepted cells
        ("solve", "--n", "4", "--x-max", "7.120236347223045e-307", "--t-end", "7.120236347223045e-307"),
        ("spectrum", "--n", "4", "--x-max", "7.120236347223045e-307"),
        ("verify", "--n", "4", "--x-max", "7.120236347223045e-307"),
    ],
)
def test_steps_and_cells_too_small_for_float_are_rejected_up_front(argv, tmp_path, capsys):
    """A step count t_end / dt or a scale 32/dx that overflows exits 2, with
    no traceback, no warning and no output file."""
    assert "not finite" in _refusal(argv, tmp_path, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "8", "--t-end", "1e300"),
        ("solve", "--n", "8", "--x-max", "1e-300"),
    ],
)
def test_step_counts_past_the_cap_are_rejected_up_front(argv, tmp_path, capsys):
    """Finite step counts of about 2.5e300 and 1e302, which would run without
    end, exit 2 before the first step."""
    assert f"past the cap MAX_STEPS = {solver.MAX_STEPS}" in _refusal(argv, tmp_path, capsys)


#: one float either side of the largest n = 8 domain [0, x_max] that verify accepts
_QUADRATIC_EDGE, _PAST_QUADRATIC_EDGE = "2.9795128733205766e+153", "2.979512873320577e+153"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "8", "--x-max", _PAST_QUADRATIC_EDGE),
        ("verify", "--n", "8", "--x-max", "1e160"),
        ("verify", "--n", "100", "--x-max", "1e155"),
        ("verify", "--n", "8", "--x-min=-1e200", "--x-max", "0"),
        ("verify", "--n", "8", "--x-max", "1e160", "--format", "json"),
    ],
)
def test_verify_refuses_domains_whose_quadratic_samples_overflow(argv, tmp_path, capsys):
    """Samples of x**2 past the float range, or derivative stencil sums of
    them, would end in an OverflowError traceback or NaN rows: exit 2."""
    assert "too large for the quadratic exactness checks" in _refusal(argv, tmp_path, capsys)


def _refusal(argv, tmp_path, capsys) -> str:
    """The one ``error:`` line of a call that exits 2 with no warning and no output."""
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--output", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


#: 4 * (one float above 2**-1019): the smallest cells build_grid accepts at n = 4
_EDGE = "7.120236347223046e-307"


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", "99999", "--x-max", "1e-150", "--operator", "central-d"),
        ("spectrum", "--n", "8", "--x-max", "1e250", "--operator", "diagonal-mass"),
        ("verify", "--n", "8", "--x-max", "1e-160"),
        ("verify", "--n", "64", "--x-max", "1e-300"),
        ("verify", "--n", "4", "--x-max", _EDGE),
        ("verify", "--n", "8", "--x-max", _QUADRATIC_EDGE),
        ("spectrum", "--n", "4", "--x-max", _EDGE, "--operator", "dissipation"),
        ("spectrum", "--n", "4", "--x-max", _EDGE, "--operator", "d-plus"),
        ("solve", "--n", "4", "--x-max", _EDGE, "--t-end", _EDGE),
    ],
)
def test_extreme_grids_run_cleanly(argv, tmp_path, capsys):
    """Symbols far outside 2**+-300, up to the smallest accepted cells: exit
    0, no warning, and no NaN or inf in the output."""
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--output", str(out)) == 0
    assert "FAIL" not in capsys.readouterr().out
    text = out.read_text().lower()
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--x-min", "nan"),
        ("verify", "--x-max", "inf"),
        ("spectrum", "--x-min=-1e308", "--x-max", "1e308"),
        ("solve", "--t-end", "inf"),
        ("solve", "--dt-factor", "inf"),
        ("solve", "--speed", "nan"),
        ("verify", "--x-min", "-inf"),
        ("mass-scan", "--mv", "nan", "--mp-min", "0", "--mp-max", "1", "--steps", "2"),
        ("mass-scan", "--mp-min", "0", "--mp-max", "inf", "--steps", "2"),
        ("mass-scan", "--mp-min", "-inf", "--mp-max", "0"),
        ("mass-scan", "--mp-min", "nan", "--mp-max", "nan", "--steps", "1"),
    ],
)
def test_non_finite_inputs_are_rejected_up_front(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "4", "--x-min", "-1e-3"),
        ("solve", "--n", "12", "--t-end", "0.3", "--speed", "-1e0"),
        ("mass-scan", "--mp-min", "-1e-1", "--mp-max", "1", "--steps", "5"),
    ],
)
def test_negative_values_in_exponent_form_are_values(argv, capsys):
    """A separate ``-1e-3`` after a flag is its value, as ``--flag=-1e-3`` is."""
    assert run_cli(*argv) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# output headers
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("verify", "--n", "5", "--x-min", "-1", "--output", "{out}"),
            {"command": "verify", "n": 5, "x_min": -1.0, "x_max": _TWO_PI},
        ),
        (
            ("verify", "--n", "4", "--format", "json", "--output", "{out}"),
            {"command": "verify", "n": 4, "x_min": 0.0, "x_max": _TWO_PI},
        ),
        (
            ("spectrum", "--n", "12", "--operator", "file:{op}", "--output", "{out}"),
            {"command": "spectrum", "operator": "file:{op}", "n": 7, "x_min": 0.0,
             "x_max": _TWO_PI},
        ),
        (
            ("spectrum", "--n", "6", "--x-max", "3", "--operator", "d-plus",
             "--dump-operator", "{op}", "--output", "{out}"),
            {"command": "spectrum", "operator": "d-plus", "n": 6, "x_min": 0.0, "x_max": 3.0},
        ),
        (
            ("solve", "--n", "8", "--t-end", "0.3", "--variant", "upwind", "--rk", "rk4",
             "--no-relaxation", "--dt-factor", "0.25", "--speed", "-2", "--format", "json",
             "--output", "{out}", "--final-state", "{state}"),
            {"command": "solve", "variant": "upwind", "n": 8, "x_min": 0.0, "x_max": _TWO_PI,
             "t_end": 0.3, "rk": "rk4", "relaxation": False, "dt_factor": 0.25, "speed": -2.0},
        ),
        (
            ("solve", "--n", "6", "--t-end", "0.2", "--output", "{out}"),
            {"command": "solve", "variant": "central", "n": 6, "x_min": 0.0, "x_max": _TWO_PI,
             "t_end": 0.2, "rk": "rk4x2", "relaxation": True, "dt_factor": 0.5, "speed": 1.0},
        ),
        (
            ("mass-scan", "--mv", "2", "--mp-min", "-1e-1", "--mp-max", "1", "--steps", "5",
             "--output", "{out}"),
            {"command": "mass-scan", "m_v": 2.0, "mp_min": -0.1, "mp_max": 1.0, "steps": 5},
        ),
    ],
    ids=["verify_csv", "verify_json", "spectrum_file_n", "spectrum_dump", "solve_json",
         "solve_defaults", "mass_scan_mv"],
)
def test_header_config_is_every_argument_but_the_destinations(argv, expected, tmp_path, capsys):
    """Each output header holds the full configuration, byte for byte.

    The file: operator holds n = 7, so the spectrum header reports 7 and not
    the ``--n 12`` given on the command line.
    """
    paths = {key: str(tmp_path / f"{key}.dat") for key in ("out", "op", "state")}
    if "file:{op}" in argv:
        assert run_cli("spectrum", "--n", "7", "--operator", "upwind-mass",
                       "--dump-operator", paths["op"], "--output", paths["out"]) == 0
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 0
    capsys.readouterr()
    expected = {key: value.format(**paths) if isinstance(value, str) else value
                for key, value in expected.items()}
    text = (tmp_path / "out.dat").read_text()
    if text.startswith("{"):
        configs = [json.loads(text)["config"]]
    else:
        assert text.splitlines()[0] == "# schema_version = 1"
        configs = [json.loads(text.splitlines()[1].removeprefix("# config = "))]
    if "{state}" in argv:
        configs.append(json.loads((tmp_path / "state.dat").read_text())["config"])
    for config in configs:
        assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "activeflux.cli", "verify", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "36/36 checks passed" in proc.stdout


def test_verify_runs_with_scipy_blocked_and_never_imports_it():
    """numpy is the only runtime dependency, the dense-oracle path (n <= 64) included."""
    blocked = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from activeflux import cli\n"
        "sys.exit(cli.main(['verify', '--n', '50']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", blocked], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "36/36 checks passed" in proc.stdout
    loaded = (
        "import sys\n"
        "import activeflux.cli\n"
        "from activeflux import build_grid, run_all\n"
        "assert all(r.passed for r in run_all(build_grid(50)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", loaded], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
