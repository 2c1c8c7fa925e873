"""Command-line front end: verify, spectrum, solve, mass-scan.

All file output is byte-deterministic: CSV numbers print as
``'%.17g' % (x + 0.0)`` (17 significant digits, -0.0 as ``0``), JSON numbers
as ``json.dumps`` prints them (Python's shortest round-trip ``repr``, -0.0
as ``-0.0``), so both read back bit-exactly.  JSON keys are sorted, lines end
with ``\n``, and no timestamps or environment data are written.  Each output
starts with ``#`` header lines (CSV) or a ``config`` object (JSON) carrying
the schema version and the exact configuration that produced it.  A float
table (``spectrum``, the ``solve`` trace) is formatted in numpy with the
bytes of ``'%.17g'`` (:mod:`activeflux.floattext`).

Exit codes: 0 success / all checks passed; 1 a check failed or the energy
blew up; 2 usage or configuration errors (bad flags, malformed files,
parameters outside their admissible range).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Iterable, Iterator, Optional

import numpy as np

from . import checks, floattext, solver, spectral
from . import operators as ops

__all__ = ["main", "console_main"]

SCHEMA_VERSION = 1

_TWO_PI = 2.0 * math.pi

#: rows formatted and written at a time
_CSV_CHUNK = 1024


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _emit(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write the strings of ``chunks`` in order to ``path``, or to stdout for None or ``-``."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _csv_chunks(config: dict, columns, rows) -> Iterator[str]:
    """``#`` header lines, the column line, one line per row, in chunks of ``_CSV_CHUNK`` rows.

    String cells pass through.  Numbers print as ``'%.17g' % (x + 0.0)``:
    17 significant digits (integers as themselves below 2**53), and
    ``+ 0.0`` turns -0.0 into 0.0 and leaves every other value alone.  A
    2-D float array is formatted in numpy, a chunk at a time, by
    :func:`floattext.lines`, with the same bytes.  Only one chunk's text is
    alive at a time, so the memory of writing a table does not grow with
    its length.
    """
    config_json = json.dumps(config, sort_keys=True, default=_json_default)
    yield f"# schema_version = {SCHEMA_VERSION}\n# config = {config_json}\n{','.join(columns)}\n"
    if isinstance(rows, np.ndarray) and rows.size:
        yield from floattext.lines(rows, _CSV_CHUNK)
        return
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
        cells = ((c if isinstance(c, str) else floattext.number(c) for c in row) for row in chunk)
        yield "\n".join(map(",".join, cells)) + "\n"


def _write_csv(path: Optional[str], config: dict, columns, rows) -> None:
    _emit(_csv_chunks(config, columns, rows), path)


def _write_json(path: Optional[str], config: dict, **body) -> None:
    _emit([_json_text({"schema_version": SCHEMA_VERSION, "config": config, **body})], path)


def _config(args) -> dict:
    """The header configuration: every parsed argument except the output destinations."""
    skip = ("output", "format", "dump_operator", "final_state")
    return {key: value for key, value in vars(args).items() if key not in skip}


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=50, help="number of cells (default 50)")
    p.add_argument("--x-min", type=float, default=0.0, help="left end of the domain")
    p.add_argument(
        "--x-max", type=float, default=_TWO_PI, help="right end of the domain (default 2*pi)"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` does not change it."""
    parser = argparse.ArgumentParser(
        prog="activeflux",
        description="Active Flux operators: verification, spectra, advection runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full operator check battery")
    _add_grid_args(p_verify)
    p_verify.add_argument("--output", help="write a machine-readable report here")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")

    p_spec = sub.add_parser("spectrum", help="per-mode eigenvalues of an operator")
    _add_grid_args(p_spec)
    p_spec.add_argument(
        "--operator",
        default="central-d",
        help=(
            "central-d | d-minus | d-plus | diagonal-mass | upwind-mass | "
            "dissipation | file:<path to operator JSON>"
        ),
    )
    p_spec.add_argument("--output", help="CSV destination (default stdout)")
    p_spec.add_argument("--dump-operator", help="also write the operator as JSON here")

    p_solve = sub.add_parser("solve", help="advect exp(sin x) and trace the energy")
    _add_grid_args(p_solve)
    p_solve.add_argument("--variant", choices=("central", "upwind"), default="central")
    p_solve.add_argument("--speed", type=float, default=1.0, help="advection speed a")
    p_solve.add_argument(
        "--dt-factor", type=float, default=0.5, help="time step as a fraction of dx"
    )
    p_solve.add_argument("--t-end", type=float, default=_TWO_PI)
    p_solve.add_argument(
        "--rk",
        default="rk4x2",
        help=(
            "rk4x2 (two composed RK4 half-steps, default) | rk4 | ssprk33 | "
            "custom:<butcher json file>"
        ),
    )
    p_solve.add_argument(
        "--relaxation",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="energy-matching step rescaling (default on)",
    )
    p_solve.add_argument("--output", help="energy trace destination (default stdout)")
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_solve.add_argument("--final-state", help="write the final dof vector as JSON here")

    p_scan = sub.add_parser("mass-scan", help="classify the mass family along m_p")
    p_scan.add_argument(
        "--mv", dest="m_v", metavar="MV", type=float, default=1.0, help="average weight m_v"
    )
    p_scan.add_argument("--mp-min", type=float, required=True)
    p_scan.add_argument("--mp-max", type=float, required=True)
    p_scan.add_argument("--steps", type=int, default=101)
    p_scan.add_argument("--output", help="CSV destination (default stdout)")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    grid = ops.build_grid(args.n, args.x_min, args.x_max)
    reports = checks.run_all(grid)
    config = _config(args)

    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  residual {r.residual:.3e}  tol {r.tolerance:.3e}")
    n_pass = sum(r.passed for r in reports)
    print(f"{n_pass}/{len(reports)} checks passed (n = {args.n})")

    if args.output and args.format == "json":
        _write_json(args.output, config, reports=[r.to_json_dict() for r in reports])
    elif args.output:
        rows = [(r.name, int(r.passed), r.residual, r.tolerance) for r in reports]
        _write_csv(args.output, config, ("name", "passed", "residual", "tolerance"), rows)
    return 0 if n_pass == len(reports) else 1


def _resolve_operator(name: str, grid: ops.Grid) -> ops.BlockCirculantOp:
    if name.startswith("file:"):
        path = name[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read operator file {path!r}: {exc}") from exc
        return ops.BlockCirculantOp.from_json_dict(data)
    builders = {
        "central-d": ops.central_D,
        "d-minus": ops.upwind_D_minus,
        "d-plus": ops.upwind_D_plus,
        "diagonal-mass": ops.diagonal_mass,
        "upwind-mass": ops.upwind_mass,
        "dissipation": lambda g: ops.upwind_mass(g)
        @ (ops.upwind_D_plus(g) - ops.upwind_D_minus(g)),
    }
    if name not in builders:
        raise ValueError(
            f"unknown operator {name!r}; choose one of {sorted(builders)} or file:<path>"
        )
    return builders[name](grid)


def _cmd_spectrum(args) -> int:
    grid = ops.build_grid(args.n, args.x_min, args.x_max)
    op = _resolve_operator(args.operator, grid)
    config = dict(_config(args), n=op.n)  # a file: operator brings its own n
    pairs = spectral.eigenvalues(op).reshape(op.n, 2)
    k = np.arange(op.n)
    rows = np.column_stack((k, 2.0 * np.pi * k / op.n, pairs.real[:, 0], pairs.imag[:, 0],
                            pairs.real[:, 1], pairs.imag[:, 1]))
    columns = ("k", "theta", "re_lambda_1", "im_lambda_1", "re_lambda_2", "im_lambda_2")
    _write_csv(args.output, config, columns, rows)
    if args.dump_operator:
        _emit([_json_text(op.to_json_dict())], args.dump_operator)
    return 0


def _cmd_solve(args) -> int:
    config = _config(args)
    fields = {key: value for key, value in config.items() if key not in ("command", "speed")}
    try:
        trace, u_final = solver.run_experiment(
            solver.ExperimentConfig(**fields, advection_speed=args.speed)
        )
    except RuntimeError as exc:  # blow-up guard, relaxation breakdown, step budget
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        trace_json = {"times": trace.times, "energies": trace.energies, "gammas": trace.gammas}
        _write_json(args.output, config, trace=trace_json)
    else:
        rows = np.column_stack((trace.times, trace.energies, trace.gammas))
        _write_csv(args.output, config, ("t", "energy", "gamma"), rows)
    if args.final_state:
        _write_json(args.final_state, config, u=u_final)
    return 0


def _cmd_mass_scan(args) -> int:
    for flag, value in (("--mv", args.m_v), ("--mp-min", args.mp_min), ("--mp-max", args.mp_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if args.mp_max < args.mp_min:
        raise ValueError("--mp-max must not be below --mp-min")
    # the derived couplings are monotone in m_p: finite at both ends, finite between
    for flag, m_p in (("--mp-min", args.mp_min), ("--mp-max", args.mp_max)):
        params = ops.MassParams(m_v=args.m_v, m_p=m_p)
        derived = {
            "m_pp = (3 m_p - m_v) / 6": params.m_pp,
            "m_vp = (m_v - 3 m_p) / 2": params.m_vp,
        }
        bad = [f"{name} = {value}" for name, value in derived.items() if not math.isfinite(value)]
        if bad:
            raise ValueError(
                f"mass coefficients overflow at m_v = {args.m_v!r} (--mv), "
                f"m_p = {m_p!r} ({flag}): {', '.join(bad)}"
            )
    sweep = np.linspace(args.mp_min, args.mp_max, args.steps)
    rows = (
        (args.m_v, m_p, cls.kind, cls.zero_multiplicity, cls.min_eigenvalue)
        for m_p, cls in zip(sweep, checks.check_mass_definiteness(args.m_v, sweep))
    )
    columns = ("m_v", "m_p", "classification", "zero_multiplicity", "min_eigenvalue")
    _write_csv(args.output, _config(args), columns, rows)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "mass-scan": _cmd_mass_scan,
}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _bind_negative_values(argv: list) -> list:
    """Rewrite ``--flag -1e-3`` as ``--flag=-1e-3``.

    argparse takes a separate argument starting with ``-`` for an option
    unless it looks like a plain negative decimal, so ``-1e-3`` or ``-inf``
    would be rejected; the ``=`` form always binds the value to its flag.
    """
    out: list = []
    for arg in argv:
        prev = out[-1] if out else ""
        bare_flag = prev.startswith("--") and len(prev) > 2 and "=" not in prev
        if bare_flag and arg.startswith("-") and _is_float(arg):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse already printed usage/help; normalize the exit code
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
