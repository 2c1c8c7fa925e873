"""The half-mode symbol kernel against the per-block ``exp`` sum it replaced.

``_reference_symbols`` and ``_reference_classify`` are the former
evaluation path, kept here as the differential oracle: every mode is
evaluated on its own, one complex exponential per stored block, and the
classification counts all ``n`` modes.
"""

import json

import numpy as np
import pytest

from activeflux import checks, cli
from activeflux import operators as ops
from activeflux import spectral
from activeflux.operators import BlockCirculantOp, MassParams

EPS = float(np.finfo(float).eps)


def _reference_symbols(op):
    """``scale * sum_j exp(i theta j) A_j`` for every mode, one ``exp`` per block."""
    theta = 2.0 * np.pi * np.arange(op.n) / op.n
    out = np.zeros((op.n, 2, 2), dtype=complex)
    for j, a in op.blocks.items():
        out += np.exp(1j * (theta * j))[:, None, None] * a
    return op.scale * out


def _reference_classify(op):
    """(kind, zero multiplicity) from all ``n`` reference symbols."""
    B = _reference_symbols(op)
    a = B[:, 0, 0].real
    d = B[:, 1, 1].real
    b = np.abs(0.5 * (B[:, 0, 1] + np.conj(B[:, 1, 0])))
    mean = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + b**2)
    lam = np.concatenate((mean - rad, mean + rad))
    tol = np.tile(16.0 * EPS * (np.abs(a) + np.abs(d) + 2.0 * b), 2)
    zeros = int(np.count_nonzero(np.abs(lam) <= tol))
    npos = int(np.count_nonzero(lam > tol))
    nneg = int(np.count_nonzero(lam < -tol))
    if nneg == 0:
        kind = "positive_definite" if zeros == 0 else "positive_semidefinite"
    elif npos == 0:
        kind = "negative_definite" if zeros == 0 else "negative_semidefinite"
    else:
        kind = "indefinite"
    return kind, zeros


def _rounding_bound(op):
    """Entrywise bound on |kernel - reference|: ``c eps |scale| sum_j max|A_j|``.

    First-order error terms, relative to ``|scale| max|A_j|`` per block:

    * reference phase ``fl(fl(theta) j)``: ``theta = 2 pi k / n`` rounds three
      times (``np.pi``, the product, the quotient), at most ``1.5 eps`` of
      ``2 pi``, i.e. ``3 pi eps``; times ``j`` and one more rounding gives
      ``4 pi |j| eps``, and ``exp`` adds ``eps`` to each of cos and sin;
    * kernel phase ``2 pi ((s k) mod n) / n``: the integer reduction is
      exact, so ``3 pi eps``, plus ``eps`` for cos and sin;
    * products and sums: each side forms ``J`` products (``eps/2`` each),
      sums at most ``J`` terms (``(J - 1) eps``) and multiplies by ``scale``
      (``eps/2``), the kernel also merges ``A_s + A_-s`` (``eps/2``):
      ``2 J + 2`` eps covers both sides.
    """
    jmax = max((abs(j) for j in op.blocks), default=0)
    J = len(op.blocks)
    c = 4.0 * np.pi * jmax + 3.0 * np.pi + 2.0 * J + 4.0
    return c * EPS * abs(op.scale) * sum(float(np.abs(a).max()) for a in op.blocks.values())


def _file_operator(n):
    """A random operator read as outside input, with aliasing offsets on small rings."""
    rng = np.random.default_rng(7)
    blocks = [{"offset": j, "rows": rng.normal(size=(2, 2)).tolist()} for j in (-3, -1, 0, 2, 5)]
    return BlockCirculantOp.from_json_dict({"n": n, "dx": 0.1, "scale": 0.7, "blocks": blocks})


def _dissipation(g):
    return ops.upwind_mass(g) @ (ops.upwind_D_plus(g) - ops.upwind_D_minus(g))


BUILDERS = {
    "central_D": ops.central_D,
    "upwind_D_minus": ops.upwind_D_minus,
    "upwind_D_plus": ops.upwind_D_plus,
    "diagonal_mass": ops.diagonal_mass,
    "upwind_mass": ops.upwind_mass,
    "banded_mass": lambda g: ops.banded_mass(g, MassParams(1.0, 0.4, 0.07)),
    "scaled_central_mass": lambda g: ops.scaled_central_mass(g, 1.0, 0.4),
    "extended_mass": lambda g: ops.extended_mass(g, MassParams(1.0, 0.4, 0.05, 0.01, 0.002)),
    "dissipation": _dissipation,
    "file_operator": lambda g: _file_operator(g.n),
}

SYMMETRIC = ("diagonal_mass", "upwind_mass", "banded_mass", "scaled_central_mass", "extended_mass")

SIZES = list(range(3, 65)) + [99_999, 100_000]


def _check_against_reference(op):
    B = spectral._all_symbols(op)
    assert B.shape == (op.n, 2, 2)
    err = float(np.abs(B - _reference_symbols(op)).max())
    assert err <= _rounding_bound(op)
    # every stored block is real: the mirror is exact, for odd and even n
    k = np.arange(1, op.n)
    assert np.array_equal(B[op.n - k], np.conj(B[k]))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_symbols_match_the_per_block_exp_sum(name):
    for n in SIZES:
        _check_against_reference(BUILDERS[name](ops.build_grid(n)))


@pytest.mark.parametrize("n", [3, 4, 7, 8, 99_999, 100_000])
def test_eigenvalue_pairs_of_mirrored_modes_are_conjugate(n):
    g = ops.build_grid(n)
    for op in (ops.central_D(g), ops.upwind_D_minus(g), _dissipation(g), _file_operator(n)):
        pairs = spectral.eigenvalues(op).reshape(n, 2)
        k = np.array([k for k in range(1, n) if 2 * k != n])  # k = n/2 is its own mirror
        mirror = np.sort_complex(np.conj(pairs[n - k]))
        assert np.array_equal(np.sort_complex(pairs[k]), mirror)
        # and each pair keeps the (re, im) order
        lo, hi = pairs[:, 0], pairs[:, 1]
        assert np.all((lo.real < hi.real) | ((lo.real == hi.real) & (lo.imag <= hi.imag)))


@pytest.mark.parametrize("name", SYMMETRIC + ("dissipation",))
def test_classification_matches_the_full_mode_formula(name):
    for n in SIZES:
        op = BUILDERS[name](ops.build_grid(n))
        if name == "dissipation":
            op = 0.5 * (op + op.T)
        cls = spectral.hermitian_classify(op)
        assert (cls.kind, cls.zero_multiplicity) == _reference_classify(op)


def _mass_sweep(m_v):
    """1001 points across both window edges, plus each exact edge and +-3 ulps."""
    points = list(np.linspace(-0.25 * m_v, 1.25 * m_v, 1001))
    for edge in (2.0 * m_v / 9.0, 2.0 * m_v / 3.0):
        below = above = edge
        points.append(edge)
        for _ in range(3):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            points += [below, above]
    return points


@pytest.mark.parametrize("m_v", [0.5, 1.0, 2.0, 1e-3, 1e3])
def test_mass_scan_classification_matches_the_full_mode_formula(m_v):
    grid = ops.build_grid(checks._CLASSIFY_N, 0.0, float(checks._CLASSIFY_N))
    for m_p in _mass_sweep(m_v):
        cls = checks.check_mass_definiteness(m_v, float(m_p))
        ref = _reference_classify(ops.banded_mass(grid, MassParams(m_v, float(m_p))))
        assert (cls.kind, cls.zero_multiplicity) == ref, (m_v, m_p)


# ---------------------------------------------------------------------------
# far-out stored offsets
# ---------------------------------------------------------------------------


def _far_out(op, shifts):
    """``op`` as read from a file whose offsets are moved by multiples of n."""
    data = op.to_json_dict()
    for blk in data["blocks"]:
        blk["offset"] += shifts.get(blk["offset"], 0)
    return BlockCirculantOp.from_json_dict(json.loads(json.dumps(data)))


FAR_SHIFTS = [{1: 64 * 10**12}, {-1: -3 * 64 * 10**12, 1: 64 * 10**15}]


@pytest.mark.parametrize("shifts", FAR_SHIFTS, ids=["plus_one", "both_sides"])
def test_far_out_offsets_give_the_symbols_of_the_reduced_operator(shifts):
    op = ops.central_D(ops.build_grid(64))
    far = _far_out(op, shifts)
    assert np.array_equal(far.matvec(np.arange(128.0)), op.matvec(np.arange(128.0)))
    assert np.array_equal(spectral._all_symbols(far), spectral._all_symbols(op))
    assert np.array_equal(spectral.eigenvalues(far), spectral.eigenvalues(op))


@pytest.mark.parametrize("shifts", FAR_SHIFTS, ids=["plus_one", "both_sides"])
def test_far_out_offsets_give_the_spectrum_of_the_reduced_operator(shifts, tmp_path, capsys):
    op = ops.central_D(ops.build_grid(64))
    tables = []
    for name, which in (("near", op), ("far", _far_out(op, shifts))):
        op_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        op_path.write_text(json.dumps(which.to_json_dict()))
        assert cli.main(["spectrum", "--operator", f"file:{op_path}", "--output", str(out)]) == 0
        tables.append([ln for ln in out.read_text().splitlines() if not ln.startswith("#")])
    capsys.readouterr()
    assert tables[0] == tables[1]
