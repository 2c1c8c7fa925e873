"""``floattext.lines`` against ``'%.17g' % (x + 0.0)``, byte for byte."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeflux import cli, floattext


def formatted(values, width: int = 1) -> str:
    rows = np.asarray(values, dtype=np.float64).reshape(-1, width)
    return "".join(floattext.lines(rows, cli._CSV_CHUNK))


def reference(values, width: int = 1) -> str:
    rows = np.asarray(values, dtype=np.float64).reshape(-1, width).tolist()
    return "".join(",".join("%.17g" % (v + 0.0) for v in row) + "\n" for row in rows)


def assert_same(got: str, want: str) -> None:
    if got != want:  # name the first cell that differs, not the whole text
        pairs = zip(got.replace("\n", ",").split(","), want.replace("\n", ",").split(","))
        first = next(((g, w) for g, w in pairs if g != w), (got[-30:], want[-30:]))
        pytest.fail(f"formatted {first[0]!r}, '%.17g' gives {first[1]!r}")


def assert_same_text(values, width: int = 1) -> None:
    assert_same(formatted(values, width), reference(values, width))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1))
def test_every_float_prints_as_percent_17g(values):
    assert_same_text(values)


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64, size=2**20, dtype=np.uint64)
    assert_same_text(bits.view(np.float64), width=8)


def test_integers_up_to_two_to_the_53():
    rng = np.random.default_rng(53)
    ints = np.concatenate([rng.integers(0, 2**53, size=40000), 10 ** np.arange(16), [2**53]])
    assert_same_text(np.concatenate([ints, -ints]).astype(np.float64), width=2)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    values = np.concatenate([powers, below, above, np.nextafter(below, 0.0)])
    assert_same_text(np.concatenate([values, -values]), width=2)


def test_exact_ties_at_the_17th_digit_round_half_even():
    """Values whose exact expansion has 18 digits, the last a 5."""
    rng = np.random.default_rng(17)
    ties = [1.25e15 + 0.25]
    # 15 integer digits and 3 binary decimals, 16 and 2: 18 decimal digits
    spans = ((10**14, 10**15, (0.125, 0.375, 0.625, 0.875)), (10**15, 2 * 10**15, (0.25, 0.75)))
    for low, high, fractions in spans:
        ties += [i + f for i in rng.integers(low, high, 200).tolist() for f in fractions]
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert_same_text(ties + [-t for t in ties])


def test_the_decade_carry():
    """Doubles just below a power of ten whose 17 digits round up to it:
    ``'%.17g'`` prints the next decade (the double 1e-14 lies below 10**-14)."""
    carries = [1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129, 1e153, 1e220]
    for c in carries:
        assert Decimal(c) < Decimal(10) ** round(math.log10(c))
    assert_same_text(carries + [99999999999999999.0, 9999999999999999.5, 999999999999999.95])


def test_fixed_and_scientific_switch_at_1e_minus_5_and_1e17():
    edges = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17, 9.99999999999999e-5, 99999999999999990.0])
    steps = [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)]
    values = np.concatenate([*steps, np.nextafter(steps[0], 0.0), np.nextafter(steps[2], np.inf)])
    inside = [1.5e-5, 0.000123, 1.5e16, 12345678901234567.0]
    assert_same_text(np.concatenate([values, -values, inside]))


def test_zeros_subnormals_and_non_finite_values():
    tiny = np.finfo(np.float64).tiny
    values = [0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0), np.inf, -np.inf, np.nan]
    edges = [1e-280, 1e289, np.nextafter(1e-280, 0.0), np.nextafter(1e289, 0.0)]
    assert_same_text(values + [-np.nan] + edges)


@pytest.mark.parametrize("rows", [0, 1, cli._CSV_CHUNK, cli._CSV_CHUNK + 1])
def test_chunk_edges(rows):
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-30, 30, size=(rows, 3))
    table[::5, 0] = -0.0
    table[1::7, 2] = np.nan
    chunks = list(floattext.lines(table, cli._CSV_CHUNK))
    assert len(chunks) == -(-rows // cli._CSV_CHUNK)
    assert_same("".join(chunks), reference(table, width=3))


def test_a_spectrum_table_takes_no_value_through_the_fallback(tmp_path, monkeypatch):
    """The per-value ``'%'`` serves only non-finite values, magnitudes
    outside the tables and near-ties: none in a real spectrum."""
    calls = []
    number = floattext.number

    def counted(value):
        calls.append(value)
        return number(value)

    monkeypatch.setattr(floattext, "number", counted)
    path = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--n", "95000", "--operator", "dissipation", "--output", str(path)]
    assert cli.main(argv) == 0
    assert not calls, f"{len(calls)} values took the fallback, the first {calls[:3]}"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 3 + 95000
    # '%.17g' round-trips, so the parsed table formats back to the same text
    table = np.array([line.split(",") for line in lines[3:]], dtype=float)
    assert_same("".join(lines[3:]), reference(table, width=6))
    assert formatted([1.5, np.inf]) == "1.5\ninf\n"
    assert calls == [np.inf]  # the count sees the fallback
