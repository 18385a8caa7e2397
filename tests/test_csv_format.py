"""The CSV writer's number formatting against its oracle: each value's text
is exactly ``repr`` of its Python scalar, ``repr(float(x))`` for a float64.

check_bit_patterns also runs on its own, over more patterns than tier-1 does:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests');
        import test_csv_format; test_csv_format.check_bit_patterns(10**7, seed=1)"
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droopinertia.csvblock import format_block

CHUNK = 1 << 16


def mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """(repr, written text) of each value of a 1-d column whose text is not
    its repr."""
    written = bytes(format_block([values])).decode("ascii").split("\n")
    assert written.pop() == ""
    expected = list(map(repr, values.tolist()))
    assert len(written) == len(expected)
    return [(e, w) for e, w in zip(expected, written) if e != w]


def check_bit_patterns(count: int, seed: int) -> None:
    """Format count seeded random float64 bit patterns, CHUNK at a time, and
    fail on the first chunk holding a text that is not its value's repr."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        bits = rng.integers(0, 1 << 64, size=min(CHUNK, count - start), dtype=np.uint64)
        bad = mismatches(bits.view(np.float64))
        assert not bad, f"chunk at {start}: {bad[:5]}"


def test_random_bit_patterns():
    check_bit_patterns(10**6, seed=2025)


def test_random_magnitudes():
    # the formatter's own path: normal floats below 2**49, of 1 to 17 digits
    rng = np.random.default_rng(7)
    for _ in range(4):
        values = rng.normal(size=CHUNK) * 10.0 ** rng.integers(-30, 16, size=CHUNK)
        assert not mismatches(values)
        digits = rng.integers(1, 10 ** rng.integers(1, 18, size=CHUNK), dtype=np.int64)
        assert not mismatches(digits * 10.0 ** rng.integers(-25, 10, size=CHUNK))


EDGES = [
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    float(2**53 - 1), float(2**53), float(2**53 + 1), 2.0**53 + 2,
    0.1, 0.2, 0.3, 1e-05, 9.999999999999999e-05, 0.0001, 9999999999999998.0,
    1e16, 1e22, 1e23, 0.0, -0.0, np.inf, -np.inf, np.nan,
    float(np.iinfo(np.int64).min), float(np.iinfo(np.int64).max),
]


def test_edge_values():
    powers = [2.0**e for e in range(-1074, 1024)]
    values = np.array(powers + EDGES)
    assert not mismatches(np.concatenate([values, -values]))


def test_int64_extremes():
    info = np.iinfo(np.int64)
    assert not mismatches(np.array([info.min, info.max, 0, -1, 1], dtype=np.int64))


def test_constant_and_repeated_columns():
    # a constant column, and one bit-identical to an earlier one, are each
    # formatted once; -0.0 is not 0.0, and two NaNs of one pattern are equal
    rng = np.random.default_rng(3)
    varied = rng.normal(size=1000)
    cols = [np.zeros(1000), np.full(1000, -0.0), varied, np.full(1000, np.nan),
            varied.copy(), np.arange(1000), np.zeros(1000, np.int64)]
    rows = bytes(format_block(cols)).decode().splitlines()
    assert rows == [",".join(repr(c[i].item()) for c in cols) for i in range(1000)]


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _both_signs(x: float) -> np.ndarray:
    # never a constant column: the two values differ in their sign bit
    return np.array([x, -x])


@SETTINGS
@given(st.floats())
def test_floats_property(x):
    assert not mismatches(_both_signs(x))


@SETTINGS
@given(st.integers(0, (1 << 64) - 1))
def test_bit_pattern_property(bits):
    assert not mismatches(_both_signs(float(np.array(bits, np.uint64).view(np.float64))))


@pytest.mark.parametrize("count", range(1, 18))
def test_every_layout(count):
    # values of count significant digits, of either sign, with the decimal
    # point at every position from 10**-320 to 10**308: each fixed and
    # scientific layout of that many digits
    rng = np.random.default_rng(count)
    digits = rng.integers(10 ** (count - 1), 10**count, size=6, dtype=np.int64)
    digits += digits % 10 == 0  # a last digit of 0 would shorten the text
    values = np.array([float(f"{d}e{point - count}")
                       for point in range(-320, 309) for d in digits.tolist()])
    assert np.isfinite(values).all()
    assert not mismatches(np.concatenate([values, -values]))


@pytest.mark.parametrize("dtype", ["int64", "int32", "uint64", "uint8", "float32", "float16",
                                   "bool"])
def test_column_of_another_dtype(dtype):
    # repr of each value's Python scalar, beside a float64 column
    rng = np.random.default_rng(5)
    col = (rng.normal(size=3000) * 1000).astype(dtype)
    floats = np.arange(3000) * 0.1
    rows = bytes(format_block([col, floats])).decode().splitlines()
    assert rows == [f"{col[i].item()!r},{floats[i].item()!r}" for i in range(3000)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 5e-324, -1e-310, 0.5, -0.0,
                                   2.0**60, -1e300, 1.7976931348623157e308])
def test_special_value_in_a_varied_column(value):
    # a value off the vectorized path, whose text is repr's and for most of
    # them longer than a slot's words, or -0.0, which the path sets out apart
    # from its digits, among values the path formats
    col = np.linspace(1.0, 2.0, 5000)
    col[[0, 1234, 4000, 4999]] = value
    rows = bytes(format_block([col, col[::-1], col])).decode().splitlines()
    assert rows == [f"{col[i].item()!r},{col[-1 - i].item()!r},{col[i].item()!r}"
                    for i in range(5000)]


@pytest.mark.parametrize("size", [1, 2, 3, 17])
def test_short_columns(size):
    rng = np.random.default_rng(size)
    assert not mismatches(rng.normal(size=size) * 1e-3)
