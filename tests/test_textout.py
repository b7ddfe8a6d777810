import io
import math

import numpy as np
import pytest

from aulmpm import textout


def _per_value_rows(table) -> bytes:
    """The writer's spec: every value through '%.17g' % x, one line per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in table.tolist()).encode()


def _oracle_values() -> np.ndarray:
    """About 2e5 doubles: random bit patterns over all finite doubles, the
    ranges a frame holds, decimal ties, powers of ten and their neighbours,
    the vectorized path's range edges, zeros, subnormals, inf and nan."""
    rng = np.random.default_rng(20261021)
    bits = rng.integers(0, 2**64 - 1, size=50_000, dtype=np.uint64, endpoint=True)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 0.5, 1.0, 1e16, 1e17, 1e-7, 1e-5, 1e-4]
    # dyadic values whose 18th significant digit is a final 5: exact ties at 17 digits
    ties = np.concatenate([
        rng.integers(10**14, 9 * 10**14, 10_000) + rng.integers(0, 4, 10_000) * 0.25 + 0.125,
        (2 * rng.integers(0, 2**20, 10_000) + 1) * 2.0**-25,
    ])
    tens = 10.0 ** np.arange(-100, 101)
    near = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    nearer = 9.9999999999999995e-08 * 10.0 ** np.arange(-90, 92)
    frame_like = np.concatenate([
        rng.standard_normal(15_000) * 10.0 ** rng.integers(-25, 25, 15_000),
        rng.random(5_000), 1.0 + rng.standard_normal(5_000) * 1e-6,
        rng.integers(0, 10**6, 5_000).astype(np.float64)])
    subnormal = rng.integers(1, 2**52, 1_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([bits.view(np.float64), special, ties, near, nearer,
                             frame_like, subnormal])
    return np.concatenate([values, -values])


def test_format_rows_is_exactly_per_value_formatting():
    values = _oracle_values()
    table = values[:values.size // 7 * 7].reshape(-1, 7)
    assert table.size > 2e5
    got = textout.format_rows(table).tobytes()
    want = _per_value_rows(table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} lines differ, first {bad[0]}")


def test_exponent_is_decided_on_the_pair():
    # 1e-7 is 9.9999999999999995e-08: a 10^23 is 9999999999999999.5 and
    # below 1e16, which the double p + t rounds up to 1e16
    values = np.array([[1e-7, -1e-7, 1e-17, 1e23, 9.9999999999999995e-08]])
    assert textout.format_rows(values).tobytes() == _per_value_rows(values)


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_write_rows_chunks_join_to_one_table(chunk):
    rng = np.random.default_rng(3)
    table = np.column_stack([np.arange(50.0), rng.standard_normal((50, 3)), np.full(50, 2.0)])
    fh = io.BytesIO()
    textout.write_rows(fh, table, chunk)
    assert fh.getvalue() == _per_value_rows(table)
    fh = io.BytesIO()
    textout.write_rows(fh, table[:0], chunk)
    assert fh.getvalue() == b""


def test_only_undecidable_values_take_the_per_value_path(monkeypatch):
    seen = []
    monkeypatch.setattr(textout, "_per_value", lambda x: seen.append(x) or b"%.17g" % x)
    ordinary = np.array([[0.0, -0.0, 1.0, 1e-7, 3.1e-20, -2.5e98, 123456.789]])
    textout.format_rows(ordinary)
    assert seen == []
    odd = np.array([[5e-324, 1e-120, 1e300, math.inf, math.nan, 123456789012345.125]])
    assert textout.format_rows(odd).tobytes() == _per_value_rows(odd)
    assert len(seen) == odd.size
