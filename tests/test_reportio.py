import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitlab.reportio import write_csv

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310,
           2.2250738585072014e-308, 1e308, -1e308, 0.1, 1.0 / 3.0]


def _fmt_reference(value):
    """The cell rule of the row-wise writer, kept as the oracle."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_rows_reference(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_reference(v) for v in row])
    return path


def _assert_same_bytes(tmp_path, header, columns):
    got = write_csv(tmp_path / "columns.csv", header, columns).read_bytes()
    rows = list(zip(*columns))
    want = _write_rows_reference(tmp_path / "rows.csv", header, rows).read_bytes()
    assert got == want


def _columns(floats, ints, big, mixed):
    """Float, integer, object and complex columns as arrays and lists."""
    f64 = np.array(floats, dtype=float)
    i64 = np.array(ints, dtype=np.int64)
    header = ("f64", "f32", "flist", "i64", "u8", "ilist", "big", "mixed",
              "npscalars", "complex", "bool")
    with np.errstate(over="ignore", invalid="ignore"):
        columns = (f64, f64.astype(np.float32), floats, i64, (i64 % 256).astype(np.uint8),
                   ints, big, mixed, [np.float64(v) for v in floats],
                   f64 + 1j * f64[::-1], f64 > 0)
    return header, columns


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
INT64 = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(0, 40))
def test_columns_match_row_reference(tmp_path_factory, data, n):
    def draw(elements):
        return data.draw(st.lists(elements, min_size=n, max_size=n))

    header, columns = _columns(draw(FLOATS), draw(INT64), draw(st.integers()),
                               draw(st.one_of(st.none(), FLOATS, INT64)))
    _assert_same_bytes(tmp_path_factory.mktemp("csv"), header, columns)


def test_special_values_match_row_reference(tmp_path):
    n = len(SPECIAL)
    mixed = [None, 1, 2.5, -0.0, math.nan, np.int64(-7), np.float32(0.1)]
    header, columns = _columns(SPECIAL, list(range(-6, n - 6)),
                               [2**70, -2**64] + [0] * (n - 2),
                               mixed + [None] * (n - len(mixed)))
    _assert_same_bytes(tmp_path, header, columns)


def test_strided_views_and_none_cell(tmp_path):
    pairing = (np.arange(12.0).reshape(3, 4) / 7.0 - 1j / 3.0).T
    flat = pairing.ravel()
    i, j = np.divmod(np.arange(flat.size), pairing.shape[1])
    _assert_same_bytes(tmp_path, ("i", "j", "re", "im"), (i, j, flat.real, flat.imag))
    _assert_same_bytes(tmp_path, ("scale", "ratio"), ([0.05, 0.1], [None, 2.5]))
    assert (tmp_path / "columns.csv").read_bytes() == b"scale,ratio\r\n0.05,None\r\n0.1,2.5\r\n"


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), ([1, 2], [1]))
