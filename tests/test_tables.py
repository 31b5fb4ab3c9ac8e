"""The bytes of a data table, and the memory a table write holds.

cli._write_table must write exactly what a stdlib-only reference writes:
in JSON, json.dumps of {"columns": header, "rows": rows} with sorted keys
(so NaN, Infinity and -Infinity for non-finite cells and the shortest repr
for the others); in CSV, the header line and one line per row of
format(x, ".17g") cells, the label first where there is one.  Tables of
every size around one written block are checked, since the writer fills
a block at a time.
"""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curlforce import cli, core

# rows in one written block (a writer that writes whole tables names none;
# the sizes below then still check its bytes)
_BLOCK = getattr(cli, "_BLOCK_ROWS", 2048)

_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-310, 1e16, 9999999999999998.0,
            1e-5, 9.999999999999999e-06, 0.0001, 1e-4 * (1 + 2e-16), 0.1,
            1 / 3, -2.5, 1e300, -1.7976931348623157e308, 123456789.0]

_LABELS = ['plain', 'say "hi"', 'back\\slash', 'ψ₀ = 0.1 · π', 'nan', 'inf',
           '-inf', 'Infinity', '', 'a,b', 'tab\there']


def _reference(fmt, header, columns, labels=None):
    rows = np.column_stack(columns).tolist()
    if fmt == "json":
        if labels is not None:
            rows = [[lab, *row] for lab, row in zip(labels, rows)]
        return json.dumps({"columns": list(header), "rows": rows},
                          sort_keys=True) + "\n"
    lines = [[format(x, ".17g") for x in row] for row in rows]
    if labels is not None:
        lines = [[lab, *line] for lab, line in zip(labels, lines)]
    return "".join(",".join(line) + "\n" for line in [header, *lines])


def _written(fmt, header, columns, labels=None):
    with tempfile.TemporaryDirectory() as tmp:
        name = cli._write_table(Path(tmp), "table", fmt, header, columns,
                                labels=labels)
        assert name == f"table.{fmt}"
        return (Path(tmp) / name).read_bytes()


def _check(fmt, header, columns, labels=None):
    assert (_written(fmt, header, columns, labels)
            == _reference(fmt, header, columns, labels).encode())


def _columns(rows, ncols, seed):
    """ncols columns of rows values, the special values spread through."""
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((rows, ncols)) * 10.0 ** rng.integers(
        -20, 20, (rows, ncols))
    flat = cells.ravel()
    flat[rng.permutation(flat.size)[:len(_SPECIAL)]] = _SPECIAL[:flat.size]
    return [cells[:, j].copy() for j in range(ncols)]


_SIZES = [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", _SIZES)
def test_table_bytes_unlabelled(fmt, rows):
    _check(fmt, ["J", "T", "Tprime"], _columns(rows, 3, rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", _SIZES)
def test_table_bytes_labelled(fmt, rows):
    labels = [_LABELS[i * 7 // max(rows, 1) % len(_LABELS)]
              for i in range(rows)]
    _check(fmt, ["curve", "theta", "psi", "dpsi"], _columns(rows, 3, rows),
           labels)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_every_special_value(fmt):
    # each special value in each column, one label per row
    col = np.array(_SPECIAL)
    columns = [col, col[::-1].copy(), np.roll(col, 7)]
    _check(fmt, ["a", "b", "c"], columns)
    labels = [_LABELS[i % len(_LABELS)] for i in range(col.size)]
    _check(fmt, ["curve", "a", "b", "c"], columns, labels)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_finite_and_nonfinite_blocks(fmt):
    # a block with a non-finite cell next to blocks without one
    col = np.linspace(-1.0, 1.0, 2 * _BLOCK + 3)
    other = col ** 3
    other[_BLOCK + 5] = math.nan
    other[_BLOCK + 6] = -math.inf
    _check(fmt, ["x", "y"], [col, other])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_integer_columns(fmt):
    # a grid read from JSON integers stays an integer column until stacked
    # with a float one
    ints = np.arange(5)
    _check(fmt, ["i", "x"], [ints, np.linspace(0.0, 1.0, 5)])
    _check(fmt, ["i", "j"], [ints, 2 * ints])


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(_FLOATS, min_size=k, max_size=k), max_size=40)),
    st.lists(st.text(max_size=6), min_size=1, max_size=3),
    st.sampled_from(["csv", "json"]), st.booleans())
def test_table_bytes_drawn(rows, names, fmt, labelled):
    ncols = len(rows[0]) if rows else 2
    columns = [np.array([row[j] for row in rows], dtype=float)
               for j in range(ncols)]
    labels = ([names[i % len(names)] for i in range(len(rows))]
              if labelled else None)
    header = (["curve"] if labelled else []) + [f"c{j}" for j in range(ncols)]
    _check(fmt, header, columns, labels)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_write_holds_a_block_not_the_table(fmt, tmp_path, monkeypatch):
    """The traced peak of a 20,000-row write, 128 rows a block, stays
    under a fixed bound.

    The table's three float columns hold 480 kB and its text is 1.0-1.3
    MB; a writer that holds every row's Python floats or the whole text
    peaks at several times that.  The bound, 200 kB, is less than half of
    the columns stacked into one array: it leaves room for a few blocks
    of rows, their floats and their text, and for nothing that grows with
    the row count.
    """
    monkeypatch.setattr(core, "_BLOCK_ROWS", 128)
    rows = 20_000
    t = np.linspace(0.0, 50.0, rows)
    columns = [t, np.sin(t) * 1e-3, np.cos(t) * 1e5]
    tracemalloc.start()
    try:
        cli._write_table(tmp_path, "big", fmt, ["t", "x", "y"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000, f"{fmt} write peaked at {peak / 1e3:.0f} kB"
    assert (tmp_path / f"big.{fmt}").stat().st_size > 10 * rows
