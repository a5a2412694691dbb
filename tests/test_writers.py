"""The array row writer against the ``%`` operator it replaces, byte for byte.

The row kernel ``vtkio._kernel_rows`` renders ``%.17g`` and ``%d``
conversions in numpy passes; every value it cannot prove falls back to
``"%.17g" % x``.  These tests compare its bytes with ``row % values`` on
random, adversarial and fixed inputs, check that ``vtkio._write_rows``
gives the same bytes on either side of the row count where it hands a
table to the kernel, and pin the bytes of three files the previous,
``%``-based writer produced.
"""
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowcontrast import vtkio
from lowcontrast.cli import write_field_csv
from lowcontrast.mesh import generate_unit_square
from lowcontrast.vtkio import export_vtk, write_csv

TEMPLATES = ["%.17g %.17g 0\n", "3 %d %d %d\n", "%d,%.17g\r\n"]
ROWS = [0, 1, vtkio._BLOCK_ROWS - 1, vtkio._BLOCK_ROWS, vtkio._BLOCK_ROWS + 1]
INT64 = np.iinfo(np.int64)
# each 10^k and its neighbours, values whose digits sit at a decade edge or at an
# exact tie, the smallest subnormal and the largest double, zeros and non-finites
POWERS = 10.0 ** np.arange(-30, 31)
EDGE_FLOATS = np.concatenate(
    [
        POWERS,
        np.nextafter(POWERS, 0),
        np.nextafter(POWERS, np.inf),
        [9.9999999999999995e-5, 1e16, 1e17, 99999999999999999.0, 0.5, 2.5, 123456789012345675.0],
        [5e-324, 1.7976931348623157e308, 0.0, -0.0, np.inf, -np.inf, np.nan],
    ]
)
EDGE_INTS = np.array(
    [0, 1, -1, INT64.min, INT64.max, INT64.min + 1, INT64.max - 1]
    + [s * 10**k + d for k in range(1, 19) for d in (-1, 0, 1) for s in (1, -1)],
    dtype=np.int64,
)


def rendered(row, columns, write=vtkio._kernel_rows):
    """The bytes of the row kernel, or of ``write``, for the table."""
    fh = io.BytesIO()
    write(fh, row, columns)
    return fh.getvalue()


def reference(row, columns):
    """``row % values`` for every row, the bytes the writer must give."""
    values = list(zip(*(np.asarray(c).tolist() for c in columns)))
    return "".join(row % v for v in values).encode()


def assert_g17(values):
    x = np.asarray(values, dtype=float)
    assert rendered("%.17g\n", [x]) == reference("%.17g\n", [x])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=60))  # nan and ±inf included
def test_floats_match_percent(values):
    assert_g17(values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(INT64.min, INT64.max), min_size=1, max_size=60))
def test_bit_patterns_match_percent(bits):
    assert_g17(np.array(bits, dtype=np.int64).view(np.float64))


def test_edge_floats_match_percent():
    assert_g17(EDGE_FLOATS)
    assert_g17(-EDGE_FLOATS)


def test_random_floats_match_percent():
    rng = np.random.default_rng(22)
    assert_g17(rng.integers(INT64.min, INT64.max, 20000, dtype=np.int64).view(np.float64))
    assert_g17(rng.lognormal(0, 30, 20000) * rng.choice([-1, 1], 20000))
    assert_g17(rng.uniform(0, 1, 20000))
    assert_g17(rng.normal(size=20000) * 1e-3)
    # sums of few powers of two: many of them are exact ties at the 17th digit
    assert_g17((rng.integers(0, 2**20, 20000) + 0.5) * 2.0 ** rng.integers(-60, 60, 20000))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(INT64.min, INT64.max), min_size=1, max_size=60))
def test_ints_match_percent(values):
    v = np.array(values, dtype=np.int64)
    assert rendered("%d\n", [v]) == reference("%d\n", [v])


def test_edge_ints_match_percent():
    assert rendered("%d\n", [EDGE_INTS]) == reference("%d\n", [EDGE_INTS])
    for dtype in (np.int32, np.uint16, np.uint64):
        v = np.array([0, 1, 9, 10, 9999, 10000, np.iinfo(dtype).max], dtype=dtype)
        assert rendered("%d\n", [v]) == reference("%d\n", [v]), dtype
    # neighbouring columns of different integer types
    mixed = [EDGE_INTS[:7], np.array([0, 1, 10**19, 2**64 - 1, 2**63, 5, 9], dtype=np.uint64)]
    assert rendered("%d,%d\n", mixed) == reference("%d,%d\n", mixed)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("row", TEMPLATES)
def test_templates_across_block_edges(row, rows):
    rng = np.random.default_rng(rows)
    floats = np.resize(np.concatenate([EDGE_FLOATS, rng.lognormal(0, 20, 500)]), rows)
    ints = np.resize(EDGE_INTS, rows)
    columns = {
        "%.17g %.17g 0\n": [floats, floats[::-1]],
        "3 %d %d %d\n": [ints, np.arange(rows), ints[::-1]],
        "%d,%.17g\r\n": [np.arange(rows) - 3, floats],
    }[row]
    assert rendered(row, columns) == reference(row, columns)


@pytest.mark.parametrize("rows", [0, 1, 5, vtkio._PERCENT_ROWS - 1, vtkio._PERCENT_ROWS])
@pytest.mark.parametrize("row", TEMPLATES)
def test_percent_path_below_the_threshold(row, rows):
    # _write_rows formats a table under _PERCENT_ROWS rows by `%`, a longer one by the kernel
    rng = np.random.default_rng(rows)
    floats = np.resize(np.concatenate([EDGE_FLOATS, rng.lognormal(0, 20, 100)]), rows)
    ints = np.resize(EDGE_INTS, rows)
    columns = {
        "%.17g %.17g 0\n": [floats, floats[::-1]],
        "3 %d %d %d\n": [ints, np.arange(rows, dtype=np.uint64), ints.astype(np.int32)],
        "%d,%.17g\r\n": [np.arange(rows) - 3, floats.tolist()],
    }[row]
    vtkio._tables.cache_clear()
    written = rendered(row, columns, vtkio._write_rows)
    assert vtkio._tables.cache_info().currsize == (rows >= vtkio._PERCENT_ROWS), "tables built by the kernel only"
    assert written == reference(row, columns) == rendered(row, columns)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_files_keep_the_percent_writers_bytes(tmp_path):
    """Hashes of the files the ``%``-template writer produced for the same calls."""
    m = generate_unit_square(8, 8)
    x, y = m.node_coords.T
    special = np.resize([-0.0, 1e-5, 0.1, 123.0, 1e17], m.n_nodes)
    export_vtk(m, {"special": special, "xy": x * y / 3}, tmp_path / "a.vtk")
    floats = np.resize([np.nan, np.inf, -np.inf, 0.5, -1e-300, 1e300, 2.0 / 3], 40)
    write_csv(tmp_path / "b.csv", ["i", "x"], [np.arange(40) - 20, floats])
    write_field_csv(tmp_path / "c.csv", np.sin(np.arange(m.n_nodes) * 0.7) * 1e-3)
    assert sha256(tmp_path / "a.vtk") == "068bcf01a313e36fa089639916e730c0f63ff505ce1f1990748b616769cf8c21"
    assert sha256(tmp_path / "b.csv") == "2482368de4333cfd80451956b28124b2557b339d618b0c8f29f20175520e0427"
    assert sha256(tmp_path / "c.csv") == "be0444be4028d3eba4134d103c62fbb00b810fc6fce9057fe41ef3d7a388a95f"
