"""Text I/O: legacy ASCII VTK for meshes and nodal scalar fields, the CSV
tables (field values, optimizer history, remainder reports), and the
whole-block number parser the MSH and field CSV readers share.

Floats are written with 17 significant digits, so identical inputs produce
byte-identical files.  Rows are formatted a chunk at a time with one ``%``
template, never through a list of every row.
"""
from __future__ import annotations

import csv
import warnings

import numpy as np

_CHUNK = 4096  # rows per formatted chunk: amortizes the template, keeps lists small
_NUMBER = b"0123456789+-.eE"


def _write_rows(fh, row: str, columns) -> None:
    """Write ``row % (c[i] for c in columns)`` for every row i, a chunk at a time."""
    k = len(columns)
    for start in range(0, len(columns[0]), _CHUNK):
        parts = [c[start : start + _CHUNK].tolist() for c in columns]
        flat = [None] * (k * len(parts[0]))
        for j, part in enumerate(parts):
            flat[j::k] = part
        fh.write(row * len(parts[0]) % tuple(flat))


def export_vtk(mesh, fields: dict, path) -> None:
    """Write an UNSTRUCTURED_GRID file with one SCALARS block per field.

    ``fields`` maps names to nodal arrays; insertion order is preserved.
    A name is one token of the format: non-empty, without whitespace.
    Every value must be finite.
    """
    for name, values in fields.items():
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"field name '{name}' must be non-empty and hold no whitespace")
        v = np.asarray(values, dtype=float)
        if v.shape != (mesh.n_nodes,):
            raise ValueError(f"field '{name}' is not a nodal array")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"field '{name}' has the non-finite value {v[bad[0]]} at node {bad[0]}")

    with open(path, "w", newline="\n") as fh:
        fh.write(
            "# vtk DataFile Version 3.0\nlowcontrast output\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n"
        )
        _write_rows(fh, "%.17g %.17g 0\n", mesh.node_coords.T)
        fh.write(f"CELLS {mesh.n_elems} {4 * mesh.n_elems}\n")
        _write_rows(fh, "3 %d %d %d\n", mesh.triangles.T)
        fh.write(f"CELL_TYPES {mesh.n_elems}\n" + "5\n" * mesh.n_elems)
        if fields:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                _write_rows(fh, "%.17g\n", [np.asarray(values, dtype=float)])


def write_csv(path, header, columns) -> None:
    """Write a header row, then row i with entry i of every column.

    Each column's format follows its dtype: integers as written, floats with
    17 significant digits.  Lines end in CRLF, as ``csv.writer`` ends them.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, row, columns)


def parse_rows(body: bytes, rows: int, width: int, sep: bytes) -> np.ndarray | None:
    """Parse ``rows`` lines of ``width`` decimal numbers joined by one ``sep``.

    Every line ends in a newline.  Column 0 holds integers: written without
    '.' or exponent and below 2**53 in magnitude, so the float array holds
    them exactly.  Returns the (rows, width) array, or None for any other
    text (padding, blank lines, extra tokens, nan, '1_0', a wrong count, a
    token longer than ``csv.field_size_limit()``, which csv.reader refuses):
    the caller's per-line reader, which defines the format, then reads it
    and names the offending line.
    """
    if rows < 1 or body.translate(None, _NUMBER + sep + b"\n") or not body.endswith(b"\n"):
        return None
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    seps = np.flatnonzero(buf == sep[0])
    if ends.size != rows or seps.size != rows * (width - 1):
        return None
    # token j of line i lies strictly between bounds[i, j] and bounds[i, j + 1]
    bounds = np.column_stack([np.r_[-1, ends[:-1]], seps.reshape(rows, width - 1), ends])
    gaps = np.diff(bounds, axis=1)  # token length + 1
    if (gaps < 2).any() or gaps.max() > csv.field_size_limit() + 1:
        return None
    del gaps  # held through the parse, it raised eval's peak RSS on a 45k-node disk by 11 MB
    fraction = np.flatnonzero((buf == ord(".")) | (buf == ord("e")) | (buf == ord("E")))
    if (fraction < bounds[np.searchsorted(ends, fraction), 1]).any():
        return None
    try:
        with warnings.catch_warnings():
            # older numpy warns instead of raising on text it cannot read to the end
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(body if sep == b" " else body.replace(sep, b" "), sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != rows * width:
        return None
    values = values.reshape(rows, width)
    if not (np.abs(values[:, 0]) < 2.0**53).all():
        return None
    return values
