"""Text output: legacy ASCII VTK for meshes and nodal scalar fields, and
the CSV tables (field values, optimizer history, remainder reports).

Floats are written with 17 significant digits, so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import numpy as np


def export_vtk(mesh, fields: dict, path) -> None:
    """Write an UNSTRUCTURED_GRID file with one SCALARS block per field.

    ``fields`` maps names to nodal arrays; insertion order is preserved.
    A name is one token of the format: non-empty, without whitespace.
    """
    for name, values in fields.items():
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"field name '{name}' must be non-empty and hold no whitespace")
        v = np.asarray(values)
        if v.shape != (mesh.n_nodes,):
            raise ValueError(f"field '{name}' is not a nodal array")

    # lines go straight to the file: a list of every line would raise the
    # caller's peak memory by its whole size
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "# vtk DataFile Version 3.0\nlowcontrast output\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n"
        )
        fh.writelines(f"{x:.17g} {y:.17g} 0\n" for x, y in mesh.node_coords.tolist())
        fh.write(f"CELLS {mesh.n_elems} {4 * mesh.n_elems}\n")
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist())
        fh.write(f"CELL_TYPES {mesh.n_elems}\n" + "5\n" * mesh.n_elems)
        if fields:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.writelines(f"{v:.17g}\n" for v in np.asarray(values, dtype=float).tolist())


def write_csv(path, header, columns) -> None:
    """Write a header row, then row i with entry i of every column.

    Each column's format follows its dtype: integers as written, floats with
    17 significant digits.  Lines end in CRLF, as ``csv.writer`` ends them.
    """
    columns = [np.asarray(c) for c in columns]
    formats = ("{}" if np.issubdtype(c.dtype, np.integer) else "{:.17g}" for c in columns)
    row = ",".join(formats) + "\r\n"
    rows = zip(*(c.tolist() for c in columns), strict=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row.format(*r) for r in rows)
