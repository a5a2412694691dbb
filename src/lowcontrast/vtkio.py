"""Legacy ASCII VTK output for meshes and nodal scalar fields.

Float formatting is pinned to 17 significant digits so identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import numpy as np


def export_vtk(mesh, fields: dict, path) -> None:
    """Write an UNSTRUCTURED_GRID file with one SCALARS block per field.

    ``fields`` maps names to nodal arrays; insertion order is preserved.
    """
    for name, values in fields.items():
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
