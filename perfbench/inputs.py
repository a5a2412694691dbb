"""Seeded input generator for the CLI benchmark.

Writes, for one workload seed, every file the benchmarked commands read:

* ``disk.msh`` -- an unstructured Gmsh MSH 2.2 ASCII triangulation of the
  unit disk (sunflower point set, Delaunay triangles) in the form Gmsh
  writes it: a ``$PhysicalNames`` section, node ids that are a random
  permutation (so the node numbering is not banded), elements in seeded
  random order, boundary line elements and physical/elementary tags on
  every element.
* ``disk_random.csv`` / ``disk_const.csv`` -- node-indexed densities on the
  disk: i.i.d. uniform values in [0, 1], and one constant value.
* ``square128_a.csv`` / ``square128_b.csv`` -- random 0/1 nodal densities
  on the 128x128 unit square, one per expansion order.
* ``square200_fixed.csv`` -- a 0/1 disk indicator on the 200x200 square
  that does not depend on the seed.

Node indices in the CSV files follow the numbering the program gives the
mesh: ``lowcontrast.mesh.import_msh`` numbers the nodes by ascending MSH
id, and the generated ids are exactly 1..N, so node ``k`` has id ``k+1``.

Run alone as ``python3 perfbench/inputs.py --seed 1 --out DIR``.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

DISK_NODES = 45_000
SQUARE_EXPAND = 128
SQUARE_FAULT = 200
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
DISK_NUMBERING_SEED = 20140818


def square_coords(n: int) -> np.ndarray:
    """Node coordinates of the program's n x n unit square, in its numbering."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([xv.ravel(), yv.ravel()])


def disk_mesh(n_nodes: int = DISK_NODES):
    """Unit-disk triangulation with ``n_nodes`` nodes, in geometric order.

    Returns (coords, triangles, boundary_edges).  Interior points follow a
    sunflower spiral; the boundary ring sits exactly on the unit circle at
    the interior spacing.  The geometry does not depend on the seed: a
    seeded jitter moved the LU fill of the same command by up to 25%
    between seeds, which would swamp any change made to the program.
    """
    h = np.sqrt(np.pi / n_nodes)
    n_bnd = int(round(2.0 * np.pi / h))
    n_int = n_nodes - n_bnd
    k = np.arange(n_int) + 0.5
    r = np.sqrt(k / n_int) * (1.0 - 0.5 * h)
    phi = k * GOLDEN_ANGLE
    interior = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    t = (np.arange(n_bnd) + 0.5) * (2.0 * np.pi / n_bnd)
    boundary = np.column_stack([np.cos(t), np.sin(t)])
    coords = np.vstack([interior, boundary])
    tris = Delaunay(coords).simplices.astype(np.int64)
    if np.unique(tris).size != n_nodes:
        raise RuntimeError("Delaunay dropped input points")
    ring = np.arange(n_int, n_nodes)
    edges = np.column_stack([ring, np.roll(ring, -1)])
    return coords, tris, edges


def write_msh(path: Path, coords, triangles, boundary_edges) -> None:
    """MSH 2.2 ASCII in Gmsh's layout; node ids are 1-based indices."""
    out = [
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$PhysicalNames", "2", '1 1 "boundary"', '2 2 "disk"', "$EndPhysicalNames",
        "$Nodes", str(len(coords)),
    ]
    out.extend(f"{i + 1} {x!r} {y!r} 0" for i, (x, y) in enumerate(coords.tolist()))
    out += ["$EndNodes", "$Elements", str(len(boundary_edges) + len(triangles))]
    eid = 0
    for a, b in boundary_edges.tolist():
        eid += 1
        out.append(f"{eid} 1 2 1 1 {a + 1} {b + 1}")
    for a, b, c in triangles.tolist():
        eid += 1
        out.append(f"{eid} 2 2 2 1 {a + 1} {b + 1} {c + 1}")
    out.append("$EndElements")
    path.write_text("\n".join(out) + "\n")


def write_field_csv(path: Path, values) -> None:
    """node_id,value rows; repr() keeps every float exactly."""
    rows = ["node_id,value"] + [f"{i},{v!r}" for i, v in enumerate(np.asarray(values, float).tolist())]
    path.write_text("\n".join(rows) + "\n")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed % 2**64])


def disk_inputs(seed: int, out: Path):
    """Write disk.msh and its two densities for ``seed`` into ``out``.

    Returns (description, arrays): the mesh and the densities in the
    program's node numbering, for the output checks.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 0)
    coords, tris, edges = disk_mesh()
    # geometric index -> program index: one fixed shuffle for every seed,
    # since a per-seed shuffle moved the LU fill by +-4% between seeds
    perm = np.random.default_rng(DISK_NUMBERING_SEED).permutation(len(coords))
    coords_p = np.empty_like(coords)
    coords_p[perm] = coords
    tris_p, edges_p = perm[tris], perm[edges]
    write_msh(out / "disk.msh", coords_p, tris_p[rng.permutation(len(tris_p))], edges_p)

    n = len(coords_p)
    arrays = {
        "disk_coords": coords_p,
        "disk_triangles": tris_p,
        "disk_random": rng.uniform(0.0, 1.0, n),
        "disk_const": np.full(n, rng.uniform(0.2, 0.8)),
    }
    write_field_csv(out / "disk_random.csv", arrays["disk_random"])
    write_field_csv(out / "disk_const.csv", arrays["disk_const"])
    meta = {
        "disk_nodes": n,
        "disk_triangles": len(tris_p),
        "disk_boundary_nodes": len(edges_p),
        "disk_const_value": float(arrays["disk_const"][0]),
    }
    return meta, arrays


def square_inputs(seed: int, out: Path):
    """Write the 128^2 random densities and the fixed 200^2 one into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 1)
    n = (SQUARE_EXPAND + 1) ** 2
    meta = {"square128_nodes": n}
    for name in ("a", "b"):
        theta = (rng.random(n) < 0.5).astype(float)
        write_field_csv(out / f"square128_{name}.csv", theta)
        meta[f"square128_{name}_ones"] = int(theta.sum())
    xy = square_coords(SQUARE_FAULT)
    write_field_csv(out / "square200_fixed.csv", (((xy - 0.5) ** 2).sum(axis=1) <= 0.3**2).astype(float))
    meta["square200_nodes"] = len(xy)
    return meta, {}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    print(json.dumps({**disk_inputs(args.seed, args.out)[0], **square_inputs(args.seed, args.out)[0]}))


if __name__ == "__main__":
    main()
