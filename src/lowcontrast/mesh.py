"""Conforming 2D triangular meshes with precomputed element geometry.

Provides structured unit-square generation (crossed-diagonal pattern),
a Gmsh MSH 2.2 ASCII importer, and per-element geometry (areas and
P1 basis gradients).  Boundary nodes are detected topologically from
single-owner edges, so imported curved domains work without tags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MshParseError(Exception):
    """Raised when an MSH file cannot be parsed; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with element geometry.

    Attributes:
        node_coords: (n_nodes, 2) float array of node positions.
        triangles: (n_elems, 3) int array of node indices, positively oriented.
        boundary_nodes: sorted int array of nodes on single-owner edges.
        elem_area: (n_elems,) positive triangle areas.
        elem_basis_grad: (n_elems, 3, 2) gradients of the three P1 basis
            functions, constant on each triangle.
    """

    node_coords: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    elem_area: np.ndarray
    elem_basis_grad: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.triangles.shape[0]

    @property
    def free_nodes(self) -> np.ndarray:
        """Sorted indices of non-Dirichlet (interior) nodes."""
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.flatnonzero(mask)

    @property
    def total_area(self) -> float:
        return float(self.elem_area.sum())


def _boundary_nodes(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    """Nodes lying on edges owned by exactly one triangle."""
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    # key each edge (a < b) as one integer, far cheaper to unique than rows
    keys, counts = np.unique(edges[:, 0] * n_nodes + edges[:, 1], return_counts=True)
    single = keys[counts == 1]
    return np.unique(np.concatenate([single // n_nodes, single % n_nodes]))


def from_arrays(node_coords, triangles) -> Mesh:
    """Build a finished mesh (geometry + boundary detection) from raw arrays.

    Triangle orientation is normalized to positive signed area (node order
    flipped where needed).  A zero-area triangle or a non-finite node
    coordinate raises ValueError naming the offending element or node.
    """
    coords = np.asarray(node_coords, dtype=float).reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        x, y = coords[bad[0]].tolist()
        raise ValueError(f"node {bad[0]} has non-finite coordinates ({x}, {y})")
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3).copy()
    if tris.size and (tris.min() < 0 or tris.max() >= coords.shape[0]):
        raise ValueError("triangle references node index out of range")

    p0 = coords[tris[:, 0]]
    p1 = coords[tris[:, 1]]
    p2 = coords[tris[:, 2]]
    signed2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    flip = signed2 < 0
    if flip.any():
        tris[flip] = tris[flip][:, [0, 2, 1]]
        p1, p2 = coords[tris[:, 1]], coords[tris[:, 2]]
        signed2 = np.abs(signed2)
    degenerate = np.flatnonzero(signed2 == 0.0)
    if degenerate.size:
        raise ValueError(f"degenerate (zero-area) triangle at element {degenerate[0]}")
    area = 0.5 * signed2

    # grad of barycentric basis i is the inward normal of the opposite edge / 2A
    grads = np.empty((tris.shape[0], 3, 2))
    grads[:, 0, 0] = p1[:, 1] - p2[:, 1]
    grads[:, 0, 1] = p2[:, 0] - p1[:, 0]
    grads[:, 1, 0] = p2[:, 1] - p0[:, 1]
    grads[:, 1, 1] = p0[:, 0] - p2[:, 0]
    grads[:, 2, 0] = p0[:, 1] - p1[:, 1]
    grads[:, 2, 1] = p1[:, 0] - p0[:, 0]
    grads /= signed2[:, None, None]

    return Mesh(
        node_coords=coords,
        triangles=tris,
        boundary_nodes=_boundary_nodes(tris, coords.shape[0]),
        elem_area=area,
        elem_basis_grad=grads,
    )


def generate_unit_square(nx: int, ny: int) -> Mesh:
    """Structured triangulation of [0,1]^2 with (nx+1)(ny+1) nodes.

    Each cell is split along a diagonal that alternates with the parity of
    the cell index (crossed pattern), avoiding directional bias.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="ij")
    coords = np.column_stack([xv.ravel(), yv.ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    i, j = i.ravel(), j.ravel()
    n00 = nid(i, j)
    n10 = nid(i + 1, j)
    n01 = nid(i, j + 1)
    n11 = nid(i + 1, j + 1)
    even = (i + j) % 2 == 0

    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    # even cells: diagonal n00-n11; odd cells: diagonal n10-n01
    tris[0::2] = np.where(even[:, None], np.column_stack([n00, n10, n11]), np.column_stack([n00, n10, n01]))
    tris[1::2] = np.where(even[:, None], np.column_stack([n00, n11, n01]), np.column_stack([n10, n11, n01]))
    return from_arrays(coords, tris)


def import_msh(path) -> Mesh:
    """Read a Gmsh MSH 2.2 ASCII file; keeps 3-node triangles only.

    Physical tags are ignored; boundary nodes are recovered topologically.
    Raises MshParseError (with line number) on malformed input, missing
    triangles, or an unsupported format version, and ValueError naming the
    line and MSH node id of a non-finite coordinate.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    # (line number, stripped text) of every non-blank line
    numbered = ((ln, text) for ln, text in enumerate(map(str.strip, lines), start=1) if text)

    def next_line():
        line = next(numbered, None)
        if line is None:
            raise MshParseError("unexpected end of file", len(lines))
        return line

    def read_count(what):
        ln, text = next_line()
        try:
            return int(text)
        except ValueError:
            raise MshParseError(f"{what} count is not an integer", ln) from None

    def expect_end(marker):
        ln, text = next_line()
        if text != marker:
            raise MshParseError(f"expected {marker}", ln)

    nodes: dict[int, tuple[float, float]] = {}
    tris: list[tuple[int, int, int]] = []
    saw_format = False
    for _, section in numbered:  # lines outside the three sections are skipped
        if section == "$MeshFormat":
            ln, header = next_line()
            version = header.split()[0]
            if not version.startswith("2.2"):
                raise MshParseError(f"unsupported MSH version '{version}' (need 2.2)", ln)
            expect_end("$EndMeshFormat")
            saw_format = True
        elif section == "$Nodes":
            for _ in range(read_count("node")):
                ln, text = next_line()
                parts = text.split()
                if len(parts) < 4:
                    raise MshParseError("node line needs 'id x y z'", ln)
                try:
                    node_id, x, y = int(parts[0]), float(parts[1]), float(parts[2])
                except ValueError:
                    raise MshParseError("malformed node line", ln) from None
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"line {ln}: node {node_id} has non-finite coordinates ({x}, {y})")
                nodes[node_id] = (x, y)
            expect_end("$EndNodes")
        elif section == "$Elements":
            for _ in range(read_count("element")):
                ln, text = next_line()
                parts = text.split()
                if len(parts) < 3:
                    raise MshParseError("element line too short", ln)
                try:
                    etype = int(parts[1])
                    ntags = int(parts[2])
                    if etype == 2:  # 3-node triangle
                        ids = [int(x) for x in parts[3 + ntags : 6 + ntags]]
                        if len(ids) != 3:
                            raise MshParseError("triangle needs 3 node ids", ln)
                        tris.append(tuple(ids))
                except ValueError:
                    raise MshParseError("malformed element line", ln) from None
            expect_end("$EndElements")

    if not saw_format:
        raise MshParseError("missing $MeshFormat section")
    if not nodes:
        raise MshParseError("missing or empty $Nodes section")
    if not tris:
        raise MshParseError("no triangles (element type 2) found")

    # keep only nodes referenced by a triangle; files often carry nodes that
    # belong to discarded line/point elements, which would orphan the pencil;
    # kept nodes are numbered in ascending MSH id order
    used, conn = np.unique(np.array(tris, dtype=np.int64).ravel(), return_inverse=True)
    try:
        coords = np.array([nodes[i] for i in used.tolist()])
    except KeyError as exc:
        raise MshParseError(f"element references unknown node id {exc.args[0]}") from None
    return from_arrays(coords, conn.reshape(-1, 3))
