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

from .vtkio import parse_rows


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
    with open(path, "rb") as fh:
        raw = fh.read()
    parsed = _parse_blocks(raw)
    if parsed is None:
        parsed = _parse_lines(path)
    return from_arrays(*parsed)


def _parse_blocks(raw: bytes):
    """(coords, triangles) of a regular file in whole-section array passes, or None.

    Regular: ASCII; every $Nodes and $Elements body holds exactly its count
    of lines, single-space separated, with integer ids, finite coordinates and
    no token past a triangle's nodes; each section appears once.  For any
    other file this returns None and `_parse_lines`, which defines the
    format and names the line of an error, reads it.
    """
    # str.splitlines also breaks lines at these; leave such files to the loop
    if not raw.isascii() or any(c in raw for c in b"\x0b\x0c\x1c\x1d\x1e"):
        return None
    if b"\r" in raw:  # as text mode reads the file
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(raw):
            end = raw.find(b"\n", pos)
            end = len(raw) if end < 0 else end
            text = raw[pos:end].decode().strip()
            pos = end + 1
            if text:
                return text
        return None

    def body(end_marker):
        # the counted lines between the count line and the end marker line
        nonlocal pos
        try:
            count = int(next_line())
        except (TypeError, ValueError):
            return None
        start, stop = pos, raw.find(b"\n" + end_marker, pos - 1)
        after = stop + 1 + len(end_marker)
        if count < 1 or stop < start or raw[after : after + 1] not in (b"\n", b""):
            return None
        pos = after + 1
        return raw[start : stop + 1], count

    blocks = {}
    saw_format = False
    while (section := next_line()) is not None:
        if section == "$MeshFormat":
            header = next_line()
            if header is None or not header.split()[0].startswith("2.2"):
                return None
            if next_line() != "$EndMeshFormat":
                return None
            saw_format = True
        elif section in ("$Nodes", "$Elements"):
            found = None if section in blocks else body(b"$End" + section[1:].encode())
            parse = _node_block if section == "$Nodes" else _triangle_block
            blocks[section] = None if found is None else parse(*found)
            if blocks[section] is None:
                return None
    if not saw_format or len(blocks) < 2:
        return None

    (ids, xy), tris = blocks["$Nodes"], blocks["$Elements"]
    used, conn = np.unique(tris, return_inverse=True)
    # a repeated node id keeps its last line, as the loop's dict does
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    last = np.r_[ids[1:] != ids[:-1], True]
    ids, rows = ids[last], order[last]
    at = np.minimum(np.searchsorted(ids, used), ids.size - 1)
    if (ids[at] != used).any():
        return None
    return xy[rows[at]], conn.reshape(-1, 3)


def _node_block(body: bytes, count: int):
    """MSH ids and (x, y) of a regular $Nodes body, or None."""
    values = parse_rows(body, count, 4, b" ")
    if values is None or not np.isfinite(values[:, 1:3]).all():
        return None
    return values[:, 0].astype(np.int64), values[:, 1:3]


def _triangle_block(body: bytes, count: int):
    """(m, 3) MSH node ids of the triangles of a regular $Elements body, or None."""
    if body.translate(None, b"0123456789 \n"):
        return None
    buf = np.frombuffer(body, dtype=np.uint8)
    gaps = np.flatnonzero(buf <= ord(" "))  # the space or newline after each token
    if np.diff(gaps, prepend=-1).min() < 2:  # an empty token: padding or a blank line
        return None
    last = np.flatnonzero(buf[gaps] == ord("\n"))  # each line's last token
    n_tokens = np.diff(last, prepend=-1)
    if last.size != count or n_tokens.min() < 3:
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    first = last - n_tokens + 1
    etype, ntags = values[first + 1], values[first + 2]
    tri = etype == 2
    if not tri.any() or (n_tokens[tri] != 6 + ntags[tri]).any():
        return None
    nodes = (first + 3 + ntags)[tri]
    return values[nodes[:, None] + np.arange(3)]


def _parse_lines(path):
    """(coords, triangles) read one line at a time: the definition of the format."""
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MshParseError(f"{exc} (reading {path})") from None
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
    return coords, conn.reshape(-1, 3)
