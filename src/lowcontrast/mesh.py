"""Conforming 2D triangular meshes with their element areas.

Provides structured unit-square generation (crossed-diagonal pattern),
a Gmsh MSH 2.2 ASCII importer, and per-element geometry: areas, kept,
and P1 basis gradients, formed on each call.  Boundary nodes are detected
topologically from single-owner edges, so imported curved domains work
without tags.
The importer reads its file once and walks its sections once; each body
goes through one array pass or, if that pass refuses it, a line loop.
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
    """Immutable triangulation with its element areas.

    Attributes:
        node_coords: (n_nodes, 2) float array of node positions.
        triangles: (n_elems, 3) int32 array of node indices, positively oriented.
        boundary_nodes: sorted int array of nodes on single-owner edges.
        elem_area: (n_elems,) positive triangle areas.

    The P1 basis gradients are not kept (48 bytes a triangle); the few
    callers that need them form them with :meth:`basis_gradients`.
    """

    node_coords: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    elem_area: np.ndarray

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

    def basis_gradients(self) -> np.ndarray:
        """(n_elems, 3, 2) gradients of the three P1 basis functions, constant on each triangle.

        Formed on each call: the inward normal of the edge opposite each
        vertex over the signed double area, on the oriented triangles, so
        the values are the same on every call and for flipped input triangles.
        """
        x, y = self.node_coords.T
        t0, t1, t2 = self.triangles.T
        x0, x1, x2, y0, y1, y2 = x[t0], x[t1], x[t2], y[t0], y[t1], y[t2]
        signed2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        # grad of barycentric basis i is the inward normal of the opposite edge / 2A
        grads = np.empty((self.n_elems, 3, 2))
        grads[:, 0, 0] = y1 - y2
        grads[:, 0, 1] = x2 - x1
        grads[:, 1, 0] = y2 - y0
        grads[:, 1, 1] = x0 - x2
        grads[:, 2, 0] = y0 - y1
        grads[:, 2, 1] = x1 - x0
        grads /= signed2[:, None, None]
        return grads


def _boundary_nodes(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    """Nodes lying on edges owned by exactly one triangle."""
    m = triangles.shape[0]
    # key each edge as one int64, min·n + max, far cheaper to sort than rows
    keys = np.empty(3 * m, dtype=np.int64)
    for k in range(3):
        a, b, key = triangles[:, k], triangles[:, (k + 1) % 3], keys[k * m : (k + 1) * m]
        np.minimum(a, b, out=key)
        key *= n_nodes
        key += np.maximum(a, b)
    keys.sort()
    # a single-owner edge is a run of one: its key differs from both neighbours
    starts = np.r_[True, keys[1:] != keys[:-1], True]
    single = keys[starts[:-1] & starts[1:]]
    return np.unique(np.concatenate([single // n_nodes, single % n_nodes]))


_MAX_NODES = 2**31  # node indices are int32


def from_arrays(node_coords, triangles) -> Mesh:
    """Build a finished mesh (areas + boundary detection) from raw arrays.

    Triangle orientation is normalized to positive signed area (node order
    flipped where needed), and the triangles are stored as int32.  A zero-area
    triangle or a non-finite node coordinate raises ValueError naming the
    offending element or node; so does a mesh of more than 2³¹ nodes.
    """
    coords = np.asarray(node_coords, dtype=float).reshape(-1, 2)
    if coords.shape[0] > _MAX_NODES:
        raise ValueError(f"{coords.shape[0]} nodes: a mesh holds at most 2**31 (int32 indices)")
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        x, y = coords[bad[0]].tolist()
        raise ValueError(f"node {bad[0]} has non-finite coordinates ({x}, {y})")
    tris = np.asarray(triangles)
    if tris.dtype.kind not in "iu":  # an integer array is range-checked in its own dtype
        tris = tris.astype(np.int64)
    tris = tris.reshape(-1, 3)
    if tris.size and (tris.min() < 0 or tris.max() >= coords.shape[0]):
        raise ValueError("triangle references node index out of range")
    tris = tris.astype(np.int32)  # a copy, which the orientation flip may write

    x, y = coords.T
    t0, t1, t2 = tris.T  # gathered one coordinate at a time: no (m, 2) corner copies
    signed2 = (x[t1] - x[t0]) * (y[t2] - y[t0])
    signed2 -= (y[t1] - y[t0]) * (x[t2] - x[t0])
    flip = signed2 < 0
    if flip.any():
        tris[flip] = tris[flip][:, [0, 2, 1]]
        signed2 = np.abs(signed2)
    degenerate = np.flatnonzero(signed2 == 0.0)
    if degenerate.size:
        raise ValueError(f"degenerate (zero-area) triangle at element {degenerate[0]}")

    return Mesh(
        node_coords=coords,
        triangles=tris,
        boundary_nodes=_boundary_nodes(tris, coords.shape[0]),
        elem_area=0.5 * signed2,
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
    del xv, yv
    return from_arrays(coords, _square_triangles(nx, ny))


def _square_triangles(nx: int, ny: int) -> np.ndarray:
    """(2·nx·ny, 3) int32 triangles of the crossed pattern, two per cell, cells in row-major (i, j) order.

    A function of its own so that its int64 index arrays are freed before
    `from_arrays` allocates.
    """
    i, j = np.divmod(np.arange(nx * ny), ny)
    n00 = i * (ny + 1) + j  # node (i, j); n10 = n00 + ny + 1, n01 = n00 + 1, n11 = n00 + ny + 2
    even = (i + j) % 2 == 0
    del i, j
    tris = np.empty((nx * ny, 2, 3), dtype=np.int32)
    # even cells: (n00, n10, n11) and (n00, n11, n01); odd cells: (n00, n10, n01) and (n10, n11, n01)
    tris[:, 0, 0] = n00
    tris[:, 0, 1] = n00 + (ny + 1)
    tris[:, 0, 2] = np.where(even, n00 + (ny + 2), n00 + 1)
    tris[:, 1, 0] = np.where(even, n00, n00 + (ny + 1))
    tris[:, 1, 1] = n00 + (ny + 2)
    tris[:, 1, 2] = n00 + 1
    return tris.reshape(-1, 3)


def import_msh(path) -> Mesh:
    """Read a Gmsh MSH 2.2 ASCII file; keeps 3-node triangles only.

    Physical tags are ignored; boundary nodes are recovered topologically.
    The file is read once and its sections walked once.  A regular $Nodes or
    $Elements body is parsed in one array pass, any other one line by line
    from the same cursor.  Raises MshParseError (with line number) on
    malformed input, missing triangles, or an unsupported format version,
    and ValueError naming the line and MSH node id of a non-finite coordinate.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # text mode and str.splitlines also break lines at these: rewrite a file
    # that has one, or a non-ASCII byte, once with one LF after each line
    if not raw.isascii() or any(c in raw for c in b"\r\x0b\x0c\x1c\x1d\x1e"):
        try:
            raw = "\n".join(raw.decode().splitlines() + [""]).encode()
        except UnicodeDecodeError as exc:
            raise MshParseError(f"{exc} (reading {path})") from None
    return from_arrays(*_parse_msh(raw))


def _parse_msh(raw: bytes):
    """(coords, triangles) of MSH text whose only line break is LF.

    A function of its own so that the section arrays are freed before
    `from_arrays` allocates.
    """
    pos = ln = 0  # the cursor: byte offset of the next line, lines passed

    def next_line():
        """(line number, stripped text) of the next non-blank line, or None at the end."""
        nonlocal pos, ln
        while pos < len(raw):
            end = raw.find(b"\n", pos)
            end = len(raw) if end < 0 else end
            text = raw[pos:end].decode().strip()
            pos, ln = end + 1, ln + 1
            if text:
                return ln, text
        return None

    def line():
        found = next_line()
        if found is None:
            raise MshParseError("unexpected end of file", ln)
        return found

    def expect(marker):
        at, text = line()
        if text != marker:
            raise MshParseError(f"expected {marker}", at)

    def body(section, what, block, lines):
        """(count, parsed) of the body of ``section`` and its end marker."""
        nonlocal pos, ln
        at, text = line()
        try:
            count = int(text)
        except ValueError:
            raise MshParseError(f"{what} count is not an integer", at) from None
        marker = "$End" + section[1:]
        # the array pass takes the lines up to the first marker at a line start
        stop = raw.find(b"\n" + marker.encode(), pos - 1)
        parsed = block(raw[pos : stop + 1], count) if count > 0 and stop >= pos else None
        if parsed is None:
            parsed = lines(line, count)
        else:
            pos, ln = stop + 1, ln + count
        expect(marker)
        return count, parsed

    node_ids, node_xy, tri_blocks = [], [], []
    saw_format = saw_nodes = False
    while (found := next_line()) is not None:  # lines outside the three sections are skipped
        section = found[1]
        if section == "$MeshFormat":
            at, header = line()
            version = header.split()[0]
            if not version.startswith("2.2"):
                raise MshParseError(f"unsupported MSH version '{version}' (need 2.2)", at)
            expect("$EndMeshFormat")
            saw_format = True
        elif section == "$Nodes":
            count, (ids, xy) = body(section, "node", _node_block, _node_lines)
            node_ids.append(ids)
            node_xy.append(xy)
            saw_nodes |= count > 0
        elif section == "$Elements":
            tris = body(section, "element", _triangle_block, _triangle_lines)[1]
            if tris.size:
                tri_blocks.append(tris)

    if not saw_format:
        raise MshParseError("missing $MeshFormat section")
    if not saw_nodes:
        raise MshParseError("missing or empty $Nodes section")
    if not tri_blocks:
        raise MshParseError("no triangles (element type 2) found")

    # keep only nodes referenced by a triangle; files often carry nodes that
    # belong to discarded line/point elements, which would orphan the pencil;
    # kept nodes are numbered in ascending MSH id order
    ids, xy, tris = (a[0] if len(a) == 1 else np.concatenate(a) for a in (node_ids, node_xy, tri_blocks))
    used, conn = np.unique(tris.ravel(), return_inverse=True)
    # a repeated node id keeps its last line
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    last = np.r_[ids[1:] != ids[:-1], True]
    ids, rows = ids[last], order[last]
    at = np.minimum(np.searchsorted(ids, used), ids.size - 1)
    unknown = used[ids[at] != used] if ids.size else used
    if unknown.size:
        raise MshParseError(f"element references unknown node id {int(unknown[0])}")
    return xy[rows[at]], conn.reshape(-1, 3)


_INT64 = range(-(2**63), 2**63)  # the MSH ids the id map can hold


def _node_block(body: bytes, count: int):
    """MSH ids and (x, y) of a regular $Nodes body in one array pass, or None."""
    values = parse_rows(body, count, 4, b" ")
    if values is None or not np.isfinite(values[:, 1:3]).all():
        return None
    return values[:, 0].astype(np.int64), values[:, 1:3]


def _node_lines(line, count: int):
    """MSH ids and (x, y) of a $Nodes body read one line at a time.

    ``line`` returns the (number, stripped text) of the next non-blank line.
    An id outside int64 is checked but not kept: no triangle can name it.
    """
    ids, xy = [], []
    for _ in range(count):
        at, text = line()
        parts = text.split()
        if len(parts) < 4:
            raise MshParseError("node line needs 'id x y z'", at)
        try:
            node_id, x, y = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise MshParseError("malformed node line", at) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"line {at}: node {node_id} has non-finite coordinates ({x}, {y})")
        if node_id in _INT64:
            ids.append(node_id)
            xy.append((x, y))
    return np.array(ids, dtype=np.int64), np.array(xy, dtype=float).reshape(-1, 2)


def _triangle_block(body: bytes, count: int):
    """(m, 3) MSH node ids of the triangles of a regular $Elements body, or None."""
    if body.translate(None, b"0123456789 \n"):
        return None
    buf = np.frombuffer(body, dtype=np.uint8)
    gaps = np.flatnonzero(buf <= ord(" "))  # the space or newline after each token
    widths = np.diff(gaps, prepend=-1)
    # an empty token (padding or a blank line), or one that may not fit int64
    if widths.min() < 2 or widths.max() > 19:
        return None
    del widths  # one entry per token, as the token array below: free it first
    last = np.flatnonzero(buf[gaps] == ord("\n"))  # each line's last token
    n_tokens = np.diff(last, prepend=-1)
    if last.size != count or n_tokens.min() < 3:
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    first = last - n_tokens + 1
    etype, ntags = values[first + 1], values[first + 2]
    tri = etype == 2
    if (n_tokens[tri] != 6 + ntags[tri]).any():
        return None
    nodes = (first + 3 + ntags)[tri]
    return values[nodes[:, None] + np.arange(3)]


def _triangle_lines(line, count: int):
    """(m, 3) MSH node ids of the triangles of an $Elements body read one line at a time."""
    tris = []
    for _ in range(count):
        at, text = line()
        parts = text.split()
        if len(parts) < 3:
            raise MshParseError("element line too short", at)
        try:
            etype, ntags = int(parts[1]), int(parts[2])
            if etype != 2:  # not a 3-node triangle
                continue
            ids = [int(x) for x in parts[3 + ntags : 6 + ntags]]
        except ValueError:
            raise MshParseError("malformed element line", at) from None
        if len(ids) != 3:
            raise MshParseError("triangle needs 3 node ids", at)
        outside = [i for i in ids if i not in _INT64]
        if outside:
            raise MshParseError(f"triangle node id {outside[0]} does not fit in int64", at)
        tris.append(ids)
    return np.array(tris, dtype=np.int64).reshape(-1, 3)
