import dataclasses
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from lowcontrast.mesh import (
    Mesh,
    MshParseError,
    from_arrays,
    generate_unit_square,
    import_msh,
)
from test_eig import sunflower_disk


def write_msh(path, coords, triangles):
    """Minimal MSH 2.2 ASCII writer for round-trip tests (1-based ids)."""
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(coords))]
    for i, (x, y) in enumerate(coords, start=1):
        lines.append(f"{i} {float(x)!r} {float(y)!r} 0")
    lines += ["$EndNodes", "$Elements", str(len(triangles))]
    for i, (a, b, c) in enumerate(triangles, start=1):
        lines.append(f"{i} 2 2 0 1 {a + 1} {b + 1} {c + 1}")
    lines.append("$EndElements")
    path.write_text("\n".join(lines) + "\n")


# valid MSH text that stops where the node count (line 5) or the element count (line 11) goes
_NODES = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n"
_ELEMENTS = _NODES + "3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n$Elements\n"


def annulus_mesh_arrays(n_seg=8, radii=(2.0, 1.5, 1.0)):
    """Banded annulus; only the outermost and innermost rings are boundary."""
    coords = []
    for r in radii:
        for k in range(n_seg):
            a = 2 * np.pi * k / n_seg
            coords.append((r * np.cos(a), r * np.sin(a)))
    tris = []
    for band in range(len(radii) - 1):
        o, i = band * n_seg, (band + 1) * n_seg
        for k in range(n_seg):
            k1 = (k + 1) % n_seg
            tris.append((o + k, o + k1, i + k))
            tris.append((o + k1, i + k1, i + k))
    return np.array(coords), np.array(tris)


def flipped_shuffle(mesh, seed):
    """Raw (coords, triangles) of ``mesh`` renumbered, its triangles reordered
    and every other one given clockwise, for :func:`from_arrays` to flip back."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_nodes)
    inv = np.argsort(perm)
    tris = inv[mesh.triangles][rng.permutation(mesh.n_elems)]
    tris[::2] = tris[::2, [0, 2, 1]]
    return mesh.node_coords[perm], tris


def stored_gradients(node_coords, triangles):
    """The basis gradients as ``from_arrays`` computed and stored them before
    they were formed per call: orientation first, then the differences over
    the signed double area."""
    coords = np.asarray(node_coords, dtype=float).reshape(-1, 2)
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3).copy()
    p0, p1, p2 = coords[tris[:, 0]], coords[tris[:, 1]], coords[tris[:, 2]]
    signed2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    flip = signed2 < 0
    if flip.any():
        tris[flip] = tris[flip][:, [0, 2, 1]]
        p1, p2 = coords[tris[:, 1]], coords[tris[:, 2]]
        signed2 = np.abs(signed2)
    grads = np.empty((tris.shape[0], 3, 2))
    grads[:, 0, 0] = p1[:, 1] - p2[:, 1]
    grads[:, 0, 1] = p2[:, 0] - p1[:, 0]
    grads[:, 1, 0] = p2[:, 1] - p0[:, 1]
    grads[:, 1, 1] = p0[:, 0] - p2[:, 0]
    grads[:, 2, 0] = p0[:, 1] - p1[:, 1]
    grads[:, 2, 1] = p1[:, 0] - p0[:, 0]
    grads /= signed2[:, None, None]
    return grads


class TestGenerateUnitSquare:
    def test_smallest(self):
        m = generate_unit_square(1, 1)
        assert m.n_nodes == 4
        assert m.n_elems == 2
        assert m.total_area == pytest.approx(1.0, rel=1e-14)

    def test_counts_2x2(self):
        m = generate_unit_square(2, 2)
        assert m.n_nodes == 9
        assert m.n_elems == 8
        assert m.boundary_nodes.size == 8

    def test_fine_resolution(self):
        m = generate_unit_square(200, 200)
        assert m.n_elems == 80_000
        assert m.n_nodes == 201 * 201
        assert m.total_area == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_boundary_count(self, n):
        m = generate_unit_square(n, n)
        assert m.boundary_nodes.size == 4 * n

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_unit_square(0, 3)

    def test_area_additivity(self):
        m = generate_unit_square(7, 5)
        assert abs(m.total_area - 1.0) <= 1e-12


class TestComputeGeometry:
    def test_reference_triangle(self):
        m = from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        assert m.elem_area[0] == pytest.approx(0.5, abs=1e-15)
        expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(m.basis_gradients()[0], expected, atol=1e-14)

    def test_partition_of_unity(self):
        m = generate_unit_square(6, 4)
        sums = m.basis_gradients().sum(axis=1)
        assert np.abs(sums).max() <= 1e-13

    def test_affine_scaling(self):
        m = from_arrays([(0, 0), (2, 0), (0, 2)], [(0, 1, 2)])
        assert m.elem_area[0] == pytest.approx(2.0, abs=1e-14)
        expected = 0.5 * np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(m.basis_gradients()[0], expected, atol=1e-14)

    def test_orientation_normalized(self):
        m = from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])  # clockwise input
        assert m.elem_area[0] > 0
        assert m.basis_gradients()[0].sum(axis=0) == pytest.approx(np.zeros(2), abs=1e-14)

    @pytest.mark.parametrize("kind", ["square32", "disk4200", "flipped_shuffle40"])
    def test_basis_gradients_keep_the_stored_bits(self, kind):
        if kind == "flipped_shuffle40":
            raw = flipped_shuffle(generate_unit_square(40, 40), 5)
        else:
            mesh = generate_unit_square(32, 32) if kind == "square32" else sunflower_disk(4200)
            raw = mesh.node_coords, mesh.triangles
        m = from_arrays(*raw)
        grads = m.basis_gradients()
        assert grads.shape == (m.n_elems, 3, 2)
        assert np.array_equal(grads.view(np.int64), stored_gradients(*raw).view(np.int64))
        assert np.array_equal(m.basis_gradients(), grads)  # the same on every call

    def test_degenerate_names_element(self):
        coords = [(0, 0), (1, 0), (0, 1), (2, 0)]
        with pytest.raises(ValueError, match="element 1"):
            from_arrays(coords, [(0, 1, 2), (0, 1, 3)])  # second is collinear

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinate_names_node(self, bad):
        with pytest.raises(ValueError, match="node 2 has non-finite coordinates"):
            from_arrays([(0, 0), (1, 0), (bad, 1)], [(0, 1, 2)])

    def test_overlapping_triangles_name_an_edge(self):
        # every triangle listed twice, as an MSH file may list each once per physical group
        sq = generate_unit_square(16, 16)
        with pytest.raises(ValueError, match=r"triangles overlap: edge \(\d+, \d+\) belongs to 3 or more"):
            from_arrays(sq.node_coords, np.vstack([sq.triangles, sq.triangles]))

    def test_triangle_listed_twice_has_no_boundary(self):
        # each edge has two owners, so no node would be Dirichlet
        with pytest.raises(ValueError, match="triangles overlap: no edge belongs to one triangle only"):
            from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (0, 2, 1)])

    def test_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 5)])
        with pytest.raises(ValueError, match="out of range"):
            from_arrays([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 3, -2)])


class TestImportMsh:
    def test_single_triangle(self, tmp_path):
        p = tmp_path / "one.msh"
        write_msh(p, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
        m = import_msh(p)
        assert m.n_nodes == 3
        assert m.n_elems == 1
        assert m.total_area == pytest.approx(0.5, abs=1e-15)
        assert set(m.boundary_nodes) == {0, 1, 2}

    def test_round_trip_unit_square(self, tmp_path):
        ref = generate_unit_square(1, 1)
        p = tmp_path / "sq.msh"
        write_msh(p, ref.node_coords, ref.triangles)
        m = import_msh(p)
        np.testing.assert_allclose(m.node_coords, ref.node_coords, atol=1e-15)
        np.testing.assert_array_equal(m.triangles, ref.triangles)
        np.testing.assert_allclose(m.elem_area, ref.elem_area, rtol=1e-12)

    def test_annulus_boundary_loops(self, tmp_path):
        coords, tris = annulus_mesh_arrays()
        p = tmp_path / "annulus.msh"
        write_msh(p, coords, tris)
        m = import_msh(p)
        # outer loop = nodes 0..7, inner loop = 16..23, middle ring interior
        assert set(m.boundary_nodes) == set(range(8)) | set(range(16, 24))

    def test_drops_unreferenced_nodes(self, tmp_path):
        p = tmp_path / "extra.msh"
        p.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n7 9 9 0\n$EndNodes\n"
            "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n"
        )
        m = import_msh(p)
        assert m.n_nodes == 3  # node 7 belongs to no triangle

    def test_skips_non_triangles(self, tmp_path):
        p = tmp_path / "mixed.msh"
        p.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
            "$Elements\n3\n1 15 2 0 1 1\n2 1 2 0 1 1 2\n3 2 2 0 1 1 2 3\n$EndElements\n"
        )
        m = import_msh(p)
        assert m.n_elems == 1

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "v4.msh"
        p.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(MshParseError, match="version"):
            import_msh(p)

    def test_no_triangles(self, tmp_path):
        p = tmp_path / "empty.msh"
        p.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n1\n1 0 0 0\n$EndNodes\n"
            "$Elements\n1\n1 15 2 0 1 1\n$EndElements\n"
        )
        with pytest.raises(MshParseError, match="no triangles"):
            import_msh(p)

    def test_malformed_node_reports_line(self, tmp_path):
        p = tmp_path / "bad.msh"
        p.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n2\n1 0 0 0\n2 oops 0 0\n$EndNodes\n"
        )
        with pytest.raises(MshParseError, match="line 7"):
            import_msh(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            import_msh(tmp_path / "nope.msh")

    def test_skips_blank_lines_and_unknown_sections(self, tmp_path):
        p = tmp_path / "named.msh"
        p.write_text(
            "\n$MeshFormat\n\n2.2 0 8\n$EndMeshFormat\n\n"
            "$PhysicalNames\n1\n2 1 \"$Nodes\"\n$EndPhysicalNames\n\n"
            "$Nodes\n3\n\n1 0 0 0\n2 1 0 0\n  \n3 0 1 0\n$EndNodes\n"
            "$Elements\n\n1\n1 2 2 0 1 1 2 3\n\n$EndElements\n\n\n"
        )
        m = import_msh(p)
        assert (m.n_nodes, m.n_elems) == (3, 1)

    @pytest.mark.parametrize("body,line,message", [
        (_NODES + "2\n1 0 0 0\n", 6, "unexpected end of file"),
        (_NODES + "2\n1 0 0 0\n\n\n", 8, "unexpected end of file"),
        ("$MeshFormat\n", 1, "unexpected end of file"),
        ("$MeshFormat\n2.2 0 8\n$Nodes\n", 3, "expected $EndMeshFormat"),
        ("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n", 2, "unsupported MSH version '4.1' (need 2.2)"),
        (_NODES + "abc\n", 5, "node count is not an integer"),
        (_NODES + "\n\n1.5\n", 7, "node count is not an integer"),
        (_NODES + "1\n1 0 0\n", 6, "node line needs 'id x y z'"),
        (_NODES + "1\n1 0 x 0\n", 6, "malformed node line"),
        (_NODES + "1\n1 0 0 0\n$EndElements\n", 7, "expected $EndNodes"),
        (_ELEMENTS + "x\n", 11, "element count is not an integer"),
        (_ELEMENTS + "1\n1 2\n", 12, "element line too short"),
        (_ELEMENTS + "1\n1 2 2 0 1 1 2\n", 12, "triangle needs 3 node ids"),
        (_ELEMENTS + "1\n1 2 2 0 1 1 2 x\n", 12, "malformed element line"),
        (_ELEMENTS + "1\n1 15 x 1\n", 12, "malformed element line"),
        (_ELEMENTS + "1\n1 2 2 0 1 1 2 3\n$End\n", 13, "expected $EndElements"),
        (_ELEMENTS + "1\n1 2 2 0 1 1 2 3\n", 12, "unexpected end of file"),
    ], ids=[
        "eof-in-nodes", "eof-after-trailing-blanks", "eof-in-format", "no-end-format",
        "version", "node-count", "node-count-after-blanks", "short-node", "malformed-node",
        "no-end-nodes", "element-count", "short-element", "triangle-ids",
        "malformed-triangle", "malformed-ntags", "no-end-elements", "eof-in-elements",
    ])
    def test_parse_error_names_line(self, tmp_path, body, line, message):
        p = tmp_path / "bad.msh"
        p.write_text(body)
        with pytest.raises(MshParseError) as exc:
            import_msh(p)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("body,message", [
        ("$Nodes\n1\n1 0 0 0\n$EndNodes\n", "missing $MeshFormat section"),
        ("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n", "missing or empty $Nodes section"),
        (_NODES + "0\n$EndNodes\n", "missing or empty $Nodes section"),
        (_ELEMENTS + "1\n1 1 2 0 1 1 2\n$EndElements\n", "no triangles (element type 2) found"),
        (_ELEMENTS + "1\n1 2 2 0 1 1 2 9\n$EndElements\n", "element references unknown node id 9"),
    ], ids=["no-format", "no-nodes", "empty-nodes", "no-triangles", "unknown-node"])
    def test_file_level_error(self, tmp_path, body, message):
        p = tmp_path / "bad.msh"
        p.write_text(body)
        with pytest.raises(MshParseError) as exc:
            import_msh(p)
        assert exc.value.line is None
        assert str(exc.value) == message


@pytest.mark.parametrize("mesh", [generate_unit_square(7, 5), from_arrays(*annulus_mesh_arrays())])
def test_boundary_matches_edge_count_reference(mesh):
    counts = Counter(tuple(sorted(e)) for t in mesh.triangles.tolist() for e in combinations(t, 2))
    expected = sorted({n for e, c in counts.items() if c == 1 for n in e})
    np.testing.assert_array_equal(mesh.boundary_nodes, expected)


def int64_unit_square(nx, ny):
    """The unit square built as generate_unit_square once built it, on int64 index arrays."""
    xv, yv = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1), indexing="ij")
    coords = np.column_stack([xv.ravel(), yv.ravel()])
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    i, j = i.ravel(), j.ravel()
    n00, n10, n01, n11 = (a * (ny + 1) + b for a, b in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)))
    even = (i + j) % 2 == 0
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = np.where(even[:, None], np.column_stack([n00, n10, n11]), np.column_stack([n00, n10, n01]))
    tris[1::2] = np.where(even[:, None], np.column_stack([n00, n11, n01]), np.column_stack([n10, n11, n01]))
    return from_arrays(coords, tris)


class TestFootprint:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (3, 5), (300, 7), (216, 216)])
    def test_square_matches_int64_construction(self, nx, ny):
        m, ref = generate_unit_square(nx, ny), int64_unit_square(nx, ny)
        for field in dataclasses.fields(m):
            a, b = getattr(m, field.name), getattr(ref, field.name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field.name

    def test_square_build_peak(self):
        # traced 31.8 MiB at 400² with int32 triangles built in a helper and the
        # edge keys sorted in place; the int64 build with np.unique took 52.7 MiB
        generate_unit_square(4, 4)
        tracemalloc.start()
        try:
            generate_unit_square(400, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 2**20

    def test_from_arrays_peak(self):
        # traced 15.6 MiB at 400² with the signed area gathered one coordinate at a
        # time; three (m, 2) corner copies took it to 25.6 MiB
        square = generate_unit_square(400, 400)
        tracemalloc.start()
        try:
            from_arrays(square.node_coords, square.triangles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 2**20

    def test_int32_input_left_unchanged(self):
        # an int32 array is range-checked as it is, and the orientation flip writes a copy
        tris = np.array([(0, 2, 1), (1, 3, 2)], dtype=np.int32)  # the first clockwise
        m = from_arrays([(0, 0), (1, 0), (0, 1), (1, 1)], tris)
        assert tris.tolist() == [[0, 2, 1], [1, 3, 2]]
        assert m.triangles.tolist() == [[0, 1, 2], [1, 3, 2]] and (m.elem_area > 0).all()

    @pytest.mark.parametrize("make", [lambda: generate_unit_square(5, 4), lambda: from_arrays(*annulus_mesh_arrays())])
    def test_int32_triangles_and_no_gradient_array(self, make):
        m = make()
        assert m.triangles.dtype == np.int32 and m.triangles.flags.c_contiguous
        for field in dataclasses.fields(m):
            assert getattr(m, field.name).shape != (m.n_elems, 3, 2), field.name

    def test_more_than_2_31_nodes_rejected(self):
        # a zero-stride view: the count is checked before any pass over the nodes
        coords = np.broadcast_to(np.zeros(2), (2**31 + 1, 2))
        with pytest.raises(ValueError, match="2\\*\\*31"):
            from_arrays(coords, [(0, 1, 2)])

    def test_boundary_keys_past_int32_products(self):
        # 47,089 nodes: a min·n + max edge key overflows int32 from 46,341 nodes on
        m = generate_unit_square(216, 216)
        assert m.n_nodes == 47_089 and m.n_elems == 93_312
        x, y = m.node_coords.T
        on_edge = np.flatnonzero((x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0))
        assert m.boundary_nodes.size == 864
        np.testing.assert_array_equal(m.boundary_nodes, on_edge)


def test_free_nodes_complement_boundary():
    m = generate_unit_square(3, 3)
    assert set(m.free_nodes) | set(m.boundary_nodes) == set(range(m.n_nodes))
    assert not set(m.free_nodes) & set(m.boundary_nodes)
