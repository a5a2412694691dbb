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
        np.testing.assert_allclose(m.elem_basis_grad[0], expected, atol=1e-14)

    def test_partition_of_unity(self):
        m = generate_unit_square(6, 4)
        sums = m.elem_basis_grad.sum(axis=1)
        assert np.abs(sums).max() <= 1e-13

    def test_affine_scaling(self):
        m = from_arrays([(0, 0), (2, 0), (0, 2)], [(0, 1, 2)])
        assert m.elem_area[0] == pytest.approx(2.0, abs=1e-14)
        expected = 0.5 * np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(m.elem_basis_grad[0], expected, atol=1e-14)

    def test_orientation_normalized(self):
        m = from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])  # clockwise input
        assert m.elem_area[0] > 0
        assert m.elem_basis_grad[0].sum(axis=0) == pytest.approx(np.zeros(2), abs=1e-14)

    def test_degenerate_names_element(self):
        coords = [(0, 0), (1, 0), (0, 1), (2, 0)]
        with pytest.raises(ValueError, match="element 1"):
            from_arrays(coords, [(0, 1, 2), (0, 1, 3)])  # second is collinear

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinate_names_node(self, bad):
        with pytest.raises(ValueError, match="node 2 has non-finite coordinates"):
            from_arrays([(0, 0), (1, 0), (bad, 1)], [(0, 1, 2)])

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


@pytest.mark.parametrize("mesh", [generate_unit_square(7, 5), from_arrays(*annulus_mesh_arrays())])
def test_boundary_matches_edge_count_reference(mesh):
    counts = Counter(tuple(sorted(e)) for t in mesh.triangles.tolist() for e in combinations(t, 2))
    expected = sorted({n for e, c in counts.items() if c == 1 for n in e})
    np.testing.assert_array_equal(mesh.boundary_nodes, expected)


def test_free_nodes_complement_boundary():
    m = generate_unit_square(3, 3)
    assert set(m.free_nodes) | set(m.boundary_nodes) == set(range(m.n_nodes))
    assert not set(m.free_nodes) & set(m.boundary_nodes)
