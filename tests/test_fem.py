import numpy as np
import pytest
from scipy import sparse

from lowcontrast import fem
from lowcontrast.mesh import from_arrays, generate_unit_square
from test_eig import sunflower_disk
from test_mesh import flipped_shuffle


@pytest.fixture(scope="module")
def square():
    return generate_unit_square(6, 6)


@pytest.fixture
def reference_triangle():
    return from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


class TestStiffness:
    def test_zero_coefficient(self, square):
        K = fem.assemble_stiffness(square, np.zeros(square.n_elems))
        assert abs(K).max() == 0.0

    def test_scaling(self, square):
        K1 = fem.assemble_stiffness(square, np.ones(square.n_elems))
        Kc = fem.assemble_stiffness(square, 3.5 * np.ones(square.n_elems))
        diff = abs(Kc - 3.5 * K1).max()
        assert diff <= 1e-14 * abs(K1).max()

    def test_linearity(self, square):
        rng = np.random.default_rng(0)
        c1 = rng.uniform(0.1, 2.0, square.n_elems)
        c2 = rng.uniform(0.1, 2.0, square.n_elems)
        a, b = 0.7, 1.9
        lhs = fem.assemble_stiffness(square, a * c1 + b * c2)
        rhs = a * fem.assemble_stiffness(square, c1) + b * fem.assemble_stiffness(square, c2)
        assert abs(lhs - rhs).max() <= 1e-13 * abs(lhs).max()

    def test_reference_local_matrix(self, reference_triangle):
        K = fem.assemble_stiffness(reference_triangle, np.ones(1)).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(K, expected, atol=1e-15)

    def test_negative_coefficient_rejected(self, square):
        coeff = np.ones(square.n_elems)
        coeff[3] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            fem.assemble_stiffness(square, coeff)

    def test_constants_in_kernel(self, square):
        K = fem.assemble_stiffness(square, np.ones(square.n_elems))
        row_sums = np.asarray(K.sum(axis=1)).ravel()
        assert np.abs(row_sums).max() <= 1e-13

    def test_symmetry(self, square):
        rng = np.random.default_rng(1)
        K = fem.assemble_stiffness(square, rng.uniform(0.5, 2.0, square.n_elems))
        assert abs(K - K.T).max() <= 1e-13 * abs(K).max()

    def test_energy_identity(self, square):
        rng = np.random.default_rng(2)
        coeff = rng.uniform(0.2, 3.0, square.n_elems)
        K = fem.assemble_stiffness(square, coeff)
        f = rng.standard_normal(square.n_nodes)
        f[square.boundary_nodes] = 0.0
        grads = fem.element_gradient(square, f)
        energy = float(np.sum(square.elem_area * coeff * (grads**2).sum(axis=1)))
        assert float(f @ (K @ f)) == pytest.approx(energy, rel=1e-12)


def einsum_stiffness(mesh, coeff):
    """The assembly with each local matrix as one 3×3 ``einsum``: the bit-for-bit reference."""
    g = mesh.basis_gradients()
    local = (mesh.elem_area * coeff)[:, None, None] * np.einsum("tid,tjd->tij", g, g)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


KERNEL_MESHES = {
    "square32": lambda: generate_unit_square(32, 32),
    "disk4200": lambda: sunflower_disk(4200),
    "flipped_shuffle40": lambda: from_arrays(*flipped_shuffle(generate_unit_square(40, 40), 6)),
    # its one off-diagonal entry is (0, −1)·(−1, 0) = −0 + −0 with no other triangle to add
    "right_angle_at_2": lambda: from_arrays([(1, 0), (0, 1), (1, 1)], [(0, 1, 2)]),
}


@pytest.mark.parametrize("coeff", ["ones", "binary_seed1", "alpha1e100", "alpha1e-100"])
@pytest.mark.parametrize("kind", sorted(KERNEL_MESHES))
def test_six_entry_kernel_keeps_the_einsum_bits(kind, coeff):
    mesh = KERNEL_MESHES[kind]()
    if coeff == "binary_seed1":  # as --random-theta --seed 1; all-zero triangles give exact zeros
        theta = (np.random.default_rng(1).random(mesh.n_nodes) < 0.5).astype(float)
        c = fem.element_average(mesh, theta)
    else:
        c = np.full(mesh.n_elems, {"ones": 1.0, "alpha1e100": 1e100, "alpha1e-100": 1e-100}[coeff])
    K, expected = fem.assemble_stiffness(mesh, c), einsum_stiffness(mesh, c)
    assert np.array_equal(K.indptr, expected.indptr) and np.array_equal(K.indices, expected.indices)
    assert np.array_equal(K.data.view(np.int64), expected.data.view(np.int64))


class TestMass:
    def test_total_mass(self, square):
        M, lumped = fem.assemble_mass(square)
        assert M.sum() == pytest.approx(1.0, rel=1e-12)
        assert lumped.sum() == pytest.approx(1.0, rel=1e-12)

    def test_reference_local_matrix(self, reference_triangle):
        M, _ = fem.assemble_mass(reference_triangle)
        expected = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        np.testing.assert_allclose(M.toarray(), expected, atol=1e-16)

    def test_lumped_is_row_sum(self, square):
        M, lumped = fem.assemble_mass(square)
        np.testing.assert_allclose(lumped, np.asarray(M.sum(axis=1)).ravel(), rtol=1e-14)

    def test_lumped_interior_node(self):
        m = generate_unit_square(2, 2)
        _, lumped = fem.assemble_mass(m)
        center = 4  # node (1,1) of the 3x3 grid
        adjacent = [t for t in range(m.n_elems) if center in m.triangles[t]]
        expected = sum(m.elem_area[t] for t in adjacent) / 3.0
        assert lumped[center] == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self, square):
        M, _ = fem.assemble_mass(square)
        assert abs(M - M.T).max() <= 1e-13 * abs(M).max()

    def test_lumped_volume_of_ones(self, square):
        lumped = fem.assemble_mass(square)[1]
        assert float(lumped @ np.ones(square.n_nodes)) == pytest.approx(1.0, rel=1e-12)


class TestElementGradient:
    @pytest.mark.parametrize(
        "fn,expected",
        [
            (lambda x, y: x, (1.0, 0.0)),
            (lambda x, y: np.full_like(x, 2.3), (0.0, 0.0)),
            (lambda x, y: 3 * x - 2 * y, (3.0, -2.0)),
        ],
    )
    def test_linear_reproduction(self, square, fn, expected):
        f = fn(square.node_coords[:, 0], square.node_coords[:, 1])
        grads = fem.element_gradient(square, f)
        np.testing.assert_allclose(grads, np.tile(expected, (square.n_elems, 1)), atol=1e-13)

    def test_length_mismatch(self, square):
        with pytest.raises(ValueError):
            fem.element_gradient(square, np.zeros(3))


class TestPencil:
    def test_build_and_restrict(self, square):
        pencil = fem.build_pencil(square, np.ones(square.n_elems))
        assert pencil.n_free == square.n_nodes - square.boundary_nodes.size
        assert pencil.K.shape == (pencil.n_free, pencil.n_free)
        v = np.arange(square.n_nodes, dtype=float)
        assert pencil.extend(pencil.restrict(v))[square.boundary_nodes].max() == 0.0

    def test_spd_probes(self, square):
        rng = np.random.default_rng(6)
        pencil = fem.build_pencil(square, rng.uniform(0.5, 2.0, square.n_elems))
        assert (pencil.M.diagonal() > 0).all()
        for _ in range(5):
            x = rng.standard_normal(pencil.n_free)
            assert float(x @ (pencil.M @ x)) > 0
            assert float(x @ (pencil.K @ x)) > 0

    def test_no_free_nodes_rejected(self):
        single = from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        with pytest.raises(ValueError, match="free"):
            fem.build_pencil(single, np.ones(1))

    def test_element_average(self, square):
        theta = square.node_coords[:, 0]  # linear in x
        avg = fem.element_average(square, theta)
        centroids_x = square.node_coords[square.triangles, 0].mean(axis=1)
        np.testing.assert_allclose(avg, centroids_x, atol=1e-14)


class TestAddOnPattern:
    def test_values_of_scipy_sum(self, square):
        pencil = fem.build_pencil(square, np.linspace(0.5, 2.0, square.n_elems))
        K, M = pencil.K, pencil.M
        A = fem.add_on_pattern(K, M, -3.7)
        assert np.array_equal(A.indptr, K.indptr) and np.array_equal(A.indices, K.indices)
        assert np.array_equal(A.toarray(), (K - 3.7 * M).toarray())

    def test_keeps_cancelled_entries(self, square):
        # a scipy sum drops them, and with them the pattern an order was picked for
        K = fem.build_pencil(square, np.ones(square.n_elems)).K
        assert (K - K).nnz == 0
        A = fem.add_on_pattern(K, K, -1.0)
        assert A.nnz == K.nnz and not A.data.any()

    def test_other_pattern_rejected(self, square):
        K = fem.build_pencil(square, np.ones(square.n_elems)).K
        with pytest.raises(ValueError, match="pattern"):
            fem.add_on_pattern(K, sparse.identity(K.shape[0], format="csr"), 1.0)
