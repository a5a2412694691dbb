import time

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse import linalg as spla

from lowcontrast import eig, fem
from lowcontrast.eig import (
    RESIDUAL_TOL,
    Discretization,
    Ordering,
    ShiftedSolver,
    SolverError,
    _polish,
    _rel_residual,
    smallest_eigenpair,
)
from lowcontrast.expansion import direct_eigenvalue
from lowcontrast.mesh import from_arrays, generate_unit_square

PI2 = np.pi**2


def unit_disc(n, alpha=1.0, **kw):
    return Discretization(generate_unit_square(n, n), alpha, **kw)


class TestSmallestEigenpair:
    def test_ground_state_convergence(self):
        # Dirichlet Laplacian on the unit square: lambda = 2 pi^2, from above
        lams = []
        for n in (8, 16, 32):
            lams.append(unit_disc(n).ground.lam)
        assert all(lams[i] > lams[i + 1] for i in range(len(lams) - 1))
        assert all(lam >= 2 * PI2 for lam in lams)
        assert abs(lams[-1] - 2 * PI2) / (2 * PI2) <= 0.01

    def test_residual_contract(self):
        disc = unit_disc(12)
        pencil, pair = disc.pencil, disc.ground
        uf = pencil.restrict(pair.u)
        lmu = pair.lam * (pencil.M @ uf)
        res = np.linalg.norm(pencil.K @ uf - lmu) / np.linalg.norm(lmu)
        assert res <= 1e-11

    def test_normalization_and_sign(self):
        disc = unit_disc(10)
        pencil, pair = disc.pencil, disc.ground
        uf = pencil.restrict(pair.u)
        assert float(uf @ (pencil.M @ uf)) == pytest.approx(1.0, abs=1e-12)
        assert pair.u.min() >= -1e-10  # nonnegative ground state
        assert float(pencil.lumped @ pair.u) > 0

    def test_zero_on_boundary(self):
        disc = unit_disc(6)
        assert np.abs(disc.ground.u[disc.mesh.boundary_nodes]).max() == 0.0

    def test_pencil_scaling(self):
        ref = unit_disc(8).ground
        pair = unit_disc(8, 4.0).ground
        assert pair.lam == pytest.approx(4.0 * ref.lam, rel=1e-12)
        np.testing.assert_allclose(pair.u, ref.u, atol=1e-9)

    def test_uniform_contrast_factors_out(self):
        eps = 0.37
        lam0 = unit_disc(8).ground.lam
        lam = unit_disc(8, 1 + eps).ground.lam
        assert lam == pytest.approx((1 + eps) * lam0, rel=1e-13)


class TestSecondEigenvalue:
    def test_value_on_square(self):
        lam2 = unit_disc(32).lambda2
        assert abs(lam2 - 5 * PI2) / (5 * PI2) <= 0.02

    def test_strictly_above_ground(self):
        disc = unit_disc(10)
        assert disc.lambda2 > disc.ground.lam

    def test_uniform_scaling(self):
        eps = 0.2
        assert unit_disc(8, 1 + eps).lambda2 == pytest.approx(
            (1 + eps) * unit_disc(8).lambda2, rel=1e-12
        )

    def test_dense_oracle_5x5_nodes(self):
        # 5x5-node mesh: both smallest pencil eigenvalues vs a full dense spectrum
        disc = unit_disc(4)
        pencil = disc.pencil
        vals = eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
        assert disc.ground.lam == pytest.approx(vals[0], rel=1e-9)
        assert disc.lambda2 == pytest.approx(vals[1], rel=1e-9)

    def test_sparse_path_matches_dense_oracle(self):
        # 49 free nodes, above the dense cutoff: Lanczos on the bordered solve
        disc = unit_disc(8)
        assert disc.pencil.n_free > eig._DENSE_CUTOFF
        pencil = disc.pencil
        vals = eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
        assert disc.lambda2 == pytest.approx(vals[1], rel=1e-12)

    def test_reuses_bordered_factorization(self, monkeypatch):
        disc = unit_disc(32)
        disc.solver
        calls = []
        splu = eig.spla.splu
        monkeypatch.setattr(eig.spla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw))
        assert disc.lambda2 > disc.ground.lam
        assert calls == []

    def test_pencil_too_small(self):
        disc = unit_disc(2)  # a single free node has no second eigenvalue
        with pytest.raises(SolverError, match="free node"):
            disc.lambda2


@pytest.fixture(scope="module")
def setup():
    disc = unit_disc(6)
    return disc.pencil, disc.ground, disc.ordering


def compatible(solver, f):
    """f minus its u0 component along M u0, so that u0.f = 0."""
    return f - float(solver.u0f @ f) * solver.Mu0


class TestShiftedSolver:
    def test_zero_load(self, setup):
        pencil, ground, ordering = setup
        v = ShiftedSolver(pencil, ground.lam, ground.u, ordering).solve(np.zeros(pencil.n_free))
        assert np.abs(v).max() == 0.0

    def test_spectral_oracle(self, setup):
        # f = M w for the second eigenvector w  =>  v = w / (lam2 - lam0)
        pencil, ground, ordering = setup
        vals, vecs = eigh(pencil.K.toarray(), pencil.M.toarray())
        w = vecs[:, 1] / np.sqrt(vecs[:, 1] @ (pencil.M @ vecs[:, 1]))
        f = pencil.M @ w
        v = ShiftedSolver(pencil, ground.lam, ground.u, ordering).solve(f)
        expected = w / (vals[1] - ground.lam)
        np.testing.assert_allclose(v, expected, atol=1e-9 * np.abs(expected).max())

    def test_orthogonality_enforced(self, setup):
        # u0' M v = 0 for every compatible load
        pencil, ground, ordering = setup
        rng = np.random.default_rng(11)
        u0f = pencil.restrict(ground.u)
        solver = ShiftedSolver(pencil, ground.lam, ground.u, ordering)
        for _ in range(3):
            v = solver.solve(compatible(solver, rng.standard_normal(pencil.n_free)))
            assert abs(float(u0f @ (pencil.M @ v))) <= 1e-11

    def test_bordered_exactness_general_load(self, setup):
        # (K - lam0 M) v = f for a random load projected onto u0-compatible loads
        pencil, ground, ordering = setup
        rng = np.random.default_rng(12)
        solver = ShiftedSolver(pencil, ground.lam, ground.u, ordering)
        f = compatible(solver, rng.standard_normal(pencil.n_free))
        v = solver.solve(f)
        A = pencil.K - ground.lam * pencil.M
        assert np.linalg.norm(A @ v - f) <= 1e-10 * np.linalg.norm(f)

    def test_compatibility_violation_raises(self, setup):
        pencil, ground, ordering = setup
        f = pencil.M @ pencil.restrict(ground.u)  # u0.f = 1: maximally incompatible
        solver = ShiftedSolver(pencil, ground.lam, ground.u, ordering)
        with pytest.raises(SolverError, match="compat"):
            solver.solve(f)

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    @pytest.mark.parametrize("alpha", [1e-12, 1.0, 1e6])
    def test_incompatible_load_raises_at_any_alpha(self, alpha, scale):
        # f = s·λ0·Mu0 has u0.f = s·λ0 and scales with α, as the cascade's loads do
        solver = unit_disc(16, alpha).solver
        with pytest.raises(SolverError, match="compat"):
            solver.solve(scale * solver.lambda0 * solver.Mu0)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 1e6])
    def test_fill_independent_of_alpha(self, alpha):
        # the border scales with α as K − λ0·M does, so pivoting sees the α = 1 matrix
        ref = unit_disc(64).solver.fill
        solver = unit_disc(64, alpha).solver
        assert solver.fill == pytest.approx(ref, rel=0.01)
        pencil = solver.pencil
        f = compatible(solver, alpha * np.random.default_rng(13).standard_normal(pencil.n_free))
        v = solver.solve(f)  # raises on a breakdown residual above 1e-8
        A = pencil.K - solver.lambda0 * pencil.M
        assert np.linalg.norm(A @ v - f) <= 1e-8 * np.linalg.norm(f)

    def test_wrong_shape(self, setup):
        pencil, ground, ordering = setup
        solver = ShiftedSolver(pencil, ground.lam, ground.u, ordering)
        with pytest.raises(ValueError):
            solver.solve(np.zeros(3))


class TestDiscretization:
    def test_shares_pencil_and_ground(self):
        mesh = generate_unit_square(6, 6)
        pencil = fem.build_pencil(mesh, np.ones(mesh.n_elems))
        disc = Discretization(mesh, 1.0)
        assert (disc.pencil.K != pencil.K).nnz == 0
        assert disc.ground.lam == smallest_eigenpair(pencil, Ordering(pencil.K)).lam

    def test_solver_built_on_first_use(self):
        disc = Discretization(generate_unit_square(6, 6), 1.0)
        assert "solver" not in vars(disc)
        solver = disc.solver
        assert disc.solver is solver
        assert solver.lambda0 == disc.ground.lam

    def test_theta_stiffness_kept_for_last_density(self):
        mesh = generate_unit_square(6, 6)
        disc = Discretization(mesh, 1.0)
        theta = np.linspace(0, 1, mesh.n_nodes)
        Kt = disc.theta_stiffness(theta)
        assert disc.theta_stiffness(theta.copy()) is Kt
        ones = disc.theta_stiffness(np.ones(mesh.n_nodes))
        assert ones is not Kt
        np.testing.assert_allclose(ones.toarray(), disc.pencil.K.toarray(), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize(
        "alpha", [0.0, -1.0, np.nan, np.inf, 1e-200, 1e-300, 1e200, 1e300, 9e-101, 1.1e100]
    )
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            Discretization(generate_unit_square(4, 4), alpha)

    @pytest.mark.parametrize("alpha", [1e-100, 1e100])
    def test_accepts_alpha_range_ends(self, alpha):
        ref = unit_disc(8).ground.lam
        assert unit_disc(8, alpha).ground.lam == pytest.approx(alpha * ref, rel=1e-12)


@pytest.fixture(scope="module")
def square150():
    """The 150^2 square, a random renumbering q (new node i is old node q[i]) and the renumbered mesh."""
    mesh = generate_unit_square(150, 150)
    q = np.random.default_rng(3).permutation(mesh.n_nodes)
    return mesh, q, from_arrays(mesh.node_coords[q], np.argsort(q)[mesh.triangles])


class TestOrdering:
    def test_random_numbering_keeps_diagonal_pivots(self, square150):
        # a minimum-degree order with partial pivoting took 14 s here; the
        # shared order in symmetric mode takes a fraction of a second
        mesh, q, shuffled = square150
        t0 = time.perf_counter()
        disc = Discretization(shuffled, 1.0)
        solver = disc.solver
        elapsed = time.perf_counter() - t0
        ref = Discretization(mesh, 1.0)
        assert disc.ground.lam == pytest.approx(ref.ground.lam, rel=1e-12)

        g = np.sin(3.0 * mesh.node_coords[:, 0]) * mesh.node_coords[:, 1]
        f_ref = compatible(ref.solver, ref.pencil.restrict(g))
        v_ref = ref.pencil.extend(ref.solver.solve(f_ref))[q]
        f = disc.pencil.restrict(ref.pencil.extend(f_ref)[q])
        v = disc.pencil.extend(solver.solve(f))
        assert np.linalg.norm(v - v_ref) <= 1e-10 * np.linalg.norm(v_ref)
        assert elapsed < 3.0

    def test_residual_margin_below_contract(self, square150):
        # a fixed RESIDUAL_TOL needs a wide margin: on a randomly numbered
        # mesh the ground pair and the ε-sweep pairs land 100x below it
        shuffled = square150[2]
        disc = Discretization(shuffled, 1.0)
        theta = (np.random.default_rng(8).random(shuffled.n_nodes) < 0.5).astype(float)
        residuals = [disc.ground.residual]
        residuals += [direct_eigenvalue(disc, theta, eps).residual for eps in (1e-3, 0.1, 0.8)]
        assert max(residuals) <= 1e-14  # 100x below RESIDUAL_TOL

    def test_fill_below_colamd(self):
        disc = Discretization(generate_unit_square(64, 64), 1.0)
        K = disc.pencil.K.tocsc()
        colamd = spla.splu(K)
        assert disc.ordering.fill < colamd.nnz

        solver = disc.solver
        A = (K - disc.ground.lam * disc.pencil.M).tocsr()
        col = sparse.csc_matrix(solver.Mu0.reshape(-1, 1))
        bordered = spla.splu(sparse.bmat([[A, col], [col.T, None]], format="csc"))
        assert solver.fill < bordered.nnz

    def test_polish_restores_residual_contract(self):
        disc = Discretization(generate_unit_square(16, 16), 1.0)
        pencil, perm = disc.pencil, disc.ordering.perm
        K, M = pencil.K, pencil.M
        u = pencil.restrict(disc.ground.u)
        u = u + 1e-3 * np.random.default_rng(5).standard_normal(u.size)
        u /= np.sqrt(u @ (M @ u))
        lam = float(u @ (K @ u))
        assert _rel_residual(K, M, lam, u) > RESIDUAL_TOL

        lam, u, res = _polish(K, M, lam, u, disc.ordering)
        assert res <= RESIDUAL_TOL
        assert res == pytest.approx(_rel_residual(K, M, lam, u))
        assert lam == pytest.approx(disc.ground.lam, rel=1e-12)
        assert disc.ordering.perm is perm
