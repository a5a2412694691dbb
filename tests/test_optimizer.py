import numpy as np
import pytest

from lowcontrast.eig import Discretization
from lowcontrast.mesh import from_arrays, generate_unit_square
from lowcontrast.optimizer import (
    OptimizerConfig,
    OptimizerState,
    project_volume,
    run,
    step,
    write_history_csv,
)
from lowcontrast.relax import RelaxedObjective


def objective(mesh, epsilon):
    return RelaxedObjective(Discretization(mesh, 1.0), epsilon)


@pytest.fixture(scope="module")
def mesh():
    return generate_unit_square(12, 12)


class TestProjectVolume:
    def test_already_feasible(self):
        w = np.full(6, 1 / 6)
        theta, lam = project_volume(w, np.full(6, 0.5), 0.5, 1e-12)
        assert lam == 0.0
        np.testing.assert_allclose(theta, 0.5)

    def test_constant_shift(self):
        w = np.full(5, 0.2)
        theta, lam = project_volume(w, np.zeros(5), 0.3, 1e-12)
        assert lam == pytest.approx(0.3, abs=1e-11)
        np.testing.assert_allclose(theta, 0.3, atol=1e-11)

    def test_bang_bang_ties(self):
        # half at +10, half at -10 by weight: any shift in (-9, 9) is feasible
        w = np.full(4, 0.25)
        tilde = np.array([10.0, 10.0, -10.0, -10.0])
        theta, lam = project_volume(w, tilde, 0.5, 1e-12)
        np.testing.assert_allclose(theta, [1, 1, 0, 0])
        assert -9 < lam < 9

    def test_feasibility_idempotence_monotonicity(self):
        rng = np.random.default_rng(60)
        w = rng.uniform(0.5, 2.0, 40)
        total = w.sum()
        tol = 1e-10 * total
        for _ in range(50):
            tilde = rng.normal(0.3, 1.5, 40)
            m = rng.uniform(0.05, 0.95) * total
            theta, lam = project_volume(w, tilde, m, tol)
            assert (theta >= 0).all() and (theta <= 1).all()
            assert abs(float(w @ theta) - m) <= tol
            theta2, lam2 = project_volume(w, theta, m, tol)
            assert np.abs(theta2 - theta).max() <= 1e-9
            # monotone volume map, sampled
            lams = np.sort(rng.normal(0, 2, 5))
            vols = [float(w @ np.clip(tilde + L, 0, 1)) for L in lams]
            assert all(vols[i] <= vols[i + 1] + 1e-14 for i in range(4))

    def test_target_out_of_range(self):
        w = np.full(4, 0.25)
        with pytest.raises(ValueError):
            project_volume(w, np.zeros(4), 1.5, 1e-12)
        with pytest.raises(ValueError):
            project_volume(w, np.zeros(4), 0.0, 1e-12)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(volume_fraction=1.2)

    @pytest.mark.parametrize("field", ["max_iters", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "7"])
    def test_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OptimizerConfig(volume_fraction=0.5, **{field: value})

    @pytest.mark.parametrize("field,value", [
        (field, value)
        for field in ("volume_fraction", "tol_step")
        for value in (np.nan, np.inf, True, "0.5", None)
    ])
    def test_real_fields(self, field, value):
        kwargs = {"volume_fraction": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            OptimizerConfig(**kwargs)

    def test_accepts_numpy_scalars(self):
        config = OptimizerConfig(volume_fraction=np.float64(0.3), max_iters=np.int64(4), seed=np.int32(2))
        assert config.max_iters == 4


class TestRun:
    def test_monotone_descent_and_feasibility(self, mesh):
        config = OptimizerConfig(volume_fraction=0.3, max_iters=100)
        state, final, kkt = run(objective(mesh, 1e-6), config)
        F = np.array(state.F_history)
        assert (np.diff(F) <= 0).all()
        vols = np.array(state.vol_history)
        assert np.abs(vols - 0.3).max() <= 1e-9
        assert (state.theta >= 0).all() and (state.theta <= 1).all()

    def test_high_volume_fraction(self, mesh):
        config = OptimizerConfig(volume_fraction=0.9, max_iters=100)
        state, final, kkt = run(objective(mesh, 1e-6), config)
        assert state.F_history[-1] <= state.F_history[0]
        assert abs(state.vol_history[-1] - 0.9) <= 1e-9

    def test_larger_contrast_keeps_mixture(self, mesh):
        config = OptimizerConfig(volume_fraction=0.4, max_iters=200)
        state, final, kkt = run(objective(mesh, 0.1), config)
        mixed = (state.theta > 0.05) & (state.theta < 0.95)
        assert mixed.any()

    def test_seeded_start_is_feasible_and_reproducible(self, mesh):
        config = OptimizerConfig(volume_fraction=0.25, max_iters=5, seed=9)
        s1, _, _ = run(objective(mesh, 1e-6), config)
        s2, _, _ = run(objective(mesh, 1e-6), config)
        np.testing.assert_array_equal(s1.theta, s2.theta)
        assert abs(s1.vol_history[0] - 0.25) <= 1e-9

    def test_single_triangle_fails_before_iterating(self):
        single = from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        config = OptimizerConfig(volume_fraction=0.5, max_iters=5)
        with pytest.raises(ValueError, match="free"):
            run(objective(single, 1e-6), config)

    def test_permutation_equivariance(self):
        mesh = generate_unit_square(6, 6)
        rng = np.random.default_rng(61)
        perm = rng.permutation(mesh.n_nodes)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_nodes)
        permuted = from_arrays(mesh.node_coords[perm], inv[mesh.triangles])

        config = OptimizerConfig(volume_fraction=0.35, max_iters=6)
        s_ref, _, _ = run(objective(mesh, 0.05), config)
        s_perm, _, _ = run(objective(permuted, 0.05), config)
        np.testing.assert_allclose(s_perm.theta[inv], s_ref.theta, atol=1e-6)

    def test_kkt_at_convergence(self, mesh):
        config = OptimizerConfig(volume_fraction=0.2, max_iters=500, tol_step=1e-9
        )
        state, final, kkt = run(objective(mesh, 1e-6), config)
        lam0 = 2 * np.pi**2
        assert kkt[0] <= 1e-3 * lam0
        assert kkt[1] <= 1e-3 * lam0


class TestStep:
    def test_accepted_step_decreases_or_flags(self, mesh):
        problem = objective(mesh, 1e-6)
        config = OptimizerConfig(volume_fraction=0.3, max_iters=10)
        lumped = problem.lumped
        theta0 = np.full(mesh.n_nodes, 0.3)
        ev0 = problem.evaluate(theta0)
        state = OptimizerState(theta=theta0, iter=0, rho=0.05, last_eval=ev0)
        state.F_history.append(ev0.F)
        state.vol_history.append(float(lumped @ theta0))
        state.rho_history.append(0.05)
        state.Lambda_history.append(0.0)
        state.l1_history.append(0.0)
        step(state, config, problem)
        assert state.F_history[-1] <= state.F_history[0]
        assert state.iter == 1


def test_history_csv(tmp_path, mesh):
    config = OptimizerConfig(volume_fraction=0.4, max_iters=3)
    state, _, _ = run(objective(mesh, 1e-6), config)
    path = tmp_path / "history.csv"
    write_history_csv(state, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,F,volume,rho,Lambda,L1_change"
    assert len(lines) == 1 + len(state.F_history)
    # determinism: a second run writes the identical file
    state2, _, _ = run(objective(mesh, 1e-6), config)
    path2 = tmp_path / "history2.csv"
    write_history_csv(state2, path2)
    assert path.read_bytes() == path2.read_bytes()
