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
)
from lowcontrast.relax import RelaxedEval, RelaxedObjective


def objective(mesh, epsilon):
    return RelaxedObjective(Discretization(mesh, 1.0), epsilon)


def descend(mesh, epsilon, config):
    """``run`` on a fresh discretization of ``mesh`` at α = 1."""
    return run(Discretization(mesh, 1.0), epsilon, config)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        tilde = np.array([0.2, bad, 0.4, 0.6])
        with pytest.raises(ValueError, match="theta_tilde must be finite"):
            project_volume(np.full(4, 0.25), tilde, 0.5, 1e-12)

    def test_range_beyond_precision(self):
        # -1e17 + (1 + 1e17) rounds to 0, so no shift reaches the target volume
        with pytest.raises(ValueError, match="too wide to resolve the volume constraint"):
            project_volume(np.full(2, 0.5), np.array([-1e17, 0.0]), 0.75, 1e-12)

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

    @pytest.mark.parametrize("field, value", [("max_iters", 0), ("tol_step", -1.0)])
    def test_non_positive_fields(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            OptimizerConfig(volume_fraction=0.5, **{field: value})

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed(self, seed):
        # numpy's generators take no negative seed
        with pytest.raises(ValueError, match="seed must be >= 0"):
            OptimizerConfig(volume_fraction=0.5, seed=seed)

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
        state, kkt = descend(mesh, 1e-6, config)
        F = np.array(state.F_history)
        assert (np.diff(F) <= 0).all()
        vols = np.array(state.vol_history)
        assert np.abs(vols - 0.3).max() <= 1e-9
        assert (state.theta >= 0).all() and (state.theta <= 1).all()

    def test_high_volume_fraction(self, mesh):
        config = OptimizerConfig(volume_fraction=0.9, max_iters=100)
        state, kkt = descend(mesh, 1e-6, config)
        assert state.F_history[-1] <= state.F_history[0]
        assert abs(state.vol_history[-1] - 0.9) <= 1e-9

    def test_larger_contrast_keeps_mixture(self, mesh):
        config = OptimizerConfig(volume_fraction=0.4, max_iters=200)
        state, kkt = descend(mesh, 0.1, config)
        mixed = (state.theta > 0.05) & (state.theta < 0.95)
        assert mixed.any()

    def test_seeded_start_is_feasible_and_reproducible(self, mesh):
        config = OptimizerConfig(volume_fraction=0.25, max_iters=5, seed=9)
        s1, _ = descend(mesh, 1e-6, config)
        s2, _ = descend(mesh, 1e-6, config)
        np.testing.assert_array_equal(s1.theta, s2.theta)
        assert abs(s1.vol_history[0] - 0.25) <= 1e-9

    def test_single_triangle_fails_before_iterating(self):
        single = from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
        config = OptimizerConfig(volume_fraction=0.5, max_iters=5)
        with pytest.raises(ValueError, match="free"):
            descend(single, 1e-6, config)

    def test_permutation_equivariance(self):
        mesh = generate_unit_square(6, 6)
        rng = np.random.default_rng(61)
        perm = rng.permutation(mesh.n_nodes)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_nodes)
        triangles = inv[mesh.triangles]
        config = OptimizerConfig(volume_fraction=0.35, max_iters=6)
        s_ref, _ = descend(mesh, 0.05, config)
        # renumbered nodes, then also reordered triangles
        for tris in (triangles, triangles[rng.permutation(mesh.n_elems)]):
            s_perm, _ = descend(from_arrays(mesh.node_coords[perm], tris), 0.05, config)
            np.testing.assert_allclose(s_perm.theta[inv], s_ref.theta, atol=1e-6)

    def test_invariant_under_alpha_and_domain_scale(self):
        # scaling the domain by L and the conductivity by α scales λ, F and the
        # gradient, so F·L²/α and the iterates must not change
        square = generate_unit_square(24, 24)
        config = OptimizerConfig(volume_fraction=0.4)

        def optimize(L, alpha):
            mesh = from_arrays(square.node_coords * L, square.triangles)
            state, _ = run(Discretization(mesh, alpha), 0.1, config)
            return state.iter, state.last_eval.F * L**2 / alpha, state.theta

        iters, F, theta = optimize(1, 1.0)
        for L in (1, 10, 1000):
            for alpha in (1e-12, 1.0, 1e6):
                iters_s, F_s, theta_s = optimize(L, alpha)
                assert iters_s == iters
                assert abs(F_s - F) <= 1e-12 * F
                np.testing.assert_allclose(theta_s, theta, rtol=0, atol=1e-10)

    def test_kkt_at_convergence(self, mesh):
        config = OptimizerConfig(volume_fraction=0.2, max_iters=500, tol_step=1e-9
        )
        state, kkt = descend(mesh, 1e-6, config)
        lam0 = 2 * np.pi**2
        assert kkt[0] <= 1e-3 * lam0
        assert kkt[1] <= 1e-3 * lam0


def _initial_state(problem, theta0, rho, rho0):
    """The state run() builds before its first step.

    ``rho`` is the first trial step; ``rho0`` is the step size recorded for
    iteration 0, which sets the stall floor.
    """
    ev0 = problem.evaluate(theta0)
    state = OptimizerState(theta=theta0, iter=0, rho=rho, last_eval=ev0)
    state.F_history.append(ev0.F)
    state.vol_history.append(float(problem.lumped @ theta0))
    state.rho_history.append(rho0)
    state.Lambda_history.append(0.0)
    state.l1_history.append(0.0)
    return state


class _NoArmijoProblem:
    """F = 1 − slope·‖θ − θ0‖₁ with a fixed steep gradient: no step meets Armijo.

    With slope > 0 every candidate improves F, but by far less than the Armijo
    decrease; with slope < 0 every candidate makes F worse.
    """

    def __init__(self, n, slope):
        self.lumped = np.full(n, 1.0 / n)
        self.grad = np.linspace(-1e3, 1e3, n)
        self.theta0 = np.full(n, 0.5)
        self.slope = slope

    def evaluate(self, theta):
        F = 1.0 - self.slope * float(self.lumped @ np.abs(theta - self.theta0))
        return RelaxedEval(F=F, lambda1=F, v_inf=theta, grad_density=self.grad)


class TestStep:
    def test_accepted_step_decreases_or_flags(self, mesh):
        problem = objective(mesh, 1e-6)
        config = OptimizerConfig(volume_fraction=0.3, max_iters=10)
        state = _initial_state(problem, np.full(mesh.n_nodes, 0.3), 0.05, 0.05)
        step(state, config, problem)
        assert state.F_history[-1] <= state.F_history[0]
        assert state.iter == 1

    def test_stall_keeps_best_improving_candidate(self):
        problem = _NoArmijoProblem(10, slope=1e-6)
        state = _initial_state(problem, problem.theta0, 0.25, 1.0)
        step(state, OptimizerConfig(volume_fraction=0.5), problem)
        assert state.stalled and not state.converged
        # the first, longest trial step improves F the most
        assert state.F_history[-1] < state.F_history[0]
        assert state.rho_history[-1] == 0.25
        assert state.rho == 0.25
        assert not np.array_equal(state.theta, problem.theta0)
        assert abs(state.vol_history[-1] - 0.5) <= 1e-9

    def test_stall_without_improvement_returns_previous_iterate(self):
        problem = _NoArmijoProblem(10, slope=-1.0)
        state = _initial_state(problem, problem.theta0, 0.25, 1.0)
        step(state, OptimizerConfig(volume_fraction=0.5), problem)
        assert state.stalled and not state.converged
        np.testing.assert_array_equal(state.theta, problem.theta0)
        assert state.F_history == [1.0, 1.0]
        assert state.rho_history == [1.0, 1.0]
        assert state.Lambda_history == [0.0, 0.0]
        assert state.l1_history[-1] == 0.0
        assert state.iter == 1
