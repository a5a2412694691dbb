import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from lowcontrast import fem
from lowcontrast.eig import Discretization
from lowcontrast.expansion import compute_series
from lowcontrast.mesh import from_arrays, generate_unit_square
from lowcontrast.optimizer import OptimizerConfig, run
from lowcontrast.relax import RelaxedObjective
from test_eig import sunflower_disk

EPS = 0.08


@pytest.fixture(scope="module")
def mesh():
    return generate_unit_square(10, 10)


@pytest.fixture(scope="module")
def disc(mesh):
    return Discretization(mesh, 1.0)


@pytest.fixture(scope="module")
def prob(disc):
    return RelaxedObjective(disc, EPS)


def reference_objective(prob):
    """The objective's value, state and gradient, and its Hessian form, with
    per-call element gathers and ``np.add.at`` scatters: the reference."""
    mesh, eps, alpha, lumped = prob.mesh, prob.epsilon, prob.alpha, prob.lumped
    area, tris = mesh.elem_area, mesh.triangles.ravel()
    grad_u0 = fem.element_gradient(mesh, prob.ground.u)
    gu0_sq = np.einsum("td,td->t", grad_u0, grad_u0)
    coupling = np.einsum("tid,td->ti", mesh.basis_gradients(), grad_u0)

    def project(e):
        out = np.zeros(mesh.n_nodes)
        np.add.at(out, tris, np.repeat(area / 3.0 * e, 3))
        return out / lumped

    def state(theta_e):
        lam1 = alpha * float(np.sum(area * theta_e * gu0_sq))
        load = np.zeros(mesh.n_nodes)
        np.add.at(load, tris, ((-alpha * area * theta_e)[:, None] * coupling).ravel())
        f = load[prob.pencil.free] + lam1 * prob.disc.Mu0
        v = prob.pencil.extend(prob.disc.singular_solve(f))
        return v, lam1, np.einsum("td,td->t", fem.element_gradient(mesh, v), grad_u0)

    def evaluate(theta):
        theta_e = fem.element_average(mesh, theta)
        v, lam1, gv_dot = state(theta_e)
        mixing = theta_e - fem.element_average(mesh, theta**2)
        F = alpha * float(np.sum(area * (theta_e * (gu0_sq + eps * gv_dot) - eps * mixing * gu0_sq)))
        e_lin = alpha * (2.0 * eps * gv_dot + (1.0 - eps) * gu0_sq)
        grad = project(e_lin) + 2.0 * eps * alpha * theta * project(gu0_sq)
        return F, lam1, v, grad

    def hessian_form(phi):
        phi_e = fem.element_average(mesh, phi)
        _, _, gv_dot = state(phi_e)
        diag = float(np.sum(lumped * phi**2 * project(gu0_sq)))
        return 2.0 * eps * alpha * (float(np.sum(area * phi_e * gv_dot)) + diag)

    return evaluate, hessian_form


def shuffled(mesh, rng):
    """The same mesh with its nodes renumbered and its triangles reordered."""
    perm = rng.permutation(mesh.n_nodes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_nodes)
    return from_arrays(mesh.node_coords[perm], inv[mesh.triangles][rng.permutation(mesh.n_elems)])


@pytest.mark.parametrize("shuffle", [False, True], ids=["square", "shuffled"])
def test_matches_element_loop_reference(mesh, shuffle):
    rng = np.random.default_rng(52)
    if shuffle:
        mesh = shuffled(mesh, rng)
    disc = Discretization(mesh, 1.7)

    def assert_close(actual, expected):
        expected = np.asarray(expected)
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()

    for _ in range(4):
        problem = RelaxedObjective(disc, 10.0 ** rng.uniform(-6.0, 0.0))
        evaluate, hessian_form = reference_objective(problem)
        theta = rng.uniform(0.0, 1.0, mesh.n_nodes)
        phi = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        ev = problem.evaluate(theta)
        F, lam1, v, grad = evaluate(theta)
        assert_close(ev.F, F)
        assert_close(ev.lambda1, lam1)
        assert_close(ev.v_inf, v)
        assert_close(ev.grad_density, grad)
        assert_close(problem.hessian_form(phi), hessian_form(phi))


def out_of_place_objective(disc, epsilon):
    """``evaluate`` and ``hessian_form`` as out-of-place expressions, one
    temporary per operation, on element maps rebuilt from the mesh: the
    operands and order that the in-place evaluation must reproduce bit for bit."""
    mesh, alpha, pencil, eps = disc.mesh, disc.alpha, disc.pencil, epsilon
    m, area, lumped = mesh.n_elems, mesh.elem_area, pencil.lumped
    pattern = (mesh.triangles.ravel(), np.arange(0, 3 * m + 1, 3))
    S = sparse.csr_matrix((np.ones(3 * m), *pattern), shape=(m, mesh.n_nodes))
    grad_u0 = fem.element_gradient(mesh, disc.ground.u)
    coupling = np.einsum("tid,td->ti", mesh.basis_gradients(), grad_u0)
    C = sparse.csr_matrix((coupling.ravel(), *pattern), shape=(m, mesh.n_nodes))
    gu0_sq = np.einsum("td,td->t", grad_u0, grad_u0)

    def project(e):
        return S.T @ (area / 3.0 * e) / lumped

    p_nodal = project(gu0_sq)

    def state(theta_e):
        w = alpha * area * theta_e
        lam1 = float(w @ gu0_sq)
        f = lam1 * disc.Mu0 - (C.T @ w)[pencil.free]
        v = pencil.extend(disc.singular_solve(f))
        return v, lam1, C @ v

    def evaluate(theta):
        theta_e = S @ theta / 3.0
        theta_sq_e = S @ theta**2 / 3.0
        v, lam1, gv_dot = state(theta_e)
        first = alpha * float(np.sum(area * theta_e * (gu0_sq + eps * gv_dot)))
        mixing = eps * alpha * float(np.sum(area * (theta_e - theta_sq_e) * gu0_sq))
        e_lin = alpha * (2.0 * eps * gv_dot + (1.0 - eps) * gu0_sq)
        grad = project(e_lin) + (2.0 * eps * alpha) * theta * p_nodal
        return first - mixing, lam1, v, grad

    def hessian_form(phi):
        phi_e = S @ phi / 3.0
        _, _, gv_dot = state(phi_e)
        bilinear = float(np.sum(area * phi_e * gv_dot))
        diag = float(np.sum(lumped * phi**2 * p_nodal))
        return 2.0 * eps * alpha * (bilinear + diag)

    return evaluate, hessian_form


def bits(x):
    """The bit patterns of a float or array: equal bits, signed zeros and all."""
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.int64)


@pytest.fixture(scope="module", params=["square16", "shuffled16", "disk800"])
def pinned_disc(request):
    if request.param == "disk800":
        mesh = sunflower_disk(800)
    else:
        mesh = generate_unit_square(16, 16)
        if request.param == "shuffled16":
            mesh = shuffled(mesh, np.random.default_rng(53))
    disc = Discretization(mesh, 1.0)
    disc.solver  # the pinned solve, as the descent uses it
    return disc


@pytest.mark.parametrize("kind", ["random", "binary", "constant"])
@pytest.mark.parametrize("epsilon", [1e-6, 0.1, 0.3, 10.0])
def test_in_place_evaluation_keeps_the_bits(pinned_disc, epsilon, kind):
    n = pinned_disc.mesh.n_nodes
    rng = np.random.default_rng(54)
    theta = {
        "random": rng.uniform(0.0, 1.0, n),
        "binary": (rng.random(n) < 0.5) * 1.0,
        "constant": np.full(n, 0.4),
    }[kind]
    problem = RelaxedObjective(pinned_disc, epsilon)
    evaluate, hessian_form = out_of_place_objective(pinned_disc, epsilon)
    ev = problem.evaluate(theta)
    for actual, expected in zip((ev.F, ev.lambda1, ev.v_inf, ev.grad_density), evaluate(theta)):
        assert np.array_equal(bits(actual), bits(expected))
    phi = theta - 0.5
    assert np.array_equal(bits(problem.hessian_form(phi)), bits(hessian_form(phi)))


def test_coupling_shares_the_incidence_index_map(prob):
    S, C = prob._incidence, prob._coupling
    assert np.shares_memory(C.indices, S.indices) and np.shares_memory(C.indptr, S.indptr)


def test_incidence_holds_the_triangles_buffer():
    # S's indices are the mesh's own triangles: an in-place sort of them would reorder the mesh
    mesh = generate_unit_square(16, 16)
    before = mesh.triangles.tobytes()
    problem = RelaxedObjective(Discretization(mesh, 1.0), 0.3)
    assert np.shares_memory(problem._incidence.indices, mesh.triangles)
    state, final, _ = run(problem, OptimizerConfig(volume_fraction=0.4, max_iters=20))
    problem.hessian_form(state.theta - 0.4)
    problem.kkt(state.theta, final.grad_density, 0.0)
    assert mesh.triangles.tobytes() == before


def test_setup_peak_memory():
    # mesh, pencil, ground pair and objective maps at 64²: the peak is reached
    # in build_pencil, at 48 element-sized float arrays (73.3 with the
    # gradients stored on the mesh, int64 triangles and a 3×3 einsum kernel)
    tracemalloc.start()
    try:
        problem = RelaxedObjective(Discretization(generate_unit_square(64, 64), 1.0), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * problem.mesh.n_elems) <= 52.0


def test_evaluation_peak_memory():
    # the traced peak of one evaluation, in element-sized float arrays, with the
    # pinned system factored as the descent has it: 5.4 in place at 64²,
    # inside the state solve; the out-of-place expressions peaked at 6.5
    mesh = generate_unit_square(64, 64)
    disc = Discretization(mesh, 1.0)
    disc.solver
    problem = RelaxedObjective(disc, 0.3)
    theta = np.random.default_rng(55).uniform(0.0, 1.0, mesh.n_nodes)
    problem.evaluate(theta)
    tracemalloc.start()
    try:
        problem.evaluate(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * mesh.n_elems) <= 6.0


class TestStateEquation:
    def test_constant_density_gives_zero(self, mesh, prob):
        v = prob.evaluate(np.full(mesh.n_nodes, 0.4)).v_inf
        assert np.abs(v).max() <= 1e-8

    def test_matches_first_cascade_mode(self, mesh, disc, prob):
        rng = np.random.default_rng(41)
        chi = (rng.random(mesh.n_nodes) < 0.5).astype(float)
        series = compute_series(disc, chi, 1)
        v = prob.evaluate(chi).v_inf
        assert np.abs(v - series.modes[1]).max() <= 1e-11

    def test_state_identities(self, mesh, prob):
        rng = np.random.default_rng(42)
        u0f = prob.pencil.restrict(prob.ground.u)
        lam0 = prob.ground.lam
        for _ in range(10):
            vf = prob.pencil.restrict(prob.evaluate(rng.uniform(0, 1, mesh.n_nodes)).v_inf)
            assert abs(float(u0f @ (prob.pencil.M @ vf))) <= 1e-11
            assert abs(float(u0f @ (prob.pencil.K @ vf))) <= 1e-10 * lam0

    def test_load_matches_assembled_stiffness(self, mesh, monkeypatch):
        # the matrix-free load of the state equation is −(Kθ u0) + λ1·Mu0 on free nodes
        alpha = 0.9
        problem = RelaxedObjective(Discretization(mesh, alpha), EPS)
        loads, solve = [], problem.disc.singular_solve

        def recording_solve(f):
            loads.append(f)
            return solve(f)

        monkeypatch.setattr(problem.disc, "singular_solve", recording_solve)
        theta = np.random.default_rng(4).uniform(0.0, 1.0, mesh.n_nodes)
        ev = problem.evaluate(theta)
        K_theta = fem.assemble_stiffness(mesh, alpha * fem.element_average(mesh, theta))
        pencil, u0 = problem.pencil, problem.ground.u
        expected = -(K_theta @ u0)[pencil.free] + ev.lambda1 * (pencil.M @ pencil.restrict(u0))
        (load,) = loads
        np.testing.assert_allclose(load, expected, rtol=0, atol=1e-12)


class TestObjective:
    def test_zero_density(self, mesh, prob):
        assert prob.evaluate(np.zeros(mesh.n_nodes)).F == 0.0

    def test_full_density_gives_ground_state(self, mesh, prob):
        assert prob.evaluate(np.ones(mesh.n_nodes)).F == pytest.approx(
            prob.ground.lam, rel=1e-12
        )

    def test_binary_density_matches_series(self, mesh, disc, prob):
        # for nodal 0/1 densities the mixing term vanishes: F = lam1 + eps lam2
        rng = np.random.default_rng(44)
        chi = (rng.random(mesh.n_nodes) < 0.5).astype(float)
        series = compute_series(disc, chi, 2)
        expected = series.lambdas[1] + EPS * series.lambdas[2]
        assert prob.evaluate(chi).F == pytest.approx(expected, rel=1e-11)

    def test_relaxation_gap_sign(self, mesh, prob):
        rng = np.random.default_rng(45)
        theta = rng.uniform(0.2, 0.8, mesh.n_nodes)
        ev = prob.evaluate(theta)
        theta_e = fem.element_average(mesh, theta)
        gv = fem.element_gradient(mesh, ev.v_inf)
        grad_u0 = fem.element_gradient(mesh, prob.ground.u)
        first = float(
            np.sum(
                mesh.elem_area
                * theta_e
                * (prob.gu0_sq + EPS * np.einsum("td,td->t", gv, grad_u0))
            )
        )
        assert ev.F < first  # strictly, since theta(1-theta)|grad u0|^2 > 0 somewhere


class TestGradient:
    def test_full_density_formula(self, mesh, prob):
        g = prob.evaluate(np.ones(mesh.n_nodes)).grad_density
        expected = (1 + EPS) * prob.p_nodal
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_projection_integrates_ground_energy(self, mesh):
        # Σ lumped·p_nodal = Σ area·|∇u0|² = u0ᵀK u0/α = λ0/α
        problem = RelaxedObjective(Discretization(mesh, 0.7), EPS)
        total = float(problem.lumped @ problem.p_nodal)
        assert total == pytest.approx(problem.ground.lam / problem.alpha, rel=1e-12)

    def test_central_difference(self, mesh, prob):
        rng = np.random.default_rng(46)
        theta = rng.uniform(0.3, 0.7, mesh.n_nodes)
        phi = rng.uniform(-0.2, 0.2, mesh.n_nodes)
        t = 1e-3
        fd = (prob.evaluate(theta + t * phi).F - prob.evaluate(theta - t * phi).F) / (2 * t)
        an = float(prob.lumped @ (prob.evaluate(theta).grad_density * phi))
        assert fd == pytest.approx(an, rel=1e-8)

    def test_integral_identity(self, mesh, prob):
        rng = np.random.default_rng(47)
        lam0 = prob.ground.lam
        for _ in range(10):
            theta = rng.uniform(0, 1, mesh.n_nodes)
            ev = prob.evaluate(theta)
            total = float(prob.lumped @ ev.grad_density)
            expected = 2 * EPS * ev.lambda1 + (1 - EPS) * lam0
            assert total == pytest.approx(expected, rel=1e-9)

    def test_affine_in_theta(self, mesh, prob):
        rng = np.random.default_rng(48)
        t1 = rng.uniform(0, 1, mesh.n_nodes)
        t2 = rng.uniform(0, 1, mesh.n_nodes)
        g_mid = prob.evaluate(0.5 * (t1 + t2)).grad_density
        g_avg = 0.5 * (prob.evaluate(t1).grad_density + prob.evaluate(t2).grad_density)
        assert np.abs(g_mid - g_avg).max() <= 1e-12 * np.abs(g_avg).max()


class TestHessian:
    def test_zero_direction(self, prob, mesh):
        assert prob.hessian_form(np.zeros(mesh.n_nodes)) == 0.0

    def test_constant_direction(self, mesh, prob):
        c = 0.42
        expected = 2 * EPS * c * c * prob.ground.lam
        assert prob.hessian_form(np.full(mesh.n_nodes, c)) == pytest.approx(expected, rel=1e-9)

    def test_quadratic_exactness(self, mesh, prob):
        rng = np.random.default_rng(49)
        for _ in range(8):
            theta = rng.uniform(0.2, 0.8, mesh.n_nodes)
            phi = rng.uniform(-0.15, 0.15, mesh.n_nodes)
            F0 = prob.evaluate(theta)
            F1 = prob.evaluate(theta + phi)
            taylor = (
                F0.F
                + float(prob.lumped @ (F0.grad_density * phi))
                + 0.5 * prob.hessian_form(phi)
            )
            assert abs(F1.F - taylor) <= 1e-9 * (1 + abs(F0.F))


class TestKKT:
    def test_pure_binary_empty_interior(self, mesh, prob):
        rng = np.random.default_rng(50)
        chi = (rng.random(mesh.n_nodes) < 0.3).astype(float)
        interior_res, _ = prob.kkt(chi, prob.evaluate(chi).grad_density, multiplier=0.0)
        assert interior_res == 0.0

    def test_uniform_design_spread(self, mesh, prob):
        theta = np.full(mesh.n_nodes, 0.5)
        g = prob.evaluate(theta).grad_density
        mult = -float(np.mean(g))
        interior_res, sign_v = prob.kkt(theta, g, mult)
        assert interior_res == pytest.approx(np.abs(g - g.mean()).max(), rel=1e-12)
        assert interior_res > 0  # a uniform design is not critical
        assert sign_v == 0.0  # no nodes at the bounds

    def test_multiplier_must_be_finite(self, mesh, prob):
        with pytest.raises(ValueError, match="multiplier"):
            prob.kkt(np.full(mesh.n_nodes, 0.5), np.zeros(mesh.n_nodes), np.nan)


def test_epsilon_must_be_positive(disc):
    with pytest.raises(ValueError):
        RelaxedObjective(disc, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_epsilon_must_be_finite(disc, epsilon):
    with pytest.raises(ValueError, match="finite"):
        RelaxedObjective(disc, epsilon)
