"""Acceptance suite: the quantitative gates this library commits to.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line
per criterion.  Criteria that do not pin a mesh use a 16x16 unit square.
"""
import time

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import linalg as spla

from lowcontrast import cli, fem
from lowcontrast.eig import Discretization
from lowcontrast.expansion import compute_series, remainder_report
from lowcontrast.mesh import generate_unit_square
from lowcontrast.optimizer import OptimizerConfig, project_volume, run
from lowcontrast.relax import RelaxedObjective

PI2 = np.pi**2
EPS_GRID = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def mesh16():
    return generate_unit_square(16, 16)


@pytest.fixture(scope="module")
def prob16(mesh16):
    return RelaxedObjective(Discretization(mesh16, 1.0), 0.1)


def test_01_analytic_ground_state():
    t0 = time.perf_counter()
    disc = Discretization(generate_unit_square(64, 64), 1.0)
    ground = disc.ground
    elapsed = time.perf_counter() - t0
    K, M = disc.pencil.K, disc.pencil.M
    lam2 = np.sort(spla.eigsh(K, k=2, M=M, sigma=0.0, return_eigenvectors=False))[1]

    err0 = abs(ground.lam - 2 * PI2) / (2 * PI2)
    err1 = abs(lam2 - 5 * PI2) / (5 * PI2)
    assert err0 <= 0.01
    assert err1 <= 0.02
    assert elapsed <= 10.0
    report(1, f"lam0 err {err0:.2e} (<=1%), lam1 err {err1:.2e} (<=2%), {elapsed:.2f}s")


def _binary_densities(mesh, count, seed):
    rng = np.random.default_rng(seed)
    return [(rng.random(mesh.n_nodes) < 0.5).astype(float) for _ in range(count)]


def test_02_first_order_remainder():
    t0 = time.perf_counter()
    mesh = generate_unit_square(32, 32)
    disc = Discretization(mesh, 1.0)
    slopes = []
    for theta in _binary_densities(mesh, 5, seed=2):
        rep = remainder_report(disc, theta, 1, EPS_GRID)
        slopes.append(rep.slope)
    elapsed = time.perf_counter() - t0
    assert all(s >= 1.95 for s in slopes)
    assert elapsed <= 60.0
    report(2, f"order-1 slopes {['%.3f' % s for s in slopes]} all >= 1.95, {elapsed:.1f}s")


def test_03_second_order_remainder():
    mesh = generate_unit_square(32, 32)
    disc = Discretization(mesh, 1.0)
    slopes, excluded = [], []
    for theta in _binary_densities(mesh, 5, seed=3):
        rep = remainder_report(disc, theta, 2, EPS_GRID)
        slopes.append(rep.slope)
        excluded += rep.excluded
    assert excluded  # the smallest eps meets the solver floor
    assert all(s >= 2.95 for s in slopes)
    report(3, f"order-2 slopes {['%.3f' % s for s in slopes]} all >= 2.95")


def test_04_general_cascade_order4():
    # 5x5-node mesh (3x3 interior grid); on the literal 3x3-node mesh the
    # pencil has a single free node and the eigenvalue is linear in eps,
    # which leaves no order-4 remainder to fit.
    mesh = generate_unit_square(4, 4)
    rng = np.random.default_rng(4)
    theta = (rng.random(mesh.n_nodes) < 0.5).astype(float)
    series = compute_series(Discretization(mesh, 1.0), theta, 4)

    pencil = fem.build_pencil(mesh, np.ones(mesh.n_elems))
    theta_e = fem.element_average(mesh, theta)
    Kt = fem.restrict_matrix(fem.assemble_stiffness(mesh, theta_e), pencil.free)
    K0, M = pencil.K.toarray(), pencil.M.toarray()

    eps_grid = np.logspace(-1, -2, 5)
    rem = np.array(
        [
            abs(eigh(K0 + e * Kt.toarray(), M, eigvals_only=True)[0] - series.truncated(e))
            for e in eps_grid
        ]
    )
    keep = rem > 1e-12  # dense-oracle precision floor
    assert keep.sum() >= 3
    slope = np.polyfit(np.log(eps_grid[keep]), np.log(rem[keep]), 1)[0]
    assert slope >= 4.9

    modes_f = [pencil.restrict(u) for u in series.modes]
    for i in range(2, 5):
        lhs = float(modes_f[0] @ (M @ modes_f[i]))
        rhs = -0.5 * sum(float(modes_f[k] @ (M @ modes_f[i - k])) for k in range(1, i))
        assert abs(lhs - rhs) <= 1e-10
    report(4, f"order-4 slope {slope:.3f} >= 4.9 vs dense oracle; normalization identities <= 1e-10")


def test_05_lambda1_bound(mesh16, prob16):
    rng = np.random.default_rng(5)
    lam0 = prob16.ground.lam
    worst = -np.inf
    for _ in range(100):
        theta = rng.uniform(0, 1, mesh16.n_nodes)
        lam1 = prob16.evaluate(theta).lambda1
        assert 0.0 <= lam1 <= lam0 + 1e-10
        worst = max(worst, lam1 - lam0)
    # cross-check the quadratic-form route on a few samples
    for _ in range(3):
        theta = rng.uniform(0, 1, mesh16.n_nodes)
        series = compute_series(prob16.disc, theta, 1)
        assert series.lambdas[1] == pytest.approx(prob16.evaluate(theta).lambda1, rel=1e-10)
    report(5, f"lambda1 in [0, lam0] for 100 random densities (max excess {worst:.2e})")


def test_06_state_equation_identities(mesh16, prob16):
    rng = np.random.default_rng(6)
    u0f = prob16.pencil.restrict(prob16.ground.u)
    lam0 = prob16.ground.lam
    worst_m = worst_k = 0.0
    for _ in range(100):
        vf = prob16.pencil.restrict(prob16.evaluate(rng.uniform(0, 1, mesh16.n_nodes)).v_inf)
        worst_m = max(worst_m, abs(float(u0f @ (prob16.pencil.M @ vf))))
        worst_k = max(worst_k, abs(float(u0f @ (prob16.pencil.K @ vf))))
    assert worst_m <= 1e-11
    assert worst_k <= 1e-10 * lam0
    report(6, f"u0'Mv max {worst_m:.2e} <= 1e-11, u0'Kv max {worst_k:.2e} <= 1e-10*lam0")


def test_07_quadratic_exactness(mesh16, prob16):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0.25, 0.75, mesh16.n_nodes)
        phi = rng.uniform(-0.25, 0.25, mesh16.n_nodes)
        assert ((theta + phi) >= 0).all() and ((theta + phi) <= 1).all()
        F0 = prob16.evaluate(theta)
        F1 = prob16.evaluate(theta + phi)
        taylor = F0.F + float(prob16.lumped @ (F0.grad_density * phi)) + 0.5 * prob16.hessian_form(phi)
        err = abs(F1.F - taylor) / (1 + abs(F0.F))
        worst = max(worst, err)
        assert err <= 1e-9
    report(7, f"second-order Taylor exact: worst scaled error {worst:.2e} <= 1e-9")


def test_08_gradient_integral_identity(mesh16, prob16):
    rng = np.random.default_rng(8)
    lam0 = prob16.ground.lam
    eps = prob16.epsilon
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0, 1, mesh16.n_nodes)
        ev = prob16.evaluate(theta)
        total = float(prob16.lumped @ ev.grad_density)
        expected = 2 * eps * ev.lambda1 + (1 - eps) * lam0
        err = abs(total - expected) / abs(expected)
        worst = max(worst, err)
        assert err <= 1e-9
    report(8, f"integral of gradient = 2*eps*lam1 + (1-eps)*lam0: worst rel err {worst:.2e}")


def test_09_projection(mesh16):
    rng = np.random.default_rng(9)
    lumped = fem.assemble_mass(mesh16)[1]
    total = float(lumped.sum())
    tol = 1e-10 * total
    for _ in range(1000):
        tilde = rng.normal(0.4, 1.2, mesh16.n_nodes)
        m = rng.uniform(0.02, 0.98) * total
        theta, lam = project_volume(lumped, tilde, m, tol)
        assert (theta >= 0).all() and (theta <= 1).all()
        assert abs(float(lumped @ theta) - m) <= tol
        theta2, _ = project_volume(lumped, theta, m, tol)
        assert np.abs(theta2 - theta).max() <= 1e-9
    # monotone volume map, sampled
    tilde = rng.normal(0.4, 1.2, mesh16.n_nodes)
    shifts = np.linspace(-2, 2, 41)
    vols = [float(lumped @ np.clip(tilde + s, 0, 1)) for s in shifts]
    assert all(vols[i] <= vols[i + 1] + 1e-14 for i in range(len(vols) - 1))
    report(9, "1000 random projections feasible (1e-10*|area|), idempotent, monotone")


def test_10_figure1_square():
    t0 = time.perf_counter()
    mesh = generate_unit_square(100, 100)
    disc = Discretization(mesh, 1.0)
    config = OptimizerConfig(volume_fraction=0.2, max_iters=2000, tol_step=1e-9)
    state, kkt = run(disc, 1e-6, config)
    elapsed = time.perf_counter() - t0

    F = np.array(state.F_history)
    assert (np.diff(F) <= 0).all(), "descent must be monotone"

    centers = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0.5, 0.5]])
    dist = np.linalg.norm(mesh.node_coords[:, None, :] - centers[None], axis=2).min(axis=1)
    disks = dist <= 0.12
    w = disc.pencil.lumped
    disk_mean = float(w[disks] @ state.theta[disks] / w[disks].sum())
    global_mean = float(w @ state.theta / w.sum())
    assert disk_mean >= 2.0 * global_mean

    lam0 = disc.ground.lam
    assert kkt[0] <= 1e-3 * lam0
    assert kkt[1] <= 1e-3 * lam0
    assert elapsed <= 600.0
    report(
        10,
        f"corners+center concentration {disk_mean:.3f} >= 2x{global_mean:.3f}; "
        f"kkt ({kkt[0]:.1e}, {kkt[1]:.1e}) <= 1e-3*lam0; {elapsed:.1f}s",
    )


def test_11_mixture_grows_with_contrast():
    mesh = generate_unit_square(64, 64)
    w = fem.assemble_mass(mesh)[1]
    disc = Discretization(mesh, 1.0)
    fractions = {}
    for eps in (1e-6, 0.1):
        config = OptimizerConfig(volume_fraction=0.4, max_iters=2000, tol_step=1e-9)
        state, _ = run(disc, eps, config)
        mixed = (state.theta > 0.05) & (state.theta < 0.95)
        fractions[eps] = float(w[mixed].sum() / w.sum())
    assert fractions[0.1] >= 2.0 * fractions[1e-6]
    report(
        11,
        f"mixed fraction {fractions[0.1]:.4f} at eps=0.1 >= 2x {fractions[1e-6]:.4f} at eps=1e-6",
    )


def test_12_determinism(tmp_path):
    args = [
        "optimize", "--nx", "20", "--ny", "20", "--epsilon", "1e-6",
        "--volume-fraction", "0.3", "--max-iters", "30",
    ]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(args + ["--out-dir", str(d1)]) == 0
    assert cli.main(args + ["--out-dir", str(d2)]) == 0
    for name in ("theta.vtk", "theta.csv", "history.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    report(12, "two identical optimize runs produced byte-identical VTK and CSV")
