import numpy as np
import pytest
from scipy.linalg import eigh

from lowcontrast import eig, expansion, fem
from lowcontrast.eig import Discretization
from lowcontrast.expansion import (
    _refined_eigenvalue,
    compute_series,
    direct_eigenvalue,
    mode_bound_diagnostic,
    remainder_report,
)
from lowcontrast.mesh import from_arrays, generate_unit_square
from test_eig import sunflower_disk

J01 = 2.404825557695773  # first zero of the Bessel function J₀


@pytest.fixture(scope="module")
def mesh8():
    return generate_unit_square(8, 8)


@pytest.fixture(scope="module")
def disc8(mesh8):
    return Discretization(mesh8, 1.0)


def dense_smallest(mesh, theta, alpha, eps):
    """Independent oracle: dense full-spectrum solve of (K0 + eps K_theta, M)."""
    pencil = fem.build_pencil(mesh, alpha * np.ones(mesh.n_elems))
    theta_e = fem.element_average(mesh, theta)
    Kt = fem.restrict_matrix(fem.assemble_stiffness(mesh, alpha * theta_e), pencil.free)
    vals = eigh(
        pencil.K.toarray() + eps * Kt.toarray(), pencil.M.toarray(), eigvals_only=True
    )
    return vals[0]


class TestComputeSeries:
    def test_zero_density(self, mesh8, disc8):
        series = compute_series(disc8, np.zeros(mesh8.n_nodes), 3)
        assert np.abs(series.lambdas[1:]).max() <= 1e-12
        assert np.abs(series.modes[1:]).max() <= 1e-12

    def test_uniform_density(self, mesh8, disc8):
        # theta = 1: the exact eigenvalue is (1+eps) lam0, so the series stops at order 1
        series = compute_series(disc8, np.ones(mesh8.n_nodes), 3)
        lam0 = series.lambdas[0]
        assert series.lambdas[1] == pytest.approx(lam0, rel=1e-10)
        assert np.abs(series.lambdas[2:]).max() <= 1e-8 * lam0
        assert np.abs(series.modes[1]).max() <= 1e-8

    def test_normalization_identities(self, mesh8, disc8):
        rng = np.random.default_rng(21)
        theta = rng.uniform(0, 1, mesh8.n_nodes)
        series = compute_series(disc8, theta, 4)
        pencil = fem.build_pencil(mesh8, np.ones(mesh8.n_elems))
        modes_f = [pencil.restrict(u) for u in series.modes]
        M = pencil.M
        assert float(modes_f[0] @ (M @ modes_f[0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(modes_f[0] @ (M @ modes_f[1]))) <= 1e-11
        for i in range(2, 5):
            lhs = float(modes_f[0] @ (M @ modes_f[i]))
            rhs = -0.5 * sum(
                float(modes_f[k] @ (M @ modes_f[i - k])) for k in range(1, i)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_lambda1_bound(self, mesh8, disc8):
        rng = np.random.default_rng(22)
        lam0 = compute_series(disc8, np.zeros(mesh8.n_nodes), 0).lambdas[0]
        for _ in range(20):
            theta = rng.uniform(0, 1, mesh8.n_nodes)
            lam1 = compute_series(disc8, theta, 1).lambdas[1]
            assert -1e-12 <= lam1 <= lam0 + 1e-10

    def test_lambda1_linear_in_theta(self, mesh8, disc8):
        rng = np.random.default_rng(23)
        t1 = rng.uniform(0, 1, mesh8.n_nodes)
        t2 = rng.uniform(0, 1, mesh8.n_nodes)
        a, b = 0.4, 0.5
        lam = lambda th: compute_series(disc8, th, 1).lambdas[1]
        assert lam(a * t1 + b * t2) == pytest.approx(a * lam(t1) + b * lam(t2), rel=1e-9)

    def test_lambda2_two_code_paths(self, mesh8, disc8):
        # general recursion vs direct elementwise integral of grad(u1).grad(u0)
        rng = np.random.default_rng(24)
        theta = rng.uniform(0, 1, mesh8.n_nodes)
        series = compute_series(disc8, theta, 2)
        theta_e = fem.element_average(mesh8, theta)
        g0 = fem.element_gradient(mesh8, series.modes[0])
        g1 = fem.element_gradient(mesh8, series.modes[1])
        lam2_direct = float(
            np.sum(mesh8.elem_area * theta_e * np.einsum("td,td->t", g0, g1))
        )
        assert series.lambdas[2] == pytest.approx(lam2_direct, abs=1e-12 * abs(series.lambdas[0]))

    def test_order4_matches_dense_oracle(self):
        # frozen oracle values would hide the mesh dependency; recompute densely
        mesh = generate_unit_square(4, 4)
        rng = np.random.default_rng(7)
        theta = (rng.random(mesh.n_nodes) < 0.5).astype(float)
        series = compute_series(Discretization(mesh, 1.0), theta, 4)
        eps_grid = np.logspace(-1, -2, 5)
        rem = np.array(
            [
                abs(dense_smallest(mesh, theta, 1.0, e) - series.truncated(e))
                for e in eps_grid
            ]
        )
        keep = rem > 1e-12  # double-precision floor of the oracle
        assert keep.sum() >= 3
        slope = np.polyfit(np.log(eps_grid[keep]), np.log(rem[keep]), 1)[0]
        assert slope >= 4.9

    def test_rejects_bad_density(self, mesh8, disc8):
        with pytest.raises(ValueError):
            compute_series(disc8, np.full(mesh8.n_nodes, 1.5), 1)
        with pytest.raises(ValueError):
            compute_series(disc8, np.zeros(mesh8.n_nodes), -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_density(self, mesh8, disc8, bad):
        theta = np.full(mesh8.n_nodes, 0.5)
        theta[3] = bad
        with pytest.raises(ValueError, match="finite"):
            compute_series(disc8, theta, 1)

    def test_truncated_requires_computed_order(self, mesh8, disc8):
        series = compute_series(disc8, np.zeros(mesh8.n_nodes), 1)
        with pytest.raises(ValueError):
            series.truncated(0.1, order=3)


class TestDirectEigenvalue:
    def test_eps_zero(self, mesh8, disc8):
        theta = np.linspace(0, 1, mesh8.n_nodes)
        lam0 = compute_series(disc8, theta, 0).lambdas[0]
        assert direct_eigenvalue(disc8, theta, 0.0).lam == pytest.approx(lam0, rel=1e-12)

    def test_uniform_density_exact(self, mesh8, disc8):
        eps = 0.3
        lam0 = compute_series(disc8, np.ones(mesh8.n_nodes), 0).lambdas[0]
        lam = direct_eigenvalue(disc8, np.ones(mesh8.n_nodes), eps).lam
        assert lam == pytest.approx((1 + eps) * lam0, rel=1e-12)

    def test_monotone_in_eps(self, mesh8, disc8):
        rng = np.random.default_rng(25)
        theta = rng.uniform(0, 1, mesh8.n_nodes)
        lams = [direct_eigenvalue(disc8, theta, e).lam for e in (0.0, 0.05, 0.2, 0.8)]
        assert all(lams[i] < lams[i + 1] for i in range(len(lams) - 1))

    def test_coefficient_positivity(self, mesh8, disc8):
        with pytest.raises(ValueError):
            direct_eigenvalue(disc8, np.ones(mesh8.n_nodes), -1.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_epsilon(self, mesh8, disc8, eps):
        with pytest.raises(ValueError, match="finite"):
            direct_eigenvalue(disc8, np.ones(mesh8.n_nodes), eps)

    def test_matches_dense_oracle(self, mesh8, disc8):
        rng = np.random.default_rng(26)
        theta = rng.uniform(0, 1, mesh8.n_nodes)
        lam = direct_eigenvalue(disc8, theta, 0.3).lam
        assert lam == pytest.approx(dense_smallest(mesh8, theta, 1.0, 0.3), rel=1e-10)


@pytest.fixture(scope="module")
def mesh16():
    return generate_unit_square(16, 16)


@pytest.fixture(scope="module")
def disc16(mesh16):
    return Discretization(mesh16, 1.0)


class TestRemainderReport:
    EPS = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]

    def test_order1_slope(self, mesh16, disc16):
        rng = np.random.default_rng(31)
        theta = (rng.random(mesh16.n_nodes) < 0.5).astype(float)
        report = remainder_report(disc16, theta, 1, self.EPS)
        assert report.slope >= 1.95

    def test_order2_slope(self, mesh16, disc16):
        rng = np.random.default_rng(32)
        theta = (rng.random(mesh16.n_nodes) < 0.5).astype(float)
        # the 1e-3 point sits at the conservative floor and is excluded
        with pytest.warns(UserWarning, match="floor"):
            report = remainder_report(disc16, theta, 2, self.EPS)
        assert report.slope >= 2.95

    def test_order0_slope(self, mesh16, disc16):
        rng = np.random.default_rng(33)
        theta = (rng.random(mesh16.n_nodes) < 0.5).astype(float)
        report = remainder_report(disc16, theta, 0, self.EPS)
        assert report.slope >= 0.95

    def test_floor_scales_with_alpha(self, mesh16, disc16):
        # every remainder scales with α, and so must the floor: a small α
        # excludes the same points and fits the same slope
        rng = np.random.default_rng(1)
        theta = (rng.random(mesh16.n_nodes) < 0.5).astype(float)
        with pytest.warns(UserWarning, match="floor"):
            ref = remainder_report(disc16, theta, 2, self.EPS)
        with pytest.warns(UserWarning, match="floor"):
            small = remainder_report(Discretization(mesh16, 1e-6), theta, 2, self.EPS)
        assert small.excluded == ref.excluded
        assert small.slope == pytest.approx(ref.slope, rel=1e-6)

    def test_exact_series_floors_out(self, mesh8, disc8):
        # theta = 1 reproduces (1+eps) lam0 at any order >= 1: everything floors
        with pytest.warns(UserWarning, match="floor"):
            report = remainder_report(disc8, np.ones(mesh8.n_nodes), 1, self.EPS)
        assert report.slope is None
        assert (report.remainders <= report.floor).all()
        assert len(report.excluded) == len(self.EPS)

    def test_eps_validation(self, mesh8, disc8):
        theta = np.zeros(mesh8.n_nodes)
        with pytest.raises(ValueError):
            remainder_report(disc8, theta, 1, [1e-1, 1e-1])
        with pytest.raises(ValueError):
            remainder_report(disc8, theta, 1, [-0.1])
        with pytest.raises(ValueError):
            remainder_report(disc8, theta, 1, [])

    def test_overflowing_truncated_sum_names_eps(self, mesh16, disc16):
        # ε² overflows at ε = 1e300, so the order-2 sum is not finite
        rng = np.random.default_rng(1)
        theta = (rng.random(mesh16.n_nodes) < 0.5).astype(float)
        with pytest.raises(ValueError, match=r"eps = 1e\+300: .*must be finite"):
            remainder_report(disc16, theta, 2, [1e300, 1e299])


@pytest.fixture(scope="module")
def mesh32():
    return generate_unit_square(32, 32)


@pytest.fixture(scope="module")
def disc32(mesh32):
    return Discretization(mesh32, 1.0)


def density(kind, n_nodes):
    rng = np.random.default_rng(1)
    return {
        "zero": np.zeros(n_nodes),
        "half": np.full(n_nodes, 0.5),
        "one": np.ones(n_nodes),
        "binary": (rng.random(n_nodes) < 0.5).astype(float),
        "uniform": rng.uniform(0.0, 1.0, n_nodes),
    }[kind]


def ritz_projection(disc, theta):
    """``(S, Z, A0, At)`` of ``_refined_eigenvalue``, built as ``remainder_report`` builds them."""
    pencil, Kt = disc.pencil, disc.theta_stiffness(theta)
    modes = compute_series(disc, theta, expansion._RITZ_ORDER).modes
    S, Z = eig._ritz_basis(modes[:, pencil.free].T, pencil.M)
    return S, Z, S.T @ (pencil.K @ S), S.T @ (Kt @ S)


class TestInfiniteContrastLimit:
    """λ_ε stays bounded as ε → ∞: the minimizer is driven to zero gradient on
    every element where θ > 0, so the Rayleigh quotient tends to a finite
    constrained minimum.  Shift-invert Lanczos on K0 + εKθ finds it; a
    refinement from u₀ preconditioned by the same LU meets the residual
    contract at a wrong value there (8691.57 for 4895.73 on 32², ε = 1e14),
    which is why the direct fallback keeps ARPACK.
    """

    @pytest.mark.parametrize("eps", [1e14, 1e100, 1e300])
    def test_16x16(self, mesh16, disc16, eps):
        lam = direct_eigenvalue(disc16, density("binary", mesh16.n_nodes), eps).lam
        assert lam == pytest.approx(3072.0, rel=1e-9)

    def test_32x32(self, mesh32, disc32):
        lam = direct_eigenvalue(disc32, density("binary", mesh32.n_nodes), 1e14).lam
        assert lam == pytest.approx(4895.733176, rel=1e-9)


@pytest.mark.filterwarnings("ignore:.*solver floor:UserWarning")
class TestCertifiedSweep:
    EPS = TestRemainderReport.EPS  # the default `expand --eps` grid

    @pytest.mark.parametrize("kind", ["zero", "half", "one", "binary", "uniform"])
    def test_matches_direct_eigenvalue(self, mesh32, disc32, kind):
        theta = density(kind, mesh32.n_nodes)
        report = remainder_report(disc32, theta, 2, self.EPS)
        direct = [direct_eigenvalue(disc32, theta, e).lam for e in report.eps_values]
        np.testing.assert_allclose(report.lambda_eps, direct, rtol=1e-12, atol=0)

    def test_large_eps_falls_back_to_direct(self, mesh16, disc16):
        # past λ₂ the certificate cannot hold, so these ε are solved directly
        theta = density("binary", mesh16.n_nodes)
        Kt, ritz = disc16.theta_stiffness(theta), ritz_projection(disc16, theta)
        for e in (10.0, 1e6):
            assert _refined_eigenvalue(disc16, Kt, e, *ritz) is None
        report = remainder_report(disc16, theta, 2, [10.0, 1e6])
        direct = [direct_eigenvalue(disc16, theta, e).lam for e in report.eps_values]
        assert list(report.lambda_eps) == direct
        assert report.lambda_eps[0] == pytest.approx(3071.92, abs=0.01)
        assert report.lambda_eps[0] > disc16.lambda2

    @pytest.mark.parametrize("kind", ["square128", "disk4200"])
    def test_default_grid_needs_no_lambda2(self, monkeypatch, kind):
        # the cascade's N singular solves are all there is: each Ritz start
        # meets the residual contract and lies below the Krahn–Szegő bound
        mesh = generate_unit_square(128, 128) if kind == "square128" else sunflower_disk(4200)
        disc = Discretization(mesh, 1.0)
        calls = []
        solve = eig.ShiftedSolver.solve
        monkeypatch.setattr(eig.ShiftedSolver, "solve", lambda self, f: calls.append(1) or solve(self, f))
        remainder_report(disc, density("binary", mesh.n_nodes), 4, self.EPS)
        assert len(calls) <= expansion._RITZ_ORDER + 1
        assert "lambda2" not in disc.__dict__

    def test_lambda2_only_past_the_bound(self, mesh16):
        # θ ≡ 1 gives λ_ε = (1 + ε)·λ₀: at ε = 1 that is 39.8, above the bound
        # 2π·j₀₁² = 36.3 and below λ₂ = 50.3, so λ₂ is computed there only
        theta = np.ones(mesh16.n_nodes)
        for e in (0.5, 0.1):
            disc = Discretization(mesh16, 1.0)
            remainder_report(disc, theta, 1, [e])
            assert "lambda2" not in disc.__dict__
        disc = Discretization(mesh16, 1.0)
        lam = remainder_report(disc, theta, 1, [1.0]).lambda_eps[0]
        assert 2.0 * np.pi * J01**2 < lam < disc.__dict__["lambda2"]
        assert lam == pytest.approx(direct_eigenvalue(disc, theta, 1.0).lam, rel=1e-12)

    def test_elongated_domain_computes_lambda2(self):
        # on a 4×1 rectangle the bound lies below λ₀, so it never certifies
        square = generate_unit_square(32, 8)
        mesh = from_arrays(square.node_coords * [4.0, 1.0], square.triangles)
        disc = Discretization(mesh, 1.0)
        assert 2.0 * np.pi * J01**2 / mesh.total_area < disc.ground.lam
        theta = density("binary", mesh.n_nodes)
        report = remainder_report(disc, theta, 2, [1e-2])
        assert "lambda2" in disc.__dict__
        assert report.lambda_eps[0] == pytest.approx(direct_eigenvalue(disc, theta, 1e-2).lam, rel=1e-12)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_constant_density(self, monkeypatch, mesh16, value):
        # θ ≡ c has u_ε = u₀: the modes past u₀ vanish (c = 0) or are rounding
        # noise along one direction, which the Gram cut keeps as one more; the
        # Ritz value, clamped into [λ₀, R_ε(u₀)], certifies with no fallback
        bases = []
        ritz_basis = expansion._ritz_basis
        monkeypatch.setattr(expansion, "_ritz_basis", lambda S, M: bases.append(ritz_basis(S, M)) or bases[-1])
        monkeypatch.setattr(expansion, "direct_eigenvalue", lambda *a: pytest.fail("fell back to ARPACK"))
        disc = Discretization(mesh16, 1.0)
        report = remainder_report(disc, np.full(mesh16.n_nodes, value), 2, self.EPS)
        assert bases[0][1].shape[1] == (1 if value == 0.0 else 2)
        exact = (1.0 + value * report.eps_values) * disc.ground.lam
        np.testing.assert_allclose(report.lambda_eps, exact, rtol=1e-14, atol=0)
        assert "lambda2" not in disc.__dict__

    def test_single_free_node_solves_directly(self):
        # one free node has no λ₂ to certify against
        mesh = generate_unit_square(2, 2)
        disc = Discretization(mesh, 1.0)
        theta = density("uniform", mesh.n_nodes)
        with pytest.warns(UserWarning, match="floor"):  # order 1 is exact on a 1x1 pencil
            report = remainder_report(disc, theta, 1, [0.1, 0.01])
        direct = [direct_eigenvalue(disc, theta, e).lam for e in report.eps_values]
        assert list(report.lambda_eps) == direct

    def test_factors_twice(self, monkeypatch, mesh32):
        # the ground K and the pinned system; the ε-sweep and λ₂ factor nothing
        calls = []
        splu = eig.spla.splu
        monkeypatch.setattr(eig.spla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw))
        theta = density("binary", mesh32.n_nodes)
        remainder_report(Discretization(mesh32, 1.0), theta, 2, self.EPS)
        assert len(calls) == 2

    def test_every_factorization_keeps_diagonal_pivots(self, monkeypatch, mesh16):
        # the ground solve, the sweep and the ε = 1e6 fallback factor
        # K, the pinned system and K0 + 1e6·Kθ, each with diagonal pivots
        calls = []
        splu = eig.spla.splu
        monkeypatch.setattr(eig.spla, "splu", lambda *a, **kw: calls.append(kw) or splu(*a, **kw))
        theta = density("binary", mesh16.n_nodes)
        remainder_report(Discretization(mesh16, 1.0), theta, 2, [1e6, 0.1])
        assert len(calls) == 3
        assert all(kw["diag_pivot_thresh"] == 0 for kw in calls)


def test_mode_bound_diagnostic(mesh8, disc8):
    diag = mode_bound_diagnostic(disc8, samples=3, seed=5)
    assert diag["max_energy_norm_u1"] > 0
    assert diag["max_energy_norm_u2"] > 0
    assert np.isfinite(diag["max_energy_norm_u1"])
