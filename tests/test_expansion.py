import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse import linalg as spla

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
from test_eig import count_splu, dense_ground, second_eigenvalue, sunflower_disk

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

    def test_one_singular_solve_per_order(self, monkeypatch, mesh8):
        # each order past 0 is one call of the discretization's singular solve, on the pinned system
        calls = []
        solve = Discretization.singular_solve
        monkeypatch.setattr(Discretization, "singular_solve", lambda self, f: calls.append(1) or solve(self, f))
        disc = Discretization(mesh8, 1.0)
        compute_series(disc, np.random.default_rng(25).uniform(0, 1, mesh8.n_nodes), 3)
        assert len(calls) == 3 and "solver" in vars(disc)

    def test_zero_density_factors_nothing(self, monkeypatch, mesh8):
        # θ ≡ 0 makes every load zero, and a zero load returns before the pinned system is factored
        disc = Discretization(mesh8, 1.0)
        lus = count_splu(monkeypatch)
        compute_series(disc, np.zeros(mesh8.n_nodes), 3)
        assert "solver" not in vars(disc)
        with pytest.warns(UserWarning, match="floor"):
            remainder_report(disc, np.zeros(mesh8.n_nodes), 2, [0.1, 0.01])
        assert "solver" not in vars(disc) and lus == []

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
    constrained minimum.  The direct fallback finds it by a cold refinement on
    an LU of K0 + εKθ − τM, certified by the inertia of K0 + εKθ − (1 − δ)λM;
    a refinement from u₀ meets the residual contract at a wrong value there
    (8691.57 for 4895.73 on 32², ε = 1e14), which only that count rejects
    (:class:`TestInertiaCertificate`).
    """

    @pytest.mark.parametrize("eps", [1e14, 1e100, 1e300])
    def test_16x16(self, mesh16, disc16, eps):
        lam = direct_eigenvalue(disc16, density("binary", mesh16.n_nodes), eps).lam
        assert lam == pytest.approx(3072.0, rel=1e-9)

    def test_32x32(self, mesh32, disc32):
        lam = direct_eigenvalue(disc32, density("binary", mesh32.n_nodes), 1e14).lam
        assert lam == pytest.approx(4895.733176, rel=1e-9)


def stiffness_at(disc, theta, eps):
    """K0 + ε·Kθ on free nodes, as the direct fallback builds it."""
    return fem.add_on_pattern(disc.pencil.K, disc.theta_stiffness(theta), eps)


def live_lus_at_factor(monkeypatch):
    """From here on, record how many LUs of :func:`eig.factor` are alive as each one is factored."""
    factor, live, alive_at_factor = eig.factor, [], []

    class Tracked:
        def __init__(self, A):
            self.lu = factor(A)

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, b):  # a bound method keeps the proxy, and its LU, alive
            return self.lu.solve(b)

    def tracked(A):
        alive_at_factor.append(sum(ref() is not None for ref in live))
        lu = Tracked(A)
        live.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(eig, "factor", tracked)
    return alive_at_factor


class TestInertiaCertificate:
    """The direct fallback's pair counts only if K_ε − (1 − δ)λM has every pivot > 0."""

    def test_rejects_pair_refined_from_u0(self, mesh32, disc32):
        # from u₀ on the LU of K_ε the refinement meets the residual contract at
        # 8691.57, above λ_min = 4895.73; the pivot count sees the eigenvalue below
        K, M = stiffness_at(disc32, density("binary", mesh32.n_nodes), 1e14), disc32.pencil.M
        u0 = disc32.u0f
        lam, u, res = eig._refine(K, M, float(u0 @ (K @ u0)), u0, eig.factor(K).solve)
        assert res <= eig.RESIDUAL_TOL and lam == pytest.approx(8691.57, rel=1e-6)
        delta = eig._rounding_share(K, M, lam, u)
        assert 0 < delta < 1e-12
        assert eig._slice(fem.add_on_pattern(K, M, -(1 - delta) * lam))[1] >= 1

    @pytest.mark.parametrize("eps", [5.0, 10.0, 1e6])
    def test_matches_lanczos(self, mesh16, disc16, eps):
        theta = density("binary", mesh16.n_nodes)
        K, M = stiffness_at(disc16, theta, eps), disc16.pencil.M
        ref = spla.eigsh(K, k=1, M=M, sigma=0.0, return_eigenvectors=False)[0]
        assert direct_eigenvalue(disc16, theta, eps).lam == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e8, 1e14])
    def test_smallest_of_a_cluster(self, mesh16, disc16, eps):
        # 7 eigenvalues lie within 1e-6 of λ_ε at 1e8 and within 1e-9 at 1e14, and
        # the 1e-9 test against 3072 would pass any of them: λ must be the smallest,
        # up to the rounding δ of its Rayleigh quotient
        theta = density("binary", mesh16.n_nodes)
        K, M = stiffness_at(disc16, theta, eps), disc16.pencil.M
        ref = spla.eigsh(K, k=1, M=M, sigma=0.0, return_eigenvectors=False)[0]
        pair = direct_eigenvalue(disc16, theta, eps)
        delta = eig._rounding_share(K, M, pair.lam, disc16.pencil.restrict(pair.u))
        assert pair.lam <= ref * (1 + delta)
        assert pair.residual <= eig.RESIDUAL_TOL

    def test_bisection_certifies(self, monkeypatch, mesh32, disc32):
        # at ε = 1e100 the first pairs on 32² are refuted one after the other;
        # probes at their own (1 − δ)λ alone never certify, and bisecting the
        # shift does within 7 LUs
        slices, slice_ = [], eig._slice
        monkeypatch.setattr(eig, "_slice", lambda A: slices.append(1) or slice_(A))
        theta = density("binary", mesh32.n_nodes)
        K, M = stiffness_at(disc32, theta, 1e100), disc32.pencil.M
        pair = direct_eigenvalue(disc32, theta, 1e100)
        ref = spla.eigsh(K, k=1, M=M, sigma=0.0, return_eigenvectors=False)[0]
        assert pair.lam == pytest.approx(ref, rel=1e-13)
        assert 3 < len(slices) <= 7

    def test_one_slice_lu_alive_at_a_time(self, monkeypatch, mesh32, disc32):
        # the bisection of test_bisection_certifies factors several LUs; each must be
        # released before the next is factored, so the fallback holds one at a time
        alive_at_factor = live_lus_at_factor(monkeypatch)
        direct_eigenvalue(disc32, density("binary", mesh32.n_nodes), 1e100)
        assert len(alive_at_factor) > 3
        assert max(alive_at_factor) == 0

    def test_fallback_runs_no_lanczos(self, monkeypatch, mesh16, disc16):
        # past λ₂ both ε fall back, and no path of the library calls ARPACK
        def no_eigsh(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(eig.spla, "eigsh", no_eigsh)
        report = remainder_report(disc16, density("binary", mesh16.n_nodes), 2, [10.0, 1e6])
        assert report.lambda_eps[0] == pytest.approx(3071.92, abs=0.01)  # ε = 1e6

    def test_huge_contrast_on_uniform_density(self, mesh8, disc8):
        # θ ≡ 1 gives λ_ε = (1 + ε)·λ₀; at ε = 1e200 the start (K_ε − τM)⁻¹·1 has
        # entries near 1e-202, which its power-of-two scaling keeps from underflowing
        lam = direct_eigenvalue(disc8, np.ones(mesh8.n_nodes), 1e200).lam
        assert lam == pytest.approx(1e200 * disc8.ground.lam, rel=1e-12)

    def test_unresolved_pair_raises(self, mesh16, disc16):
        # an inclusion away from the boundary: at ε = 1e14 the Rayleigh quotient's
        # rounding δ exceeds 1, so no pivot count can place λ (ARPACK printed 24.51
        # here, where a dense solve gives 23.82)
        x = mesh16.node_coords
        theta = (np.hypot(x[:, 0] - 0.5, x[:, 1] - 0.5) <= 0.25).astype(float)
        assert direct_eigenvalue(disc16, theta, 1e2).lam == pytest.approx(23.7383018965, rel=1e-10)
        with pytest.raises(eig.SolverError, match=r"no eigenvalue certified in .*\(delta \d\.\de\+"):
            direct_eigenvalue(disc16, theta, 1e14)

    def test_no_certificate_raises(self, monkeypatch, mesh8, disc8):
        # a count that refutes every shift narrows the slice to δλ, then gives up
        slice_ = eig._slice
        monkeypatch.setattr(eig, "_slice", lambda A: (slice_(A)[0], 1))
        with pytest.raises(eig.SolverError, match=r"no eigenvalue certified in \[0, "):
            direct_eigenvalue(disc8, density("binary", mesh8.n_nodes), 5.0)


@pytest.fixture(scope="module")
def squares():
    return {n: Discretization(generate_unit_square(n, n), 1.0) for n in range(3, 9)}


def random_density(disc, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, disc.mesh.n_nodes)


class TestDirectEigenvalueProperties:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           eps=st.floats(-0.9, 1e6, exclude_min=True))
    def test_matches_dense_oracle(self, squares, n, seed, eps):
        disc = squares[n]
        theta = random_density(disc, seed)
        K = stiffness_at(disc, theta, eps)
        ref = dense_ground(replace(disc.pencil, K=K))
        assert direct_eigenvalue(disc, theta, eps).lam == pytest.approx(ref, rel=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           eps=st.floats(-1.0, 1e300, exclude_min=True))
    def test_finite_above_weyl_bound_or_solver_error(self, squares, n, seed, eps):
        # K_ε ≥ min(1, 1 + ε)·K0, so λ_min ≥ min(1, 1 + ε)·λ₀ (Weyl), up to the
        # rounding δ of the Rayleigh quotient: where λ_ε = λ₀ in exact arithmetic
        # (ε → 0), the two computed values differ in the last bits
        disc = squares[n]
        theta = random_density(disc, seed)
        try:
            pair = direct_eigenvalue(disc, theta, eps)
        except eig.SolverError:
            return
        delta = eig._rounding_share(stiffness_at(disc, theta, eps), disc.pencil.M, pair.lam,
                                    disc.pencil.restrict(pair.u))
        assert np.isfinite(pair.lam) and pair.lam >= (1 - delta) * min(1.0, 1.0 + eps) * disc.ground.lam


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
        assert report.lambda_eps[0] > second_eigenvalue(disc16.pencil)

    @pytest.mark.parametrize("kind, eps", [("binary", [10.0, 1e6]), ("one", [1.0, 0.5])])
    def test_one_lu_alive_at_a_time(self, monkeypatch, mesh16, kind, eps):
        # refine, then certify: the pinned LU goes before the first fallback LU
        # (binary) or floor slice (θ ≡ 1 at ε = 1), so each LU is factored alone
        disc = Discretization(mesh16, 1.0)
        alive_at_factor = live_lus_at_factor(monkeypatch)
        remainder_report(disc, density(kind, mesh16.n_nodes), 2, eps)
        assert len(alive_at_factor) >= 2  # the pinned system and a certificate LU
        assert max(alive_at_factor) == 0

    def test_dropped_pinned_lu_factored_again(self, mesh16):
        # after a fallback the pinned LU is gone; the diagnostic's cascade factors it
        # again on demand, and gets the bits of a fresh discretization
        disc = Discretization(mesh16, 1.0)
        remainder_report(disc, density("binary", mesh16.n_nodes), 2, [10.0, 1e6])
        assert "solver" not in vars(disc)
        fresh = mode_bound_diagnostic(Discretization(mesh16, 1.0), samples=1)
        assert mode_bound_diagnostic(disc, samples=1) == fresh

    @pytest.mark.parametrize("kind", ["square128", "disk4200"])
    def test_default_grid_needs_no_lambda2(self, monkeypatch, kind):
        # the cascade's N singular solves are all there is: each Ritz start
        # meets the residual contract and lies below the Krahn–Szegő bound,
        # so nothing is factored but the pinned system
        mesh = generate_unit_square(128, 128) if kind == "square128" else sunflower_disk(4200)
        disc = Discretization(mesh, 1.0)
        calls = []
        solve = eig.ShiftedSolver.solve
        monkeypatch.setattr(eig.ShiftedSolver, "solve", lambda self, f: calls.append(1) or solve(self, f))
        lus = count_splu(monkeypatch)
        remainder_report(disc, density("binary", mesh.n_nodes), 4, self.EPS)
        assert len(calls) <= expansion._RITZ_ORDER + 1
        assert len(lus) == 1

    def test_lambda2_only_past_the_bound(self, monkeypatch, mesh16):
        # θ ≡ 1 gives λ_ε = (1 + ε)·λ₀: at ε = 1 that is 39.8, above the bound
        # 2π·j₀₁² = 36.3 and below λ₂ = 50.3, so K0 − λ(1 + δ)M is sliced there only
        theta = np.ones(mesh16.n_nodes)
        lus = count_splu(monkeypatch)
        for e in (0.5, 0.1):
            disc = Discretization(mesh16, 1.0)
            lus.clear()
            remainder_report(disc, theta, 1, [e])
            assert len(lus) == 1  # the pinned system
        disc = Discretization(mesh16, 1.0)
        lus.clear()
        lam = remainder_report(disc, theta, 1, [1.0]).lambda_eps[0]
        assert len(lus) == 2
        assert 2.0 * np.pi * J01**2 < lam < second_eigenvalue(disc.pencil)
        assert lam == pytest.approx(direct_eigenvalue(disc, theta, 1.0).lam, rel=1e-12)

    def test_elongated_domain_slices_once(self, monkeypatch):
        # on a 4×1 rectangle the bound lies below λ₀, so it never certifies; the
        # largest ε's pivot count raises the floor past every smaller ε
        square = generate_unit_square(32, 8)
        mesh = from_arrays(square.node_coords * [4.0, 1.0], square.triangles)
        disc = Discretization(mesh, 1.0)
        assert 2.0 * np.pi * J01**2 / mesh.total_area < disc.ground.lam
        theta = density("binary", mesh.n_nodes)
        lus = count_splu(monkeypatch)
        report = remainder_report(disc, theta, 2, self.EPS)
        assert len(lus) == 2  # the pinned system and one slice
        direct = [direct_eigenvalue(disc, theta, e).lam for e in report.eps_values]
        np.testing.assert_allclose(report.lambda_eps, direct, rtol=1e-12, atol=0)

    def test_floor_refutes_pair(self, monkeypatch, mesh8):
        # θ ≡ 1 at ε = 2: λ_ε = 3λ₀ = 61.26 meets the residual contract but lies
        # above λ₂ = 53.09, so K0 − λ(1 + δ)M has three pivots ≤ 0 and ε falls back
        counts, slice_ = [], expansion._slice
        monkeypatch.setattr(expansion, "_slice", lambda A: counts.append((out := slice_(A))[1]) or out)
        direct, direct_ = [], expansion.direct_eigenvalue
        monkeypatch.setattr(expansion, "direct_eigenvalue", lambda *a: direct.append(a[2]) or direct_(*a))
        disc = Discretization(mesh8, 1.0)
        with pytest.warns(UserWarning, match="floor"):
            report = remainder_report(disc, np.ones(mesh8.n_nodes), 1, [2.0])
        assert len(counts) == 1 and counts[0] >= 2
        assert direct == [2.0]
        assert report.lambda_eps[0] == pytest.approx(3.0 * disc.ground.lam, rel=1e-12)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_constant_density(self, monkeypatch, mesh16, value):
        # θ ≡ c has u_ε = u₀: the modes past u₀ vanish (c = 0) or are rounding
        # noise along one direction, which the Gram cut keeps as one more; the
        # Ritz value, clamped into [λ₀, R_ε(u₀)], certifies with no fallback
        bases = []
        ritz_basis = expansion._ritz_basis
        monkeypatch.setattr(expansion, "_ritz_basis", lambda S, M: bases.append(ritz_basis(S, M)) or bases[-1])
        monkeypatch.setattr(expansion, "direct_eigenvalue", lambda *a: pytest.fail("took the direct fallback"))
        disc = Discretization(mesh16, 1.0)
        lus = count_splu(monkeypatch)
        report = remainder_report(disc, np.full(mesh16.n_nodes, value), 2, self.EPS)
        # the pinned system, unless θ ≡ 0 makes every load zero
        assert len(lus) == (0 if value == 0.0 else 1)
        assert bases[0][1].shape[1] == (1 if value == 0.0 else 2)
        exact = (1.0 + value * report.eps_values) * disc.ground.lam
        np.testing.assert_allclose(report.lambda_eps, exact, rtol=1e-14, atol=0)

    def test_single_free_node_gives_exact_quotient(self):
        # one free node: any shift leaves at most one pivot ≤ 0, and λ_ε is the 1×1 quotient
        mesh = generate_unit_square(2, 2)
        disc = Discretization(mesh, 1.0)
        theta = density("uniform", mesh.n_nodes)
        with pytest.warns(UserWarning, match="floor"):  # order 1 is exact on a 1x1 pencil
            report = remainder_report(disc, theta, 1, [0.1, 0.01])
        M = disc.pencil.M[0, 0]
        exact = [stiffness_at(disc, theta, e)[0, 0] / M for e in report.eps_values]
        np.testing.assert_allclose(report.lambda_eps, exact, rtol=4 * np.finfo(float).eps, atol=0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1), binary=st.booleans(),
           eps=st.lists(st.floats(0.0, 30.0, exclude_min=True), min_size=1, max_size=3, unique=True))
    def test_smallest_eigenvalue_or_solver_error(self, squares, n, seed, binary, eps):
        # every λ_ε is the smallest eigenvalue of its pencil, whichever path certified it
        disc = squares[n]
        rng = np.random.default_rng(seed)
        theta = (rng.random(disc.mesh.n_nodes) < 0.5) * 1.0 if binary else rng.uniform(0.0, 1.0, disc.mesh.n_nodes)
        try:
            report = remainder_report(disc, theta, 1, eps)
        except eig.SolverError:
            return
        for e, lam in zip(report.eps_values, report.lambda_eps):
            ref = dense_ground(replace(disc.pencil, K=stiffness_at(disc, theta, e)))
            assert lam == pytest.approx(ref, rel=1e-10)

    def test_factors_twice(self, monkeypatch, mesh32):
        # the ground K and the pinned system; the ε-sweep factors nothing
        calls = []
        splu = eig.spla.splu
        monkeypatch.setattr(eig.spla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw))
        theta = density("binary", mesh32.n_nodes)
        remainder_report(Discretization(mesh32, 1.0), theta, 2, self.EPS)
        assert len(calls) == 2

    def test_every_factorization_keeps_diagonal_pivots(self, monkeypatch, mesh16):
        # the ground solve, the sweep and the ε = 1e6 fallback factor K − σM,
        # the pinned system and K0 + 1e6·Kθ − τM at the two shifts of the
        # fallback's inertia certificate, each with diagonal pivots
        calls = []
        splu = eig.spla.splu
        monkeypatch.setattr(eig.spla, "splu", lambda *a, **kw: calls.append(kw) or splu(*a, **kw))
        theta = density("binary", mesh16.n_nodes)
        remainder_report(Discretization(mesh16, 1.0), theta, 2, [1e6, 0.1])
        assert len(calls) == 4
        assert all(kw["diag_pivot_thresh"] == 0 for kw in calls)


def test_mode_bound_diagnostic(mesh8, disc8):
    diag = mode_bound_diagnostic(disc8, samples=3, seed=5)
    assert diag["max_energy_norm_u1"] > 0
    assert diag["max_energy_norm_u2"] > 0
    assert np.isfinite(diag["max_energy_norm_u1"])
