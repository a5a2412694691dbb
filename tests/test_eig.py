import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse import linalg as spla
from scipy.spatial import Delaunay

from lowcontrast import eig, fem
from lowcontrast.eig import (
    RESIDUAL_TOL,
    Discretization,
    ShiftedSolver,
    SolverError,
    _refine,
    factor,
    smallest_eigenpair,
)
from lowcontrast.expansion import direct_eigenvalue
from lowcontrast.mesh import from_arrays, generate_unit_square
from lowcontrast.relax import RelaxedObjective

PI2 = np.pi**2
J01 = 2.404825557695773  # first zero of the Bessel function J₀


def backward_error(K, M, lam, u):
    """Normwise backward error |Ku − λMu| / ((‖K‖₁ + |λ|‖M‖₁)|u|) of (λ, u)."""
    denom = (spla.norm(K, 1) + abs(lam) * spla.norm(M, 1)) * np.linalg.norm(u)
    return float(np.linalg.norm(K @ u - lam * (M @ u)) / denom)


def perturbed(u, M, seed, scale=1e-3):
    """u plus Gaussian noise of standard deviation ``scale``, M-normalized."""
    u = u + scale * np.random.default_rng(seed).standard_normal(u.size)
    return u / np.sqrt(u @ (M @ u))


def count_splu(monkeypatch):
    """Record the keyword arguments of every SuperLU factorization from here on."""
    calls = []
    splu = eig.spla.splu
    monkeypatch.setattr(eig.spla, "splu", lambda *a, **kw: calls.append(kw) or splu(*a, **kw))
    return calls


def ground_lu(A):
    """The LU of K − σM as a discretization factors it: a minimum-degree order of the mesh's numbering."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1, **eig._DIAGONAL_PIVOTS)


def dense_ground(pencil):
    """λ₀ from the dense inverted pencil M x = μ K x, as 1/max μ.

    The largest μ carries a small relative error, where eigh(K, M) puts an
    error of ε_mach·λ_max on every eigenvalue: 1.6e-12 relative on λ₀ of the
    800-node disk, against 3e-16 here.
    """
    return 1.0 / eigh(pencil.M.toarray(), pencil.K.toarray(), eigvals_only=True)[-1]


def second_eigenvalue(pencil):
    """λ₂ of the pencil: dense up to the 49 free nodes of the 8² square, shift-invert Lanczos above."""
    K, M = pencil.K, pencil.M
    if pencil.n_free <= 49:
        return eigh(K.toarray(), M.toarray(), eigvals_only=True)[1]
    return np.sort(spla.eigsh(K, k=2, M=M, sigma=0.0, return_eigenvectors=False))[1]


def count_ground_solves(monkeypatch):
    """Count the solves made with the LU of K − σM, the one LU in a fill-reducing order."""
    counts = []
    splu = eig.spla.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, rhs):
            counts[0] += 1
            return self.lu.solve(rhs)

    def counted(A, **kw):
        lu = splu(A, **kw)
        if kw["permc_spec"] == "NATURAL" or counts:
            return lu
        counts.append(0)
        return Counted(lu)

    monkeypatch.setattr(eig.spla, "splu", counted)
    return counts


def unit_disc(n, alpha=1.0, **kw):
    return Discretization(generate_unit_square(n, n), alpha, **kw)


def rectangle4x1():
    """The 32×8 square mesh stretched to a 4×1 rectangle: far from a disk."""
    square = generate_unit_square(32, 8)
    return from_arrays(square.node_coords * [4.0, 1.0], square.triangles)


def sunflower_disk(n_nodes):
    """Delaunay unit disk: a sunflower interior and a ring on the unit circle."""
    h = np.sqrt(np.pi / n_nodes)
    n_bnd = int(round(2.0 * np.pi / h))
    k = np.arange(n_nodes - n_bnd) + 0.5
    r = np.sqrt(k / k.size) * (1.0 - 0.5 * h)
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    t = (np.arange(n_bnd) + 0.5) * (2.0 * np.pi / n_bnd)
    coords = np.vstack([np.column_stack([r * np.cos(phi), r * np.sin(phi)]),
                        np.column_stack([np.cos(t), np.sin(t)])])
    return from_arrays(coords, Delaunay(coords).simplices)


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

    def test_no_lanczos(self, monkeypatch):
        # no path of the library runs ARPACK: the set-up, the singular solver
        # and the objective are checked here, the direct fallback in
        # test_expansion.py::TestInertiaCertificate
        def no_eigsh(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(eig.spla, "eigsh", no_eigsh)
        disc = unit_disc(8)
        assert disc.solver.fill > 0
        RelaxedObjective(disc, 0.1).evaluate(np.full(disc.mesh.n_nodes, 0.4))

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_dense_oracle_on_squares(self, n):
        # 1, 4, 9 and 49 free nodes, all through the LU of K
        disc = unit_disc(n)
        assert disc.ground.lam == pytest.approx(dense_ground(disc.pencil), rel=1e-12)
        assert disc.ground.residual <= 1e-14

    def test_dense_oracle_on_disk(self):
        disc = Discretization(sunflower_disk(800), 1.0)
        assert disc.ground.lam == pytest.approx(dense_ground(disc.pencil), rel=1e-12)
        assert disc.ground.residual <= 1e-14

    @pytest.mark.parametrize("mesh", ["shuffled150", "disk4200"])
    def test_matches_lanczos(self, request, mesh):
        # a randomly numbered square and a Delaunay disk, against shift-invert Lanczos
        shape = request.getfixturevalue("square150")[2] if mesh == "shuffled150" else sunflower_disk(4200)
        disc = Discretization(shape, 1.0)
        K, M = disc.pencil.K, disc.pencil.M
        lam = spla.eigsh(K, k=1, M=M, sigma=0.0, return_eigenvectors=False)[0]
        assert disc.ground.lam == pytest.approx(lam, rel=1e-12)
        assert disc.ground.residual <= 1e-14
        assert disc.ground.residual == pytest.approx(
            backward_error(K, M, disc.ground.lam, disc.pencil.restrict(disc.ground.u))
        )

    @pytest.mark.parametrize("mesh", ["square128", "disk4200"])
    def test_solves_with_shifted_k(self, monkeypatch, mesh):
        # the start (K − σM)⁻¹·1 and one solve per Rayleigh–Ritz step: 6 and 4
        # measured, where K itself took 9 and 10 and shift-invert Lanczos 21
        shape = generate_unit_square(128, 128) if mesh == "square128" else sunflower_disk(4200)
        counts = count_ground_solves(monkeypatch)
        Discretization(shape, 1.0)
        assert 0 < counts[0] <= {"square128": 7, "disk4200": 5}[mesh]

    @pytest.mark.parametrize(
        "kind, alpha",
        [(str(n), 1.0) for n in (2, 3, 4, 8, 16, 32, 64, 128)]
        + [("disk800", 1.0), ("disk4200", 1.0), ("shuffled150", 1.0), ("rect4x1", 1.0)]
        + [("16", 1e-100), ("16", 1e100)],
    )
    def test_shift_below_ground(self, request, kind, alpha):
        # Faber–Krahn keeps σ = 0.999·π·j₀₁²·α/|Ω| below the P1 λ₀ on any mesh;
        # the 4×1 rectangle is far from a disk (σ/λ₀ = 0.43)
        if kind == "rect4x1":
            mesh = rectangle4x1()
        elif kind == "shuffled150":
            mesh = request.getfixturevalue("square150")[2]
        elif kind.startswith("disk"):
            mesh = sunflower_disk(int(kind[4:]))
        else:
            mesh = generate_unit_square(int(kind), int(kind))
        disc = Discretization(mesh, alpha)
        assert disc.faber_krahn == pytest.approx(np.pi * J01**2 * alpha / mesh.total_area, rel=1e-15)
        assert eig._SHIFT_SHARE * disc.faber_krahn < disc.ground.lam
        K, M = disc.pencil.K, disc.pencil.M
        if disc.pencil.n_free <= 9:  # too few free nodes for ARPACK
            ref = dense_ground(disc.pencil)
        else:
            ref = spla.eigsh(K, k=1, M=M, sigma=0.0, return_eigenvectors=False)[0]
        assert disc.ground.lam == pytest.approx(ref, rel=1e-12)
        assert disc.ground.residual <= 1e-14


class TestSecondEigenvalue:
    @pytest.mark.parametrize("alpha", [1.0, 1e-6])
    @pytest.mark.parametrize("kind", ["3", "4", "8", "32", "rect4x1", "disk800"])
    def test_krahn_szego_bound_below(self, kind, alpha):
        # λ₂(Ω) ≥ 2π·j₀₁²/|Ω|, and the conforming P1 λ₂ lies above λ₂(Ω) by min–max:
        # the remainder report's first floor under λ₂
        if kind == "rect4x1":
            mesh = rectangle4x1()
        elif kind == "disk800":
            mesh = sunflower_disk(800)
        else:
            mesh = generate_unit_square(int(kind), int(kind))
        disc = Discretization(mesh, alpha)
        bound = 2.0 * np.pi * J01**2 * alpha / mesh.total_area
        assert 0.5 < bound / second_eigenvalue(disc.pencil) < 0.8


@pytest.fixture(scope="module")
def setup():
    return unit_disc(6)


def compatible(owner, f):
    """f minus its u0 component along M u0, so that u0.f = 0 (``owner``: a discretization or its pinned solver)."""
    return f - float(owner.u0f @ f) * owner.Mu0


def pinned_disc(n=6, alpha=1.0):
    """A discretization whose singular solves take the pinned path: its pinned system is factored."""
    disc = unit_disc(n, alpha)
    disc.solver
    return disc


class TestShiftedSolver:
    def test_zero_load(self):
        # a zero load returns before the pinned system would be factored
        disc = unit_disc(6)
        disc.theta_stiffness(np.zeros(disc.mesh.n_nodes))  # drops the LU of K − σM
        v = disc.singular_solve(np.zeros(disc.pencil.n_free))
        assert np.abs(v).max() == 0.0
        assert "solver" not in vars(disc)

    def test_spectral_oracle(self, setup):
        # f = M w for the second eigenvector w  =>  v = w / (lam2 - lam0)
        pencil, ground = setup.pencil, setup.ground
        vals, vecs = eigh(pencil.K.toarray(), pencil.M.toarray())
        w = vecs[:, 1] / np.sqrt(vecs[:, 1] @ (pencil.M @ vecs[:, 1]))
        f = pencil.M @ w
        v = ShiftedSolver(setup).solve(f)
        expected = w / (vals[1] - ground.lam)
        np.testing.assert_allclose(v, expected, atol=1e-9 * np.abs(expected).max())

    def test_orthogonality_enforced(self, setup):
        # u0' M v = 0 for every compatible load
        pencil = setup.pencil
        rng = np.random.default_rng(11)
        u0f = pencil.restrict(setup.ground.u)
        solver = ShiftedSolver(setup)
        for _ in range(3):
            v = solver.solve(compatible(solver, rng.standard_normal(pencil.n_free)))
            assert abs(float(u0f @ (pencil.M @ v))) <= 1e-11

    def test_bordered_exactness_general_load(self, setup):
        # (K - lam0 M) v = f for a random load projected onto u0-compatible loads
        pencil = setup.pencil
        rng = np.random.default_rng(12)
        solver = ShiftedSolver(setup)
        f = compatible(solver, rng.standard_normal(pencil.n_free))
        v = solver.solve(f)
        A = pencil.K - setup.ground.lam * pencil.M
        assert np.linalg.norm(A @ v - f) <= 1e-10 * np.linalg.norm(f)

    def test_keeps_one_row_of_the_operator(self, setup):
        # K − λ0·M lives on K's pattern; of it the solver keeps only row k
        solver = ShiftedSolver(setup)
        kept = [a for a in vars(solver).values() if sparse.issparse(a)]
        assert kept and all(a.shape[0] <= 1 for a in kept)

    def test_corrupted_solve_raises_breakdown(self):
        # the singular solve checks the pinned result as K v − λ0·(M v) − g, on the pencil itself
        disc = pinned_disc()
        exact = disc.solver._solve
        f = compatible(disc, np.random.default_rng(14).standard_normal(disc.pencil.n_free))
        disc.singular_solve(f)
        disc.solver._solve = lambda g: 2.0 * exact(g)
        with pytest.raises(SolverError, match="pinned solve breakdown: residual"):
            disc.singular_solve(f)

    def test_compatibility_violation_raises(self):
        disc = pinned_disc()
        f = disc.Mu0  # u0.f = 1: maximally incompatible
        with pytest.raises(SolverError, match="compat"):
            disc.singular_solve(f)

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    @pytest.mark.parametrize("alpha", [1e-12, 1.0, 1e6])
    def test_incompatible_load_raises_at_any_alpha(self, alpha, scale):
        # f = s·λ0·Mu0 has u0.f = s·λ0 and scales with α, as the cascade's loads do
        disc = pinned_disc(16, alpha)
        with pytest.raises(SolverError, match="compat"):
            disc.singular_solve(scale * disc.ground.lam * disc.Mu0)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-6, 1e6])
    def test_fill_independent_of_alpha(self, alpha):
        # the pinned K − λ0·M keeps diagonal pivots, so α scales it and leaves its fill alone
        ref = unit_disc(64).solver.fill
        disc = pinned_disc(64, alpha)
        assert disc.solver.fill == pytest.approx(ref, rel=0.01)
        pencil = disc.pencil
        f = compatible(disc, alpha * np.random.default_rng(13).standard_normal(pencil.n_free))
        v = disc.singular_solve(f)  # raises on a breakdown residual above 1e-8
        A = pencil.K - disc.ground.lam * pencil.M
        assert np.linalg.norm(A @ v - f) <= 1e-8 * np.linalg.norm(f)

    def test_inexact_shift_absorbed_by_mu0(self):
        # an inexact λ0 leaves the projected load slightly inconsistent; the
        # solve puts that on Mu0, as a bordered solve does: measured 3.9e-15,
        # where leaving it in the pinned row gave 7.8e-9 (2.9e-8 at 64²)
        disc = unit_disc(16)
        pencil = disc.pencil
        disc.ground = replace(disc.ground, lam=disc.ground.lam * (1 + 1e-8))
        solver = ShiftedSolver(disc)
        x, y = disc.mesh.node_coords.T
        f = compatible(solver, pencil.restrict(np.sin(3.0 * x) * y))
        v = solver.solve(compatible(solver, f))
        A = pencil.K - disc.ground.lam * pencil.M
        assert np.linalg.norm(A @ v - compatible(solver, f)) <= 1e-12 * np.linalg.norm(f)

    def test_wrong_shape(self):
        disc = pinned_disc()
        with pytest.raises(ValueError, match="free nodes"):
            disc.singular_solve(np.zeros(3))


class TestDiscretization:
    def test_shares_pencil_and_ground(self):
        mesh = generate_unit_square(6, 6)
        pencil = fem.build_pencil(mesh, np.ones(mesh.n_elems))
        disc = Discretization(mesh, 1.0)
        order = np.searchsorted(pencil.free, disc.pencil.free)
        assert (disc.pencil.K != fem.restrict_matrix(pencil.K, order)).nnz == 0
        shifted = fem.add_on_pattern(pencil.K, pencil.M, -eig._SHIFT_SHARE * disc.faber_krahn)
        pair = smallest_eigenpair(pencil, ground_lu(shifted).solve)
        # λ₀ and u₀ keep the bits of the mesh's numbering
        assert disc.ground.lam == pair.lam and np.array_equal(disc.ground.u, pair.u)

    def test_solver_built_on_first_use(self):
        disc = Discretization(generate_unit_square(6, 6), 1.0)
        assert "solver" not in vars(disc)
        solver = disc.solver
        assert disc.solver is solver
        assert disc._shifted_solve is None  # the LU of K − σM goes before the pinned one is factored

    def test_theta_stiffness_of_ones_is_k(self):
        mesh = generate_unit_square(6, 6)
        disc = Discretization(mesh, 1.0)
        theta = np.linspace(0, 1, mesh.n_nodes)
        Kt = disc.theta_stiffness(theta)
        ones = disc.theta_stiffness(np.ones(mesh.n_nodes))
        assert ones is not Kt
        np.testing.assert_allclose(ones.toarray(), disc.pencil.K.toarray(), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("value, message", [(np.nan, "finite"), (2.0, r"lie in \[0, 1\]")])
    def test_theta_stiffness_checks_the_density(self, value, message):
        # the one place Kθ is assembled checks θ first, so a rejected density drops no LU
        disc = Discretization(generate_unit_square(6, 6), 1.0)
        with pytest.raises(ValueError, match=message):
            disc.theta_stiffness(np.full(disc.mesh.n_nodes, value))
        assert disc._shifted_solve is not None

    @pytest.mark.parametrize("kind", ["zero", "binary", "disk"])
    def test_theta_stiffness_has_k_pattern(self, kind):
        # the remainder report builds K0 + ε·Kθ from the two value arrays alone,
        # and K's order serves every matrix with this pattern, M's and the pinned one's included
        mesh = sunflower_disk(800) if kind == "disk" else generate_unit_square(16, 16)
        disc = Discretization(mesh, 1.0)
        rng = np.random.default_rng(3)
        theta = np.zeros(mesh.n_nodes) if kind == "zero" else (rng.random(mesh.n_nodes) < 0.5) * 1.0
        K, M = disc.pencil.K, disc.pencil.M
        pinned = fem.add_on_pattern(K, M, -disc.ground.lam)  # the matrix the pinned LU factors
        for A in (disc.theta_stiffness(theta), M, pinned):
            assert np.array_equal(A.indptr, K.indptr) and np.array_equal(A.indices, K.indices)

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


def state_load(disc, theta):
    """The load f of the relaxed objective's state equation at θ (ε = 0.1), taken without solving it."""
    loads = []
    problem = RelaxedObjective(disc, 0.1)
    disc.singular_solve = lambda f: loads.append(f) or np.zeros_like(f)
    try:
        problem.evaluate(theta)
    finally:
        del disc.singular_solve
    return loads[0]


def count_cg_steps(monkeypatch):
    """Record the step count of every deflated CG solve from here on."""
    steps = []
    cg = eig._deflated_cg
    monkeypatch.setattr(eig, "_deflated_cg", lambda *a: (out := cg(*a)) and steps.append(out[1]) or out)
    return steps


class TestSingularSolve:
    CASES = {
        # name: (mesh, α, θ kind, most CG steps)
        "square16": (lambda: generate_unit_square(16, 16), 1.0, "random", 8),
        "square128": (lambda: generate_unit_square(128, 128), 1.0, "random", 8),
        "disk800": (lambda: sunflower_disk(800), 1.0, "random", 5),
        "disk4200": (lambda: sunflower_disk(4200), 1.0, "random", 5),
        "alpha1e-100": (lambda: generate_unit_square(16, 16), 1e-100, "random", 8),
        "alpha1e100": (lambda: generate_unit_square(16, 16), 1e100, "random", 8),
        # θ ≡ c makes the load rounding alone: Kθ = c·K and λ1 = c·λ₀
        "constant_square": (lambda: generate_unit_square(16, 16), 1.0, "constant", 8),
        "constant_disk": (lambda: sunflower_disk(800), 1.0, "constant", 5),
        "square2": (lambda: generate_unit_square(2, 2), 1.0, "random", 8),  # one free node
    }

    @pytest.mark.parametrize("case", CASES)
    def test_agrees_with_pinned_solve(self, monkeypatch, case):
        make_mesh, alpha, kind, most_steps = self.CASES[case]
        mesh = make_mesh()
        disc = Discretization(mesh, alpha)
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.0, 1.0, mesh.n_nodes) if kind == "random" else np.full(mesh.n_nodes, 0.37)
        f = state_load(disc, theta)
        steps = count_cg_steps(monkeypatch)
        v = disc.singular_solve(f)
        assert "solver" not in vars(disc)
        # a zero load (the one free node of the 2² square) returns before the CG
        assert steps == [] if not f.any() else len(steps) == 1 and steps[0] <= most_steps
        ref = disc.solver.solve(f)
        assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref)
        assert abs(float(disc.Mu0 @ v)) <= 1e-11 * max(np.sqrt(v @ (disc.pencil.M @ v)), np.finfo(float).tiny)

    def test_zero_density_gives_zero_state(self, monkeypatch):
        disc = unit_disc(16)
        f = state_load(disc, np.zeros(disc.mesh.n_nodes))
        steps = count_cg_steps(monkeypatch)
        assert not f.any()
        v = disc.singular_solve(f)
        assert not v.any() and steps == []

    def test_pinned_solve_once_factored(self, monkeypatch):
        disc = unit_disc(16)
        f = state_load(disc, np.random.default_rng(6).uniform(0.0, 1.0, disc.mesh.n_nodes))
        solver = disc.solver
        assert disc._shifted_solve is None
        steps = count_cg_steps(monkeypatch)
        assert np.array_equal(disc.singular_solve(f), solver.solve(compatible(disc, f))) and steps == []

    def test_shifted_lu_dropped_by_theta_stiffness(self):
        disc = unit_disc(8)
        assert disc._shifted_solve is not None
        disc.theta_stiffness(np.ones(disc.mesh.n_nodes))
        assert disc._shifted_solve is None and "solver" not in vars(disc)
        f = state_load(disc, np.linspace(0.0, 1.0, disc.mesh.n_nodes))
        disc.singular_solve(f)  # served by the pinned system, factored now
        assert "solver" in vars(disc)

    def test_zero_preconditioner_raises(self):
        # a preconditioner that returns zeros leaves v = 0: the residual check refuses it
        disc = unit_disc(16)
        f = state_load(disc, np.random.default_rng(7).uniform(0.0, 1.0, disc.mesh.n_nodes))
        disc._shifted_solve = np.zeros_like
        with pytest.raises(SolverError, match="singular solve breakdown: residual 1.000e\\+00 after 0 CG steps"):
            disc.singular_solve(f)

    def test_compatibility_violation_raises(self):
        disc = unit_disc(16)
        with pytest.raises(SolverError, match="compat"):
            disc.singular_solve(disc.ground.lam * disc.Mu0)
        with pytest.raises(ValueError, match="free nodes"):
            disc.singular_solve(np.zeros(3))
        assert "solver" not in vars(disc)


@pytest.fixture(scope="module")
def square150():
    """The 150^2 square, a random renumbering q (new node i is old node q[i]) and the renumbered mesh."""
    mesh = generate_unit_square(150, 150)
    q = np.random.default_rng(3).permutation(mesh.n_nodes)
    return mesh, q, from_arrays(mesh.node_coords[q], np.argsort(q)[mesh.triangles])


def ordering_mesh(request, kind):
    """The 16² square, the 4.2k-node sunflower disk or the randomly numbered 150² square."""
    if kind == "shuffled150":
        return request.getfixturevalue("square150")[2]
    return generate_unit_square(16, 16) if kind == "square16" else sunflower_disk(4200)


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
        assert disc.fill < colamd.nnz

        solver = disc.solver
        A = (K - disc.ground.lam * disc.pencil.M).tocsr()
        col = sparse.csc_matrix(solver.Mu0.reshape(-1, 1))
        bordered = spla.splu(sparse.bmat([[A, col], [col.T, None]], format="csc"))
        assert solver.fill < bordered.nnz
        # the pinned system is K's pattern less one node (a dense border took 131k against 123k)
        assert solver.fill <= disc.fill

    @pytest.mark.parametrize("mesh", ["square64", "disk4200", "shuffled150"])
    def test_shift_keeps_order_and_fill(self, request, mesh):
        # K − σM is built on K's stored pattern, so SuperLU picks K's order and fill
        if mesh == "shuffled150":
            shape = request.getfixturevalue("square150")[2]
        else:
            shape = generate_unit_square(64, 64) if mesh == "square64" else sunflower_disk(4200)
        disc = Discretization(shape, 1.0)
        assert factor(disc.pencil.K, "LU of K failed").nnz == disc.fill

    @pytest.mark.parametrize("mesh", ["square16", "disk4200", "shuffled150"])
    def test_factored_matrices_canonical_and_symmetric(self, request, mesh):
        # factor reads a CSR matrix's arrays as its CSC: that is the matrix itself only when
        # it is bitwise symmetric, and SuperLU would sort non-canonical indices in place
        shape = ordering_mesh(request, mesh)
        disc = Discretization(shape, 1.0)
        K, M = disc.pencil.K, disc.pencil.M
        theta = (np.random.default_rng(4).random(shape.n_nodes) < 0.5) * 1.0
        for A in (K, M, disc.theta_stiffness(theta), fem.add_on_pattern(K, M, -disc.ground.lam)):
            assert A.has_canonical_format
            assert (A != A.T).nnz == 0

    @pytest.mark.parametrize("mesh", ["square16", "disk4200", "shuffled150"])
    def test_matrices_share_the_pencil_indices(self, request, mesh, monkeypatch):
        # M, Kθ, the pinned LU's input and a slice's are value arrays on K's own index
        # arrays: no LU factors a permuted copy.  The ground LU, in the mesh's numbering,
        # reads K − σM's arrays, which are those of the pencil build_pencil returns
        shape = ordering_mesh(request, mesh)
        inputs, splu = [], eig.spla.splu
        monkeypatch.setattr(eig.spla, "splu", lambda A, **kw: inputs.append(A) or splu(A, **kw))
        built, build = [], fem.build_pencil
        monkeypatch.setattr(fem, "build_pencil", lambda *a: built.append(build(*a)) or built[-1])
        disc = Discretization(shape, 1.0)
        K, M = disc.pencil.K, disc.pencil.M
        disc.solver
        eig._slice(fem.add_on_pattern(K, M, -2.0 * disc.faber_krahn))
        (ground, *inputs), (mesh_pencil,) = inputs, built
        assert np.shares_memory(ground.indices, mesh_pencil.K.indices)
        assert np.shares_memory(ground.indptr, mesh_pencil.K.indptr)
        assert len(inputs) == 2
        for A in [M, disc.theta_stiffness(np.linspace(0.0, 1.0, shape.n_nodes))] + inputs:
            assert np.shares_memory(A.indices, K.indices) and np.shares_memory(A.indptr, K.indptr)

    @pytest.mark.parametrize("mesh", ["square16", "disk4200", "shuffled150"])
    def test_gathered_matrices_are_restrictions(self, request, mesh):
        # K, M and Kθ are gathered from full assemblies through one position map
        # (pencil.pick): each is its full matrix restricted to pencil.free, bit for bit
        shape = ordering_mesh(request, mesh)
        disc = Discretization(shape, 1.0)
        theta = (np.random.default_rng(5).random(shape.n_nodes) < 0.5) * 1.0
        fulls = (fem.assemble_stiffness(shape, np.ones(shape.n_elems)), fem.assemble_mass(shape)[0],
                 fem.assemble_stiffness(shape, fem.element_average(shape, theta)))
        for A, full in zip((disc.pencil.K, disc.pencil.M, disc.theta_stiffness(theta)), fulls):
            ref = fem.restrict_matrix(full, disc.pencil.free)
            assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
            assert np.array_equal(A.data.view(np.int64), ref.data.view(np.int64))

    def test_singular_fill_within_k_fill_on_disk(self):
        # a 4.2k-node Delaunay disk, built as the benchmark's imported disk is;
        # a dense border doubled the fill here (388k against 192k)
        disc = Discretization(sunflower_disk(4200), 1.0)
        assert disc.solver.fill <= disc.fill

    def test_singular_solve_accuracy(self, square150):
        # measured 3.9e-13 and 5.1e-17 here (a dense border: 3.5e-13), and
        # 2.6e-12 on the shuffled 400² square.  Without the row-k correction
        # the pinned solve gave 2.9e-12 here and 1.1e-10 at 400²
        shuffled = square150[2]
        disc = Discretization(shuffled, 1.0)
        disc.solver
        pencil = disc.pencil
        x, y = shuffled.node_coords.T
        f = compatible(disc, pencil.restrict(np.sin(3.0 * x) * y))
        v = disc.singular_solve(f)
        g = compatible(disc, f)
        A = pencil.K - disc.ground.lam * pencil.M
        assert np.linalg.norm(A @ v - g) <= 1e-10 * np.linalg.norm(f)
        assert abs(float(disc.Mu0 @ v)) <= 1e-11 * np.sqrt(v @ (pencil.M @ v))


class TestRefine:
    def test_restores_residual_contract(self):
        disc = Discretization(generate_unit_square(16, 16), 1.0)
        pencil = disc.pencil
        K, M = pencil.K, pencil.M
        u = perturbed(pencil.restrict(disc.ground.u), M, 5)
        lam = float(u @ (K @ u))
        assert backward_error(K, M, lam, u) > RESIDUAL_TOL

        lam, u, res = _refine(K, M, lam, u, factor(K, "LU of K failed").solve)
        assert res <= RESIDUAL_TOL
        assert res == pytest.approx(backward_error(K, M, lam, u))
        assert lam == pytest.approx(disc.ground.lam, rel=1e-12)

    def test_converged_pair_returned_unchanged(self):
        disc = unit_disc(16)
        K, M = disc.pencil.K, disc.pencil.M
        u = disc.pencil.restrict(disc.ground.u)
        lam, v, res = _refine(K, M, disc.ground.lam, u, None)  # step 0 calls no preconditioner
        assert lam == disc.ground.lam and v is u
        assert res == disc.ground.residual

    @pytest.mark.parametrize("n", [16, 64])
    def test_second_pair_on_deflated_solve(self, monkeypatch, n):
        # a pair above the ground pair is refined by the pinned factorization
        # the singular solves already use; nothing else is factored
        disc = unit_disc(n)
        pencil, solver = disc.pencil, disc.solver
        K, M = pencil.K, pencil.M
        vals, vecs = spla.eigsh(K, k=2, M=M, sigma=0.0)
        # noise M-orthogonal to u₀, as the range of the deflated solve is;
        # with a u₀ component the lowest Ritz value would head for λ₀
        u = perturbed(vecs[:, 1], M, 6)
        u = u - float(u @ solver.Mu0) * solver.u0f
        lam = float(u @ (K @ u)) / float(u @ (M @ u))
        assert backward_error(K, M, lam, u) > RESIDUAL_TOL

        calls = count_splu(monkeypatch)
        lam, u, res = _refine(K, M, lam, u, lambda b: solver.solve(b - float(solver.u0f @ b) * solver.Mu0))
        assert calls == []
        assert res <= RESIDUAL_TOL
        assert res == pytest.approx(backward_error(K, M, lam, u))
        assert lam == pytest.approx(vals[1], rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-160, 1e-155, 1e165, 1e170])
    def test_no_finite_direction_left(self, alpha):
        # outside Discretization's α range the squared M-norm of the start
        # K⁻¹·1 under- or overflows; no basis direction survives, and the pair
        # is refused with residual ∞ instead of an IndexError
        mesh = generate_unit_square(16, 16)
        pencil = fem.build_pencil(mesh, alpha * np.ones(mesh.n_elems))
        with np.errstate(all="ignore"):
            try:
                lam = smallest_eigenpair(pencil, factor(pencil.K, "LU of K failed").solve).lam
            except SolverError as exc:
                assert "residual inf exceeds tol" in str(exc)
            else:
                assert lam == pytest.approx(alpha * unit_disc(16).ground.lam, rel=1e-12)

    def test_start_scaling_keeps_ground_bits(self):
        # the start (K − σM)⁻¹·1 is scaled by a power of two before it is
        # M-normalized; the scaling is exact, so λ₀ keeps the bits it had without it
        mesh = generate_unit_square(16, 16)
        bits = {1.0: "0x1.3e8a15df8d198p+4", 1e-100: "0x1.16b0b19c897f9p-328",
                1e100: "0x1.6c1625c088356p+336"}
        for alpha, lam in bits.items():
            assert Discretization(mesh, alpha).ground.lam.hex() == lam

    def test_residual_does_not_underflow_at_tiny_alpha(self):
        # below α ≈ 1e-150 every square of the residual underflows; its norm,
        # taken at a power-of-two scale, must keep the value it has at 1e-100
        mesh = generate_unit_square(16, 16)
        res = {}
        for alpha in (1e-100, 1e-150):
            pencil = fem.build_pencil(mesh, alpha * np.ones(mesh.n_elems))
            sigma = eig._SHIFT_SHARE * np.pi * eig._J01**2 * alpha / mesh.total_area
            solve = factor(fem.add_on_pattern(pencil.K, pencil.M, -sigma), "LU of K - sigma M failed").solve
            res[alpha] = smallest_eigenpair(pencil, solve).residual
        assert res[1e-150] > 0
        assert res[1e-100] / 2 <= res[1e-150] <= 2 * res[1e-100]

    def test_dense_path(self):
        # 9 free nodes: the direct fallback refines such a pencil on an LU like
        # any other; the refinement takes a dense solve of K as well
        disc = unit_disc(4)
        assert disc.pencil.n_free == 9
        K, M = disc.pencil.K, disc.pencil.M
        u = perturbed(disc.pencil.restrict(disc.ground.u), M, 7)
        lam = float(u @ (K @ u))
        assert backward_error(K, M, lam, u) > RESIDUAL_TOL

        Kd = K.toarray()
        lam, u, res = _refine(K, M, lam, u, lambda b: np.linalg.solve(Kd, b))
        assert res <= RESIDUAL_TOL
        assert lam == pytest.approx(eigh(Kd, M.toarray(), eigvals_only=True)[0], rel=1e-12)
