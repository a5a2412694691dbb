"""Generalized symmetric eigensolves K u = λ M u, the singular shifted
solves (K − λ₀M)v = f that drive the perturbation cascade, and the
per-mesh :class:`Discretization` that owns both.

Any method meeting the stated residual contracts is acceptable; here the
smallest pairs come from shift-invert Lanczos (dense fallback on tiny
pencils) with Rayleigh-quotient polishing, and the singular solves use a
bordered saddle formulation so the orthogonality constraint u₀ᵀMv = 0 is
enforced exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import connected_components

from . import fem


DEFAULT_TOL = 1e-10
MAX_OUTER_ITERS = 10_000
FREDHOLM_TOL = 1e-9  # largest |u₀ᵀf|/|f| a singular-solve load may carry
_DENSE_CUTOFF = 12


class SolverError(RuntimeError):
    """Eigen or linear solver failed to meet its residual contract."""


@dataclass(frozen=True)
class EigenPair:
    """Converged eigenpair: M-normalized, sign-fixed, zero on the boundary.

    Attributes:
        lam: eigenvalue (> 0 for SPD pencils).
        u: full nodal eigenvector (zeros at Dirichlet nodes).
        residual: normwise backward error |Ku − λMu| / ((‖K‖₁ + |λ|‖M‖₁)|u|)
            on free nodes; it stays near machine precision at any mesh size.
    """

    lam: float
    u: np.ndarray
    residual: float


def _rel_residual(K, M, lam, u):
    """Normwise backward error of the approximate eigenpair (λ, u) of (K, M)."""
    denom = (spla.norm(K, 1) + abs(lam) * spla.norm(M, 1)) * np.linalg.norm(u)
    if denom == 0.0:
        return np.inf
    return float(np.linalg.norm(K @ u - lam * (M @ u)) / denom)


def _polish(K, M, lam, u, tol):
    """Inverse iteration at the converged shift until the residual contract holds."""
    res = _rel_residual(K, M, lam, u)
    for _ in range(3):
        if res <= tol:
            break
        shift = lam * (1.0 - 1e-10) if lam != 0 else -1e-12
        try:
            lu = spla.splu((K - shift * M).tocsc())
            w = lu.solve(M @ u)
        except RuntimeError:
            break
        nrm = np.sqrt(w @ (M @ w))
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        w /= nrm
        lam = float(w @ (K @ w))
        u = w
        res = _rel_residual(K, M, lam, u)
    return lam, u, res


def _smallest_pairs(pencil, k, tol):
    """k smallest eigenpairs of the free-node pencil, M-normalized, ascending."""
    n = pencil.n_free
    K, M = pencil.K, pencil.M
    if k > n:
        raise SolverError(f"pencil has only {n} free node(s), cannot extract {k} eigenpairs")
    if n <= max(_DENSE_CUTOFF, k + 2):
        from scipy.linalg import eigh

        vals, vecs = eigh(K.toarray(), M.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        v0 = np.ones(n) / np.sqrt(n)
        try:
            vals, vecs = spla.eigsh(
                K, k=k, M=M, sigma=0.0, which="LM", v0=v0, maxiter=MAX_OUTER_ITERS
            )
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"eigensolver did not converge: {exc}") from exc
        except RuntimeError as exc:
            raise SolverError(f"factorization failed (indefinite pencil?): {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    out = []
    for j in range(k):
        lam, u = float(vals[j]), vecs[:, j].copy()
        u /= np.sqrt(u @ (M @ u))
        lam, u, res = _polish(K, M, lam, u, tol)
        if res > tol:
            raise SolverError(f"eigenpair {j} residual {res:.3e} exceeds tol {tol:.3e}")
        out.append((lam, u, res))
    return out


def smallest_eigenpair(pencil, tol: float = DEFAULT_TOL) -> EigenPair:
    """Smallest eigenpair of the pencil, sign-fixed by positive lumped integral."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    ((lam, u, res),) = _smallest_pairs(pencil, 1, tol)
    if pencil.lumped[pencil.free] @ u < 0:
        u = -u
    return EigenPair(lam=lam, u=pencil.extend(u), residual=res)


def second_eigenvalue(pencil, ground: EigenPair, tol: float = DEFAULT_TOL) -> float:
    """Second-smallest pencil eigenvalue; strictly above ``ground.lam``."""
    pairs = _smallest_pairs(pencil, 2, tol)
    lam2 = pairs[1][0]
    if lam2 <= ground.lam:
        raise SolverError(f"second eigenvalue {lam2} does not exceed ground {ground.lam}")
    return lam2


class ShiftedSolver:
    """Factorized bordered system [[K−λ₀M, Mu₀], [(Mu₀)ᵀ, 0]].

    Solving with right-hand side [f; 0] yields v with
    (K−λ₀M)v = f − (u₀ᵀf)·Mu₀ and u₀ᵀMv = 0.  The factorization is reused
    across right-hand sides (one per cascade order / objective evaluation).
    """

    def __init__(self, pencil, lambda0: float, u0: np.ndarray):
        self.pencil = pencil
        self.lambda0 = float(lambda0)
        self.u0f = pencil.restrict(u0)
        self.Mu0 = pencil.M @ self.u0f
        A = (pencil.K - self.lambda0 * pencil.M).tocsr()
        col = sparse.csc_matrix(self.Mu0.reshape(-1, 1))
        bordered = sparse.bmat([[A, col], [col.T, None]], format="csc")
        try:
            self._lu = spla.splu(bordered)
        except RuntimeError as exc:
            raise SolverError(f"bordered factorization failed: {exc}") from exc
        self._A = A
        # natural magnitude of λ₁Mu₀-type loads; below noise of this scale a
        # load counts as zero and the relative compatibility test is moot
        self._load_scale = (abs(self.lambda0) + 1.0) * np.linalg.norm(self.Mu0)

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Solve for v given a free-node load f.

        The Fredholm condition |u₀ᵀf| ≤ FREDHOLM_TOL·|f| is enforced; a
        violation signals an inconsistent load upstream.
        """
        f = np.asarray(f, dtype=float)
        if f.shape != (self.pencil.n_free,):
            raise ValueError("load vector must live on free nodes")
        fnorm = np.linalg.norm(f)
        if fnorm == 0.0:
            return np.zeros_like(f)
        mu_expected = float(self.u0f @ f)
        if fnorm > 1e-10 * self._load_scale and abs(mu_expected) > FREDHOLM_TOL * fnorm:
            raise SolverError(
                f"compatibility violation: |u0.f| = {abs(mu_expected):.3e} "
                f"> {FREDHOLM_TOL:.1e}*|f| = {FREDHOLM_TOL * fnorm:.3e}"
            )
        sol = self._lu.solve(np.append(f, 0.0))
        v, mu = sol[:-1], float(sol[-1])
        resid = np.linalg.norm(self._A @ v + mu * self.Mu0 - f) / fnorm
        if not np.isfinite(resid) or resid > 1e-8:
            raise SolverError(f"bordered solve breakdown: residual {resid:.3e}")
        return v


class Discretization:
    """One mesh at background conductivity α, set up once and shared.

    Holds the α-pencil (K, M) on free nodes, its ground pair (λ₀, u₀) and
    the bordered solver for the singular operator K − λ₀M.  A domain whose
    free nodes fall into several connected parts is rejected: its ground
    eigenvalue can be repeated, and the cascade assumes it is simple.
    The perturbation cascade, the remainder certificate and the relaxed
    objective all reuse it.  The bordered factorization is built on the
    first singular solve, so eigensolves run before it (the ε-sweep of a
    remainder report) do not hold it in memory.
    """

    def __init__(self, mesh, alpha: float, tol: float = DEFAULT_TOL):
        if not (np.isfinite(alpha) and alpha > 0):
            raise ValueError("alpha must be positive and finite")
        self.mesh = mesh
        self.alpha = alpha
        self.tol = tol
        self.pencil = fem.build_pencil(mesh, alpha * np.ones(mesh.n_elems))
        parts, _ = connected_components(self.pencil.K, directed=False)
        if parts > 1:
            raise ValueError(
                f"domain has {parts} disconnected parts; its ground state need not be simple"
            )
        self.ground = smallest_eigenpair(self.pencil, tol)
        self._last_theta_stiffness = None

    @cached_property
    def solver(self) -> ShiftedSolver:
        """Bordered solver for K − λ₀M, factorized on first access."""
        return ShiftedSolver(self.pencil, self.ground.lam, self.ground.u)

    def theta_stiffness(self, theta) -> sparse.csr_matrix:
        """Free-node stiffness Kθ with coefficient α·(vertex average of θ).

        The last result is kept, so an ε-sweep and a cascade over one
        density assemble it once.
        """
        theta = np.asarray(theta, dtype=float)
        last = self._last_theta_stiffness
        if last is None or not np.array_equal(last[0], theta):
            theta_e = fem.element_average(self.mesh, theta)
            Kt = fem.restrict_matrix(
                fem.assemble_stiffness(self.mesh, self.alpha * theta_e), self.pencil.free
            )
            last = self._last_theta_stiffness = (theta.copy(), Kt)
        return last[1]
