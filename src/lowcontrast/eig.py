"""Generalized symmetric eigensolves K u = λ M u, the singular shifted
solves (K − λ₀M)v = f that drive the perturbation cascade, and the
per-mesh :class:`Discretization` that owns both.

Any method meeting the stated residual contracts is acceptable; here the
smallest pairs come from shift-invert Lanczos (dense fallback on tiny
pencils) with Rayleigh-quotient polishing, and the singular solves use a
bordered saddle formulation so the orthogonality constraint u₀ᵀMv = 0 is
enforced exactly.

Every sparse factorization on one discretization shares one symmetric
fill-reducing order (:class:`Ordering`).  SuperLU picks it once, as a
multiple-minimum-degree order of K + Kᵀ while factoring K in symmetric mode
with diagonal pivots; that LU serves the ground eigensolve and is then
dropped.  Later matrices with K's pattern (the ε-sweep's K0 + εKθ, the
polishing shifts, K itself for the lazy λ₂, the bordered singular system
with its border row and column placed last) are permuted symmetrically by
it and factored in natural order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import connected_components

from . import fem


RESIDUAL_TOL = 1e-12  # largest normwise backward error an eigenpair may carry
MAX_OUTER_ITERS = 10_000
FREDHOLM_TOL = 1e-9  # largest |u₀ᵀf|/|f| a singular-solve load may carry
_DENSE_CUTOFF = 12
# SuperLU options that keep pivots on the diagonal of the ordered matrix
_DIAGONAL_PIVOTS = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


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


class Ordering:
    """Symmetric fill-reducing order shared by every factorization of one pencil.

    The pencil's SPD stiffness K fixes it on first use: SuperLU factors K in a
    multiple-minimum-degree order of K + Kᵀ (``MMD_AT_PLUS_A``), in symmetric
    mode with diagonal pivots.  Partial pivoting would keep that column order
    but swap rows away from it; on a randomly numbered mesh the fill, and
    the time, then grow by orders of magnitude.  Each later matrix with K's
    pattern is permuted symmetrically by the order and factored in natural
    order.

    A factorization's fill is SuperLU's count of the nonzeros it stores for
    L and U (``SuperLU.nnz``).  It is within a few percent of L.nnz + U.nnz,
    which would copy both factors to count them.

    Attributes:
        perm: position i of the order holds free node ``perm[i]``; None until
            the first factorization.
        fill: the fill of K's factorization; None until then.
    """

    def __init__(self, K):
        self._K = K
        self.perm = None
        self.fill = None

    def factor(self, A, border=None, pivot=False):
        """Factor A, or the bordered matrix [[A, b], [bᵀ, 0]] for ``border=b``.

        The border row and column are placed last.  ``pivot`` keeps SuperLU's
        threshold pivoting, which an indefinite matrix needs; otherwise the
        pivots stay on the diagonal, as suits an SPD matrix.  Returns
        ``(solve, fill)``: ``solve`` takes and returns vectors in the original
        numbering.
        """
        if self.perm is None:
            lu = spla.splu(self._K.tocsc(), permc_spec="MMD_AT_PLUS_A", **_DIAGONAL_PIVOTS)
            self.perm = np.argsort(lu.perm_c)
            self.fill = lu.nnz
            if A is self._K and border is None:
                return lu.solve, self.fill
            del lu
        p = self.perm
        Ap = A.tocsr()[p][:, p]
        if border is not None:
            b = sparse.csr_matrix(border[p].reshape(1, -1))
            Ap = sparse.bmat([[Ap, b.T], [b, None]])
            p = np.append(p, len(p))
        lu = spla.splu(Ap.tocsc(), permc_spec="NATURAL", **({} if pivot else _DIAGONAL_PIVOTS))

        def solve(rhs):
            x = np.empty_like(rhs)
            x[p] = lu.solve(rhs[p])
            return x

        return solve, lu.nnz


def _polish(K, M, lam, u, ordering):
    """Inverse iteration at the converged shift until the residual contract holds."""
    res = _rel_residual(K, M, lam, u)
    for _ in range(3):
        if res <= RESIDUAL_TOL:
            break
        shift = lam * (1.0 - 1e-10)
        try:
            solve, _ = ordering.factor(K - shift * M, pivot=True)
            w = solve(M @ u)
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


def _smallest_pairs(pencil, k, ordering):
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
            # the shift-invert operator (K − 0·M)⁻¹; its LU is dropped after the solve
            op_inv = spla.LinearOperator((n, n), matvec=ordering.factor(K)[0], dtype=float)
            vals, vecs = spla.eigsh(
                K, k=k, M=M, sigma=0.0, which="LM", v0=v0, OPinv=op_inv,
                maxiter=MAX_OUTER_ITERS,
            )
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"eigensolver did not converge: {exc}") from exc
        except RuntimeError as exc:
            raise SolverError(f"factorization failed (indefinite pencil?): {exc}") from exc
        del op_inv
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    out = []
    for j in range(k):
        lam, u = float(vals[j]), vecs[:, j].copy()
        u /= np.sqrt(u @ (M @ u))
        lam, u, res = _polish(K, M, lam, u, ordering)
        if res > RESIDUAL_TOL:
            raise SolverError(f"eigenpair {j} residual {res:.3e} exceeds tol {RESIDUAL_TOL:.3e}")
        out.append((lam, u, res))
    return out


def smallest_eigenpair(pencil, ordering: Ordering) -> EigenPair:
    """Smallest eigenpair of the pencil, sign-fixed by positive lumped integral.

    ``ordering`` is the :class:`Ordering` of a pencil with the same pattern
    (a discretization's).
    """
    ((lam, u, res),) = _smallest_pairs(pencil, 1, ordering)
    if pencil.lumped[pencil.free] @ u < 0:
        u = -u
    return EigenPair(lam=lam, u=pencil.extend(u), residual=res)


class ShiftedSolver:
    """Factorized bordered system [[K−λ₀M, Mu₀], [(Mu₀)ᵀ, 0]].

    Solving with right-hand side [f; 0] yields v with
    (K−λ₀M)v = f − (u₀ᵀf)·Mu₀ and u₀ᵀMv = 0.  The factorization is reused
    across right-hand sides (one per cascade order / objective evaluation).
    It follows ``ordering`` (a discretization's) with the border last, and
    keeps threshold pivoting: K − λ₀M is indefinite, and its last pivot,
    near zero, must swap with the border row.  ``fill`` is the
    factorization's fill (see :class:`Ordering`).
    """

    def __init__(self, pencil, lambda0: float, u0: np.ndarray, ordering: Ordering):
        self.pencil = pencil
        self.lambda0 = float(lambda0)
        self.u0f = pencil.restrict(u0)
        self.Mu0 = pencil.M @ self.u0f
        A = (pencil.K - self.lambda0 * pencil.M).tocsr()
        try:
            self._solve, self.fill = ordering.factor(A, border=self.Mu0, pivot=True)
        except RuntimeError as exc:
            raise SolverError(f"bordered factorization failed: {exc}") from exc
        self._A = A
        # loads and u₀ᵀf scale with α and 1/|Ω| as λ₀ does; when the terms of
        # u₀ᵀf cancel, the rounding left in it is not a violation however small |f| is
        self._compat_floor = 1e3 * np.finfo(float).eps * abs(self.lambda0)

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Solve for v given a free-node load f.

        The Fredholm condition |u₀ᵀf| ≤ FREDHOLM_TOL·|f|, plus a floor for the
        rounding of u₀ᵀf, is enforced; a violation signals an inconsistent
        load upstream.
        """
        f = np.asarray(f, dtype=float)
        if f.shape != (self.pencil.n_free,):
            raise ValueError("load vector must live on free nodes")
        fnorm = np.linalg.norm(f)
        if fnorm == 0.0:
            return np.zeros_like(f)
        mu_expected = float(self.u0f @ f)
        bound = FREDHOLM_TOL * fnorm + self._compat_floor
        if abs(mu_expected) > bound:
            raise SolverError(
                f"compatibility violation: |u0.f| = {abs(mu_expected):.3e} "
                f"> {FREDHOLM_TOL:.1e}*|f| + {self._compat_floor:.1e} = {bound:.3e}"
            )
        sol = self._solve(np.append(f, 0.0))
        v, mu = sol[:-1], float(sol[-1])
        resid = np.linalg.norm(self._A @ v + mu * self.Mu0 - f) / fnorm
        if not np.isfinite(resid) or resid > 1e-8:
            raise SolverError(f"bordered solve breakdown: residual {resid:.3e}")
        return v


class Discretization:
    """One mesh at background conductivity α, set up once and shared.

    Holds the α-pencil (K, M) on free nodes, the :class:`Ordering` every
    factorization on the mesh follows, its ground pair (λ₀, u₀), a lazy
    second eigenvalue λ₂ and the bordered solver for the singular operator
    K − λ₀M.  A domain whose free nodes fall into several connected parts
    is rejected: its ground eigenvalue can be repeated, and the cascade
    assumes it is simple.
    The perturbation cascade, the remainder certificate and the relaxed
    objective all reuse it.  The bordered factorization is built on the
    first singular solve, so eigensolves run before it (the ε-sweep of a
    remainder report) do not hold it in memory.  ``ordering.fill`` is the
    fill of the ground factorization of K (None when a tiny pencil was
    solved densely).
    """

    def __init__(self, mesh, alpha: float):
        # beyond this range squared norms in the eigensolve under- or overflow
        if not 1e-100 <= alpha <= 1e100:
            raise ValueError(f"alpha must lie in [1e-100, 1e+100], got {alpha:g}")
        self.mesh = mesh
        self.alpha = alpha
        self.pencil = fem.build_pencil(mesh, alpha * np.ones(mesh.n_elems))
        parts, _ = connected_components(self.pencil.K, directed=False)
        if parts > 1:
            raise ValueError(
                f"domain has {parts} disconnected parts; its ground state need not be simple"
            )
        self.ordering = Ordering(self.pencil.K)
        self.ground = smallest_eigenpair(self.pencil, self.ordering)
        self._last_theta_stiffness = None

    @cached_property
    def lambda2(self) -> float:
        """Second-smallest eigenvalue of the α-pencil, computed on first access.

        It must lie strictly above λ₀; a pencil with one free node has none.
        """
        lam2 = _smallest_pairs(self.pencil, 2, self.ordering)[1][0]
        if lam2 <= self.ground.lam:
            raise SolverError(f"second eigenvalue {lam2} does not exceed ground {self.ground.lam}")
        return lam2

    @cached_property
    def solver(self) -> ShiftedSolver:
        """Bordered solver for K − λ₀M, factorized on first access."""
        return ShiftedSolver(self.pencil, self.ground.lam, self.ground.u, self.ordering)

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
