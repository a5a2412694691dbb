"""Generalized symmetric eigensolves K u = λ M u, the singular shifted
solves (K − λ₀M)v = f that drive the perturbation cascade, and the
per-mesh :class:`Discretization` that owns both.

Every eigenpair comes from one cold or warm Rayleigh–Ritz refinement
(:func:`_refine`), preconditioned by a solve its caller holds: the ground
pair from (K − σM)⁻¹·1 on the LU of K − σM, σ just under the Faber–Krahn
bound on λ₀; a remainder report's λ_ε from a Ritz pair on the cascade's
modes (:func:`_ritz_basis`) on the deflated singular solve; and the report's
direct fallback from an LU of K_ε − τM.  That a pair is the smallest is
shown by Sylvester's law of inertia (:func:`_slice`): of K_ε − (1 − δ)λM for
the fallback (:func:`certified_smallest_pair`), of K − λ(1 + δ)M under λ₂
for a λ_ε past the Krahn–Szegő bound.  The pinned singular solve pins one
node where u₀ ≠ 0, which leaves an SPD system, and M-orthogonalizes its
result against u₀; the deflated PCG keeps every iterate on u₀ᵀMv = 0.
Both run behind :meth:`Discretization.singular_solve`, which checks each
load and each result once.

Every sparse factorization is made by :func:`factor` and keeps its pivots on
the diagonal of one symmetric fill-reducing order per discretization, picked
when K − σM is factored; the free nodes are then numbered in it, so every
later LU (the pinned system, each sliced matrix) factors the pencil's own
arrays in natural order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import connected_components

from . import fem


RESIDUAL_TOL = 1e-12  # largest normwise backward error an eigenpair may carry
FREDHOLM_TOL = 1e-9  # largest |u₀ᵀf|/|f| a singular-solve load may carry
_REFINE_STEPS = 12  # Rayleigh–Ritz steps before a pair is declared to miss its contract
# the same for a cold start from (K − τM)⁻¹·1 (the ground pair, the direct
# fallback), and the step cap of the deflated PCG
_COLD_STEPS = 60
# the residual the ground refinement aims for, far below RESIDUAL_TOL: every
# singular solve is built on (λ₀, u₀), and a pair stopped at 1e-12 left the
# singular solve's residual at 5e-10 of its load (bound 1e-10) on a randomly
# numbered 150² square; at this aim the pairs seen stop at 5e-17 to 9e-16
_GROUND_TOL = 1e-15
_J01 = 2.404825557695773  # first zero of the Bessel function J₀
# the ground factorization's shift σ as a share of the Faber–Krahn bound on λ₀,
# which keeps K − σM positive definite with a margin of at least 0.1% of λ₀
_SHIFT_SHARE = 0.999
_GRAM_FLOOR = 1e-12  # Rayleigh–Ritz drops basis directions below this share of the Gram spectrum
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


def _norm(v) -> float:
    """|v|₂ taken on v scaled by a power of two near its largest entry.

    The scaling is exact, so the norm is bitwise that of ``np.linalg.norm(v)``
    wherever v's squares neither under- nor overflow; at α = 1e-150 a
    residual's squares all underflow, and its unscaled norm reads 0.
    """
    big = np.max(np.abs(v), initial=0.0)
    if not 0.0 < big < np.inf:
        return float(np.linalg.norm(v))
    e = np.frexp(big)[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))


def _refine(K, M, lam, u, precond, steps=_REFINE_STEPS, tol=RESIDUAL_TOL):
    """Refine the approximate eigenpair (λ, u) of (K, M) until its residual is at most ``tol``.

    Returns ``(λ, u, res)`` with res the normwise backward error
    |Ku − λMu| / ((‖K‖₁ + |λ|‖M‖₁)|u|); a pair that already meets
    ``tol`` comes back unchanged.  Otherwise each step is a
    Rayleigh–Ritz on {u, w, p} (LOBPCG, Knyazev 2001): w = precond(r) for
    the residual r, p the previous step's direction, and u the lowest Ritz
    vector, whose Rayleigh quotient is the next λ.  After ``steps`` steps
    the last pair is returned with its residual, for the caller to reject.
    """
    norm_K, norm_M = spla.norm(K, 1), spla.norm(M, 1)
    p = None
    for step in range(steps + 1):
        Ku, Mu = K @ u, M @ u
        if step:
            lam = float(u @ Ku) / float(u @ Mu)
        r = Ku - lam * Mu
        denom = (norm_K + abs(lam) * norm_M) * _norm(u)
        res = float(_norm(r) / denom) if denom else np.inf
        if res <= tol or step == steps:
            return lam, u, res
        S, Z = _ritz_basis(np.column_stack([u, precond(r)] if p is None else [u, precond(r), p]), M)
        if not Z.size:  # no finite direction left: the pair under- or overflowed
            return lam, u, np.inf
        y = Z @ np.linalg.eigh(Z.T @ (S.T @ (K @ S)) @ Z)[1][:, 0]
        p = S[:, 1:] @ y[1:]
        u = S[:, 0] * y[0] + p


def _ritz_basis(S, M):
    """``(S, Z)``: S's finite nonzero columns at unit M-norm, and S·Z an M-orthonormal basis of their span.

    Gram directions under _GRAM_FLOOR are cut (nearly dependent columns are safe); Z may have no columns.
    """
    MS = M @ S
    norms = np.sqrt(np.einsum("ij,ij->j", S, MS))
    live = np.isfinite(norms) & (norms > 0)
    MS = MS[:, live]  # column-major copies, scaled in place; MS's original goes before S is copied
    S = S[:, live]
    S /= norms[live]
    MS /= norms[live]
    g, V = np.linalg.eigh(S.T @ MS)
    keep = g > _GRAM_FLOOR * g.max(initial=0.0)
    return S, V[:, keep] / np.sqrt(g[keep])


def factor(A, order="NATURAL"):
    """SuperLU's LU of the symmetric CSR matrix A, with diagonal pivots: every factorization.

    A's own arrays are read as its CSC (``A.T``), which they are for a bitwise-symmetric
    A; SuperLU leaves canonical ones uncopied.  ``order`` is SuperLU's column
    order: the ground LU picks a fill-reducing one (``"MMD_AT_PLUS_A"``), the
    discretization's numbering is that order, and every later matrix it factors
    stores K's pattern and takes ``"NATURAL"``.  Partial pivoting would swap rows away
    from the order: on a randomly numbered mesh the fill, and the time, grew by
    orders of magnitude.  One column per panel keeps SuperLU's workspace out of
    the peak memory.  The fill is ``SuperLU.nnz``; L.nnz + U.nnz would copy both factors.
    """
    return spla.splu(A.T, permc_spec=order, panel_size=1, **_DIAGONAL_PIVOTS)


def _slice(A):
    """``(solve, count)``: the LU of the symmetric A (:func:`factor`), and its count of pivots not > 0.

    With its pivots on the diagonal and no row swapped it is LDLᵀ up to row
    scaling, so by Sylvester's law of inertia the count is that of A's
    eigenvalues ≤ 0.  Reading U copies it.
    """
    try:
        lu = factor(A)
    except RuntimeError as exc:  # an exactly singular pivot
        raise SolverError(f"spectrum slicing LU failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, np.arange(A.shape[0])):
        raise SolverError("a row swap in the LU voids its pivot count")
    return lu.solve, int(np.count_nonzero(~(lu.U.diagonal() > 0)))


def _rounding_share(K, M, lam, u) -> float:
    """δ = 16·ε_mach·|u|ᵀ|K||u| / (|λ|·uᵀMu), the relative rounding of λ = R(u) (the 16: README.md).

    An ε_mach rounding of K, of uᵀKu or of K − τM's pivots moves R(u) by up to ε_mach·|u|ᵀ|K||u|/uᵀMu.
    """
    a = np.abs(u)
    with np.errstate(over="ignore", invalid="ignore"):  # δ = ∞ or NaN resolves nothing
        return 16.0 * np.finfo(float).eps * float(a @ (abs(K) @ a)) / (abs(lam) * float(u @ (M @ u)))


def smallest_eigenpair(pencil, solve) -> EigenPair:
    """Smallest eigenpair of the pencil, sign-fixed by positive lumped integral.

    ``solve`` applies (K − σM)⁻¹ for a shift 0 ≤ σ < λ₀ (:class:`Discretization`
    takes σ just under the Faber–Krahn bound).  The pair is a cold refinement
    on it (:func:`_cold_pair`) from u = (K − σM)⁻¹·1 to _GROUND_TOL, and u
    overlaps u₀ (both are positive when K − σM is an M-matrix, as on a
    Delaunay mesh), so the lowest Ritz value heads for λ₀; the closer σ lies
    to λ₀, the fewer steps.
    """
    return _checked_pair(pencil, *_cold_pair(pencil.K, pencil.M, solve))


def _cold_pair(K, M, solve):
    """:func:`_refine` from u = solve(1) at unit M-norm to _GROUND_TOL, for up to _COLD_STEPS steps."""
    u = solve(np.ones(K.shape[0]))
    u = np.ldexp(u, -np.frexp(np.max(np.abs(u)))[1])  # exact; M-normalizing then neither under- nor overflows
    u /= np.sqrt(u @ (M @ u))
    return _refine(K, M, float(u @ (K @ u)), u, solve, _COLD_STEPS, _GROUND_TOL)


def certified_smallest_pair(pencil, lower) -> EigenPair:
    """:func:`smallest_eigenpair` on an LU of K − τM (τ = ``lower`` > 0 first), certified by inertia.

    The residual contract does not pin the smallest of a cluster, so a pair
    (λ, u) counts only if K − (1 − δ)λM (δ: :func:`_rounding_share`) has no
    pivot ≤ 0: then no eigenvalue lies below (1 − δ)λ, nor any above λ = R(u).
    Else the counts bound a slice [lo, hi] that holds the smallest, τ is
    bisected in it, and each new LU refines the pair again.  A slice narrower
    than δλ, δ ≥ 1 (nothing resolved) or _COLD_STEPS LUs raise :class:`SolverError`.
    """
    K, M = pencil.K, pencil.M
    lo, hi, tau, lam = 0.0, np.inf, lower, None
    for _ in range(_COLD_STEPS):
        solve = None  # the last slice's LU goes before the next is factored
        solve, count = _slice(fem.add_on_pattern(K, M, -tau))
        if count:
            hi = tau
        else:
            lo = tau
            if lam is not None and res <= RESIDUAL_TOL and tau >= (1.0 - delta) * lam:
                return _checked_pair(pencil, lam, u, res)
        lam, u, res = _cold_pair(K, M, solve)  # no pair yet, or none certified
        delta = _rounding_share(K, M, lam, u)
        if not (lo <= (1.0 + delta) * lam and delta < 1.0) or hi - lo <= delta * lam:
            break
        probe = (1.0 - delta) * lam
        tau = probe if probe + delta * lam < hi else 0.5 * (lo + hi)
    raise SolverError(f"no eigenvalue certified in [{lo:.17g}, {hi:.17g}] (delta {delta:.1e})")


def _checked_pair(pencil, lam, u, res) -> EigenPair:
    """The smallest pair (λ, u) on free nodes as an :class:`EigenPair`, if it meets RESIDUAL_TOL."""
    if res > RESIDUAL_TOL:
        raise SolverError(f"eigenpair 0 residual {res:.3e} exceeds tol {RESIDUAL_TOL:.3e}")
    if pencil.lumped[pencil.free] @ u < 0:
        u = -u
    return EigenPair(lam=lam, u=pencil.extend(u), residual=res)


def _deflated_cg(pencil, lambda0, u0f, Mu0, precond, g, fnorm):
    """``(v, steps)``: the singular solve of a compatible load g by deflated PCG.

    Conjugate gradients on (K − λ₀M)v = g over the complement of u₀, where
    K − λ₀M is SPD.  The preconditioned residual is z = P·precond(r), with
    ``precond`` the solve of K − σM for the ground shift σ < λ₀ and P the
    M-orthogonal projector off u₀, so every iterate keeps u₀ᵀMv = 0; on that
    complement the preconditioned operator has eigenvalues
    1 − (λ₀ − σ)/(λ_j − σ), in [0.95, 1) on the squares and [0.999, 1) on the
    disks.  Each step deflates the residual, r ← r − (u₀ᵀr)·Mu₀: without it a
    rounding-only load (constant θ on a disk) stalled at 9e-7 of its norm.
    The iteration stops at |r| ≤ 1e-14·|f| or after _COLD_STEPS steps; a
    breakdown stops it early, and the caller's residual check reports it.
    """
    K, M = pencil.K, pencil.M
    x = np.zeros_like(g)
    r = g.copy()
    p = rz_old = None
    steps = 0
    while steps < _COLD_STEPS and np.linalg.norm(r) > 1e-14 * fnorm:
        z = precond(r)
        z -= float(Mu0 @ z) * u0f
        rz = float(r @ z)
        p = z if p is None else z + (rz / rz_old) * p
        Ap = K @ p - lambda0 * (M @ p)
        pAp = float(p @ Ap)
        if not (np.isfinite(pAp) and pAp > 0):  # a breakdown: the caller's residual check reports it
            break
        step = rz / pAp
        x += step * p
        r -= step * Ap
        r -= float(u0f @ r) * Mu0
        rz_old = rz
        steps += 1
    return x, steps


class ShiftedSolver:
    """Factorized singular operator A = K − λ₀M, pinned at one node.

    A is positive semi-definite with kernel span(u₀), so with the row and
    column of node k = argmax|u₀| set to the identity's (in place, on K's
    pattern; a solve zeroes v_k) it is SPD, and :func:`factor` keeps K's fill,
    which does not depend on α.  A solve maps a compatible load g
    (u₀ᵀg = 0 up to rounding) to v with A v = g and u₀ᵀMv = 0, reusing the
    factorization (one per cascade order / objective evaluation); the load's
    checks and the result's are :meth:`Discretization.singular_solve`'s.
    λ₀, and u₀ and Mu₀ on free nodes, are the discretization's.  Of A only
    row k is kept, for the correction of a solve's row-k residual.
    """

    def __init__(self, disc):
        pencil = disc.pencil
        self.u0f, self.Mu0 = disc.u0f, disc.Mu0
        A = fem.add_on_pattern(pencil.K, pencil.M, -float(disc.ground.lam))
        k = int(np.argmax(np.abs(self.u0f)))
        self._k, self._Ak = k, A[k]
        A.data[A.indices == k] = 0.0
        row = slice(A.indptr[k], A.indptr[k + 1])
        A.data[row] = A.indices[row] == k
        try:
            lu = factor(A)
        except RuntimeError as exc:
            raise SolverError(f"pinned factorization failed: {exc}") from exc
        self._solve, self.fill = lu.solve, lu.nnz  # each solution's entry k is zeroed
        # a pinned solve leaves its load's rounding-level inconsistency in row k, where
        # it grows with the mesh; a multiple of z = pinned⁻¹Mu₀ moves it onto Mu₀
        self._z = self._solve(self.Mu0)
        self._z[k] = 0.0
        self._zk = (self._Ak @ self._z)[0] - self.Mu0[k]

    def solve(self, g: np.ndarray) -> np.ndarray:
        """v for a compatible free-node load g: solved pinned, row k corrected, M-orthogonalized against u₀."""
        w = self._solve(g)
        w[self._k] = 0.0
        w -= ((self._Ak @ w)[0] - g[self._k]) / self._zk * self._z
        return w - float(self.Mu0 @ w) * self.u0f


class Discretization:
    """One mesh at background conductivity α, set up once and shared.

    Holds the α-pencil (K, M) on free nodes, its ground pair (λ₀, u₀) with u₀
    and Mu₀ on free nodes (``u0f``, ``Mu0``) and the singular solves of
    K − λ₀M, for the cascade, the remainder certificate and the relaxed
    objective.  A domain whose free nodes fall into several connected parts
    is rejected: its ground eigenvalue can be repeated, and the cascade
    assumes it is simple.  It factors K − σM in a minimum-degree order of K's
    pattern (``fill``), σ = _SHIFT_SHARE·``faber_krahn`` (π·j₀₁²·α/|Ω|, the
    Faber–Krahn bound on λ₀; twice it, the Krahn–Szegő bound on λ₂, is a
    remainder report's first floor), refines the ground pair on that LU and
    renumbers the pencil in its order (``pencil.renumbered``; each Kθ is
    gathered through its ``pick``).  The LU serves :meth:`singular_solve` until
    the pinned system (``solver``) is factored or a Kθ assembled, so
    ``eval`` factors once, and a command that loops over loads twice.  Its
    only state past the mesh's is these LUs (:meth:`release`): no density is kept.
    """

    def __init__(self, mesh, alpha: float):
        # beyond this range squared norms in the eigensolve under- or overflow
        if not 1e-100 <= alpha <= 1e100:
            raise ValueError(f"alpha must lie in [1e-100, 1e+100], got {alpha:g}")
        self.mesh = mesh
        self.alpha = alpha
        pencil = fem.build_pencil(mesh, alpha * np.ones(mesh.n_elems))
        parts, _ = connected_components(pencil.K, directed=False)
        if parts > 1:
            raise ValueError(
                f"domain has {parts} disconnected parts; its ground state need not be simple"
            )
        # Faber–Krahn: λ₀(Ω) ≥ π·j₀₁²/|Ω| on the mesh's polygon Ω, and the
        # conforming P1 λ₀ lies above λ₀(Ω) by min–max
        self.faber_krahn = float(np.pi * _J01**2 * alpha / mesh.total_area)
        try:
            # the shifted matrix is gone once its LU exists
            lu = factor(fem.add_on_pattern(pencil.K, pencil.M, -_SHIFT_SHARE * self.faber_krahn),
                        "MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"factorization failed (indefinite pencil?): {exc}") from exc
        self.fill = lu.nnz
        ground = smallest_eigenpair(pencil, lu.solve)
        perm = np.argsort(lu.perm_c)
        self.pencil = pencil = pencil.renumbered(perm)
        self.u0f = pencil.restrict(ground.u)
        # λ₀ and u₀ keep their bits; the residual is the renumbered pencil's rounding of it
        self.ground = replace(ground, residual=_refine(pencil.K, pencil.M, ground.lam, self.u0f, None, 0)[2])
        self.Mu0 = pencil.M @ self.u0f
        self._shifted_solve = lambda r: lu.solve(r[lu.perm_c])[perm]  # in and out of the LU's own numbering

    def singular_solve(self, f: np.ndarray) -> np.ndarray:
        """v with (K − λ₀M)v = g = f − (u₀ᵀf)·Mu₀ and u₀ᵀMv = 0, for a free-node load f.

        The one singular solve: each check runs here, once per load.  A zero
        load returns zero before anything is factored.  Otherwise f must meet
        the Fredholm condition |u₀ᵀf| ≤ FREDHOLM_TOL·|f| plus a floor for the
        rounding of u₀ᵀf; a violation signals an inconsistent load upstream.
        Loads and u₀ᵀf scale with α and 1/|Ω| as λ₀ does; when the terms of
        u₀ᵀf cancel, the rounding left in it is not a violation however small
        |f| is, so the floor is 1e3·ε_mach·|λ₀|.  g is then solved pinned
        (:meth:`ShiftedSolver.solve`) once the LU of K − σM is gone, and until
        then by deflated PCG on that LU (:func:`_deflated_cg`), which saves the
        pinned factorization a single solve would not repay.  Either result
        must meet |(K − λ₀M)v − g| ≤ 1e-8·|f|, checked as K v − λ₀·(M v) − g on
        the pencil, so no third value array on K's pattern stays resident.
        """
        f = np.asarray(f, dtype=float)
        if f.shape != self.u0f.shape:
            raise ValueError("load vector must live on free nodes")
        fnorm = float(np.linalg.norm(f))
        if fnorm == 0.0:
            return np.zeros_like(f)
        lam0 = self.ground.lam
        mu = float(self.u0f @ f)
        floor = 1e3 * np.finfo(float).eps * abs(lam0)
        bound = FREDHOLM_TOL * fnorm + floor
        if abs(mu) > bound:
            raise SolverError(
                f"compatibility violation: |u0.f| = {abs(mu):.3e} "
                f"> {FREDHOLM_TOL:.1e}*|f| + {floor:.1e} = {bound:.3e}"
            )
        g = f - mu * self.Mu0
        if self._shifted_solve is None:  # dropped by the pinned factorization or a Kθ
            v, what, after = self.solver.solve(g), "pinned", ""
        else:
            v, steps = _deflated_cg(self.pencil, lam0, self.u0f, self.Mu0, self._shifted_solve, g, fnorm)
            what, after = "singular", f" after {steps} CG steps"
        K, M = self.pencil.K, self.pencil.M
        resid = np.linalg.norm(K @ v - lam0 * (M @ v) - g) / fnorm
        if not np.isfinite(resid) or resid > 1e-8:
            raise SolverError(f"{what} solve breakdown: residual {resid:.3e}{after}")
        return v

    @cached_property
    def solver(self) -> ShiftedSolver:
        """Pinned solver for K − λ₀M, factorized on first access, after the LU of K − σM is dropped.

        :meth:`release` drops it; the next access factors it again.
        """
        self._shifted_solve = None
        return ShiftedSolver(self)

    def release(self) -> None:
        """Drop every LU held, the K − σM solve and the pinned ``solver``, before a caller factors its own."""
        self._shifted_solve = None
        self.__dict__.pop("solver", None)

    def theta_stiffness(self, theta) -> sparse.csr_matrix:
        """Free-node stiffness Kθ with coefficient α·(vertex average of θ), gathered on K's index arrays.

        The one place a density is checked and Kθ assembled; nothing is
        kept.  The LU of K − σM is dropped first.
        """
        theta = fem.check_density(theta, self.mesh.n_nodes)
        self._shifted_solve = None
        theta_e = fem.element_average(self.mesh, theta)
        return self.pencil.gather(fem.assemble_stiffness(self.mesh, self.alpha * theta_e))
