"""Asymptotic expansion of the smallest two-phase eigenvalue in the
contrast parameter, to arbitrary order, plus remainder-order certification.

For a density ``theta`` the conductivity is a(x) = alpha·(1 + eps·theta),
and the smallest eigenvalue admits a power series λ(eps) = Σ λ_i eps^i
whose coefficients are produced by an order-by-order cascade of singular
shifted solves.  Certification compares the truncated series against
direct eigensolves of the same discrete pencil (K0 + eps·K_theta, M), so
the fitted log-log slopes are free of discretization error.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import linalg as spla

from .eig import RESIDUAL_TOL, SolverError, smallest_eigenpair

_REFINE_STEPS = 12  # Rayleigh–Ritz steps before an ε falls back to a direct eigensolve
_GRAM_FLOOR = 1e-12  # Rayleigh–Ritz drops basis directions below this share of the Gram spectrum


def check_density(theta, n_nodes: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n_nodes,):
        raise ValueError(f"density must have one value per node ({n_nodes})")
    if not np.isfinite(theta).all():
        raise ValueError("density values must be finite")
    if (theta < 0).any() or (theta > 1).any():
        raise ValueError("density values must lie in [0, 1]")
    return theta


@dataclass(frozen=True)
class ExpansionSeries:
    """Eigenvalue/eigenmode series coefficients for a fixed density.

    ``lambdas[i]`` and ``modes[i]`` are the order-i coefficients; the series
    itself is contrast-independent.  ``modes`` rows are full nodal fields.
    """

    order: int
    lambdas: np.ndarray
    modes: np.ndarray

    def truncated(self, eps: float, order: int | None = None) -> float:
        """Partial sum Σ_{i<=order} λ_i eps^i."""
        n = self.order if order is None else order
        if n > self.order:
            raise ValueError(f"series only computed to order {self.order}")
        return float(np.polyval(self.lambdas[: n + 1][::-1], eps))


def compute_series(disc, theta, order: int) -> ExpansionSeries:
    """Run the perturbation cascade to the requested order.

    Order 0 is the ground state of the discretization's α-Laplacian.  Each
    further order costs one bordered solve; the Fredholm compatibility of
    every load is checked and the normalization identities
    u0ᵀMu_i = −½ Σ_{k=1}^{i−1} u_kᵀMu_{i−k} are enforced by shifting along u0.
    """
    theta = check_density(theta, disc.mesh.n_nodes)
    if order < 0:
        raise ValueError("order must be >= 0")

    pencil = disc.pencil
    lam0, u0f = disc.ground.lam, pencil.restrict(disc.ground.u)
    Kt = disc.theta_stiffness(theta)
    M = pencil.M

    lams = [lam0]
    modes = [u0f]
    Mmodes = [M @ u0f]  # cache M @ u_k

    for i in range(1, order + 1):
        Ku_prev = Kt @ modes[i - 1]
        # u0ᵀ M u_k for k < i (u0 is M-normalized, u1 orthogonal)
        mdots = [float(u0f @ Mm) for Mm in Mmodes]
        lam_i = float(u0f @ Ku_prev) - sum(
            lams[i - k] * mdots[k] for k in range(2, i)
        )
        lams.append(lam_i)

        f = -Ku_prev
        for k in range(1, i + 1):
            f = f + lams[k] * Mmodes[i - k]
        try:
            v = disc.solver.solve(f)
        except SolverError as exc:
            raise SolverError(f"cascade order {i}: {exc}") from exc

        shift = -0.5 * sum(
            float(modes[k] @ Mmodes[i - k]) for k in range(1, i)
        )
        u_i = v + shift * u0f
        modes.append(u_i)
        Mmodes.append(M @ u_i)

    full_modes = np.array([pencil.extend(m) for m in modes])
    return ExpansionSeries(order=order, lambdas=np.array(lams), modes=full_modes)


def direct_eigenvalue(disc, theta, epsilon: float):
    """Smallest eigenpair of the two-phase pencil (K0 + ε·Kθ, M) at finite contrast.

    Kθ uses the per-element vertex average of θ, so the coefficient is
    α·(1 + ε·avg θ); K0 and M are the discretization's α-pencil.  K0 + εKθ
    has K0's pattern, so its factorization follows the discretization's
    ordering.
    """
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon <= -1:
        raise ValueError("epsilon must exceed -1 for a positive coefficient")
    theta = check_density(theta, disc.mesh.n_nodes)
    pencil0 = disc.pencil
    pencil = replace(pencil0, K=(pencil0.K + epsilon * disc.theta_stiffness(theta)).tocsr())
    return smallest_eigenpair(pencil, disc.ordering)


def _refined_eigenvalue(disc, Kt, epsilon: float, lam2: float) -> float | None:
    """Certified smallest eigenvalue of (K0 + ε·Kθ, M) refined from u₀, or None.

    Each step is a Rayleigh–Ritz on {u, w, p}: LOBPCG with the deflated
    shifted preconditioner of Jacobi–Davidson.  w is the bordered solve
    applied to the residual projected onto loads compatible with u₀, and p
    is the previous step's direction.  The Ritz pair is accepted only when
    it meets the residual contract (measured with matvecs alone),
    min(1, 1+ε)·λ₀ ≤ λ ≤ R_ε(u₀), and λ < min(1, 1+ε)·λ₂: since
    K0 + εKθ ≥ min(1, 1+ε)·K0, Weyl's inequality then makes λ the smallest
    eigenvalue.  None means the step cap was reached, the arithmetic
    overflowed (huge ε) or a check failed.
    """
    with np.errstate(over="raise", invalid="raise"):
        try:
            return _lobpcg(disc, Kt, epsilon, lam2)
        except FloatingPointError:
            return None


def _lobpcg(disc, Kt, epsilon, lam2):
    """The steps and checks of :func:`_refined_eigenvalue`."""
    pencil, solver = disc.pencil, disc.solver
    M, u0, Mu0 = pencil.M, solver.u0f, solver.Mu0
    K = (pencil.K + epsilon * Kt).tocsr()
    norm_K, norm_M = spla.norm(K, 1), spla.norm(M, 1)
    u, p = u0, None
    for step in range(_REFINE_STEPS + 1):
        Ku, Mu = K @ u, M @ u
        lam = float(u @ Ku) / float(u @ Mu)
        if step == 0:
            upper = lam  # R_ε(u₀) = λ₀ + ε·u₀ᵀKθu₀
        r = Ku - lam * Mu
        # the normwise backward error of eig._rel_residual
        if np.linalg.norm(r) <= RESIDUAL_TOL * (norm_K + abs(lam) * norm_M) * np.linalg.norm(u):
            break
        if step == _REFINE_STEPS:
            return None
        w = solver.solve(r - float(u0 @ r) * Mu0)
        S = np.column_stack([u, w] if p is None else [u, w, p])
        MS = M @ S
        norms = np.sqrt(np.einsum("ij,ij->j", S, MS))
        nonzero = norms > 0
        S, MS = S[:, nonzero] / norms[nonzero], MS[:, nonzero] / norms[nonzero]
        G, A = S.T @ MS, S.T @ (K @ S)
        g, V = np.linalg.eigh(G)
        keep = g > _GRAM_FLOOR * g[-1]
        Z = V[:, keep] / np.sqrt(g[keep])
        _, Y = np.linalg.eigh(Z.T @ A @ Z)
        y = Z @ Y[:, 0]
        p = S[:, 1:] @ y[1:]
        u = S[:, 0] * y[0] + p
    shrink = min(1.0, 1.0 + epsilon)
    if shrink * disc.ground.lam <= lam <= upper and lam < shrink * lam2:
        return lam
    return None


@dataclass(frozen=True)
class RemainderReport:
    """Truncation remainders |λ_eps − Σ_{i<=n} λ_i eps^i| and their fit.

    ``slope``/``constant`` are the least-squares log-log fit over the
    points that survived the floor filter; both are None when fewer than
    two points survive (e.g. an exactly reproduced series).
    """

    eps_values: np.ndarray
    order: int
    lambda_eps: np.ndarray
    truncated: np.ndarray
    remainders: np.ndarray
    slope: float | None
    constant: float | None
    excluded: list = field(default_factory=list)
    floor: float = 0.0


def remainder_report(disc, theta, order: int, eps_values) -> RemainderReport:
    """Certify the truncation order of the series against eigensolves at each ε.

    Both sides live on the same mesh and the same pencils, so the expected
    slope of the order-n remainder is n+1 exactly.  Remainders at the solver
    noise floor (100·RESIDUAL_TOL·|λ0|, a hundred times the eigen residual
    contract; it scales with α as the remainders do) are excluded from the
    fit with a warning.
    Kθ, the discretization's λ₂ and its bordered factorization come first.  Each
    λ_ε is then refined from u₀ with the bordered solve as preconditioner
    and certified against λ₀, R_ε(u₀) and λ₂; an ε whose certificate fails
    (large ε, a small gap) falls back to :func:`direct_eigenvalue`.  The
    cascade runs last, on the same factorization.
    """
    eps = np.sort(np.asarray(eps_values, dtype=float))[::-1]
    if eps.size == 0:
        raise ValueError("need at least one eps value")
    if not np.isfinite(eps).all() or (eps <= 0).any():
        raise ValueError("eps values must be positive and finite")
    if np.unique(eps).size != eps.size:
        raise ValueError("eps values must be distinct")
    if order < 0:
        raise ValueError("order must be >= 0")

    theta = check_density(theta, disc.mesh.n_nodes)
    # assembled before the bordered LU exists, so its temporaries do not add to the LU's peak memory
    Kt = disc.theta_stiffness(theta)
    # a single free node has no λ₂ to certify against: each ε is then solved directly
    lam2 = disc.lambda2 if disc.pencil.n_free > 1 else None
    lam_eps = []
    for e in eps:
        lam = None if lam2 is None else _refined_eigenvalue(disc, Kt, e, lam2)
        lam_eps.append(direct_eigenvalue(disc, theta, e).lam if lam is None else lam)
    lam_eps = np.array(lam_eps)
    series = compute_series(disc, theta, order)

    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        trunc = np.array([series.truncated(e, order) for e in eps])
    finite = np.isfinite(lam_eps) & np.isfinite(trunc)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"eps = {eps[i]:g}: lambda_eps = {lam_eps[i]:g}, truncated sum = {trunc[i]:g} "
            "(both must be finite)"
        )
    rem = np.abs(lam_eps - trunc)

    floor = 100.0 * RESIDUAL_TOL * abs(series.lambdas[0])
    keep = rem > floor
    excluded = [float(e) for e in eps[~keep]]
    if excluded:
        warnings.warn(
            f"{len(excluded)} remainder point(s) at the solver floor excluded from the fit",
            stacklevel=2,
        )

    if keep.sum() >= 2:
        coef = np.polyfit(np.log(eps[keep]), np.log(rem[keep]), 1)
        slope, constant = float(coef[0]), float(np.exp(coef[1]))
    else:
        slope, constant = None, None

    return RemainderReport(
        eps_values=eps,
        order=order,
        lambda_eps=lam_eps,
        truncated=trunc,
        remainders=rem,
        slope=slope,
        constant=constant,
        excluded=excluded,
        floor=floor,
    )


def mode_bound_diagnostic(disc, samples: int = 10, seed: int = 0):
    """Max discrete energy norms of the first two modes over random densities.

    The continuous theory bounds ‖u1‖ and ‖u2‖ uniformly in the design but
    with non-constructive constants, so this is reported without a pass/fail
    threshold.
    """
    rng = np.random.default_rng(seed)
    pencil = disc.pencil
    max_u1 = max_u2 = 0.0
    for _ in range(samples):
        theta = rng.uniform(0.0, 1.0, disc.mesh.n_nodes)
        series = compute_series(disc, theta, 2)
        u1 = pencil.restrict(series.modes[1])
        u2 = pencil.restrict(series.modes[2])
        max_u1 = max(max_u1, float(np.sqrt(u1 @ (pencil.K @ u1))))
        max_u2 = max(max_u2, float(np.sqrt(u2 @ (pencil.K @ u2))))
    return {"max_energy_norm_u1": max_u1, "max_energy_norm_u2": max_u2, "samples": samples}
