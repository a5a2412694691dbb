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

import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem
from .eig import _SHIFT_SHARE, RESIDUAL_TOL, SolverError, certified_smallest_pair
from .eig import _refine, _ritz_basis, _rounding_share, _slice

_RITZ_ORDER = 6  # the cascade order whose modes are the ε-sweep's Rayleigh–Ritz basis


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
    further order costs one singular solve (``disc.singular_solve``, on the
    pinned system: Kθ is assembled first), which checks the Fredholm
    compatibility of every load; the normalization identities
    u0ᵀMu_i = −½ Σ_{k=1}^{i−1} u_kᵀMu_{i−k} are enforced by shifting along u0.
    An order whose modes exceed physical memory raises ValueError before they are allocated.
    """
    theta = check_density(theta, disc.mesh.n_nodes)
    if order < 0:
        raise ValueError("order must be >= 0")
    need = 8.0 * (order + 1) * disc.mesh.n_nodes  # bytes of the full-node modes
    if hasattr(os, "sysconf") and need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ValueError(f"order {order} needs {need / 2**30:.3g} GiB of modes, more than physical memory")

    pencil = disc.pencil
    lam0, u0f = disc.ground.lam, disc.u0f
    Kt = disc.theta_stiffness(theta)
    M = pencil.M

    lams = [lam0]
    modes = [u0f]
    Mmodes = [disc.Mu0]  # cache M @ u_k
    full_modes = np.zeros((order + 1, pencil.n_nodes))
    full_modes[0, pencil.free] = u0f

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
            v = disc.singular_solve(f)
        except SolverError as exc:
            raise SolverError(f"cascade order {i}: {exc}") from exc

        shift = -0.5 * sum(
            float(modes[k] @ Mmodes[i - k]) for k in range(1, i)
        )
        u_i = v + shift * u0f
        modes.append(u_i)
        Mmodes.append(M @ u_i)
        full_modes[i, pencil.free] = u_i

    return ExpansionSeries(order=order, lambdas=np.array(lams), modes=full_modes)


def direct_eigenvalue(disc, theta, epsilon: float):
    """Smallest eigenpair of the two-phase pencil (K0 + ε·Kθ, M) at finite contrast.

    Kθ uses the per-element vertex average of θ, so the coefficient is
    α·(1 + ε·avg θ); K0 and M are the discretization's α-pencil.  The pair is
    :func:`eig.certified_smallest_pair`, on LUs of K0 + εKθ − τM from
    τ = min(1, 1 + ε)·_SHIFT_SHARE·``disc.faber_krahn``: K0 + εKθ ≥
    min(1, 1 + ε)·K0 (Weyl) and Faber–Krahn keep it below λ_ε.
    A K0 + εKθ that overflows raises ValueError.
    """
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    if epsilon <= -1:
        raise ValueError("epsilon must exceed -1 for a positive coefficient")
    theta = check_density(theta, disc.mesh.n_nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        K = fem.add_on_pattern(disc.pencil.K, disc.theta_stiffness(theta), epsilon)
    if not np.isfinite(K.data).all():
        raise ValueError(f"epsilon = {epsilon:g} overflows the stiffness at alpha = {disc.alpha:g}")
    lower = min(1.0, 1.0 + epsilon) * _SHIFT_SHARE * disc.faber_krahn
    return certified_smallest_pair(replace(disc.pencil, K=K), lower)


def _refined_eigenvalue(disc, Kt, epsilon: float, S, Z, A0, At):
    """``(λ, top)``: an eigenvalue of K0 + ε·Kθ refined from a Ritz start and top = λ(1 + δ), or None.

    The lowest Ritz pair of A0 + ε·At on the basis S·Z (:func:`eig._ritz_basis`,
    A0 = SᵀK0S, At = SᵀKθS), its value clamped to the bounds it meets in exact
    arithmetic, goes to :func:`eig._refine` on the deflated singular solve
    b ↦ solve(b − (u₀ᵀb)·Mu₀) (Mu_j ↦ u_j/(λ_j − λ₀), Mu₀ ↦ 0).  λ is
    kept when it meets the residual contract and λ₀ ≤ λ ≤ R_ε(u₀) (δ: :func:`eig._rounding_share`);
    nothing is factored.  None: the step cap was reached, the arithmetic overflowed (huge ε) or a check failed.
    """
    M, K0, u0, Mu0, lam0 = disc.pencil.M, disc.pencil.K, disc.u0f, disc.Mu0, disc.ground.lam
    solve = disc.singular_solve
    with np.errstate(over="raise", invalid="raise"):
        try:
            K = fem.add_on_pattern(K0, Kt, epsilon)
            upper = float(u0 @ (K @ u0)) / float(u0 @ (M @ u0))  # R_ε(u₀) = λ₀ + ε·u₀ᵀKθu₀
            vals, Y = np.linalg.eigh(Z.T @ (A0 + epsilon * At) @ Z)
            lam = min(max(float(vals[0]), lam0), upper)
            lam, u, res = _refine(K, M, lam, S @ (Z @ Y[:, 0]), lambda b: solve(b - float(u0 @ b) * Mu0))
        except FloatingPointError:
            return None
    if not (res <= RESIDUAL_TOL and lam0 <= lam <= upper):
        return None
    return lam, lam * (1.0 + _rounding_share(K, M, lam, u))


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
    Kθ comes first, then the cascade to N = max(order, _RITZ_ORDER); its
    order-``order`` prefix is the series reported.  K0, Kθ and M are projected
    once onto its modes, which span u_ε up to O(ε^{N+1}).  Refine, then certify: each λ_ε
    is refined from its Ritz start (:func:`_refined_eigenvalue`), then, from the largest ε
    down, certified under a floor below λ₂ (Krahn–Szegő, raised by a pivot count) or
    solved by :func:`direct_eigenvalue`; the pinned LU goes before the first such LU.
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
    # assembled before the pinned LU exists, so its temporaries do not add to the LU's peak memory
    Kt = disc.theta_stiffness(theta)
    series = compute_series(disc, theta, max(order, _RITZ_ORDER))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        trunc = np.array([series.truncated(e, order) for e in eps])
    S = series.modes[:, disc.pencil.free].T  # the full-node modes go before the basis is built
    del series
    S, Z = _ritz_basis(S, disc.pencil.M)
    ritz = (S, Z, S.T @ (disc.pencil.K @ S), S.T @ (Kt @ S))
    refined = [_refined_eigenvalue(disc, Kt, e, *ritz) for e in eps]
    del S, Z, ritz  # the Ritz basis goes before any certificate LU
    below_lambda2 = 2.0 * disc.faber_krahn  # Krahn–Szegő: λ₂(Ω) ≥ 2π·j₀₁²·α/|Ω|, and the P1 λ₂ lies above it
    lam_eps = []
    for e, pair in zip(eps, refined):
        lam, top = pair or (None, np.nan)
        # K0 + εKθ ≥ K0 (Weyl): λ₂ of the ε-pencil lies above λ₂(K0), so a top under it certifies λ
        if not top < below_lambda2:  # a NaN top is refuted too
            vars(disc).pop("solver", None)  # the pinned LU goes before any certificate LU
            if top < np.inf and _slice(fem.add_on_pattern(disc.pencil.K, disc.pencil.M, -top))[1] <= 1:
                below_lambda2 = top
            else:
                lam = direct_eigenvalue(disc, theta, e).lam
        lam_eps.append(lam)
    lam_eps = np.array(lam_eps)
    finite = np.isfinite(lam_eps) & np.isfinite(trunc)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"eps = {eps[i]:g}: lambda_eps = {lam_eps[i]:g}, truncated sum = {trunc[i]:g} "
            "(both must be finite)"
        )
    rem = np.abs(lam_eps - trunc)

    floor = 100.0 * RESIDUAL_TOL * abs(disc.ground.lam)
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
