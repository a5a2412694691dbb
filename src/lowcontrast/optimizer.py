"""Projected steepest descent on the relaxed objective under a volume
constraint, with the multiplier found by dichotomy.

Each iterate is θ = clip(θ_prev − ρ·g + Λ, 0, 1) where Λ is bisected so
the lumped volume matches the target; ρ follows Armijo backtracking
(grow once per accepted step, shrink on rejection), which guarantees the
monotone-descent invariant the acceptance tests rely on.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .relax import RelaxedEval, RelaxedObjective

_RHO_FLOOR_FACTOR = 1e-12
_BISECT_RELTOL = 1e-14
_ARMIJO_C = 1e-4  # sufficient-decrease constant
_ARMIJO_SHRINK = 0.5  # step-size factor on rejection (its inverse on acceptance)
_TOL_VOL_FACTOR = 1e-10  # volume tolerance of the projection, per unit of |Ω|


@dataclass
class OptimizerConfig:
    """Run parameters; defaults follow the stopping rules documented below.

    volume_fraction is the target m/|Ω| in (0,1).  A seed switches the
    uniform feasible initialization to a projected random one.  The first
    step |Ω|/λ0, the Armijo constants and the volume tolerance are fixed; the
    contrast ε and the discretization belong to the :class:`RelaxedObjective`.
    """

    volume_fraction: float
    max_iters: int = 2000
    tol_step: float = 1e-7
    seed: int | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is None and name == "seed":
                continue
            integral = name in ("max_iters", "seed")
            kind = numbers.Integral if integral else numbers.Real
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or (not integral and not math.isfinite(value))):
                expected = "an integer" if integral else "a finite real number"
                raise ValueError(f"{name} must be {expected}, got {value!r}")
            if name in ("max_iters", "tol_step") and value <= 0:
                raise ValueError(f"{name} must be positive")
            if name == "seed" and value < 0:
                raise ValueError(f"seed must be >= 0, got {value}")
        if not 0.0 < self.volume_fraction < 1.0:
            raise ValueError("volume_fraction must lie in (0, 1)")


@dataclass
class OptimizerState:
    """Current iterate plus per-iteration history (index 0 = initialization).

    ``rho`` is the step size the next step tries first; the accepted step
    sizes and shifts are kept only in ``rho_history`` and ``Lambda_history``.
    """

    theta: np.ndarray
    iter: int
    rho: float
    last_eval: RelaxedEval
    F_history: list = field(default_factory=list)
    vol_history: list = field(default_factory=list)
    rho_history: list = field(default_factory=list)
    Lambda_history: list = field(default_factory=list)
    l1_history: list = field(default_factory=list)
    stalled: bool = False
    converged: bool = False


def project_volume(lumped, theta_tilde, m: float, tol_vol: float):
    """Clip-plus-shift projection onto {θ in [0,1], Σ lumped·θ = m}.

    Bisects the monotone map Λ ↦ Σ lumped·clip(θ̃+Λ, 0, 1) on the bracket
    [−max θ̃, 1−min θ̃]; ties on flat plateaus resolve to the bisection
    midpoint.  Returns (θ, Λ).
    """
    lumped = np.asarray(lumped, dtype=float)
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if not np.isfinite(theta_tilde).all():
        raise ValueError("theta_tilde must be finite")
    total = float(lumped.sum())
    if not 0.0 < m < total:
        raise ValueError(f"target volume {m} outside (0, {total})")

    def vol(lam):
        return float(lumped @ np.clip(theta_tilde + lam, 0.0, 1.0))

    lo = float(-theta_tilde.max())
    hi = float(1.0 - theta_tilde.min())
    if not vol(lo) <= m <= vol(hi):
        # only rounding breaks the bracket: θ̃ + (1 − min θ̃) loses the 1 once
        # |θ̃| nears 2⁵³, as a huge ε makes it
        raise ValueError(
            f"theta_tilde spans [{theta_tilde.min():g}, {theta_tilde.max():g}], "
            "too wide to resolve the volume constraint"
        )
    lam = 0.5 * (lo + hi)
    while True:
        v = vol(lam)
        if abs(v - m) <= tol_vol:
            break
        if v < m:
            lo = lam
        else:
            hi = lam
        if hi - lo <= _BISECT_RELTOL * (1.0 + abs(lam)):
            break
        lam = 0.5 * (lo + hi)
    return np.clip(theta_tilde + lam, 0.0, 1.0), lam


def step(state: OptimizerState, config: OptimizerConfig, problem: RelaxedObjective):
    """One projected-descent step with Armijo backtracking.

    Mutates and returns ``state``; on step-size underflow the best strictly
    improving candidate (if any) is kept and the stall flag is set.
    """
    lumped = problem.lumped
    m = config.volume_fraction * float(lumped.sum())
    tol_vol = _TOL_VOL_FACTOR * float(lumped.sum())

    current = state.last_eval
    g = current.grad_density
    rho = state.rho
    # a floor on the step in θ, which lies in [0, 1]: ρ0 alone would stop a
    # run whose huge |g| makes every trial step, even at the floor, a full jump
    gmax = max(float(np.abs(g).max()), np.finfo(float).tiny)
    rho_floor = _RHO_FLOOR_FACTOR * min(state.rho_history[0], 1.0 / gmax)
    noise = 8.0 * np.finfo(float).eps * abs(current.F)
    # the previous iterate with its evaluation, shift and accepted step size
    previous = (state.theta, current, state.Lambda_history[-1], state.rho_history[-1])
    best = None

    while True:
        theta_new, lam = project_volume(lumped, state.theta - rho * g, m, tol_vol)
        ev = problem.evaluate(theta_new)
        decrease = float(lumped @ (g * (state.theta - theta_new)))
        if _ARMIJO_C * decrease <= noise:
            # requested decrease below the fp resolution of F: done at this rho
            state.converged = True
            if ev.F > current.F:
                theta_new, ev, lam, rho = previous
            break
        if ev.F <= current.F - _ARMIJO_C * decrease:
            state.rho = rho / _ARMIJO_SHRINK
            break
        if best is None or ev.F < best[1].F:
            best = (theta_new, ev, lam, rho)
        rho *= _ARMIJO_SHRINK
        if rho < rho_floor:
            state.stalled = True
            if best is not None and best[1].F < current.F:
                theta_new, ev, lam, rho = best
                state.rho = rho
            else:
                theta_new, ev, lam, rho = previous
            break

    l1 = float(lumped @ np.abs(theta_new - state.theta))
    state.theta = theta_new
    state.last_eval = ev
    state.iter += 1
    state.F_history.append(ev.F)
    state.vol_history.append(float(lumped @ theta_new))
    state.rho_history.append(rho)
    state.Lambda_history.append(lam)
    state.l1_history.append(l1)
    return state


def run(problem: RelaxedObjective, config: OptimizerConfig):
    """Minimize the relaxed objective from a feasible uniform start.

    Returns (state, final RelaxedEval, (interior_residual, sign_violation)).
    The KKT residuals use the sign-adjusted multiplier −Λ/ρ, with Λ re-bisected
    by projecting the final iterate once more (the shift stored during the
    last accepted step belongs to the projection that produced the iterate,
    which lags one step behind stationarity).
    """
    n_nodes = problem.mesh.n_nodes
    lumped = problem.lumped
    total = float(lumped.sum())
    m = config.volume_fraction * total
    tol_vol = _TOL_VOL_FACTOR * total

    if config.seed is None:
        theta0 = np.full(n_nodes, config.volume_fraction)
    else:
        rng = np.random.default_rng(config.seed)
        theta0, _ = project_volume(lumped, rng.uniform(0.0, 1.0, n_nodes), m, tol_vol)

    rho0 = total / problem.ground.lam
    problem.disc.solver  # the descent makes many singular solves: factor the pinned system for them
    ev0 = problem.evaluate(theta0)
    state = OptimizerState(theta=theta0, iter=0, rho=rho0, last_eval=ev0)
    state.F_history.append(ev0.F)
    state.vol_history.append(float(lumped @ theta0))
    state.rho_history.append(rho0)
    state.Lambda_history.append(0.0)
    state.l1_history.append(0.0)

    for _ in range(config.max_iters):
        step(state, config, problem)
        if state.l1_history[-1] <= config.tol_step * total or state.stalled or state.converged:
            break

    rho = state.rho_history[-1]
    tilde = state.theta - rho * state.last_eval.grad_density
    _, lam_probe = project_volume(lumped, tilde, m, tol_vol)
    kkt = problem.kkt(state.theta, state.last_eval.grad_density, -lam_probe / rho)
    return state, state.last_eval, kkt
