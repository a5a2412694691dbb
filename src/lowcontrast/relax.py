"""Relaxed second-order objective over densities: value, gradient density,
Hessian quadratic form and first-order (KKT) residuals.

The objective is

    F(θ) = α ∫ θ (∇u0 + ε ∇v(θ))·∇u0  −  εα ∫ θ(1−θ) |∇u0|²,

with v(θ) the singular shifted state driven by θ; the global-α convention
makes F(χ) = λ1 + ε λ2 for 0/1 densities.  All integrals use element-wise
gradients, per-element vertex averages of θ, and avg(θ)−avg(θ²) for the
mixing term, so F is an exact quadratic in the nodal values; the gradient
and Hessian below are its exact derivatives (the θ-diagonal part of the
mixing term differentiates node-wise, not through the element average).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fem
from .expansion import check_density

_KKT_BAND = 0.01  # nodes within this distance of 0 or 1 count as at the bound


@dataclass(frozen=True)
class RelaxedEval:
    """One objective evaluation: value, first-order eigenvalue, state, gradient."""

    F: float
    lambda1: float
    v_inf: np.ndarray
    grad_density: np.ndarray


class RelaxedObjective:
    """The objective F at contrast ε on one :class:`~lowcontrast.eig.Discretization`.

    The nodal/element maps are fixed by the mesh and u0, so they are built
    once as two CSR matrices, a row per triangle and its vertices as columns:
    the incidence S (θ_e = Sθ/3; ones, so it rounds as a vertex mean and Sᵀ
    as a scatter) and the coupling C (Cv = ∇v·∇u0).  The shared pinned
    factorization is built first: built at the first evaluation instead, it
    raised the peak RSS of a 200² optimize run by about 4%.
    """

    def __init__(self, disc, epsilon: float):
        epsilon = float(epsilon)
        if not (np.isfinite(epsilon) and epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        mesh = disc.mesh
        self.disc = disc
        self.mesh = mesh
        self.alpha = disc.alpha
        self.epsilon = epsilon
        self.pencil = disc.pencil
        self.ground = disc.ground
        self.solver = disc.solver
        self.lumped = self.pencil.lumped
        self._area = mesh.elem_area
        m = mesh.n_elems
        pattern = (mesh.triangles.ravel(), np.arange(0, 3 * m + 1, 3))  # row t: its vertices
        self._incidence = sparse.csr_matrix((np.ones(3 * m), *pattern), shape=(m, mesh.n_nodes))
        grad_u0 = fem.element_gradient(mesh, self.ground.u)
        coupling = np.einsum("tid,td->ti", mesh.elem_basis_grad, grad_u0)  # ∇φ_i·∇u0
        self._coupling = sparse.csr_matrix((coupling.ravel(), *pattern), shape=(m, mesh.n_nodes))
        self.gu0_sq = np.einsum("td,td->t", grad_u0, grad_u0)
        self.p_nodal = self._project(self.gu0_sq)

    def _project(self, e: np.ndarray) -> np.ndarray:
        """Lumped-mass projection of an element field onto the nodes."""
        return self._incidence.T @ (self._area / 3.0 * e) / self.lumped

    # -- state equation ----------------------------------------------------

    def _state(self, theta_e: np.ndarray):
        """Solve the shifted state equation for an element-averaged density.

        Returns the state v, λ1 and the element field ∇v·∇u0.
        """
        w = self.alpha * self._area * theta_e
        lam1 = float(w @ self.gu0_sq)
        f = lam1 * self.solver.Mu0 - (self._coupling.T @ w)[self.pencil.free]
        v = self.pencil.extend(self.solver.solve(f))
        return v, lam1, self._coupling @ v

    # -- objective / derivatives --------------------------------------------

    def evaluate(self, theta) -> RelaxedEval:
        theta = check_density(theta, self.mesh.n_nodes)
        eps, alpha = self.epsilon, self.alpha
        theta_e = self._incidence @ theta / 3.0
        theta_sq_e = self._incidence @ theta**2 / 3.0
        v, lam1, gv_dot = self._state(theta_e)

        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            first = alpha * float(np.sum(self._area * theta_e * (self.gu0_sq + eps * gv_dot)))
            mixing = eps * alpha * float(np.sum(self._area * (theta_e - theta_sq_e) * self.gu0_sq))
            F = first - mixing

            e_lin = alpha * (2.0 * eps * gv_dot + (1.0 - eps) * self.gu0_sq)
            grad = self._project(e_lin) + (2.0 * eps * alpha) * theta * self.p_nodal
        if not (np.isfinite(F) and np.isfinite(grad).all()):
            raise ValueError(f"epsilon = {eps:g} overflows the objective or its gradient")
        return RelaxedEval(F=F, lambda1=lam1, v_inf=v, grad_density=grad)

    def hessian_form(self, phi) -> float:
        """Quadratic form F''(φ,φ); θ-independent since F is quadratic."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.mesh.n_nodes,):
            raise ValueError("direction must be a nodal field")
        phi_e = self._incidence @ phi / 3.0
        _, _, gv_dot = self._state(phi_e)
        bilinear = float(np.sum(self._area * phi_e * gv_dot))
        diag = float(np.sum(self.lumped * phi**2 * self.p_nodal))
        return 2.0 * self.epsilon * self.alpha * (bilinear + diag)

    def kkt(self, theta, grad_density, multiplier: float):
        """First-order optimality residuals for a sign-adjusted multiplier.

        ``grad_density`` is the gradient g at ``theta``, as returned by
        :meth:`evaluate`.  With the band b = 0.01, minimality requires
        g + Λ' ≈ 0 where b < θ < 1−b, ≥ 0 where θ ≤ b and ≤ 0 where
        θ ≥ 1−b; returns (interior_residual, sign_violation), with empty
        maxima counting as zero.
        """
        if not np.isfinite(multiplier):
            raise ValueError("multiplier must be finite")
        theta = check_density(theta, self.mesh.n_nodes)
        r = np.asarray(grad_density, dtype=float) + multiplier
        interior = (theta > _KKT_BAND) & (theta < 1.0 - _KKT_BAND)
        interior_residual = float(np.abs(r[interior]).max()) if interior.any() else 0.0
        low, high = theta <= _KKT_BAND, theta >= 1.0 - _KKT_BAND
        violations = [0.0]
        if low.any():
            violations.append(float((-r[low]).max()))
        if high.any():
            violations.append(float(r[high].max()))
        return interior_residual, max(violations)
