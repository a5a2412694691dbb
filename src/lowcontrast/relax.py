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
from .fem import check_density

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
    as a scatter) and the coupling C (Cv = ∇v·∇u0), which holds only its
    values and shares S's index arrays.  S's column indices are the mesh's
    own int32 triangle buffer, not a copy.  The basis gradients are formed
    once here, for ∇u0 and C, and not kept.  The state v(θ) is the
    discretization's :meth:`~lowcontrast.eig.Discretization.singular_solve`,
    which factors nothing for a single evaluation; the descent
    (:func:`lowcontrast.optimizer.run`), which evaluates many densities,
    factors the pinned system ``disc.solver`` before it builds its objective.
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
        self.lumped = self.pencil.lumped
        self._area = mesh.elem_area
        m = mesh.n_elems
        # row t: its vertices, on the triangles' own int32 buffer
        row_starts = np.arange(0, 3 * m + 1, 3, dtype=mesh.triangles.dtype)
        self._incidence = S = sparse.csr_matrix(
            (np.ones(3 * m), mesh.triangles.ravel(), row_starts), shape=(m, mesh.n_nodes)
        )
        grads = mesh.basis_gradients()
        grad_u0 = fem.element_gradient(mesh, self.ground.u, grads)
        coupling = np.einsum("tid,td->ti", grads, grad_u0)  # ∇φ_i·∇u0
        del grads
        # on S's own index arrays, the mesh's triangles, which neither matrix ever sorts in place
        self._coupling = sparse.csr_matrix((coupling.ravel(), S.indices, S.indptr), shape=S.shape)
        self.gu0_sq = np.einsum("td,td->t", grad_u0, grad_u0)
        # the lumped-mass projection of |∇u0|² onto the nodes, as evaluate projects e_lin
        self.p_nodal = S.T @ (self._area / 3.0 * self.gu0_sq) / self.lumped

    # -- state equation ----------------------------------------------------

    def _state(self, theta_e: np.ndarray):
        """Solve the shifted state equation for an element-averaged density.

        Returns the state v, λ1 and the element field ∇v·∇u0.
        """
        w = self.alpha * self._area * theta_e
        lam1 = float(w @ self.gu0_sq)
        f = lam1 * self.disc.Mu0 - (self._coupling.T @ w)[self.pencil.free]
        v = self.pencil.extend(self.disc.singular_solve(f))
        return v, lam1, self._coupling @ v

    # -- objective / derivatives --------------------------------------------

    def evaluate(self, theta) -> RelaxedEval:
        """F, λ1, the state v and the gradient density at θ.

        The element fields are computed in three element-sized buffers,
        overwritten in place; each product, sum and reduction takes the
        operands of the formulas in the module docstring in the same order,
        so the results are those of the out-of-place expressions bit for bit.
        """
        theta = check_density(theta, self.mesh.n_nodes)
        eps, alpha, area, gu0_sq = self.epsilon, self.alpha, self._area, self.gu0_sq
        theta_e = self._incidence @ theta
        theta_e /= 3.0
        v, lam1, gv_dot = self._state(theta_e)
        work = self._incidence @ theta**2  # θ²_e, then scratch
        work /= 3.0

        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            # mixing: εα Σ area·(θ_e − θ²_e)·|∇u0|²
            np.subtract(theta_e, work, out=work)
            work *= area
            work *= gu0_sq
            mixing = eps * alpha * float(np.sum(work))
            # first: α Σ area·θ_e·(|∇u0|² + ε ∇v·∇u0)
            np.multiply(eps, gv_dot, out=work)
            work += gu0_sq
            theta_e *= area
            theta_e *= work
            first = alpha * float(np.sum(theta_e))
            F = first - mixing

            # e_lin = α(2ε ∇v·∇u0 + (1 − ε)|∇u0|²), projected by lumped mass as p_nodal
            e_lin = gv_dot
            e_lin *= 2.0 * eps
            np.multiply(1.0 - eps, gu0_sq, out=work)
            e_lin += work
            e_lin *= alpha
            np.divide(area, 3.0, out=work)
            e_lin *= work
            grad = self._incidence.T @ e_lin
            grad /= self.lumped
            mixing_grad = (2.0 * eps * alpha) * theta
            mixing_grad *= self.p_nodal
            grad += mixing_grad
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
